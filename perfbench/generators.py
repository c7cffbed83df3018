"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
text, the same JSON and the same request list.  Inputs are produced as the
formats the engine reads (Cedar policy text, entities JSON, request tuples),
so that parsing and loading stay part of what the benchmark measures.
"""

from __future__ import annotations

import json
import random

I64_MAX = (1 << 63) - 1
I64_MIN = -(1 << 63)


def _uid(entity_type: str, entity_id: str) -> dict:
    return {"type": entity_type, "id": entity_id}


# ---------------------------------------------------------------------------
# authz-fixture: tinytodo policies over a 50-entity store
# ---------------------------------------------------------------------------

TINYTODO_APP = ("Application", "TinyTodo")


def fixture_store_json(seed: int) -> str:
    """The 50-entity store of criterion 8: one application, ten teams (five
    nested under the other five), 25 users and 14 lists.  Two teams carry the
    names the fixture policies test for, so every policy can fire.

    Users and lists are placed round-robin as in criterion 8; the seed only
    shuffles which user and list ids land in each place, so every seed gives
    the same shape and the same work per request on average."""
    rng = random.Random(seed)
    app = _uid(*TINYTODO_APP)
    teams = ["admin", "interns"] + [f"t{i}" for i in range(2, 10)]
    users = [f"u{i}" for i in range(25)]
    lists = [f"l{i}" for i in range(14)]
    rng.shuffle(users)
    rng.shuffle(lists)
    entities = [{"uid": app, "attrs": {}, "parents": []}]
    for i, team in enumerate(teams):
        parents = [app]
        if i >= 5:
            parents.append(_uid("Team", teams[i - 5]))
        entities.append({"uid": _uid("Team", team), "attrs": {}, "parents": parents})
    for i, user in enumerate(users):
        entities.append(
            {
                "uid": _uid("User", user),
                "attrs": {"name": f"user {user}"},
                "parents": [_uid("Team", teams[i % 10]), app],
            }
        )
    for i, lst in enumerate(lists):
        entities.append(
            {
                "uid": _uid("List", lst),
                "attrs": {
                    "name": f"list {lst}",
                    "owner": {"__entity": _uid("User", users[i])},
                    "readers": {"__entity": _uid("Team", teams[i % 10])},
                    "editors": {"__entity": _uid("Team", teams[(i + 1) % 10])},
                    "tasks": [{"id": 1, "name": "x", "state": "todo"}],
                },
                "parents": [app],
            }
        )
    return json.dumps(entities)


def fixture_requests(seed: int, actions: list, count: int) -> list:
    """(principal, action, resource) uid triples.  ``actions`` lists
    (action_id, resource_type) pairs from the schema."""
    rng = random.Random(seed ^ 0x5EED)
    out = []
    for _ in range(count):
        action, resource_type = rng.choice(actions)
        if resource_type == "Application":
            resource = TINYTODO_APP
        else:
            resource = ("List", f"l{rng.randrange(14)}")
        out.append((("User", f"u{rng.randrange(25)}"), ("Action", action), resource))
    return out


# ---------------------------------------------------------------------------
# authz-linked: ~10^4 entities and ~5x10^3 template links
# ---------------------------------------------------------------------------

LINKED_POLICIES = """\
@id("public-view")
permit(principal, action == Action::"view", resource)
when { resource.public };

@id("owner")
permit(principal, action, resource)
when { resource.owner == principal };

@id("senior-delete")
forbid(principal, action == Action::"delete", resource)
unless { 3 <= principal.level };

@id("suspended")
forbid(principal in Group::"suspended", action, resource);

@id("share")
permit(principal in ?principal, action in Action::"read", resource == ?resource);

@id("editor")
permit(principal == ?principal, action, resource == ?resource)
unless { resource.locked };
"""

LINKED_ACTIONS = ("view", "comment", "edit", "delete")


class LinkedInputs:
    """Generated inputs of the authz-linked workload.

    ``entities_json`` is the entities file and ``links`` are (template_id,
    {slot: (type, id)}, link_id) rows.
    """

    def __init__(self, seed: int, groups: int, users: int, docs: int, links: int):
        rng = random.Random(seed)
        self.seed = seed
        self.policy_text = LINKED_POLICIES
        entities = []

        def add(ref, attrs, parents):
            entities.append({"uid": _uid(*ref), "attrs": attrs, "parents": [_uid(*p) for p in parents]})

        read = ("Action", "read")
        add(read, {}, [])
        for action in LINKED_ACTIONS:
            add(("Action", action), {}, [read] if action in ("view", "comment") else [])
        group_refs = [("Group", "suspended")] + [("Group", f"g{i}") for i in range(1, groups)]
        add(group_refs[0], {}, [])
        for i in range(1, groups):
            # Groups nest under an earlier group most of the time: a forest a
            # few levels deep.
            parents = [group_refs[rng.randrange(1, i)]] if i > 1 and rng.random() < 0.8 else []
            add(group_refs[i], {}, parents)
        self.users = [("User", f"u{i}") for i in range(users)]
        self.members: dict = {g: [] for g in group_refs}
        for user in self.users:
            picks = rng.sample(group_refs[1:], rng.randint(1, 3))
            if rng.random() < 0.01:
                picks.append(group_refs[0])
            for g in picks:
                self.members[g].append(user)
            add(user, {"level": rng.randrange(6)}, picks)
        self.docs = [("Doc", f"d{i}") for i in range(docs)]
        for doc in self.docs:
            add(
                doc,
                {
                    "owner": {"__entity": _uid(*rng.choice(self.users))},
                    "public": rng.random() < 0.2,
                    "locked": rng.random() < 0.3,
                },
                [],
            )
        self.entities_json = json.dumps(entities)

        self.links = []
        for n in range(links):
            resource = rng.choice(self.docs)
            if rng.random() < 0.6:
                principal = rng.choice(group_refs[1:])
                self.links.append(("share", {"?principal": principal, "?resource": resource}, f"share{n}"))
            else:
                principal = rng.choice(self.users)
                self.links.append(("editor", {"?principal": principal, "?resource": resource}, f"editor{n}"))

    def requests(self, count: int) -> list:
        """Half the requests follow a link (a member of the linked group, or
        the linked user, on the linked document); the rest are uniform."""
        rng = random.Random(self.seed ^ 0x2E9)
        out = []
        for _ in range(count):
            action = ("Action", rng.choice(LINKED_ACTIONS))
            if rng.random() < 0.5:
                template, bindings, _ = rng.choice(self.links)
                principal = bindings["?principal"]
                if principal[0] == "Group":
                    principal = rng.choice(self.members[principal] or self.users)
                out.append((principal, action, bindings["?resource"]))
            else:
                out.append((rng.choice(self.users), action, rng.choice(self.docs)))
        return out


# ---------------------------------------------------------------------------
# analyze-mix: random pairs in the shape of the criterion-6c generator
# ---------------------------------------------------------------------------

RANDOM_PAIR_SCHEMA = """\
entity App;
entity Group in [Group];
entity User in [Group];
action view, edit
    appliesTo { principal: [User], resource: [App], context: { flag: Bool, opt?: Bool } };
"""

# Every random policy is built from these atoms and from scopes equal to one
# of them, so two stores with the same atom values get the same decisions.
ATOMS = (
    'principal in Group::"0"',
    'principal in Group::"1"',
    'principal == User::"0"',
    'resource == App::"0"',
    'resource == App::"1"',
    "context.flag",
    "(if context has opt then context.opt else false)",
    'action == Action::"view"',
    'Group::"0" in Group::"1"',
)

_PRINCIPAL_SCOPES = ("principal", 'principal in Group::"0"', 'principal in Group::"1"', 'principal == User::"0"')
_ACTION_SCOPES = ("action", 'action == Action::"view"', 'action == Action::"edit"')
_RESOURCE_SCOPES = ("resource", 'resource == App::"0"', 'resource == App::"1"')


def _condition(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.4:
        return ATOMS[rng.randrange(len(ATOMS))]
    k = rng.randrange(3)
    if k == 0:
        return f"!({_condition(rng, depth - 1)})"
    op = "&&" if k == 1 else "||"
    return f"({_condition(rng, depth - 1)} {op} {_condition(rng, depth - 1)})"


def random_policy_set(rng: random.Random, tag: str) -> str:
    """One to three policies.  The first permits on every action, so that
    both environments of a pair nearly always differ syntactically and go to
    the solver: the share of pairs that reach it then varies little by seed."""
    out = []
    for i in range(rng.randint(1, 3)):
        effect = "permit" if i == 0 else rng.choice(("permit", "forbid"))
        action = "action" if i == 0 else rng.choice(_ACTION_SCOPES)
        scope = ", ".join((rng.choice(_PRINCIPAL_SCOPES), action, rng.choice(_RESOURCE_SCOPES)))
        conds = "".join(
            f"\n{rng.choice(('when', 'unless'))} {{ {_condition(rng, 2)} }}" for _ in range(rng.randint(0, 2))
        )
        out.append(f'@id("{tag}{i}")\n{effect}({scope}){conds};\n')
    return "\n".join(out)


def random_pairs(seed: int, count: int) -> list:
    """(old_text, new_text) pairs of random policy sets."""
    rng = random.Random(seed ^ 0xC0FFEE)
    return [(random_policy_set(rng, "a"), random_policy_set(rng, "b")) for _ in range(count)]


# ---------------------------------------------------------------------------
# analyze-mix: arithmetic pairs with known verdicts
# ---------------------------------------------------------------------------

ARITH_SCHEMA = """\
entity User;
entity Doc;
action read appliesTo { principal: [User], resource: [Doc], context: { n: Long } };
"""


def _permit_when(cond: str) -> str:
    return f"permit(principal, action, resource) when {{ {cond} }};\n"


def arith_pairs(seed: int) -> list:
    """(old_text, new_text, expected verdict, probes) tuples.

    The verdicts follow from 64-bit semantics: an addition that overflows is
    an evaluation error, so the policy is not satisfied.  ``probes`` are
    context values ``n`` at the boundaries of each pair; for a ``differs``
    pair at least one of them is decided differently by the two sets.
    """
    rng = random.Random(seed ^ 0xA517)
    k = rng.randint(-1000, 1000)
    d = rng.randint(1, 9)
    c = rng.randint(1, 9)
    probes = [I64_MIN, I64_MAX - c, I64_MAX, 0] + [k + i for i in range(-c - 1, d + 2)]
    return [
        (_permit_when(f"{k} < context.n"), _permit_when(f"{k + 1} <= context.n"), "equivalent", probes),
        (_permit_when(f"context.n + {c} <= {k}"), _permit_when(f"context.n <= {k - c}"), "equivalent", probes),
        (_permit_when(f"{k} < context.n"), _permit_when(f"{k + d} < context.n"), "differs", probes),
        (_permit_when(f"{k} < context.n + {c}"), _permit_when(f"{k - c} < context.n"), "differs", probes),
    ]
