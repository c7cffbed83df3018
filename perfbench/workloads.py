"""The benchmark workloads.

Each workload is one client in a closed loop: the next operation starts when
the previous one returns.  An operation is one authorization decision
(``authz-*``) or one policy-set pair taken through the ``analyze
equivalence`` flow (``analyze-mix``).  Answers are checked outside the timed
spans.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import NamedTuple

import generators
import oracles
from cedar_engine import (
    EntityRef,
    PolicySet,
    SolverConfig,
    analyze_equivalence,
    authorize,
    load_entities,
    load_request,
    merge_action_hierarchy,
    parse_expr,
    parse_policies,
    parse_schema,
    validate,
)
from cedar_engine.ast import Effect, VLong, link, toexp, vrecord
from cedar_engine.entities import EntityStore, Request


class Steps:
    """Wall time of each named set-up step, summed over its calls, with the
    number of policies or entities each produced."""

    def __init__(self):
        self.seconds: dict = {}
        self.sizes: dict = {}

    def time(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0
        if isinstance(out, EntityStore):
            self.sizes[name] = self.sizes.get(name, 0) + len(out.entries)
        elif isinstance(out, list):
            self.sizes[name] = self.sizes.get(name, 0) + len(out)
        return out


def _policy_exprs(policies) -> list:
    return [(p.id, p.effect is Effect.PERMIT, toexp(p)) for p in policies]


def _requests(triples) -> list:
    return [Request(EntityRef(*p), EntityRef(*a), EntityRef(*r), vrecord({})) for p, a, r in triples]


def interleave(groups: list, rng: random.Random) -> list:
    """One pass over every item of every group, with each group spread evenly
    through the pass: a run that stops part-way through a pass has still done
    about its share of each kind of operation."""
    keyed = []
    for group in groups:
        group = list(group)
        rng.shuffle(group)
        offset = rng.random()
        keyed += [((j + offset) / len(group), rng.random(), item) for j, item in enumerate(group)]
    keyed.sort(key=lambda k: k[:2])
    return [item for _, _, item in keyed]


class Workload:
    name = ""
    op = ""  # what one operation is, for the report
    tail_pct = 99.0  # fixed per workload so that runs stay comparable
    setup_reps = 5  # the first before measuring, the rest spread over the run
    built = ()  # attributes setup() builds, dropped before it builds them again
    warmup = 1  # untimed operations before measuring
    root_span = "op"

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.expected: dict = {}

    def read(self, *parts) -> str:
        with open(os.path.join(self.root, "fixtures", *parts), encoding="utf-8") as fh:
            return fh.read()

    def setup(self, steps: Steps) -> None:
        """Parse, load and build the engine's inputs; timed as set-up."""
        raise NotImplementedError

    def prepare(self) -> list:
        """Return the operation schedule; compute expected answers that are
        cheap to hold."""
        raise NotImplementedError

    def late_failures(self) -> int:
        """Operations found wrong by checks deferred until after measuring."""
        return 0

    def run(self, item):
        raise NotImplementedError

    def traced_run(self, tracer, item):
        return tracer.call(self.root_span, self.run, item)

    def check(self, item, result) -> bool:
        raise NotImplementedError

    def work(self, item) -> int:
        """Units of work in one operation, for the throughput report."""
        return 1


# ---------------------------------------------------------------------------
# authz-fixture and authz-linked
# ---------------------------------------------------------------------------


class _Authz(Workload):
    """Decisions are checked against the oracle after measuring, so that the
    oracle's own store and desugared policies never share the process's peak
    memory with the engine.  While measuring, every decision must equal the
    first one made for the same request."""

    op = "decision"
    root_span = "authorizer.authorize"

    def schedule(self, requests: list) -> list:
        self.requests = requests
        self.first: dict = {}
        self.uses: dict = {}
        return list(range(len(requests)))

    def run(self, i):
        return authorize(self.pset, self.store, self.requests[i])

    def check(self, i, decision):
        self.uses[i] = self.uses.get(i, 0) + 1
        return self.first.setdefault(i, decision) == decision

    def late_failures(self):
        self.expected = self.oracle(sorted(self.first))
        return sum(self.uses[i] for i, want in self.expected.items() if not oracles.same_decision(self.first[i], want))

    def oracle(self, seen: list) -> dict:
        """Expected (verdict, determining, errored) for requests by index."""
        raise NotImplementedError


class AuthzFixture(_Authz):
    """tinytodo policies and schema over the 50-entity store of criterion 8."""

    name = "authz-fixture"
    # p99 of a 0.1-ms decision is set by how often the shared machine
    # interrupts the process, which changes from minute to minute; p90 is
    # set by the dearest requests.
    tail_pct = 90.0
    setup_reps = 31
    built = ("policies", "schema", "store", "pset")
    warmup = 500
    pool = 4096

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.policy_text = self.read("tinytodo", "policies.cedar")
        self.schema_text = self.read("tinytodo", "tinytodo.cedarschema")
        self.entities_json = generators.fixture_store_json(seed)

    def setup(self, steps):
        self.policies = steps.time("parse_policies", parse_policies, self.policy_text)
        self.schema = steps.time("parse_schema", parse_schema, self.schema_text)
        store = steps.time("load_entities", load_entities, self.entities_json)
        self.store = steps.time("merge_action_hierarchy", merge_action_hierarchy, store, self.schema)
        self.pset = steps.time("from_policies", PolicySet.from_policies, self.policies)

    def prepare(self):
        actions = [(ref.entity_id, decl.resource_types[0]) for ref, decl in self.schema.actions.items()]
        return self.schedule(_requests(generators.fixture_requests(self.seed, actions, self.pool)))

    def oracle(self, seen):
        store = oracles.with_actions(oracles.store_from_json(json.loads(self.entities_json)), self.schema)
        exprs = _policy_exprs(self.policies)
        return {i: oracles.decide(exprs, store, self.requests[i]) for i in seen}

    def late_failures(self):
        # One more decision: the README's worked example on the fixture's own
        # entities is DENY, determined by policy4.
        store = merge_action_hierarchy(load_entities(self.read("tinytodo", "entities.json")), self.schema)
        decision = authorize(self.pset, store, load_request(self.read("tinytodo", "requests", "aaron_createlist.json")))
        documented = (decision.verdict.value, decision.determining) == ("DENY", frozenset({"policy4"}))
        return super().late_failures() + (0 if documented else 1)


class AuthzLinked(_Authz):
    """~10^4 entities in nested groups and ~5x10^3 template links."""

    name = "authz-linked"
    tail_pct = 95.0
    setup_reps = 4
    built = ("policies", "store", "pset")
    warmup = 5
    pool = 1024
    # The oracle evaluates every one of the ~5x10^3 policies for a request,
    # so it checks a seeded sample of the requests decided.
    oracle_sample = 24

    def __init__(self, root, seed):
        super().__init__(root, seed)
        # Only the generated inputs are kept, so the benchmark adds little to
        # the heap the engine's garbage collections walk.
        inputs = generators.LinkedInputs(seed, groups=400, users=7000, docs=2600, links=5000)
        self.policy_text = inputs.policy_text
        self.entities_json = inputs.entities_json
        self.links = [
            (template, {slot: EntityRef(*ref) for slot, ref in bindings.items()}, link_id)
            for template, bindings, link_id in inputs.links
        ]
        self.triples = inputs.requests(self.pool)

    def setup(self, steps):
        self.policies = steps.time("parse_policies", parse_policies, self.policy_text)
        self.store = steps.time("load_entities", load_entities, self.entities_json)
        self.pset = steps.time("from_policies", PolicySet.from_policies, self.policies, self.links)

    def prepare(self):
        return self.schedule(_requests(self.triples))

    def oracle(self, seen):
        templates = {p.id: p for p in self.policies if p.is_template()}
        closed = [p for p in self.policies if not p.is_template()]
        closed += [link(templates[t], bindings, link_id) for t, bindings, link_id in self.links]
        exprs = _policy_exprs(closed)
        store = oracles.store_from_json(json.loads(self.entities_json))
        sample = random.Random(self.seed ^ 0x0AC1E).sample(seen, min(self.oracle_sample, len(seen)))
        return {i: oracles.decide(exprs, store, self.requests[i]) for i in sample}


# ---------------------------------------------------------------------------
# analyze-mix
# ---------------------------------------------------------------------------

class Pair(NamedTuple):
    kind: str  # pairs of one kind are spread evenly through the schedule
    name: str
    old: str
    new: str
    schema: str  # key into AnalyzeMix.schemas
    answer: tuple  # how the expected verdicts are known: (method, detail)


_RANDOM_IDS = {"App": ["0", "1", "2"], "Group": ["0", "1"], "User": ["0", "1"]}
_APPS = (("tinytodo", "tinytodo.cedarschema"), ("gdrive", "gdrive.cedarschema"), ("github", "github.cedarschema"))


class AnalyzeMix(Workload):
    """Policy-set pairs through validate + analyze_equivalence on the bundled solver.

    A pair's expectation maps each action id to its verdict.  An environment
    that comes back unknown or timeout is undecided: it lowers the decided
    ratio but is not a wrong answer.  The bundled solver leaves the
    arithmetic pairs undecided today.
    """

    name = "analyze-mix"
    op = "pair"
    tail_pct = 75.0
    setup_reps = 10
    built = ("schemas", "sets")
    root_span = "analyze.pair"
    random_pairs = 20
    passes = 8

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.config = SolverConfig.bundled()
        self.schema_texts = {"random": generators.RANDOM_PAIR_SCHEMA, "arith": generators.ARITH_SCHEMA}
        for app, schema_file in _APPS:
            self.schema_texts[app] = self.read(app, schema_file)
            self.schema_texts[app + "-bug"] = self.read(app, "schema_bug.cedarschema")
        self.pairs = [
            Pair(
                "fixture",
                "guardrail",
                self.read("tinytodo", "policies_guardrail_old.cedar"),
                self.read("tinytodo", "policies_guardrail_new.cedar"),
                "tinytodo",
                ("differs", {"GetOwnedLists"}),
            )
        ]
        for app, _ in _APPS:
            old, new = self.read(app, "policies.cedar"), self.read(app, "refactored.cedar")
            # Under their own schema the refactorings are statically identical.
            self.pairs.append(Pair("static", app + "-refactor", old, new, app, ("differs", set())))
            self.pairs.append(Pair("fixture", app + "-refactor-bug", old, new, app + "-bug", ("differs", {"bug_inducing"})))
        for i, (old, new) in enumerate(generators.random_pairs(seed, self.random_pairs)):
            self.pairs.append(Pair("random", f"random{i}", old, new, "random", ("brute_force", None)))
        for i, (old, new, verdict, probes) in enumerate(generators.arith_pairs(seed)):
            self.pairs.append(Pair("arith", f"arith{i}", old, new, "arith", ("known", (verdict, probes))))
        self.envs = 0
        self.decided = 0

    def setup(self, steps):
        self.schemas = {k: steps.time("parse_schema", parse_schema, t) for k, t in self.schema_texts.items()}
        self.sets = []
        for pair in self.pairs:
            a = steps.time("parse_policies", parse_policies, pair.old)
            b = steps.time("parse_policies", parse_policies, pair.new)
            a = steps.time("from_policies", PolicySet.from_policies, a)
            b = steps.time("from_policies", PolicySet.from_policies, b)
            self.sets.append((a, b))

    def _oracle_verdicts(self, i, store, request) -> tuple:
        a, b = self.sets[i]
        full = oracles.with_actions(store, self.schemas[self.pairs[i].schema])
        return (
            oracles.decide(_policy_exprs(a.closed_policies), full, request)[0],
            oracles.decide(_policy_exprs(b.closed_policies), full, request)[0],
        )

    def prepare(self):
        universe = None
        for i, pair in enumerate(self.pairs):
            schema = self.schemas[pair.schema]
            how, detail = pair.answer
            # Actions without principal or resource types have no environment.
            actions = [ref.entity_id for ref, d in schema.actions.items() if d.principal_types and d.resource_types]
            if how == "brute_force":
                if universe is None:
                    atoms = [parse_expr(a) for a in generators.ATOMS]
                    universe = oracles.Universe(schema, atoms, _RANDOM_IDS)
                a, b = self.sets[i]
                differs = universe.differing_actions(_policy_exprs(a.closed_policies), _policy_exprs(b.closed_policies))
            elif how == "known":
                verdict, probes = detail
                differs = set(actions) if verdict == "differs" else set()
                self._confirm_known(i, schema, differs, probes)
            else:
                differs = detail
            self.expected[i] = {a: ("differs" if a in differs else "equivalent") for a in actions}
        rng = random.Random(self.seed ^ 0x5C4ED)
        kinds: dict = {}
        for i, pair in enumerate(self.pairs):
            kinds.setdefault(pair.kind, []).append(i)
        return [i for _ in range(self.passes) for i in interleave(list(kinds.values()), rng)]

    def _confirm_known(self, i, schema, differs, probes):
        """Arithmetic verdicts are known by construction.  Evaluating both sets
        on boundary values confirms them, so a generator mistake shows."""
        (action,) = list(schema.actions)
        seen = False
        for n in probes:
            request = Request(EntityRef("User", "u"), action, EntityRef("Doc", "d"), vrecord({"n": VLong(n)}))
            da, db = self._oracle_verdicts(i, EntityStore({}), request)
            seen |= da != db
        if seen != bool(differs):
            raise RuntimeError(f"arithmetic pair {self.pairs[i].name} does not have its stated verdict")

    def run(self, i):
        a, b = self.sets[i]
        schema = self.schemas[self.pairs[i].schema]
        reports = (validate(a.all_policies(), schema), validate(b.all_policies(), schema))
        return reports, analyze_equivalence(a, b, schema, config=self.config)

    def traced_run(self, tracer, i):
        return tracer.call(self.root_span, self._traced_pair, tracer, i)

    def work(self, i):
        return len(self.expected[i])  # environments

    def _traced_pair(self, tracer, i):
        a, b = self.sets[i]
        schema = self.schemas[self.pairs[i].schema]
        reports = (
            tracer.call("validator.validate", validate, a.all_policies(), schema),
            tracer.call("validator.validate", validate, b.all_policies(), schema),
        )
        tracer.count("validator.envs_checked", sum(len(r.results) for r in reports))
        return reports, tracer.call("symcc.analyze_equivalence", analyze_equivalence, a, b, schema, config=self.config)

    def check(self, i, result):
        reports, verdicts = result
        want = self.expected[i]
        ok = all(r.valid for r in reports) and sorted(v.env.action.entity_id for v in verdicts) == sorted(want)
        for v in verdicts:
            self.envs += 1
            if v.status in ("unknown", "timeout"):
                continue
            self.decided += 1
            if v.status != want.get(v.env.action.entity_id):
                ok = False
            elif v.status == "differs":
                cex = v.counterexample
                got = (cex.decision_a.verdict.value, cex.decision_b.verdict.value)
                ok = ok and got[0] != got[1] and self._oracle_verdicts(i, cex.store, cex.request) == got
        return ok


WORKLOADS = {w.name: w for w in (AuthzFixture, AuthzLinked, AnalyzeMix)}
