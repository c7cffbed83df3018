"""Scopes decided on entity refs agree with the reference interpreter.

`evaluator.compile_policy` decides each constrained scope part on the
request's refs and the store's ancestor sets, and runs only the conditions
through `compile_expr`; scope-shaped conjuncts inside a condition (literal
`true`, or `principal`/`action`/`resource` compared by `==` or `in` with
entity literals) go through the general closures.  These tests compare each
policy's outcome with `testkit.reference_evaluate` on its `toexp` over
generated policies and stores, and pin the error kind, detail and trace of
errors raised after a scope or such a conjunct.
"""

import random
from collections import Counter

import pytest

from cedar_engine.ast import (
    ANY,
    CondKind,
    EAnd,
    EBinop,
    ELit,
    ESet,
    EVar,
    Effect,
    EntityRef,
    FALSE,
    Policy,
    ScopeEq,
    ScopeIn,
    ScopeInSet,
    TRUE,
    VEntity,
    VLong,
    children,
    toexp,
    vrecord,
)
from cedar_engine.entities import EntityData, EntityStore, Request
from cedar_engine.evaluator import EvalError, EvalErrorKind, PolicyEvalStatus, evaluate, evaluate_policy
from cedar_engine.parser import parse_expr, parse_policies
from cedar_engine.testkit import GenConfig, gen_expr, gen_request, gen_store, reference_evaluate

# Actions a0 and a1 sit under the group a2, and a2 under `all`; no store
# holds `nope`.
_ACTION_PARENTS = {"a0": ("a2",), "a1": ("a2",), "a2": ("all",), "all": ()}
ACTIONS = tuple(EntityRef("Action", name) for name in (*_ACTION_PARENTS, "nope"))
# Stores hold at most e0..e2 of each type, so e3 and `absent` are never in one.
REFS = [EntityRef(t, f"e{i}") for t in ("E0", "E1", "E2") for i in range(4)] + [EntityRef("E0", "absent")]
_VARS = ("principal", "action", "resource")
_STATUS = {True: PolicyEvalStatus.SATISFIED, False: PolicyEvalStatus.NOT_SATISFIED}


def _store(seed: int) -> EntityStore:
    entries = dict(gen_store(GenConfig(seed, max_entities=3)).entries)
    for name, parents in _ACTION_PARENTS.items():
        entries[EntityRef("Action", name)] = EntityData(vrecord({}), tuple(EntityRef("Action", p) for p in parents))
    return EntityStore(entries)


def _entity(ref: EntityRef) -> ELit:
    return ELit(VEntity(ref))


class _Gen:
    """Policies over a store, drawn for one request: half of the entities
    they name are the request's own refs or their ancestors, so that scopes
    hold often enough for the conditions after them to run."""

    def __init__(self, rng: random.Random, store: EntityStore, request: Request):
        self.rng = rng
        self.near = {
            var: [getattr(request, var), *sorted(store.ancestors_of(getattr(request, var)), key=str)] for var in _VARS
        }

    def target(self, var: str) -> EntityRef:
        if self.rng.random() < 0.5:
            return self.rng.choice(self.near[var])
        return self.rng.choice(ACTIONS if var == "action" else REFS)

    def targets(self, var: str) -> tuple:
        return tuple(self.target(var) for _ in range(self.rng.randint(0, 3)))

    def scope_conjunct(self):
        """Literal `true`, or a request variable compared by `==` or `in` with
        an entity literal or a set of them (possibly empty)."""
        var = self.rng.choice(_VARS)
        kind = self.rng.randrange(5)
        if kind == 0:
            return ELit(TRUE)
        if kind == 1:
            return EBinop("==", EVar(var), _entity(self.target(var)))
        if kind == 2:
            return EBinop("in", EVar(var), _entity(self.target(var)))
        return EBinop("in", EVar(var), ESet(tuple(_entity(x) for x in self.targets(var))))

    def near_miss(self):
        """Shapes next to the scope-shaped ones, which may fail or build values."""
        var = self.rng.choice(_VARS)
        kind = self.rng.randrange(5)
        if kind == 0:
            return EBinop("in", EVar(var), ESet((_entity(self.target(var)), ELit(VLong(1)))))
        if kind == 1:
            return EBinop("==", _entity(self.target(var)), EVar(var))
        if kind == 2:
            return EBinop("in", EVar("context"), _entity(self.target(var)))
        if kind == 3:
            return EBinop("==", EVar(var), ELit(VLong(1)))
        return EBinop("in", EVar(var), EVar(self.rng.choice(_VARS)))

    def condition(self):
        """A right-nested chain of scope-shaped conjuncts and near misses,
        ending in an arbitrary (possibly failing) expression, `5`, or another
        scope test."""
        rng = self.rng
        tail = rng.randrange(4)
        if tail == 0:
            out = ELit(VLong(5))
        elif tail == 1:
            out = self.scope_conjunct()
        else:
            out = gen_expr(rng, 2, REFS)
        for _ in range(rng.randint(0, 3)):
            out = EAnd(self.scope_conjunct() if rng.random() < 0.75 else self.near_miss(), out)
        if rng.random() < 0.15:  # a left-nested chain is compiled from its parts
            out = EAnd(EAnd(self.scope_conjunct(), self.scope_conjunct()), out)
        return out

    def scope(self, var: str):
        kind = self.rng.randrange(5)
        if kind <= 1:
            return ANY
        if kind == 2:
            return ScopeEq(self.target(var))
        if kind == 3 or var != "action":
            return ScopeIn(self.target(var))
        return ScopeInSet(self.targets(var))

    def policies(self) -> list:
        rng = self.rng
        return [
            Policy(
                id=f"policy{i}",
                effect=Effect.PERMIT,
                principal=self.scope("principal"),
                action=self.scope("action"),
                resource=self.scope("resource"),
                conditions=tuple(
                    (rng.choice((CondKind.WHEN, CondKind.UNLESS)), self.condition()) for _ in range(rng.randint(0, 2))
                ),
            )
            for i in range(rng.randint(1, 4))
        ]


def _features(expr, store: EntityStore, request: Request) -> set:
    """What the scope-shaped comparisons in ``expr`` meet under ``request``."""
    out = set()
    todo = [expr]
    while todo:
        e = todo.pop()
        todo.extend(children(e))
        if isinstance(e, EAnd) and ELit(TRUE) in (e.left, e.right):
            out.add("true conjunct")
        if not (isinstance(e, EBinop) and e.op in ("==", "in") and isinstance(e.left, EVar) and e.left.name in _VARS):
            continue
        if isinstance(e.right, ESet) and not e.right.elems:
            out.add("empty set")
        literals = e.right.elems if isinstance(e.right, ESet) else (e.right,)
        targets = [x.value.ref for x in literals if isinstance(x, ELit) and isinstance(x.value, VEntity)]
        ref = getattr(request, e.left.name)
        if any(t not in store for t in targets) or ref not in store:
            out.add(f"absent {e.op}")
        if e.left.name == "action" and e.op == "in" and ref not in targets:
            if any(t in store.ancestors_of(ref) for t in targets):
                out.add("action hierarchy")
    return out


def test_scope_prefixes_agree_with_the_reference_interpreter(gen_seed):
    base = gen_seed * 1_000_000
    statuses, features = Counter(), Counter()
    for seed in range(base + 1, base + 401):
        rng = random.Random(seed)
        store = _store(seed)
        for k in range(4):
            drawn = gen_request(GenConfig(seed * 8 + k), store)
            request = Request(drawn.principal, rng.choice(ACTIONS), drawn.resource, drawn.context)
            for policy in _Gen(rng, store, request).policies():
                expr = toexp(policy)
                want = reference_evaluate(expr, store, request)
                got = evaluate_policy(policy, store, request)
                where = (seed, k, policy.id)
                if want[0] == "ok":
                    assert got.status is _STATUS[want[1].b], where
                else:
                    assert got.status is PolicyEvalStatus.ERRORED, where
                    assert got.error.kind.value == want[1], where
                statuses[got.status] += 1
                features.update(_features(expr, store, request))
    assert min(statuses[s] for s in PolicyEvalStatus) >= 100, statuses
    for tag in ("true conjunct", "empty set", "absent ==", "absent in", "action hierarchy"):
        assert features[tag] >= 100, features


# Recorded on the engine before scope prefixes were decided on refs:
# (policy, kind, detail, trace) for the request User::"aaron", GetList,
# List::"0" over tinytodo.
AFTER_PREFIX = [
    (
        'permit(principal == User::"aaron", action, resource) when { principal.nope };',
        EvalErrorKind.ATTR_NOT_FOUND,
        "User::\"aaron\" has no attribute 'nope'",
        "principal.nope",
    ),
    (
        'permit(principal, action == Action::"GetList", resource) when { 1 };',
        EvalErrorKind.TYPE_MISMATCH,
        "expected bool, got long",
        "1",
    ),
    (
        'permit(principal in Team::"interns", action in [Action::"GetList", Action::"EditShares"], '
        'resource in Application::"TinyTodo") when { principal == User::"aaron" && 5 };',
        EvalErrorKind.TYPE_MISMATCH,
        "expected bool, got long",
        "5",
    ),
    (
        'permit(principal, action, resource) when { true && resource in List::"0" && User::"nobody".name };',
        EvalErrorKind.ENTITY_NOT_FOUND,
        'entity User::"nobody" does not exist',
        'User::"nobody".name',
    ),
    (
        'permit(principal, action, resource == List::"0") '
        'unless { action in [] || principal in [User::"aaron", 1] };',
        EvalErrorKind.TYPE_MISMATCH,
        "in with a set containing long",
        'principal in [User::"aaron", 1]',
    ),
    (
        'permit(principal, action, resource) when { principal == User::"aaron" } '
        "when { resource.owner.name + 1 };",
        EvalErrorKind.TYPE_MISMATCH,
        "expected long, got string",
        "resource.owner.name",
    ),
    (
        'permit(principal, action, resource) when { principal in User::"aaron" && 9223372036854775807 + 1 == 0 };',
        EvalErrorKind.ARITHMETIC_OVERFLOW,
        "signed 64-bit overflow",
        "9223372036854775807 + 1",
    ),
    (
        'permit(principal, action, resource) when { (principal == User::"aaron" && action == Action::"GetList") && 5 };',
        EvalErrorKind.TYPE_MISMATCH,
        "expected bool, got long",
        "5",
    ),
]


@pytest.mark.parametrize("text,kind,detail,trace", AFTER_PREFIX)
def test_errors_after_a_scope_prefix_keep_kind_detail_and_trace(tinytodo_store, text, kind, detail, trace):
    (policy,) = parse_policies(text)
    request = Request(EntityRef("User", "aaron"), EntityRef("Action", "GetList"), EntityRef("List", "0"))
    outcome = evaluate_policy(policy, tinytodo_store, request)
    assert outcome.status is PolicyEvalStatus.ERRORED
    assert (outcome.error.kind, outcome.error.detail, outcome.error.trace) == (kind, detail, trace)


def test_scope_shaped_condition_before_a_long_is_a_type_mismatch(tinytodo_store):
    expr = parse_expr('principal == User::"a" && 5')

    def request(principal: str) -> Request:
        return Request(EntityRef("User", principal), EntityRef("Action", "GetList"), EntityRef("List", "0"))

    # When the prefix fails, `5` is never reached.
    assert evaluate(expr, tinytodo_store, request("b")) == FALSE
    with pytest.raises(EvalError) as err:
        evaluate(expr, tinytodo_store, request("a"))
    assert (err.value.kind, err.value.detail, err.value.trace) == (EvalErrorKind.TYPE_MISMATCH, "expected bool, got long", "5")
