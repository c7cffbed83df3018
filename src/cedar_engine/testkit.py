"""Random generators and independent oracles for the property suites.

Everything here is deliberately separate from the engine paths it checks:
the reference interpreter re-derives evaluation from the semantic rules, the
store enumerator brute-forces conformance, and the term interpreter gives
compiled SMT terms a meaning under one concrete store.  Generators are pure
functions of their GenConfig; the same seed always produces the same output.
"""

from __future__ import annotations

import itertools
import random
import re as _re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .ast import (
    ANY,
    CedarError,
    CondKind,
    EAnd,
    EBinop,
    EGetAttr,
    EHas,
    EIf,
    EIs,
    ELike,
    ELit,
    EMul,
    ENeg,
    ENot,
    EOr,
    ERecord,
    ESet,
    EVar,
    Effect,
    EntityRef,
    Expr,
    I64_MAX,
    I64_MIN,
    LikePattern,
    LONG,
    Policy,
    STRING,
    ScopeEq,
    ScopeIn,
    ScopeInSet,
    SlotRef,
    TEntity,
    TRecord,
    TSet,
    TBool,
    TLong,
    TString,
    VBool,
    VEntity,
    VLong,
    VRecord,
    VSet,
    VString,
    Value,
    WILDCARD,
    subexpressions,
    vrecord,
    vset,
)
from .entities import EntityData, EntityStore, Request, build_store
from .validator import RequestEnv, Schema, environments


class BoundTooLarge(CedarError):
    pass


def persist_failure(name: str, store=None, request=None, policies=None, extra=None) -> str:
    """Write a failing case to .failures/<name>.json for replay.

    Returns the path written.  Property suites call this before re-raising so
    a red run leaves behind the exact store/request/policies that broke it.
    """
    import json
    import os

    from .entities import store_to_json, value_to_json
    from .parser import render_policies

    os.makedirs(".failures", exist_ok=True)
    blob: dict = {}
    if store is not None:
        blob["entities"] = store_to_json(store)
    if request is not None:
        blob["request"] = {
            "principal": {"type": request.principal.entity_type, "id": request.principal.entity_id},
            "action": {"type": request.action.entity_type, "id": request.action.entity_id},
            "resource": {"type": request.resource.entity_type, "id": request.resource.entity_id},
            "context": value_to_json(request.context),
        }
    if policies is not None:
        blob["policies"] = render_policies(policies)
    if extra is not None:
        blob["detail"] = extra
    path = os.path.join(".failures", f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2)
    return path


@dataclass(frozen=True)
class GenConfig:
    seed: int
    max_entities: int = 4
    max_depth: int = 3
    schema: Optional[Schema] = None

    def rng(self) -> random.Random:
        return random.Random(self.seed)


# Schema-free menus shared by gen_store / gen_policies so that scopes,
# conditions, and stores talk about the same entities.
_GEN_TYPES = ("E0", "E1", "E2")
_GEN_ACTIONS = tuple(EntityRef("Action", f"a{i}") for i in range(3))
_GEN_ATTRS = ("n", "s", "b", "owner", "members")


def _menu_refs(max_entities: int) -> list:
    return [EntityRef(t, f"e{i}") for t in _GEN_TYPES for i in range(max_entities)]


def gen_store(cfg: GenConfig) -> EntityStore:
    """A random acyclic store over the shared entity menu."""
    rng = cfg.rng()
    refs = []
    for t in _GEN_TYPES:
        for i in range(rng.randint(1, cfg.max_entities)):
            refs.append(EntityRef(t, f"e{i}"))
    rng.shuffle(refs)
    triples = []
    for idx, ref in enumerate(refs):
        parents = [p for p in refs[:idx] if rng.random() < 0.3]
        attrs = {}
        if rng.random() < 0.8:
            attrs["n"] = VLong(rng.randint(-4, 4))
        if rng.random() < 0.5:
            attrs["s"] = VString(rng.choice(["x", "y", "hello*world", ""]))
        if rng.random() < 0.5:
            attrs["b"] = VBool(rng.random() < 0.5)
        if idx and rng.random() < 0.6:
            attrs["owner"] = VEntity(rng.choice(refs[:idx]))
        if idx and rng.random() < 0.4:
            attrs["members"] = vset(
                VEntity(rng.choice(refs[:idx])) for _ in range(rng.randint(0, 3))
            )
        triples.append((ref, vrecord(attrs), parents))
    return build_store(triples)


# The last store `gen_request` drew from, and its refs sorted by str: fuzz
# loops draw thousands of requests from each store, and a store is not
# changed once built.
_sorted_refs: dict = {"store": None, "refs": []}


def gen_request(cfg: GenConfig, store: EntityStore) -> Request:
    rng = random.Random(cfg.seed ^ 0x9E3779B9)
    if _sorted_refs["store"] is not store:
        _sorted_refs.update(store=store, refs=sorted(store.refs(), key=str))
    refs = _sorted_refs["refs"]
    absent = EntityRef("E0", "absent")

    def pick():
        if not refs or rng.random() < 0.1:
            return absent
        return rng.choice(refs)

    context = {}
    if rng.random() < 0.6:
        context["ip"] = VString(rng.choice(["10.0.0.1", "off-net"]))
    if rng.random() < 0.6:
        context["count"] = VLong(rng.randint(-2, 2))
    return Request(
        principal=pick(),
        action=rng.choice(_GEN_ACTIONS),
        resource=pick(),
        context=vrecord(context),
    )


def gen_expr(rng: random.Random, depth: int, refs: list) -> Expr:
    """Arbitrary (possibly ill-typed, possibly erroring) expressions."""
    if depth <= 0:
        leaf = rng.randrange(6)
        if leaf == 0:
            return ELit(VBool(rng.random() < 0.5))
        if leaf == 1:
            return ELit(VLong(rng.choice([-1, 0, 1, 2, I64_MAX, I64_MIN])))
        if leaf == 2:
            return ELit(VString(rng.choice(["", "a", "ab*", "hello"])))
        if leaf == 3:
            return ELit(VEntity(rng.choice(refs)))
        if leaf == 4:
            return EVar(rng.choice(("principal", "action", "resource", "context")))
        return ESet(tuple(ELit(VEntity(rng.choice(refs))) for _ in range(rng.randint(1, 2))))
    kind = rng.randrange(12)
    sub = lambda: gen_expr(rng, depth - 1, refs)  # noqa: E731
    if kind == 0:
        return EAnd(sub(), sub())
    if kind == 1:
        return EOr(sub(), sub())
    if kind == 2:
        return ENot(sub())
    if kind == 3:
        return EIf(sub(), sub(), sub())
    if kind == 4:
        return EBinop(rng.choice(("==", "<", "<=", "+", "-")), sub(), sub())
    if kind == 5:
        return EBinop("in", sub(), sub())
    if kind == 6:
        return EGetAttr(sub(), rng.choice(_GEN_ATTRS))
    if kind == 7:
        return EHas(sub(), rng.choice(_GEN_ATTRS))
    if kind == 8:
        return EIs(sub(), rng.choice(_GEN_TYPES))
    if kind == 9:
        return ELike(sub(), LikePattern.from_source(rng.choice(["a*", "*", "hello", "a\\*b"])))
    if kind == 10:
        return EBinop(rng.choice(("contains", "containsAny", "containsAll")), sub(), sub())
    return EMul(rng.choice([-2, 0, 3]), sub())


def gen_policies(cfg: GenConfig) -> list:
    """Random closed policies over the shared menus (ill-typed conditions ok)."""
    rng = random.Random(cfg.seed ^ 0x51ED270)
    refs = _menu_refs(cfg.max_entities)
    policies = []
    for i in range(rng.randint(1, 6)):
        def scope():
            r = rng.randrange(4)
            if r == 0:
                return ANY
            if r == 1:
                return ScopeEq(rng.choice(refs))
            return ScopeIn(rng.choice(refs))

        a = rng.randrange(5)
        if a <= 1:
            action = ANY
        elif a == 2:
            action = ScopeEq(rng.choice(_GEN_ACTIONS))
        elif a == 3:
            action = ScopeIn(rng.choice(_GEN_ACTIONS))
        else:
            action = ScopeInSet(tuple(rng.sample(_GEN_ACTIONS, rng.randint(1, 2))))
        conditions = tuple(
            (rng.choice((CondKind.WHEN, CondKind.UNLESS)), gen_expr(rng, cfg.max_depth, refs))
            for _ in range(rng.randint(0, 2))
        )
        policies.append(
            Policy(
                id=f"policy{i}",
                effect=rng.choice((Effect.PERMIT, Effect.FORBID)),
                principal=scope(),
                action=action,
                resource=scope(),
                conditions=conditions,
            )
        )
    return policies


def gen_template_links(cfg: GenConfig, store: EntityStore, probability: float = 0.05):
    """Template links for every (principal, resource) pair with a coin flip,
    mirroring a quadratic-in-entities linked-policy population."""
    rng = random.Random(cfg.seed ^ 0xBADC0DE)
    template = Policy(
        id="grant",
        effect=Effect.PERMIT,
        principal=ScopeIn(SlotRef("?principal")),
        action=ANY,
        resource=ScopeEq(SlotRef("?resource")),
        conditions=(),
    )
    refs = sorted(store.refs(), key=str)
    links = []
    n = 0
    for p in refs:
        for r in refs:
            if rng.random() < probability:
                links.append(("grant", {"?principal": p, "?resource": r}, f"link{n}"))
                n += 1
    return template, links


# ---------------------------------------------------------------------------
# Reference interpreter (independent oracle)
# ---------------------------------------------------------------------------

_OK = "ok"
_ERR = "err"


def reference_evaluate(expr: Expr, store: EntityStore, request: Request):
    """A deliberately naive interpreter written straight off the evaluation
    rules; shares only the AST with the engine.  Returns ("ok", value) or
    ("err", kind-string)."""

    def lookup(ref: EntityRef):
        data = store.get(ref)
        return data

    def in_one(lhs: EntityRef, rhs: EntityRef) -> bool:
        return rhs == lhs or rhs in bfs_ancestors(store, lhs)

    def as_bool(r):
        if r[0] == _ERR:
            return r
        if isinstance(r[1], VBool):
            return r
        return (_ERR, "TypeMismatch")

    def ev(e):
        if isinstance(e, ELit):
            return (_OK, e.value)
        if isinstance(e, EVar):
            mapping = {
                "principal": VEntity(request.principal),
                "action": VEntity(request.action),
                "resource": VEntity(request.resource),
                "context": request.context,
            }
            return (_OK, mapping[e.name])
        if isinstance(e, ESet):
            out = []
            for x in e.elems:
                r = ev(x)
                if r[0] == _ERR:
                    return r
                out.append(r[1])
            return (_OK, vset(out))
        if isinstance(e, ERecord):
            out = {}
            for k, x in e.fields:
                r = ev(x)
                if r[0] == _ERR:
                    return r
                out[k] = r[1]
            return (_OK, vrecord(out))
        if isinstance(e, EAnd):
            # if e1 then (if e2 then true else false) else false
            return ev(EIf(e.left, EIf(e.right, ELit(VBool(True)), ELit(VBool(False))), ELit(VBool(False))))
        if isinstance(e, EOr):
            return ev(EIf(e.left, ELit(VBool(True)), EIf(e.right, ELit(VBool(True)), ELit(VBool(False)))))
        if isinstance(e, ENot):
            return ev(EIf(e.arg, ELit(VBool(False)), ELit(VBool(True))))
        if isinstance(e, EIf):
            g = as_bool(ev(e.cond))
            if g[0] == _ERR:
                return g
            return ev(e.then) if g[1].b else ev(e.els)
        if isinstance(e, EGetAttr):
            r = ev(e.obj)
            if r[0] == _ERR:
                return r
            v = r[1]
            if isinstance(v, VEntity):
                data = lookup(v.ref)
                if data is None:
                    return (_ERR, "EntityNotFound")
                got = data.attrs.get(e.attr)
                return (_OK, got) if got is not None else (_ERR, "AttrNotFound")
            if isinstance(v, VRecord):
                got = v.get(e.attr)
                return (_OK, got) if got is not None else (_ERR, "AttrNotFound")
            return (_ERR, "TypeMismatch")
        if isinstance(e, EHas):
            r = ev(e.obj)
            if r[0] == _ERR:
                return r
            v = r[1]
            if isinstance(v, VEntity):
                data = lookup(v.ref)
                return (_OK, VBool(data is not None and data.attrs.has(e.attr)))
            if isinstance(v, VRecord):
                return (_OK, VBool(v.has(e.attr)))
            return (_ERR, "TypeMismatch")
        if isinstance(e, EIs):
            r = ev(e.obj)
            if r[0] == _ERR:
                return r
            v = r[1]
            return (_OK, VBool(isinstance(v, VEntity) and v.ref.entity_type == e.entity_type))
        if isinstance(e, ELike):
            r = ev(e.obj)
            if r[0] == _ERR:
                return r
            if not isinstance(r[1], VString):
                return (_ERR, "TypeMismatch")
            # Translate the pattern to a regular expression; the engine's own
            # matcher is a recursive glob, so this is an independent route.
            rx = "".join(".*" if p is WILDCARD else _re.escape(p) for p in e.pattern.parts)
            return (_OK, VBool(_re.fullmatch(rx, r[1].s, _re.DOTALL) is not None))
        if isinstance(e, ENeg):
            r = ev(e.arg)
            if r[0] == _ERR:
                return r
            if not isinstance(r[1], VLong):
                return (_ERR, "TypeMismatch")
            n = -r[1].i
            return (_OK, VLong(n)) if I64_MIN <= n <= I64_MAX else (_ERR, "ArithmeticOverflow")
        if isinstance(e, EMul):
            r = ev(e.arg)
            if r[0] == _ERR:
                return r
            if not isinstance(r[1], VLong):
                return (_ERR, "TypeMismatch")
            n = e.factor * r[1].i
            return (_OK, VLong(n)) if I64_MIN <= n <= I64_MAX else (_ERR, "ArithmeticOverflow")
        if isinstance(e, EBinop):
            lr = ev(e.left)
            if lr[0] == _ERR:
                return lr
            rr = ev(e.right)
            if rr[0] == _ERR:
                return rr
            a, b = lr[1], rr[1]
            op = e.op
            if op == "==":
                return (_OK, VBool(a == b))
            if op in ("+", "-", "<", "<="):
                if not (isinstance(a, VLong) and isinstance(b, VLong)):
                    return (_ERR, "TypeMismatch")
                if op == "<":
                    return (_OK, VBool(a.i < b.i))
                if op == "<=":
                    return (_OK, VBool(a.i <= b.i))
                n = a.i + b.i if op == "+" else a.i - b.i
                return (_OK, VLong(n)) if I64_MIN <= n <= I64_MAX else (_ERR, "ArithmeticOverflow")
            if op == "in":
                if not isinstance(a, VEntity):
                    return (_ERR, "TypeMismatch")
                if isinstance(b, VEntity):
                    return (_OK, VBool(in_one(a.ref, b.ref)))
                if isinstance(b, VSet):
                    hit = False
                    for elem in b.elems:
                        if not isinstance(elem, VEntity):
                            return (_ERR, "TypeMismatch")
                        if in_one(a.ref, elem.ref):
                            hit = True
                    return (_OK, VBool(hit))
                return (_ERR, "TypeMismatch")
            if op == "contains":
                if not isinstance(a, VSet):
                    return (_ERR, "TypeMismatch")
                return (_OK, VBool(any(x == b for x in a.elems)))
            if op == "containsAny":
                if not (isinstance(a, VSet) and isinstance(b, VSet)):
                    return (_ERR, "TypeMismatch")
                return (_OK, VBool(any(x in b.elems for x in a.elems)))
            if op == "containsAll":
                if not (isinstance(a, VSet) and isinstance(b, VSet)):
                    return (_ERR, "TypeMismatch")
                return (_OK, VBool(all(x in a.elems for x in b.elems)))
        raise TypeError(f"not an expression: {e!r}")

    return ev(expr)


def bfs_ancestors(store: EntityStore, ref: EntityRef) -> frozenset:
    """Reachability oracle over the stored ancestors viewed as edges."""
    seen = set()
    frontier = [ref]
    while frontier:
        nxt = []
        for r in frontier:
            data = store.get(r)
            if data is None:
                continue
            for p in data.ancestors:
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Conforming generation
# ---------------------------------------------------------------------------


def _value_of_type(rng: random.Random, t, instances: dict) -> Value:
    if isinstance(t, TBool):
        return VBool(rng.random() < 0.5)
    if isinstance(t, TLong):
        return VLong(rng.randint(-8, 8))
    if isinstance(t, TString):
        return VString(rng.choice(["", "alpha", "beta", "s*r"]))
    if isinstance(t, TEntity):
        return VEntity(rng.choice(instances[t.name]))
    if isinstance(t, TSet):
        return vset(_value_of_type(rng, t.elem, instances) for _ in range(rng.randint(0, 2)))
    if isinstance(t, TRecord):
        return _record_of_type(rng, t, instances)
    raise TypeError(f"not a generatable type: {t!r}")


def _record_of_type(rng: random.Random, t: TRecord, instances: dict) -> VRecord:
    fields = {}
    for attr in t.attrs:
        if attr.required or rng.random() < 0.7:
            fields[attr.name] = _value_of_type(rng, attr.type, instances)
    return vrecord(fields)


def gen_conforming(cfg: GenConfig, schema: Schema, include_refs: Iterable = ()):
    """A (store, request) pair conforming to the schema.

    The store satisfies the attribute types and allowed-ancestor restrictions,
    every entity in ``include_refs`` exists, and the request matches one of
    the schema's environments with all referenced entities present.
    """
    rng = cfg.rng()
    instances: dict = {name: [] for name in schema.entity_types}
    for ref in include_refs:
        if ref.entity_type in instances and ref not in instances[ref.entity_type]:
            instances[ref.entity_type].append(ref)
    for name in schema.entity_types:
        want = rng.randint(1, cfg.max_entities)
        i = 0
        while len(instances[name]) < want:
            ref = EntityRef(name, f"{name.split('::')[-1].lower()}_{i}")
            if ref not in instances[name]:
                instances[name].append(ref)
            i += 1
    order = [ref for name in instances for ref in instances[name]]
    rng.shuffle(order)
    position = {ref: i for i, ref in enumerate(order)}
    triples = []
    for ref in order:
        decl = schema.entity(ref.entity_type)
        candidates = [
            p
            for t in sorted(decl.parents)
            for p in instances.get(t, ())
            if position[p] < position[ref]
        ]
        parents = [p for p in candidates if rng.random() < 0.4]
        attrs = _record_of_type(rng, decl.attrs, instances)
        triples.append((ref, attrs, parents))
    store = build_store(triples)

    envs = environments(schema)
    if not envs:
        raise CedarError("schema has no request environments")
    env = rng.choice(envs)
    request = Request(
        principal=rng.choice(instances[env.principal_type]),
        action=env.action,
        resource=rng.choice(instances[env.resource_type]),
        context=_record_of_type(rng, env.context_type, instances),
    )
    return store, request


def policy_entity_literals(policies: Iterable[Policy]) -> list:
    """Non-action entity references mentioned anywhere in the policies."""
    out = []
    seen = set()

    def add(ref: EntityRef):
        if not ref.is_action() and ref not in seen:
            seen.add(ref)
            out.append(ref)

    for p in policies:
        for scope in (p.principal, p.resource):
            if isinstance(scope, (ScopeEq, ScopeIn)) and isinstance(scope.target, EntityRef):
                add(scope.target)
        for _, cond in p.conditions:
            for sub in subexpressions(cond):
                if isinstance(sub, ELit) and isinstance(sub.value, VEntity):
                    add(sub.value.ref)
    return out


# ---------------------------------------------------------------------------
# Exhaustive conforming enumeration
# ---------------------------------------------------------------------------


def _subsets(items: list) -> list:
    out = [[]]
    for x in items:
        out += [s + [x] for s in out]
    return out


_ENUM_MENUS = {
    "bool": (VBool(False), VBool(True)),
    "long": (VLong(0), VLong(1)),
    "string": (VString("s0"), VString("s1")),
}


def _enum_values(t, instances: dict) -> list:
    if isinstance(t, TBool):
        return list(_ENUM_MENUS["bool"])
    if isinstance(t, TLong):
        return list(_ENUM_MENUS["long"])
    if isinstance(t, TString):
        return list(_ENUM_MENUS["string"])
    if isinstance(t, TEntity):
        return [VEntity(r) for r in instances[t.name]]
    if isinstance(t, TSet):
        elems = _enum_values(t.elem, instances)
        return [vset(s) for s in _subsets(elems)]
    if isinstance(t, TRecord):
        return _enum_records(t, instances)
    raise TypeError(f"not an enumerable type: {t!r}")


def _enum_records(t: TRecord, instances: dict) -> list:
    slots = []
    for attr in t.attrs:
        vals = _enum_values(attr.type, instances)
        if attr.required:
            slots.append([(attr.name, v) for v in vals])
        else:
            slots.append([(attr.name, v) for v in vals] + [None])
    out = []
    for combo in itertools.product(*slots) if slots else [()]:
        out.append(vrecord({k: v for item in combo if item is not None for k, v in [item]}))
    return out


def enumerate_stores(
    schema: Schema,
    bound: int,
    ids: Optional[dict] = None,
    types: Optional[Iterable] = None,
    ceiling: int = 500_000,
) -> Iterator[EntityStore]:
    """Every conforming store up to ``bound`` ids per type.

    Direct-parent assignments are enumerated and stored as edges, so
    extensionally equal stores may repeat; cyclic ones are skipped.  Raises
    BoundTooLarge above the state ceiling.
    """
    names = list(types) if types is not None else list(schema.entity_types)
    instances: dict = {}
    for name in names:
        if ids and name in ids:
            instances[name] = [EntityRef(name, i) for i in ids[name]]
        else:
            instances[name] = [EntityRef(name, str(i)) for i in range(bound)]
    order = [ref for name in names for ref in instances[name]]

    parent_choices = []
    attr_choices = []
    total = 1
    for ref in order:
        decl = schema.entity(ref.entity_type)
        candidates = [
            p
            for t in sorted(decl.parents)
            if t in instances
            for p in instances[t]
            if p != ref
        ]
        subsets = _subsets(candidates)
        parent_choices.append(subsets)
        attrs = _enum_records(decl.attrs, instances)
        attr_choices.append(attrs)
        total *= max(1, len(subsets)) * max(1, len(attrs))
        if total > ceiling:
            raise BoundTooLarge(f"enumeration exceeds {ceiling} stores")

    no_attrs = vrecord({})
    for parent_combo in itertools.product(*parent_choices):
        edges = EntityStore({ref: EntityData(no_attrs, tuple(ps)) for ref, ps in zip(order, parent_combo)})
        if any(ref in bfs_ancestors(edges, ref) for ref in order):
            continue  # cyclic direct-parent assignment
        for attr_combo in itertools.product(*attr_choices):
            entries = {
                ref: EntityData(attrs, edges.get(ref).ancestors)
                for ref, attrs in zip(order, attr_combo)
            }
            yield EntityStore(entries)


def enumerate_conforming(
    schema: Schema,
    bound: int,
    ids: Optional[dict] = None,
    types: Optional[Iterable] = None,
    ceiling: int = 500_000,
) -> Iterator[tuple]:
    """Every conforming (store, request) pair up to the bound."""
    if bound <= 0:
        return
    names = list(types) if types is not None else list(schema.entity_types)
    instances: dict = {}
    for name in names:
        if ids and name in ids:
            instances[name] = [EntityRef(name, i) for i in ids[name]]
        else:
            instances[name] = [EntityRef(name, str(i)) for i in range(bound)]
    for store in enumerate_stores(schema, bound, ids=ids, types=types, ceiling=ceiling):
        for env in environments(schema):
            if env.principal_type not in instances or env.resource_type not in instances:
                continue
            contexts = _enum_records(env.context_type, instances)
            for principal in instances[env.principal_type]:
                for resource in instances[env.resource_type]:
                    for context in contexts:
                        yield store, Request(principal, env.action, resource, context)


# ---------------------------------------------------------------------------
# Typed expression generation (for the symbolic-fidelity suite)
# ---------------------------------------------------------------------------


# String literals of the structured forms: the menu `enumerate_conforming`
# draws from, so that brute force reaches them, and one value outside it.
_STRUCTURED_STRINGS = ("s0", "s1", "alpha")


class _TypedGen:
    """Well-typed candidates for the symbolic-fidelity suites.  With
    ``structured``, `bool_expr` also draws forms whose operands may have
    different encodings (`_structured_bool`); without it, only the others."""

    def __init__(self, rng: random.Random, env: RequestEnv, schema: Schema, store: EntityStore, structured: bool = False):
        self.rng = rng
        self.env = env
        self.schema = schema
        self.structured = structured
        self.strings = _STRUCTURED_STRINGS if structured else ("", "alpha", "beta", "s*r")
        # (projection, type) of each required context attribute, at any depth.
        self.paths = []
        stack = [(EVar("context"), env.context_type)]
        while stack:
            base, rec = stack.pop()
            for a in rec.attrs:
                if a.required:
                    self.paths.append((EGetAttr(base, a.name), a.type))
                    if isinstance(a.type, TRecord):
                        stack.append((EGetAttr(base, a.name), a.type))
        self.records = [t for _, t in self.paths if isinstance(t, TRecord)]
        self.instances: dict = {}
        for ref in store.refs():
            self.instances.setdefault(ref.entity_type, []).append(ref)
        for name in schema.entity_types:
            self.instances.setdefault(name, [])

    def entity_expr(self, entity_type: str, depth: int) -> Optional[Expr]:
        rng = self.rng
        options = []
        if entity_type == self.env.principal_type:
            options.append(lambda: EVar("principal"))
        if entity_type == self.env.resource_type:
            options.append(lambda: EVar("resource"))
        if self.instances.get(entity_type):
            options.append(lambda: ELit(VEntity(rng.choice(self.instances[entity_type]))))
        if depth > 0:
            for attr, owner in self._attr_paths(TEntity(entity_type)):
                options.append(lambda a=attr, o=owner: self._project(o, a, depth))
        if not options:
            return None
        return rng.choice(options)()

    def _attr_paths(self, want) -> list:
        """(attr name, owner entity type) pairs whose required attr has the type."""
        out = []
        for name, decl in self.schema.entity_types.items():
            for attr in decl.attrs.attrs:
                if attr.required and attr.type == want:
                    out.append((attr.name, name))
        return out

    def _project(self, owner_type: str, attr: str, depth: int) -> Optional[Expr]:
        base = self.entity_expr(owner_type, depth - 1)
        if base is None:
            return None
        return EGetAttr(base, attr)

    def typed(self, want, depth: int) -> Optional[Expr]:
        rng = self.rng
        if isinstance(want, TEntity):
            return self.entity_expr(want.name, depth)
        if isinstance(want, TBool):
            return self.bool_expr(depth)
        if isinstance(want, TLong):
            opts = [lambda: ELit(VLong(rng.choice([-3, 0, 1, 7, I64_MAX, I64_MIN])))]
            if depth > 0:
                opts.append(lambda: self._wrap_arith(depth))
                for attr, owner in self._attr_paths(LONG):
                    opts.append(lambda a=attr, o=owner: self._project(o, a, depth))
            return rng.choice(opts)()
        if isinstance(want, TString):
            opts = [lambda: ELit(VString(rng.choice(self.strings)))]
            for attr, owner in self._attr_paths(STRING):
                opts.append(lambda a=attr, o=owner: self._project(o, a, depth))
            return rng.choice(opts)()
        if isinstance(want, TSet):
            for attr, owner in self._attr_paths(want):
                if rng.random() < 0.7:
                    return self._project(owner, attr, depth)
            elems = []
            for _ in range(rng.randint(1, 2)):
                e = self.typed(want.elem, max(0, depth - 1))
                if e is None:
                    return None
                elems.append(e)
            return ESet(tuple(elems))
        return None

    def _wrap_arith(self, depth: int) -> Optional[Expr]:
        rng = self.rng
        a = self.typed(LONG, depth - 1)
        b = self.typed(LONG, depth - 1)
        if a is None or b is None:
            return None
        k = rng.randrange(4)
        if k == 0:
            return EBinop("+", a, b)
        if k == 1:
            return EBinop("-", a, b)
        if k == 2:
            return ENeg(a)
        return EMul(rng.choice([-3, 0, 2, 1 << 40]), a)

    def bool_expr(self, depth: int) -> Optional[Expr]:
        rng = self.rng
        if depth <= 0:
            return ELit(VBool(rng.random() < 0.5))
        k = rng.randrange(16 if self.structured else 12)
        if k >= 12:
            return self._structured_bool(k - 12, depth)
        if k in (0, 1):  # hierarchy membership
            lhs_type = rng.choice((self.env.principal_type, self.env.resource_type))
            lhs = self.entity_expr(lhs_type, depth - 1)
            decl = self.schema.entity(lhs_type)
            rhs_types = sorted(decl.parents | {lhs_type})
            rhs_type = rng.choice(rhs_types)
            rhs = self.entity_expr(rhs_type, depth - 1)
            if lhs is None or rhs is None:
                return None
            return EBinop("in", lhs, rhs)
        if k == 2:  # entity equality
            t = rng.choice((self.env.principal_type, self.env.resource_type))
            a, b = self.entity_expr(t, depth - 1), self.entity_expr(t, depth - 1)
            if a is None or b is None:
                return None
            return EBinop("==", a, b)
        if k == 3:
            a = self.typed(LONG, depth - 1)
            b = self.typed(LONG, depth - 1)
            if a is None or b is None:
                return None
            return EBinop(rng.choice(("<", "<=", "==")), a, b)
        if k == 4:
            a = self.typed(STRING, depth - 1)
            if a is None:
                return None
            return ELike(a, LikePattern.from_source(rng.choice(["a*", "*", "alpha", "s\\*r", ""])))
        if k == 5:  # has on an optional or required attribute
            name = rng.choice(list(self.schema.entity_types))
            decl = self.schema.entity(name)
            if decl.attrs.attrs:
                attr = rng.choice(decl.attrs.attrs)
                base = self.entity_expr(name, depth - 1)
                if base is not None:
                    return EHas(base, attr.name)
            return self.bool_expr(depth - 1)
        if k == 6:  # guarded optional access
            ctx = self.env.context_type
            optional = [a for a in ctx.attrs if not a.required and isinstance(a.type, TBool)]
            if optional:
                attr = self.rng.choice(optional).name
                return EIf(EHas(EVar("context"), attr), EGetAttr(EVar("context"), attr), ELit(VBool(False)))
            return self.bool_expr(depth - 1)
        if k == 7:
            a = self.bool_expr(depth - 1)
            b = self.bool_expr(depth - 1)
            if a is None or b is None:
                return None
            return rng.choice((EAnd, EOr))(a, b)
        if k == 8:
            a = self.bool_expr(depth - 1)
            return None if a is None else ENot(a)
        if k == 9:
            g = self.bool_expr(depth - 1)
            a = self.bool_expr(depth - 1)
            b = self.bool_expr(depth - 1)
            if g is None or a is None or b is None:
                return None
            return EIf(g, a, b)
        if k == 10:  # set membership via contains
            for attr, owner in self._attr_paths_sets():
                base = self.entity_expr(owner, depth - 1)
                elem = self.typed(attr[1], depth - 1)
                if base is not None and elem is not None:
                    return EBinop("contains", EGetAttr(base, attr[0]), elem)
            return self.bool_expr(depth - 1)
        # action comparison folds statically
        return EBinop("==", EVar("action"), ELit(VEntity(self.env.action)))

    def _attr_paths_sets(self) -> list:
        out = []
        for name, decl in self.schema.entity_types.items():
            for attr in decl.attrs.attrs:
                if attr.required and isinstance(attr.type, TSet):
                    out.append(((attr.name, attr.type.elem), name))
        return out

    # -- structured forms ------------------------------------------------------

    def value(self, want, depth: int) -> Optional[Expr]:
        """An expression whose type joins `want`: a record literal has every
        attribute required, so it joins a record with optional ones."""
        if isinstance(want, TSet):
            return self._set_expr(want.elem, depth)
        if not isinstance(want, TRecord):
            return self.typed(want, depth)
        opts = [lambda p=p: p for p, t in self.paths if t == want]
        opts.append(lambda: self._record_literal(want, depth))
        if depth > 0:
            opts.append(lambda: self._branches(want, depth))
        return self.rng.choice(opts)()

    def _record_literal(self, want: TRecord, depth: int) -> Optional[Expr]:
        fields = tuple((a.name, self.value(a.type, max(0, depth - 1))) for a in want.attrs)
        return None if any(v is None for _, v in fields) else ERecord(fields)

    def _branches(self, want, depth: int) -> Optional[Expr]:
        parts = (self.bool_expr(depth - 1), self.value(want, depth - 1), self.value(want, depth - 1))
        return None if None in parts else EIf(*parts)

    def _set_expr(self, elem, depth: int) -> Optional[Expr]:
        rng = self.rng
        paths = [p for p, t in self.paths if t == TSet(elem)]
        if paths and rng.random() < 0.3:
            return rng.choice(paths)
        elems = tuple(self.value(elem, max(0, depth - 1)) for _ in range(rng.randint(1, 2)))
        return None if None in elems else ESet(elems)

    def _structured_bool(self, k: int, depth: int) -> Optional[Expr]:
        """Set and record literals, `containsAny`/`containsAll`, record-valued
        `if` branches and `contains` across encodings."""
        rng = self.rng
        t = rng.choice(self.records + [STRING, TEntity(self.env.principal_type)])
        if k == 0:
            ops = ("contains", self._set_expr(t, depth - 1), self.value(t, depth - 1))
        elif k == 1:
            op = rng.choice(("containsAny", "containsAll"))
            ops = (op, self._set_expr(t, depth - 1), self._set_expr(t, depth - 1))
        elif k == 2:  # equality of values, or of sets of them
            want = t if rng.random() < 0.7 else TSet(t)
            ops = ("==", self.value(want, depth - 1), self.value(want, depth - 1))
        else:
            want = rng.choice(self.records) if self.records else t
            ops = ("==", self._branches(want, max(1, depth - 1)), self.value(want, depth - 1))
        return None if None in ops else EBinop(*ops)


def gen_typed_bool_expr(
    rng: random.Random, env: RequestEnv, schema: Schema, store: EntityStore, depth: int = 3, structured: bool = False
) -> Optional[Expr]:
    """A candidate boolean expression over schema-declared attributes; the
    caller typechecks it and discards failures.  ``structured`` adds the set
    and record forms (see `_TypedGen`)."""
    return _TypedGen(rng, env, schema, store, structured).bool_expr(depth)


# ---------------------------------------------------------------------------
# Term interpretation under a concrete store (symbolic fidelity oracle)
# ---------------------------------------------------------------------------

_NONE = ("none",)


class TermInterpreter:
    """Interprets compiled terms under the function interpretations a concrete
    store and request induce.

    Values: bool, int (signed 64-bit), str, EntityRef, frozenset, ("rec",
    datatype, values tuple), ("some", v) / ("none",) for Option.
    """

    def __init__(self, senv, env: RequestEnv, schema: Schema, store: EntityStore, request: Request):
        self.senv = senv
        self.env = env
        self.schema = schema
        self.store = store
        self.request = request
        self.selectors = {}
        for dt_name, fields in senv.datatypes:
            for idx, (sel, _) in enumerate(fields):
                self.selectors[sel] = (dt_name, idx)

    # -- encoding runtime values into the term domain -------------------------

    def encode_value(self, v: Value, t) -> object:
        if isinstance(v, VBool):
            return v.b
        if isinstance(v, VLong):
            return v.i
        if isinstance(v, VString):
            return v.s
        if isinstance(v, VEntity):
            return v.ref
        if isinstance(v, VSet):
            assert isinstance(t, TSet)
            return frozenset(self.encode_value(x, t.elem) for x in v.elems)
        if isinstance(v, VRecord):
            assert isinstance(t, TRecord)
            name = self.senv.record_name[t]
            vals = []
            for attr in t.attrs:
                got = v.get(attr.name)
                if attr.required:
                    vals.append(self.encode_value(got, attr.type))
                elif got is None:
                    vals.append(_NONE)
                else:
                    vals.append(("some", self.encode_value(got, attr.type)))
            return ("rec", name, tuple(vals))
        raise TypeError(f"not a value: {v!r}")

    def attr_record(self, ref: EntityRef) -> object:
        decl = self.schema.entity(ref.entity_type)
        data = self.store.get(ref)
        if data is None:
            raise CedarError(f"attribute function applied to absent entity {ref}")
        return self.encode_value(data.attrs, decl.attrs)

    def ancestors(self, ref: EntityRef, ancestor_type: str) -> frozenset:
        return frozenset(
            r for r in self.store.ancestors_of(ref) if r.entity_type == ancestor_type
        )

    # -- interpretation --------------------------------------------------------

    def run(self, term) -> object:
        from . import terms as T

        wrap = lambda x: ((x + (1 << 63)) % (1 << 64)) - (1 << 63)  # noqa: E731

        def go(t):
            if isinstance(t, T.TBoolLit):
                return t.b
            if isinstance(t, T.TBVLit):
                return t.i
            if isinstance(t, T.TStrLit):
                return t.s
            if isinstance(t, T.TConst):
                name = t.name
                for (env, var), (cname, _) in self.senv.var_consts.items():
                    if cname == name:
                        if var == "principal":
                            return self.request.principal
                        if var == "resource":
                            return self.request.resource
                        return self.encode_value(self.request.context, env.context_type)
                raise CedarError(f"unbound constant {name}")
            if isinstance(t, T.TApp):
                args = [go(a) for a in t.args]
                fn = t.fn
                # attribute / ancestor functions
                for entity_type, name in self.senv.attr_fn.items():
                    if name == fn:
                        return self.attr_record(args[0])
                for (entity_type, anc_type), name in self.senv.anc_fn.items():
                    if name == fn:
                        return self.ancestors(args[0], anc_type)
                if fn in self.selectors:
                    dt, idx = self.selectors[fn]
                    v = args[0]
                    if isinstance(v, tuple) and v[0] == "rec":
                        return v[2][idx]
                    raise CedarError(f"selector {fn} on {v!r}")
                # constructor application
                if fn in self.senv.entity_of_name:
                    return EntityRef(self.senv.entity_of_name[fn], args[0])
                if fn in self.senv.record_of_name:
                    return ("rec", fn, tuple(args))
                raise CedarError(f"uninterpreted application {fn}")
            if isinstance(t, T.TSome):
                return ("some", go(t.arg))
            if isinstance(t, T.TNone):
                return _NONE
            if isinstance(t, T.TVal):
                v = go(t.arg)
                if isinstance(v, tuple) and v[0] == "some":
                    return v[1]
                # val of none is unconstrained; any fixed value will do
                return self._default(t.arg.sort.elem)
            if isinstance(t, T.TIsSome):
                v = go(t.arg)
                return isinstance(v, tuple) and v[0] == "some"
            if isinstance(t, T.TIte):
                return go(t.then) if go(t.cond) else go(t.els)
            if isinstance(t, T.TEq):
                return go(t.left) == go(t.right)
            if isinstance(t, T.TNot):
                return not go(t.arg)
            if isinstance(t, T.TAnd):
                return all(go(a) for a in t.args)
            if isinstance(t, T.TOr):
                return any(go(a) for a in t.args)
            if isinstance(t, T.TImplies):
                return (not go(t.left)) or go(t.right)
            if isinstance(t, T.TSetMember):
                return go(t.elem) in go(t.set)
            if isinstance(t, T.TSetSubset):
                return go(t.left) <= go(t.right)
            if isinstance(t, T.TSetInter):
                return go(t.left) & go(t.right)
            if isinstance(t, T.TSetUnion):
                return go(t.left) | go(t.right)
            if isinstance(t, T.TSetSingleton):
                return frozenset({go(t.elem)})
            if isinstance(t, T.TSetEmpty):
                return frozenset()
            if isinstance(t, T.TBVOp):
                args = [go(a) for a in t.args]
                if t.op == "bvadd":
                    return wrap(args[0] + args[1])
                if t.op == "bvsub":
                    return wrap(args[0] - args[1])
                if t.op == "bvneg":
                    return wrap(-args[0])
                if t.op == "bvmul":
                    return wrap(args[0] * args[1])
                if t.op == "bvslt":
                    return args[0] < args[1]
                if t.op == "bvsle":
                    return args[0] <= args[1]
            if isinstance(t, T.TStrInRe):
                s = go(t.s)
                return _re.fullmatch(self._regex(t.re), s, _re.DOTALL) is not None
            raise TypeError(f"not a term: {t!r}")

        return go(term)

    def _regex(self, r) -> str:
        from . import terms as T

        if isinstance(r, T.RLit):
            return _re.escape(r.s)
        if isinstance(r, T.RAll):
            return ".*"
        if isinstance(r, T.RConcat):
            return "".join(self._regex(p) for p in r.parts)
        raise TypeError(f"not a regex: {r!r}")

    def _default(self, sort) -> object:
        from . import terms as T

        if isinstance(sort, T.SBool):
            return False
        if isinstance(sort, T.SBV64):
            return 0
        if isinstance(sort, T.SString):
            return ""
        if isinstance(sort, T.SSet):
            return frozenset()
        if isinstance(sort, T.SOption):
            return _NONE
        if isinstance(sort, T.SData):
            if sort.name in self.senv.entity_of_name:
                return EntityRef(self.senv.entity_of_name[sort.name], "")
            rec = self.senv.record_of_name.get(sort.name)
            fields = []
            for attr in rec.attrs:
                inner = self.senv.encode_type(attr.type)
                fields.append(self._default(inner) if attr.required else _NONE)
            return ("rec", sort.name, tuple(fields))
        raise TypeError(f"no default for sort {sort!r}")

    def decode(self, v) -> Value:
        """Term-domain value back to a runtime value (records lose optionality)."""
        if isinstance(v, bool):
            return VBool(v)
        if isinstance(v, int):
            return VLong(v)
        if isinstance(v, str):
            return VString(v)
        if isinstance(v, EntityRef):
            return VEntity(v)
        if isinstance(v, frozenset):
            return vset(self.decode(x) for x in v)
        if isinstance(v, tuple) and v[0] == "rec":
            rec = self.senv.record_of_name[v[1]]
            fields = {}
            for attr, raw in zip(rec.attrs, v[2]):
                if attr.required:
                    fields[attr.name] = self.decode(raw)
                elif isinstance(raw, tuple) and raw[0] == "some":
                    fields[attr.name] = self.decode(raw[1])
            return vrecord(fields)
        raise TypeError(f"cannot decode {v!r}")
