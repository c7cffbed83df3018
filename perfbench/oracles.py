"""Answer checks that do not go through the engine's evaluation paths.

Authorization answers come from ``testkit.reference_evaluate`` (an
interpreter written straight off the evaluation rules) over a store that is
decoded and closed here, plus the forbid-trumps-permit combine written out
below.  Analysis answers come from brute force over every conforming store
of a small universe, from verdicts known by construction, or from the
fixture results the README documents.
"""

from __future__ import annotations

from cedar_engine.ast import EntityRef, VBool, VEntity, VLong, VString, vrecord, vset
from cedar_engine.entities import EntityData, EntityStore, Request
from cedar_engine.testkit import enumerate_conforming, reference_evaluate

TRUE = ("ok", VBool(True))


def _value(obj):
    if isinstance(obj, bool):
        return VBool(obj)
    if isinstance(obj, int):
        return VLong(obj)
    if isinstance(obj, str):
        return VString(obj)
    if isinstance(obj, list):
        return vset([_value(x) for x in obj])
    if isinstance(obj, dict) and "__entity" in obj:
        return VEntity(EntityRef(obj["__entity"]["type"], obj["__entity"]["id"]))
    return vrecord({k: _value(v) for k, v in obj.items()})


def close(parents: dict) -> dict:
    """Ancestor sets by depth-first search over the direct parent edges."""
    out: dict = {}

    def visit(ref):
        if ref in out:
            return out[ref]
        seen: set = set()
        for p in parents.get(ref, ()):
            seen.add(p)
            seen |= visit(p)
        out[ref] = frozenset(seen)
        return out[ref]

    for ref in parents:
        visit(ref)
    return out


def store_from_json(entities: list) -> EntityStore:
    """An oracle store from decoded entities JSON."""
    parents: dict = {}
    attrs: dict = {}
    for item in entities:
        ref = EntityRef(item["uid"]["type"], item["uid"]["id"])
        attrs[ref] = _value(item.get("attrs", {}))
        parents[ref] = tuple(EntityRef(p["type"], p["id"]) for p in item.get("parents", ()))
    closed = close(parents)
    return EntityStore({ref: EntityData(attrs[ref], closed[ref]) for ref in attrs})


def with_actions(store: EntityStore, schema) -> EntityStore:
    """``store`` plus the schema's action hierarchy, closed here."""
    entries = dict(store.entries)
    for ref, ancestors in close({ref: decl.parents for ref, decl in schema.actions.items()}).items():
        old = entries.get(ref)
        if old is None:
            entries[ref] = EntityData(vrecord({}), ancestors)
        else:
            entries[ref] = EntityData(old.attrs, old.ancestors | ancestors)
    return EntityStore(entries)


def decide(exprs: list, store: EntityStore, request: Request) -> tuple:
    """(verdict, determining ids, errored ids) for (policy id, is_permit, expr) triples."""
    permits, forbids, errored = set(), set(), set()
    for policy_id, is_permit, expr in exprs:
        got = reference_evaluate(expr, store, request)
        if got == TRUE:
            (permits if is_permit else forbids).add(policy_id)
        elif got[0] == "err":
            errored.add(policy_id)
    if forbids or not permits:
        return ("DENY", frozenset(forbids), frozenset(errored))
    return ("ALLOW", frozenset(permits), frozenset(errored))


def same_decision(decision, expected: tuple) -> bool:
    verdict, determining, errored = expected
    return (
        decision.verdict.value == verdict
        and decision.determining == determining
        and frozenset(pid for pid, _ in decision.errors) == errored
    )


class Universe:
    """Conforming (store, request) pairs of a schema, one per atom valuation.

    Two entries with the same action and the same atom values get the same
    decision from any policy built from those atoms, so keeping one of each
    is a complete brute force over the enumerated stores.
    """

    def __init__(self, schema, atoms: list, ids: dict, bound: int = 2):
        self.entries: dict = {}
        for store, request in enumerate_conforming(schema, bound, ids=ids):
            key = (request.action.entity_id, tuple(reference_evaluate(a, store, request) for a in atoms))
            self.entries.setdefault(key, (store, request))

    def differing_actions(self, exprs_a: list, exprs_b: list) -> set:
        out = set()
        for (action_id, _), (store, request) in self.entries.items():
            if decide(exprs_a, store, request)[0] != decide(exprs_b, store, request)[0]:
                out.add(action_id)
        return out
