"""Entity hierarchy storage and the JSON ingestion formats.

The store keeps, per entity, its attribute record and its declared parent
edges; no closure is materialised, so loading (cycles rejected) is linear in
time and memory.  `ancestors_of` closes a ref's edges on first use and
memoises the set per store.  Stores are immutable after load; a memo write is
idempotent, so concurrent reads are safe.

Entity refs are interned process-wide (see `ast.EntityRef`): a uid's mentions
in an entities file, a request and the policies are one object, so store,
memo and index probes hit by identity.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, Optional

from .ast import (
    CedarError,
    EntityRef,
    I64_MAX,
    I64_MIN,
    MAX_NESTING,
    VBool,
    VEntity,
    VLong,
    VRecord,
    VSet,
    VString,
    Value,
    vrecord,
)


@contextmanager
def _collector_paused():
    """Run a bulk build with the cyclic garbage collector disabled, then put it
    back as it was.  The builders make no reference cycles, so the collector
    would only rescan a heap that grows; its young collections of the new
    objects are deferred to the first allocation after the block, not lost.
    Only a block that found the collector on turns it off, and that block
    turns it back on, so overlapping blocks in several threads cannot leave
    it off."""
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class EntityLoadError(CedarError):
    pass


class HierarchyCycle(EntityLoadError):
    def __init__(self, witness: EntityRef):
        super().__init__(f"entity hierarchy contains a cycle through {witness}")
        self.witness = witness


class DuplicateEntity(EntityLoadError):
    def __init__(self, ref: EntityRef):
        super().__init__(f"duplicate entity {ref}")
        self.ref = ref


class BadEntityRef(EntityLoadError):
    pass


@dataclass(frozen=True)
class EntityData:
    """Attributes and the declared ancestor edges; `ancestors_of` closes the
    edges.  A closed set is valid input too."""

    attrs: VRecord
    ancestors: Collection


_EMPTY_ANCESTORS: frozenset = frozenset()
_EMPTY_RECORD_V = vrecord({})


@dataclass(frozen=True)
class EntityStore:
    entries: Mapping  # EntityRef -> EntityData
    _closed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __contains__(self, ref: EntityRef) -> bool:
        return ref in self.entries

    def get(self, ref: EntityRef) -> Optional[EntityData]:
        return self.entries.get(ref)

    def ancestors_of(self, ref: EntityRef) -> frozenset:
        """Closed ancestor set, by reachability over the edges on first use, then
        memoised; empty for absent entities (absence is not an error)."""
        closed = self._closed.get(ref)
        if closed is None:
            data = self.entries.get(ref)
            if data is None:
                return _EMPTY_ANCESTORS
            seen = set(data.ancestors)
            todo = list(seen)
            while todo:
                above = self.entries.get(todo.pop())
                if above is not None:
                    for p in above.ancestors:
                        if p not in seen:
                            seen.add(p)
                            todo.append(p)
            closed = self._closed[ref] = frozenset(seen)
        return closed

    def refs(self):
        return self.entries.keys()


EMPTY_STORE = EntityStore({})


@dataclass(frozen=True)
class Request:
    principal: EntityRef
    action: EntityRef
    resource: EntityRef
    context: VRecord = _EMPTY_RECORD_V


def _check_acyclic(entries: Mapping, roots: Iterable) -> None:
    """Raise HierarchyCycle if an edge path from ``roots`` comes back on itself.
    Depth-first with an explicit stack, each ref finished once: O(V+E), and
    chains of any length are checked without recursion."""
    on_path: dict = {}  # ref -> True while on the search path, False once finished
    stack: list = []
    for root in roots:
        if root in on_path:
            continue
        on_path[root] = True
        stack.append((root, iter(entries[root].ancestors)))
        while stack:
            ref, todo = stack[-1]
            for p in todo:
                state = on_path.get(p)
                if state:
                    raise HierarchyCycle(p)
                if state is None and p in entries:
                    on_path[p] = True
                    stack.append((p, iter(entries[p].ancestors)))
                    break
            else:
                stack.pop()
                on_path[ref] = False


def build_store(entities: Iterable) -> EntityStore:
    """Build a store from (ref, attrs, direct_parents) triples; rejects
    duplicates and cycles."""
    entries: dict = {}
    for ref, attrs, direct in entities:
        if ref in entries:
            raise DuplicateEntity(ref)
        entries[ref] = EntityData(attrs, tuple(direct))
    _check_acyclic(entries, entries)
    return EntityStore(entries)


def merge_action_hierarchy(store: EntityStore, schema) -> EntityStore:
    """Overlay the schema's action-group ancestry onto a store.

    The schema is the source of truth for action hierarchies; action entities
    need not appear in entity data.
    """
    entries = dict(store.entries)
    for ref, decl in schema.actions.items():
        old = entries.get(ref)
        if old is not None:
            entries[ref] = EntityData(old.attrs, (*old.ancestors, *decl.parents))
        else:
            entries[ref] = EntityData(_EMPTY_RECORD_V, decl.parents)
    _check_acyclic(entries, schema.actions)  # only the action entries changed
    return EntityStore(entries)


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def _ref_from_json(obj, where: str) -> EntityRef:
    """Decode an entity uid."""
    if not isinstance(obj, dict) or len(obj) != 2 or "type" not in obj or "id" not in obj:
        raise BadEntityRef(f"{where}: an entity uid must be {{\"type\": ..., \"id\": ...}}")
    t, i = obj["type"], obj["id"]
    if not isinstance(t, str) or not t or not isinstance(i, str):
        raise BadEntityRef(f"{where}: malformed entity uid")
    return EntityRef(t, i)


def value_from_json(obj, where: str = "value", depth: int = 1) -> Value:
    """Decode an attribute value.

    Entity references are written ``{"__entity": {"type": T, "id": I}}`` to
    keep them apart from records; arrays are sets (deduplicated on load).
    Values nest at most MAX_NESTING levels, counting a scalar as one level;
    `depth` is the level of `obj` itself.
    """
    if depth > MAX_NESTING:
        raise BadEntityRef(f"{where}: value nests deeper than {MAX_NESTING} levels")
    if isinstance(obj, bool):
        return VBool(obj)
    if isinstance(obj, int):
        if not (I64_MIN <= obj <= I64_MAX):
            raise BadEntityRef(f"{where}: integer out of 64-bit range")
        return VLong(obj)
    if isinstance(obj, str):
        return VString(obj)
    if isinstance(obj, list):
        return VSet(frozenset(value_from_json(x, where, depth + 1) for x in obj))
    if isinstance(obj, dict):
        if len(obj) == 1 and "__entity" in obj:
            return VEntity(_ref_from_json(obj["__entity"], where))
        return vrecord({k: value_from_json(v, f"{where}.{k}", depth + 1) for k, v in obj.items()})
    raise BadEntityRef(f"{where}: unsupported JSON value {obj!r}")


def value_to_json(v: Value):
    if isinstance(v, VBool):
        return v.b
    if isinstance(v, VLong):
        return v.i
    if isinstance(v, VString):
        return v.s
    if isinstance(v, VEntity):
        return {"__entity": {"type": v.ref.entity_type, "id": v.ref.entity_id}}
    if isinstance(v, VSet):
        return sorted((value_to_json(e) for e in v.elems), key=lambda x: json.dumps(x, sort_keys=True))
    if isinstance(v, VRecord):
        return {k: value_to_json(x) for k, x in v.fields}
    raise TypeError(f"not a value: {v!r}")


def _decode_json(json_text: str, what: str):
    try:
        return json.loads(json_text)
    except json.JSONDecodeError as err:
        raise BadEntityRef(f"{what} is not valid JSON: {err}") from None
    except RecursionError:
        raise BadEntityRef(f"{what} nests too deeply to decode") from None


@_collector_paused()
def load_entities(json_text: str) -> EntityStore:
    """Load the documented entities JSON format in one pass over its entries."""
    data = _decode_json(json_text, "entities file")
    if not isinstance(data, list):
        raise BadEntityRef("entities file must be a JSON array")
    triples = []
    for i, item in enumerate(data):
        # Messages are relative to the entry; its "entity #i" is added on error.
        try:
            if not isinstance(item, dict) or "uid" not in item:
                raise BadEntityRef(': each entry needs a "uid"')
            ref = _ref_from_json(item["uid"], "")
            attrs_obj = item.get("attrs", {})
            if not isinstance(attrs_obj, dict):
                raise BadEntityRef(': "attrs" must be an object')
            attrs = _EMPTY_RECORD_V  # one shared record: no per-entity objects to rescan
            if attrs_obj:
                try:
                    attrs = vrecord({k: value_from_json(v, k) for k, v in attrs_obj.items()})
                except BadEntityRef as err:
                    raise BadEntityRef(f".attrs.{err}") from None
            parents_obj = item.get("parents", [])
            if not isinstance(parents_obj, list):
                raise BadEntityRef(': "parents" must be an array')
            triples.append((ref, attrs, [_ref_from_json(p, ".parents") for p in parents_obj]))
        except BadEntityRef as err:
            raise BadEntityRef(f"entity #{i}{err}") from None
    return build_store(triples)


def load_request(json_text: str) -> Request:
    data = _decode_json(json_text, "request file")
    if not isinstance(data, dict):
        raise BadEntityRef("request file must be a JSON object")
    for key in ("principal", "action", "resource"):
        if key not in data:
            raise BadEntityRef(f"request is missing \"{key}\"")
    action = _ref_from_json(data["action"], "action")
    if action.type_tail != "Action":
        raise BadEntityRef(f"action entity type must end in Action, got {action.entity_type}")
    context_obj = data.get("context", {})
    if not isinstance(context_obj, dict):
        raise BadEntityRef("request context must be an object")
    context = value_from_json(context_obj, "context")
    if not isinstance(context, VRecord):
        raise BadEntityRef("request context must decode to a record")
    return Request(
        principal=_ref_from_json(data["principal"], "principal"),
        action=action,
        resource=_ref_from_json(data["resource"], "resource"),
        context=context,
    )


def store_to_json(store: EntityStore) -> list:
    """Inverse of load_entities, with closed ancestor sets written as parents."""
    out = []
    for ref in sorted(store.refs(), key=lambda r: (r.entity_type, r.entity_id)):
        data = store.get(ref)
        out.append(
            {
                "uid": {"type": ref.entity_type, "id": ref.entity_id},
                "attrs": {k: value_to_json(v) for k, v in data.attrs.fields},
                "parents": [
                    {"type": p.entity_type, "id": p.entity_id}
                    for p in sorted(store.ancestors_of(ref), key=lambda r: (r.entity_type, r.entity_id))
                ],
            }
        )
    return out
