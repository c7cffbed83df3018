"""Entity hierarchy storage and the JSON ingestion formats.

The store keeps, per entity, its attribute record and its *transitively
closed* ancestor set: `in` tests are direct set membership, so the loader
materializes the closure of the declared parent edges and rejects cycles.
Stores are immutable after load; concurrent reads are safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

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
    attrs: VRecord
    ancestors: frozenset  # transitively closed


_EMPTY_ANCESTORS: frozenset = frozenset()
_EMPTY_RECORD_V = vrecord({})


@dataclass(frozen=True)
class EntityStore:
    entries: Mapping  # EntityRef -> EntityData

    def __contains__(self, ref: EntityRef) -> bool:
        return ref in self.entries

    def get(self, ref: EntityRef) -> Optional[EntityData]:
        return self.entries.get(ref)

    def ancestors_of(self, ref: EntityRef) -> frozenset:
        """Closed ancestor set; empty for absent entities (absence is not an error)."""
        data = self.entries.get(ref)
        return data.ancestors if data is not None else _EMPTY_ANCESTORS

    def refs(self):
        return self.entries.keys()


EMPTY_STORE = EntityStore({})


@dataclass(frozen=True)
class Request:
    principal: EntityRef
    action: EntityRef
    resource: EntityRef
    context: VRecord = _EMPTY_RECORD_V


def close_hierarchy(parents: Mapping) -> dict:
    """Transitive closure of a direct-parent map; raises HierarchyCycle.

    Depth-first with an explicit stack, so parent chains of any length close
    without recursion.  A ref is closed once all its parents are; meeting a
    ref that is still on the stack is a cycle.
    """
    closed: dict = {}
    for root in parents:
        if root in closed:
            continue
        active = {root}
        stack = [(root, iter(parents[root]), set())]
        while stack:
            ref, todo, out = stack[-1]
            for p in todo:
                if p in parents and p not in closed:
                    if p in active:
                        raise HierarchyCycle(p)
                    active.add(p)
                    stack.append((p, iter(parents[p]), set()))
                    break
                out.add(p)
                out |= closed.get(p, _EMPTY_ANCESTORS)
            else:
                stack.pop()
                active.remove(ref)
                closed[ref] = done = frozenset(out)
                if stack:  # ref is a parent of the ref below it on the stack
                    below = stack[-1][2]
                    below.add(ref)
                    below |= done
    return closed


def build_store(entities: Iterable) -> EntityStore:
    """Build a closed store from (ref, attrs, direct_parents) triples."""
    attrs_by_ref: dict = {}
    parents: dict = {}
    for ref, attrs, direct in entities:
        if ref in attrs_by_ref:
            raise DuplicateEntity(ref)
        attrs_by_ref[ref] = attrs
        parents[ref] = tuple(direct)
    closed = close_hierarchy(parents)
    return EntityStore(
        {ref: EntityData(attrs_by_ref[ref], closed.get(ref, _EMPTY_ANCESTORS)) for ref in attrs_by_ref}
    )


def merge_action_hierarchy(store: EntityStore, schema) -> EntityStore:
    """Overlay the schema's action-group ancestry onto a store.

    The schema is the source of truth for action hierarchies; action entities
    need not appear in entity data.
    """
    entries = dict(store.entries)
    for ref in schema.actions:
        ancestors = schema.action_ancestors(ref)
        old = entries.get(ref)
        if old is not None:
            entries[ref] = EntityData(old.attrs, old.ancestors | ancestors)
        else:
            entries[ref] = EntityData(_EMPTY_RECORD_V, ancestors)
    return EntityStore(entries)


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def _ref_from_json(obj, where: str) -> EntityRef:
    if not isinstance(obj, dict) or set(obj) != {"type", "id"}:
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
        if set(obj) == {"__entity"}:
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


def load_entities(json_text: str) -> EntityStore:
    """Load the documented entities JSON format and close the hierarchy."""
    data = _decode_json(json_text, "entities file")
    if not isinstance(data, list):
        raise BadEntityRef("entities file must be a JSON array")
    triples = []
    for i, item in enumerate(data):
        where = f"entity #{i}"
        if not isinstance(item, dict) or "uid" not in item:
            raise BadEntityRef(f"{where}: each entry needs a \"uid\"")
        ref = _ref_from_json(item["uid"], where)
        attrs_obj = item.get("attrs", {})
        if not isinstance(attrs_obj, dict):
            raise BadEntityRef(f"{where}: \"attrs\" must be an object")
        attrs = vrecord({k: value_from_json(v, f"{where}.attrs.{k}") for k, v in attrs_obj.items()})
        parents_obj = item.get("parents", [])
        if not isinstance(parents_obj, list):
            raise BadEntityRef(f"{where}: \"parents\" must be an array")
        parents = [_ref_from_json(p, f"{where}.parents") for p in parents_obj]
        triples.append((ref, attrs, parents))
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
                    for p in sorted(data.ancestors, key=lambda r: (r.entity_type, r.entity_id))
                ],
            }
        )
    return out
