"""Hierarchy closure, store loading, and the JSON formats."""

import json

import pytest

from cedar_engine.ast import EntityRef, VBool, VEntity, VLong, VString, vrecord, vset
from cedar_engine.entities import (
    BadEntityRef,
    DuplicateEntity,
    HierarchyCycle,
    build_store,
    load_entities,
    load_request,
    merge_action_hierarchy,
    store_to_json,
    value_from_json,
    value_to_json,
)
from cedar_engine.parser import parse_schema
from cedar_engine.testkit import GenConfig, bfs_ancestors, gen_store

from conftest import read_fixture


def ref(t, i):
    return EntityRef(t, i)


def test_overview_store_ancestors(tinytodo_store):
    aaron = ref("User", "aaron")
    assert tinytodo_store.ancestors_of(aaron) == frozenset(
        {ref("Team", "interns"), ref("Application", "TinyTodo"), ref("Team", "1")}
    )


def test_empty_store():
    assert load_entities("[]").entries == {}


def test_chain_closure():
    store = build_store(
        [
            (ref("E", "a"), vrecord({}), [ref("E", "b")]),
            (ref("E", "b"), vrecord({}), [ref("E", "c")]),
            (ref("E", "c"), vrecord({}), []),
        ]
    )
    assert store.ancestors_of(ref("E", "a")) == frozenset({ref("E", "b"), ref("E", "c")})


def test_absent_entity_has_no_ancestors(tinytodo_store):
    assert tinytodo_store.ancestors_of(ref("User", "nobody")) == frozenset()


def test_cycle_rejected():
    with pytest.raises(HierarchyCycle):
        build_store(
            [
                (ref("E", "a"), vrecord({}), [ref("E", "b")]),
                (ref("E", "b"), vrecord({}), [ref("E", "a")]),
            ]
        )
    with pytest.raises(HierarchyCycle):
        build_store([(ref("E", "a"), vrecord({}), [ref("E", "a")])])


def _chain_json(n, close_cycle=False):
    """Groups G::"0" in G::"1" in ... in G::"n-1" (and back to G::"0")."""
    def uid(i):
        return {"type": "G", "id": str(i)}

    def parents(i):
        if i + 1 < n:
            return [uid(i + 1)]
        return [uid(0)] if close_cycle else []

    return json.dumps([{"uid": uid(i), "parents": parents(i)} for i in range(n)])


def test_long_parent_chain_closes():
    # Deeper than the interpreter's recursion limit; the closure has n(n-1)/2
    # pairs, about 1.1 million here.
    n = 1500
    store = load_entities(_chain_json(n))
    assert len(store.ancestors_of(ref("G", "0"))) == n - 1
    assert store.ancestors_of(ref("G", str(n - 2))) == frozenset({ref("G", str(n - 1))})
    assert store.ancestors_of(ref("G", str(n - 1))) == frozenset()
    with pytest.raises(HierarchyCycle):
        load_entities(_chain_json(n, close_cycle=True))


def test_duplicate_rejected():
    with pytest.raises(DuplicateEntity):
        build_store(
            [
                (ref("E", "a"), vrecord({}), []),
                (ref("E", "a"), vrecord({}), []),
            ]
        )


def test_malformed_inputs():
    with pytest.raises(BadEntityRef):
        load_entities("{}")
    with pytest.raises(BadEntityRef):
        load_entities('[{"uid": {"type": "", "id": "x"}}]')
    with pytest.raises(BadEntityRef):
        load_entities('[{"uid": {"type": "E", "id": "x"}, "attrs": {"n": 99999999999999999999}}]')
    with pytest.raises(BadEntityRef):
        load_request('{"principal": {"type": "User", "id": "u"}}')
    with pytest.raises(BadEntityRef):
        load_request(
            '{"principal": {"type": "User", "id": "u"},'
            ' "action": {"type": "User", "id": "a"},'
            ' "resource": {"type": "R", "id": "r"}}'
        )


def test_ancestors_match_bfs_oracle():
    for seed in range(300):
        store = gen_store(GenConfig(seed))
        for r in store.refs():
            assert store.ancestors_of(r) == bfs_ancestors(store, r)
            assert r not in store.ancestors_of(r)  # DAG invariant


def test_closure_idempotent():
    for seed in range(100):
        store = gen_store(GenConfig(seed))
        reclosed = build_store(
            [(r, store.get(r).attrs, sorted(store.get(r).ancestors, key=str)) for r in store.refs()]
        )
        for r in store.refs():
            assert reclosed.ancestors_of(r) == store.ancestors_of(r)


def test_transitivity_invariant(tinytodo_store):
    for a in tinytodo_store.refs():
        for b in tinytodo_store.ancestors_of(a):
            assert tinytodo_store.ancestors_of(b) <= tinytodo_store.ancestors_of(a) | {b}


def test_value_json_round_trip():
    v = vrecord(
        {
            "n": VLong(-3),
            "s": VString("x"),
            "flag": VBool(True),
            "who": VEntity(ref("User", "u")),
            "tags": vset([VString("a"), VString("b")]),
            "nested": vrecord({"inner": VLong(1)}),
        }
    )
    assert value_from_json(value_to_json(v)) == v
    # Entity references are tagged to stay distinct from records.
    assert value_to_json(VEntity(ref("User", "u"))) == {"__entity": {"type": "User", "id": "u"}}
    assert value_from_json([1, 1, 2]) == vset([VLong(1), VLong(2)])


def test_store_json_round_trip(tinytodo_store):
    dumped = json.dumps(store_to_json(tinytodo_store))
    again = load_entities(dumped)
    for r in tinytodo_store.refs():
        assert again.get(r).attrs == tinytodo_store.get(r).attrs
        assert again.ancestors_of(r) == tinytodo_store.ancestors_of(r)


def test_merge_action_hierarchy():
    schema = parse_schema(read_fixture("github", "github.cedarschema"))
    store = merge_action_hierarchy(load_entities("[]"), schema)
    read = ref("Action", "readRepository")
    assert ref("Action", "administrateRepository") in store.ancestors_of(read)


def test_request_context_may_hold_entities():
    req = load_request(
        '{"principal": {"type": "User", "id": "u"},'
        ' "action": {"type": "Action", "id": "a"},'
        ' "resource": {"type": "R", "id": "r"},'
        ' "context": {"target": {"__entity": {"type": "R", "id": "other"}}}}'
    )
    assert req.context.get("target") == VEntity(ref("R", "other"))
