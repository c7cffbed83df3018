"""Hierarchy closure, store loading, and the JSON formats."""

import gc
import json
import sys
import threading

import pytest

import cedar_engine.entities as entities_module
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

from conftest import collections_logged, read_fixture


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


def test_store_keeps_declared_edges_and_memoises_closures():
    store = load_entities(_chain_json(4))
    g = [ref("G", str(i)) for i in range(4)]
    assert [store.get(r).ancestors for r in g] == [(g[1],), (g[2],), (g[3],), ()]
    closed = store.ancestors_of(g[0])
    assert closed == frozenset(g[1:]) and store.ancestors_of(g[0]) is closed
    # A parent reference is the very EntityRef its entity was stored under.
    stored = {r: r for r in store.refs()}
    assert all(store.get(g[i]).ancestors[0] is stored[g[i + 1]] for i in range(3))


def test_concurrent_first_reads_agree_with_oracle():
    # Threads race to fill one store's memo; every read must still be the
    # closure, and no thread may hang.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            store = gen_store(GenConfig(seed, max_entities=6))
            want = {r: bfs_ancestors(store, r) for r in store.refs()}
            wrong = []

            def read():
                wrong.extend(r for r in want if store.ancestors_of(r) != want[r])

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert wrong == []
    finally:
        sys.setswitchinterval(interval)


def _entity(i, *parents):
    return {"uid": {"type": "E", "id": i}, "parents": [{"type": "E", "id": p} for p in parents]}


@pytest.mark.parametrize(
    "entries, error, message",
    [
        ([_entity("a", "b"), _entity("b")], None, None),
        ("[{", BadEntityRef, "not valid JSON"),
        ([_entity("a", "b"), _entity("b", "a")], HierarchyCycle, "cycle"),
        ([_entity("a"), _entity("a")], DuplicateEntity, "duplicate entity"),
        ([{"uid": {"type": "", "id": "a"}}], BadEntityRef, "malformed entity uid"),
    ],
    ids=["loaded", "bad-json", "cycle", "duplicate", "malformed-uid"],
)
def test_loading_leaves_the_collector_as_it_found_it(collector, entries, error, message):
    text = entries if isinstance(entries, str) else json.dumps(entries)
    threshold = gc.get_threshold()
    if error is None:
        load_entities(text)
    else:
        with pytest.raises(error, match=message):
            load_entities(text)
    assert gc.isenabled() is collector
    assert gc.get_threshold() == threshold


def test_loading_starts_no_collection_and_leaves_no_garbage(monkeypatch):
    # Enough entities for dozens of young collections, were the collector on.
    text = json.dumps(
        [
            {
                "uid": {"type": "User", "id": f"paused-{i}"},
                "attrs": {"level": i, "tags": ["a", str(i)]},
                "parents": [{"type": "Group", "id": f"paused-{i % 50}"}],
            }
            for i in range(3000)
        ]
    )
    built = []  # collection events logged when the store was built
    build_store = entities_module.build_store

    def logged_build_store(triples):
        store = build_store(triples)
        built.append(len(log))
        return store

    monkeypatch.setattr(entities_module, "build_store", logged_build_store)
    with collections_logged() as log:
        store = load_entities(text)
        unreachable = gc.collect()
    assert len(store.entries) == 3000
    assert built == [0]
    # The loader makes no reference cycles, so pausing strands no garbage:
    # neither the deferred collections nor a full one find any.
    assert unreachable == 0
    assert sum(collected for phase, _, collected in log if phase == "stop") == 0


def test_overlapping_loads_in_threads_leave_the_collector_on():
    # A load that found the collector off (another load had paused it) must
    # not turn it off after that other load turned it back on.  Empty loads
    # make the pause and restore most of the work, so threads overlap there.
    enabled = gc.isenabled()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            gc.enable()
            loaded = []

            def load():
                loaded.extend(len(load_entities("[]").entries) for _ in range(5000))

            threads = [threading.Thread(target=load) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert loaded == [0] * 20000
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        (gc.enable if enabled else gc.disable)()


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
