"""Entity refs are interned: one object per uid, whichever way it was made.
SMT terms are interned too, and die with the analysis that built them."""

import copy
import dataclasses
import gc
import itertools
import pickle
import sys
import threading
import weakref

from cedar_engine import ast as ast_module
from cedar_engine import smt_backend, terms
from cedar_engine.ast import EntityRef, VEntity, link, vrecord, vset
from cedar_engine.authorizer import PolicySet, Verdict, authorize
from cedar_engine.entities import Request, build_store, load_entities, load_request, merge_action_hierarchy
from cedar_engine.parser import parse_policies, parse_schema
from cedar_engine.smt_backend import SolverConfig
from cedar_engine.symcc import analyze_equivalence

from conftest import read_fixture
from test_acceptance import _fifty_entity_store, load_fixture_set
from test_script_trees import _fixture_pairs


def test_every_construction_path_gives_the_one_object():
    alice, team = EntityRef("User", "alice"), EntityRef("Team", "t")
    assert EntityRef("User", "alice") is alice

    policy, template = parse_policies(
        'permit(principal == User::"alice", action, resource in Team::"t")'
        ' when { resource.owner == User::"alice" };'
        " permit(principal in ?principal, action, resource);"
    )
    assert policy.principal.target is alice and policy.resource.target is team
    (_, condition), = policy.conditions
    assert condition.right.value.ref is alice
    linked = link(template, {"?principal": EntityRef("Team", "t")}, "l0")
    assert linked.principal.target is team

    store = load_entities(
        '[{"uid": {"type": "User", "id": "alice"},'
        ' "attrs": {"self": {"__entity": {"type": "User", "id": "alice"}}},'
        ' "parents": [{"type": "Team", "id": "t"}]},'
        ' {"uid": {"type": "Team", "id": "t"}}]'
    )
    (stored_alice,) = [r for r in store.refs() if r.entity_type == "User"]
    assert stored_alice is alice
    assert store.get(alice).ancestors == (team,) and store.get(alice).ancestors[0] is team
    assert store.get(alice).attrs.get("self").ref is alice
    request = load_request(
        '{"principal": {"type": "User", "id": "alice"}, "action": {"type": "Action", "id": "a"},'
        ' "resource": {"type": "Team", "id": "t"}}'
    )
    assert request.principal is alice and request.resource is team

    for twin in (
        pickle.loads(pickle.dumps(alice)),
        copy.copy(alice),
        copy.deepcopy(alice),
        dataclasses.replace(alice),
        dataclasses.replace(EntityRef("User", "bob"), entity_id="alice"),
    ):
        assert twin is alice


def test_counterexample_refs_are_the_interned_objects():
    x = EntityRef("User", "x")
    schema = parse_schema("entity User; action a appliesTo { principal: [User], resource: [User] };")
    old = PolicySet.from_policies(parse_policies('permit(principal == User::"x", action, resource);'))
    new = PolicySet.from_policies(parse_policies("permit(principal, action, resource);"))
    (verdict,) = analyze_equivalence(old, new, schema)
    assert verdict.status == "differs"
    cex = verdict.counterexample
    assert [r for r in cex.store.refs() if r == x][0] is x
    principal = cex.request.principal
    assert principal != x and principal is EntityRef(principal.entity_type, principal.entity_id)


def test_the_intern_table_drops_an_unreferenced_ref():
    key = ("Interning", "dropped")
    enabled = gc.isenabled()
    gc.disable()  # the ref must go by reference counting alone
    try:
        ref = EntityRef(*key)
        assert ast_module._INTERNED[key]() is ref
        probe = weakref.ref(ref)
        del ref
        assert probe() is None
        assert key not in ast_module._INTERNED
        again = EntityRef(*key)
        assert ast_module._INTERNED[key]() is again
        del again
        assert key not in ast_module._INTERNED
    finally:
        if enabled:
            gc.enable()


def test_terms_die_with_their_analysis(monkeypatch):
    pairs = list(_fixture_pairs())
    live = []  # the table's size at each solver call
    solve = smt_backend.run_solver
    monkeypatch.setattr(smt_backend, "run_solver", lambda *args: live.append(len(terms._TERMS)) or solve(*args))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()  # the terms must go by reference counting alone
    try:
        before = len(terms._TERMS)
        verdicts = [analyze_equivalence(a, b, schema, config=SolverConfig.bundled()) for _, a, b, schema in pairs]
        assert {v.status for vs in verdicts for v in vs} == {"equivalent", "differs"}
        assert live and min(live) > before
        del verdicts
        assert len(terms._TERMS) == before
    finally:
        if enabled:
            gc.enable()


def test_refs_built_from_many_threads_agree():
    uids = [("Threaded", str(i)) for i in range(100)]
    workers = 4
    made = [None] * workers
    start = threading.Barrier(workers)

    def build(k):
        start.wait()
        for _ in range(30):
            # Each round drops the previous round's refs, so threads race on
            # interning, on freeing and on interning again.
            made[k] = [EntityRef(t, i) for t, i in uids]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for column, uid in zip(zip(*made), uids):
        for ref in column:
            assert (ref.entity_type, ref.entity_id) == uid and hash(ref) == hash(uid)
            assert ref == column[0] and ref == EntityRef(*uid)


def _linked_set():
    templates = parse_policies(
        '@id("member") permit(principal in ?principal, action == Action::"read", resource in ?resource);'
        '@id("banned") forbid(principal == ?principal, action, resource)'
        ' unless { principal in resource.owners || resource.owner == principal };'
    )
    groups = [EntityRef("Group", f"g{i}") for i in range(3)]
    folders = [EntityRef("Folder", f"f{i}") for i in range(2)]
    links = [
        ("member", {"?principal": g, "?resource": f}, f"m{i}")
        for i, (g, f) in enumerate(itertools.product(groups, folders))
    ]
    links.append(("banned", {"?principal": EntityRef("User", "u3")}, "b0"))
    users = [EntityRef("User", f"u{i}") for i in range(4)]
    docs = [EntityRef("Doc", f"d{i}") for i in range(4)]
    triples = [(g, vrecord({}), []) for g in groups] + [(f, vrecord({}), []) for f in folders]
    triples += [(u, vrecord({}), [groups[i % 3]]) for i, u in enumerate(users)]
    triples += [
        (d, vrecord({"owner": VEntity(users[i]), "owners": vset([VEntity(users[3 - i])])}), [folders[i % 2]])
        for i, d in enumerate(docs)
    ]
    actions = [EntityRef("Action", "read"), EntityRef("Action", "write")]
    return PolicySet.from_policies(templates, links), build_store(triples), users, actions, docs + folders


def test_authorization_never_calls_entity_ref_eq(monkeypatch):
    calls = []
    original = EntityRef.__eq__

    def counting(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(EntityRef, "__eq__", counting)
    verdicts = []

    # Criterion 8's store: every user, action and resource of it.
    policies, schema = load_fixture_set("tinytodo")
    tinytodo = PolicySet.from_policies(policies)
    store, users, lists = _fifty_entity_store()
    store = merge_action_hierarchy(store, schema)
    resources = [EntityRef("Application", "TinyTodo"), *lists]
    for action in schema.actions:
        for principal, resource in itertools.product(users, resources):
            verdicts.append(authorize(tinytodo, store, Request(principal, action, resource, vrecord({}))).verdict)
    # The fixture's own requests, against its entities.
    fixture_store = load_entities(read_fixture("tinytodo", "entities.json"))
    for name in ("aaron_createlist", "aaron_getlist", "andrew_createlist"):
        request = load_request(read_fixture("tinytodo", "requests", f"{name}.json"))
        verdicts.append(authorize(tinytodo, fixture_store, request).verdict)
    # A small store under template links.
    linked, linked_store, principals, actions, targets = _linked_set()
    for principal, action, resource in itertools.product(principals, actions, targets):
        verdicts.append(authorize(linked, linked_store, Request(principal, action, resource, vrecord({}))).verdict)

    assert Verdict.ALLOW in verdicts and Verdict.DENY in verdicts
    assert calls == []
