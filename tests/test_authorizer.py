"""Indexing, slicing, and the authorization combine rules."""

import random

from cedar_engine.ast import EntityRef, Effect, vrecord
from cedar_engine.authorizer import (
    ANY_KEY,
    PolicySet,
    Verdict,
    authorize,
    build_index,
    slice_policies,
)
from cedar_engine.entities import EMPTY_STORE, Request, build_store
from cedar_engine.evaluator import PolicyEvalStatus, evaluate_policy
from cedar_engine.parser import parse_policies
from cedar_engine.testkit import GenConfig, gen_policies, gen_request, gen_store, gen_template_links


def pset(src: str) -> PolicySet:
    return PolicySet.from_policies(parse_policies(src))


def test_index_keys(tinytodo_policies):
    ps = PolicySet.from_policies(tinytodo_policies)
    index = build_index(ps)
    buckets = {pid: key for key, pids in index.buckets.items() for pid in pids}
    assert buckets["policy0"] == (ANY_KEY, EntityRef("Application", "TinyTodo"))
    assert buckets["policy1"] == (ANY_KEY, ANY_KEY)
    assert buckets["policy2"] == (EntityRef("Team", "admin"), EntityRef("Application", "TinyTodo"))
    assert buckets["policy4"] == (EntityRef("Team", "interns"), EntityRef("Application", "TinyTodo"))


def test_index_unconstrained_policy():
    ps = pset("permit(principal, action, resource);")
    index = build_index(ps)
    assert index.buckets == {(ANY_KEY, ANY_KEY): frozenset({"policy0"})}


def test_every_policy_in_exactly_one_bucket(tinytodo_policies):
    index = build_index(PolicySet.from_policies(tinytodo_policies))
    seen = [pid for pids in index.buckets.values() for pid in pids]
    assert sorted(seen) == sorted(p.id for p in tinytodo_policies)


def test_slice_empty_index():
    index = build_index(PolicySet.from_policies([]))
    req = Request(EntityRef("U", "u"), EntityRef("Action", "a"), EntityRef("R", "r"), vrecord({}))
    assert slice_policies(index, EMPTY_STORE, req) == frozenset()


def test_intern_keyed_policy_sliced_by_ancestry():
    ps = pset('forbid(principal in Team::"interns", action, resource);')
    index = build_index(ps)
    store = build_store(
        [
            (EntityRef("User", "aaron"), vrecord({}), [EntityRef("Team", "interns")]),
            (EntityRef("User", "andrew"), vrecord({}), []),
            (EntityRef("Team", "interns"), vrecord({}), []),
        ]
    )
    resource = EntityRef("R", "r")
    req_a = Request(EntityRef("User", "aaron"), EntityRef("Action", "x"), resource, vrecord({}))
    req_b = Request(EntityRef("User", "andrew"), EntityRef("Action", "x"), resource, vrecord({}))
    assert slice_policies(index, store, req_a) == frozenset({"policy0"})
    assert slice_policies(index, store, req_b) == frozenset()


def test_slice_is_superset_of_satisfied(tinytodo_policies, tinytodo_store):
    ps = PolicySet.from_policies(tinytodo_policies)
    index = build_index(ps)
    request = Request(
        EntityRef("User", "aaron"),
        EntityRef("Action", "GetList"),
        EntityRef("List", "0"),
        vrecord({}),
    )
    selected = slice_policies(index, tinytodo_store, request)
    for p in ps.closed_policies:
        out = evaluate_policy(p, tinytodo_store, request)
        if out.status is PolicyEvalStatus.SATISFIED:
            assert p.id in selected


def test_deny_overrides_and_reports_forbid(tinytodo_policies, tinytodo_store):
    ps = PolicySet.from_policies(tinytodo_policies)
    request = Request(
        EntityRef("User", "aaron"),
        EntityRef("Action", "CreateList"),
        EntityRef("Application", "TinyTodo"),
        vrecord({}),
    )
    decision = authorize(ps, tinytodo_store, request)
    assert decision.verdict is Verdict.DENY
    assert decision.determining == frozenset({"policy4"})


def test_default_deny_on_empty_set():
    req = Request(EntityRef("U", "u"), EntityRef("Action", "a"), EntityRef("R", "r"), vrecord({}))
    decision = authorize(PolicySet.from_policies([]), EMPTY_STORE, req)
    assert decision.verdict is Verdict.DENY
    assert decision.determining == frozenset()


def test_allow_via_create_policy(tinytodo_policies, tinytodo_store):
    ps = PolicySet.from_policies(tinytodo_policies)
    request = Request(
        EntityRef("User", "andrew"),
        EntityRef("Action", "CreateList"),
        EntityRef("Application", "TinyTodo"),
        vrecord({}),
    )
    decision = authorize(ps, tinytodo_store, request)
    assert decision.verdict is Verdict.ALLOW
    assert decision.determining == frozenset({"policy0"})


def test_errored_policies_reported_not_fatal(tinytodo_store):
    ps = pset(
        """
        permit(principal, action, resource) when { resource.nope == 1 };
        permit(principal, action, resource);
        """
    )
    request = Request(
        EntityRef("User", "aaron"),
        EntityRef("Action", "GetList"),
        EntityRef("List", "0"),
        vrecord({}),
    )
    decision = authorize(ps, tinytodo_store, request)
    assert decision.verdict is Verdict.ALLOW
    assert decision.determining == frozenset({"policy1"})
    assert [pid for pid, _ in decision.errors] == ["policy0"]


def _combined_properties(ps, store, request):
    outcomes = {p.id: evaluate_policy(p, store, request) for p in ps.closed_policies}
    sat_permits = {
        pid
        for pid, out in outcomes.items()
        if out.status is PolicyEvalStatus.SATISFIED and ps.by_id(pid).effect is Effect.PERMIT
    }
    sat_forbids = {
        pid
        for pid, out in outcomes.items()
        if out.status is PolicyEvalStatus.SATISFIED and ps.by_id(pid).effect is Effect.FORBID
    }
    decision = authorize(ps, store, request)
    if sat_forbids:
        assert decision.verdict is Verdict.DENY  # forbid trumps permit
    if not sat_permits:
        assert decision.verdict is Verdict.DENY  # default deny
    if decision.verdict is Verdict.ALLOW:
        assert sat_permits and decision.determining == frozenset(sat_permits)
    return decision


def test_semantics_properties_sample():
    for seed in range(400):
        cfg = GenConfig(seed)
        ps = PolicySet.from_policies(gen_policies(cfg))
        store = gen_store(cfg)
        request = gen_request(cfg, store)
        decision = _combined_properties(ps, store, request)
        # Order independence.
        rng = random.Random(seed)
        shuffled = list(ps.closed_policies)
        rng.shuffle(shuffled)
        other = authorize(PolicySet(tuple(shuffled), (), ()), store, request)
        assert other.verdict == decision.verdict
        assert other.determining == decision.determining
        # Sound slicing.
        unsliced = authorize(ps, store, request, use_slicing=False)
        assert unsliced.verdict == decision.verdict
        assert unsliced.determining == decision.determining


def test_sound_slicing_with_template_links():
    for seed in range(150):
        cfg = GenConfig(seed)
        store = gen_store(cfg)
        template, links = gen_template_links(cfg, store, probability=0.08)
        ps = PolicySet.from_policies(gen_policies(cfg) + [template], links=links)
        request = gen_request(cfg, store)
        sliced = authorize(ps, store, request, use_slicing=True)
        unsliced = authorize(ps, store, request, use_slicing=False)
        assert sliced.verdict == unsliced.verdict
        assert sliced.determining == unsliced.determining


# ---------------------------------------------------------------------------
# Compile once: the set's index and each policy's desugared body are built
# on first use and reused by every later request.
# ---------------------------------------------------------------------------


def _decision_key(decision):
    return decision.verdict, decision.determining, [(pid, e.kind) for pid, e in decision.errors]


def _gen_requests(seed, store, n):
    return [gen_request(GenConfig(seed * 1000 + k), store) for k in range(n)]


def test_index_built_once_per_policy_set(monkeypatch):
    import cedar_engine.authorizer as authorizer

    calls = []
    real = authorizer.build_index
    monkeypatch.setattr(authorizer, "build_index", lambda ps: calls.append(ps) or real(ps))
    cfg = GenConfig(7)
    store = gen_store(cfg)
    template, links = gen_template_links(cfg, store, probability=0.3)
    ps = PolicySet.from_policies(gen_policies(cfg) + [template], links=links)
    assert calls == []  # nothing is built at construction
    for request in _gen_requests(7, store, 50):
        authorize(ps, store, request)
    assert calls == [ps]
    other = PolicySet.from_policies(gen_policies(cfg))
    authorize(other, store, gen_request(cfg, store))
    assert calls == [ps, other]


def test_each_policy_desugared_at_most_once(monkeypatch):
    import cedar_engine.ast as ast

    counts = {}
    real = ast.toexp

    def counting(policy, *args, **kwargs):
        counts[policy.id] = counts.get(policy.id, 0) + 1
        return real(policy, *args, **kwargs)

    monkeypatch.setattr(ast, "toexp", counting)
    for seed in range(20):
        cfg = GenConfig(seed)
        store = gen_store(cfg)
        counts.clear()
        # Fresh policy objects, so no body is cached before the count starts.
        template, links = gen_template_links(cfg, store, probability=0.2)
        ps = PolicySet.from_policies(gen_policies(cfg) + [template], links=links)
        for request in _gen_requests(seed, store, 30):
            authorize(ps, store, request)
            authorize(ps, store, request, use_slicing=False)
        assert set(counts) == {p.id for p in ps.closed_policies}
        assert set(counts.values()) == {1}


def test_one_policy_set_over_two_stores():
    # The index must not depend on the store it was first used with.
    ps = pset('permit(principal in Team::"a", action, resource);')
    user, team_a, team_b = EntityRef("User", "u"), EntityRef("Team", "a"), EntityRef("Team", "b")
    in_a = build_store([(user, vrecord({}), [team_a]), (team_a, vrecord({}), [])])
    in_b = build_store([(user, vrecord({}), [team_b]), (team_b, vrecord({}), [])])
    request = Request(user, EntityRef("Action", "x"), EntityRef("R", "r"), vrecord({}))
    assert authorize(ps, in_a, request).verdict is Verdict.ALLOW
    assert authorize(ps, in_b, request).verdict is Verdict.DENY
    assert authorize(ps, in_a, request).verdict is Verdict.ALLOW
    for seed in range(60):
        cfg = GenConfig(seed)
        template, links = gen_template_links(cfg, gen_store(cfg), probability=0.2)
        ps = PolicySet.from_policies(gen_policies(cfg) + [template], links=links)
        for store_seed in (seed, seed + 10_000, seed):
            store = gen_store(GenConfig(store_seed))
            for request in _gen_requests(store_seed, store, 10):
                sliced = authorize(ps, store, request)
                full = authorize(ps, store, request, use_slicing=False)
                assert _decision_key(sliced) == _decision_key(full)


def test_linked_and_errored_policies_report_the_same(tinytodo_store):
    ps = PolicySet.from_policies(
        parse_policies(
            """
            @id("missing") permit(principal, action, resource) when { resource.nope == 1 };
            @id("grant") permit(principal in ?principal, action, resource == ?resource);
            @id("bar") forbid(principal == ?principal, action, resource) when { principal.nope };
            """
        ),
        links=[
            ("grant", {"?principal": EntityRef("Team", "interns"), "?resource": EntityRef("List", "0")}, "g0"),
            ("grant", {"?principal": EntityRef("User", "kesha"), "?resource": EntityRef("List", "0")}, "g1"),
            ("bar", {"?principal": EntityRef("User", "aaron")}, "b0"),
        ],
    )
    aaron = Request(EntityRef("User", "aaron"), EntityRef("Action", "GetList"), EntityRef("List", "0"), vrecord({}))
    andrew = Request(EntityRef("User", "andrew"), EntityRef("Action", "GetList"), EntityRef("List", "0"), vrecord({}))
    for _ in range(3):
        for request, verdict, determining, errored in (
            (aaron, Verdict.ALLOW, {"g0"}, ["b0", "missing"]),
            (andrew, Verdict.DENY, set(), ["missing"]),
        ):
            for use_slicing in (True, False):
                decision = authorize(ps, tinytodo_store, request, use_slicing=use_slicing)
                assert decision.verdict is verdict
                assert decision.determining == frozenset(determining)
                assert [pid for pid, _ in decision.errors] == errored
                assert {e.kind.value for _, e in decision.errors} == {"AttrNotFound"}
    assert ps.by_id("g0").id == "g0"
    assert ps.by_id("grant").is_template()
    assert ps.by_id("nope") is None
    # A template is never closed: evaluating one directly still reports the error.
    outcome = evaluate_policy(ps.by_id("grant"), tinytodo_store, aaron)
    assert outcome.status is PolicyEvalStatus.ERRORED
