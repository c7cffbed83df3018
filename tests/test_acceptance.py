"""Acceptance suite: one test per release criterion, strictest settings.

Each test prints a single PASS line (visible with `pytest -s`); a failure
anywhere is a release blocker.  Tolerances are pinned here and nowhere else.
"""

import random
import statistics
import time


from cedar_engine.ast import (
    ANY,
    CondKind,
    EAnd,
    EBinop,
    EGetAttr,
    EHas,
    EIf,
    ELit,
    ENot,
    EOr,
    EVar,
    Effect,
    EntityRef,
    Policy,
    ScopeEq,
    ScopeIn,
    TRecord,
    VBool,
    VEntity,
    VLong,
    VString,
    vrecord,
)
from cedar_engine.authorizer import PolicySet, Verdict, authorize
from cedar_engine.entities import Request, build_store, merge_action_hierarchy
from cedar_engine.evaluator import EvalError, PolicyEvalStatus, evaluate, evaluate_policy
from cedar_engine.parser import ParseError, parse_policies, parse_schema, render_policies
from cedar_engine.symcc import analyze_equivalence, compile_expr, encode_types, is_true_term
from cedar_engine.sexpr import read_sexprs
from cedar_engine.smt_backend import ModelEvaluator, SolverConfig, print_script, run_solver, selector_table
from cedar_engine.terms import term_sexpr
from cedar_engine.testkit import (
    GenConfig,
    TermInterpreter,
    enumerate_conforming,
    gen_conforming,
    gen_expr,
    gen_policies,
    gen_request,
    gen_store,
    gen_template_links,
    gen_typed_bool_expr,
    policy_entity_literals,
)
from cedar_engine.validator import (
    ActionDecl,
    EntityTypeDecl,
    PolicyTypeError,
    Schema,
    environments,
    typecheck,
    validate,
)

from conftest import read_fixture


def _ok(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n} PASS — {message}")


FIXTURE_SETS = {
    "tinytodo": (("tinytodo", "policies.cedar"), ("tinytodo", "tinytodo.cedarschema")),
    "gdrive": (("gdrive", "policies.cedar"), ("gdrive", "gdrive.cedarschema")),
    "github": (("github", "policies.cedar"), ("github", "github.cedarschema")),
    "gdrive-templates": (
        ("gdrive", "templates", "policies.cedar"),
        ("gdrive", "templates", "gdrive-templates.cedarschema"),
    ),
    "github-templates": (
        ("github", "templates", "policies.cedar"),
        ("github", "templates", "github-templates.cedarschema"),
    ),
}


def load_fixture_set(name):
    pol_parts, schema_parts = FIXTURE_SETS[name]
    return parse_policies(read_fixture(*pol_parts)), parse_schema(read_fixture(*schema_parts))


# ---------------------------------------------------------------------------
# 1. Semantics properties
# ---------------------------------------------------------------------------


def test_criterion_1_semantics_properties(gen_seed):
    from cedar_engine.testkit import persist_failure

    start = time.time()
    triples = 0
    n_sets, n_requests = 4000, 25
    for base in range(n_sets):
        seed = base + gen_seed
        cfg = GenConfig(seed)
        policies = gen_policies(cfg)
        ps = PolicySet.from_policies(policies)
        store = gen_store(cfg)
        shuffled = list(ps.closed_policies)
        random.Random(seed).shuffle(shuffled)
        ps_shuffled = PolicySet(tuple(shuffled), ())
        for k in range(n_requests):
            request = gen_request(GenConfig(seed * 1000 + k), store)
            triples += 1
            try:
                outcomes = {p.id: evaluate_policy(p, store, request) for p in ps.closed_policies}
                sat = {pid for pid, o in outcomes.items() if o.status is PolicyEvalStatus.SATISFIED}
                sat_permits = {p.id for p in ps.closed_policies if p.id in sat and p.effect is Effect.PERMIT}
                sat_forbids = sat - sat_permits
                decision = authorize(ps, store, request)
                if sat_forbids:
                    assert decision.verdict is Verdict.DENY, "forbid trumps permit"
                    assert decision.determining == frozenset(sat_forbids)
                if not sat_permits:
                    assert decision.verdict is Verdict.DENY, "default deny"
                if decision.verdict is Verdict.ALLOW:
                    assert sat_permits, "explicit allow"
                    assert decision.determining == frozenset(sat_permits)
                other = authorize(ps_shuffled, store, request)
                assert other.verdict == decision.verdict, "order independence"
                assert other.determining == decision.determining
            except AssertionError:
                persist_failure("criterion1", store, request, policies, extra=f"seed {seed} k {k}")
                raise
    elapsed = time.time() - start
    assert triples >= 100_000
    assert elapsed < 120, f"semantics property run took {elapsed:.1f}s (budget 120s)"
    _ok(1, f"forbid-trumps/default-deny/explicit-allow/order-independence on {triples} triples in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. Sound slicing
# ---------------------------------------------------------------------------


def test_criterion_2_sound_slicing(gen_seed):
    from cedar_engine.testkit import persist_failure

    triples = 0
    start = time.time()
    for base in range(3000):
        seed = base + gen_seed
        cfg = GenConfig(seed)
        policies = gen_policies(cfg)
        ps = PolicySet.from_policies(policies)
        store = gen_store(cfg)
        for k in range(25):
            request = gen_request(GenConfig(seed * 911 + k), store)
            triples += 1
            sliced = authorize(ps, store, request, use_slicing=True)
            full = authorize(ps, store, request, use_slicing=False)
            same = (
                sliced.verdict == full.verdict
                and sliced.determining == full.determining
                and [(pid, e.kind) for pid, e in sliced.errors]
                == [(pid, e.kind) for pid, e in full.errors]
            )
            if not same:
                persist_failure("criterion2", store, request, policies, extra=f"seed {seed} k {k}")
                assert False, f"slicing changed the decision at seed {seed}"
    # Template-linked populations: a link for each (principal, resource) pair
    # with a coin flip, so linked policies grow quadratically with entities.
    for base in range(1000):
        seed = (base + gen_seed) ^ 0x7E47
        cfg = GenConfig(seed)
        store = gen_store(cfg)
        template, links = gen_template_links(cfg, store, probability=0.05)
        ps = PolicySet.from_policies(gen_policies(cfg) + [template], links=links)
        for k in range(25):
            request = gen_request(GenConfig(seed * 337 + k), store)
            triples += 1
            sliced = authorize(ps, store, request, use_slicing=True)
            full = authorize(ps, store, request, use_slicing=False)
            assert sliced.verdict == full.verdict
            assert sliced.determining == full.determining
    assert triples >= 100_000
    _ok(2, f"slicing decision-equivalence on {triples} inputs ({time.time()-start:.0f}s)")


# ---------------------------------------------------------------------------
# 3. Validation soundness on the fixture sets
# ---------------------------------------------------------------------------

_LINK_BINDING_TYPES = {
    # slot -> candidate entity types per template fixture set (chosen so the
    # linked policy still typechecks: membership needs an allowed ancestor).
    "gdrive-templates": {"?principal": ("User", "Group"), "?resource": ("Document", "Folder")},
    "github-templates": {
        "?principal": ("User", "Team", "Organization", "OrgPermission"),
        "?resource": ("Repository",),
    },
}


def _materialize_links(name, policies, rng, store):
    templates = [p for p in policies if p.is_template()]
    if not templates:
        return PolicySet.from_policies(policies)
    by_type = {}
    for ref in store.refs():
        by_type.setdefault(ref.entity_type, []).append(ref)
    links = []
    for i, template in enumerate(templates):
        for k in range(rng.randint(1, 2)):
            bindings = {}
            for slot in sorted(template.slots()):
                choices = _LINK_BINDING_TYPES[name][slot]
                etype = rng.choice(choices)
                bindings[slot] = rng.choice(by_type[etype])
            links.append((template.id, bindings, f"{template.id}-link{i}-{k}"))
    return PolicySet.from_policies(policies, links=links)


def test_criterion_3_validation_soundness():
    start = time.time()
    per_fixture = 10_000
    for name in FIXTURE_SETS:
        policies, schema = load_fixture_set(name)
        assert validate(policies, schema).valid, f"{name} must validate"
        literals = policy_entity_literals(policies)
        errored = 0
        for seed in range(per_fixture):
            cfg = GenConfig(seed, max_entities=3)
            store, request = gen_conforming(cfg, schema, include_refs=literals)
            store = merge_action_hierarchy(store, schema)
            rng = random.Random(seed)
            ps = _materialize_links(name, policies, rng, store)
            if seed < 200 and ps.closed_policies:
                report = validate(ps.closed_policies, schema)
                assert report.valid, f"{name} linked policies must stay valid"
            for p in ps.closed_policies:
                out = evaluate_policy(p, store, request)
                if out.status is PolicyEvalStatus.ERRORED:
                    errored += 1
        assert errored == 0, f"{name}: {errored} evaluation errors on conforming inputs"
    _ok(3, f"no evaluation errors across 5 fixture sets x {per_fixture} conforming pairs ({time.time()-start:.0f}s)")


# ---------------------------------------------------------------------------
# 4. Validator fixture parity and mutations
# ---------------------------------------------------------------------------


def _delete_attr(schema: Schema, entity_type: str, attr: str) -> Schema:
    decl = schema.entity_types[entity_type]
    new_attrs = TRecord(tuple(a for a in decl.attrs.attrs if a.name != attr))
    types = dict(schema.entity_types)
    types[entity_type] = EntityTypeDecl(new_attrs, decl.parents)
    return Schema(types, dict(schema.actions))


def _swap_resource_type(schema: Schema, action_id: str, new_types: tuple) -> Schema:
    actions = dict(schema.actions)
    ref = EntityRef("Action", action_id)
    decl = actions[ref]
    actions[ref] = ActionDecl(ref, decl.principal_types, new_types, decl.context, decl.parents)
    return Schema(dict(schema.entity_types), actions)


_MUTATIONS = {
    "tinytodo": (("List", "owner"), ("GetList", ("Team",))),
    "gdrive": (("Document", "isPublic"), ("readDocument", ("Group",))),
    "github": (("Repository", "readers"), ("readRepository", ("Team",))),
    "gdrive-templates": (("User", "ownedDocuments"), ("readDocument", ("Group",))),
    "github-templates": (("Organization", "writers"), ("readRepository", ("Team",))),
}


def test_criterion_4_fixture_parity_and_mutations():
    for name in FIXTURE_SETS:
        policies, schema = load_fixture_set(name)
        assert validate(policies, schema).valid, f"{name} must validate as shipped"
        (entity_type, attr), (action_id, swapped) = _MUTATIONS[name]
        mutated = _delete_attr(schema, entity_type, attr)
        assert not validate(policies, mutated).valid, f"{name}: deleting {entity_type}.{attr} must invalidate"
        mutated = _swap_resource_type(schema, action_id, swapped)
        assert not validate(policies, mutated).valid, f"{name}: swapping {action_id} resource type must invalidate"
    _ok(4, "all 5 fixture sets validate; each schema mutation flips them invalid")


# ---------------------------------------------------------------------------
# 5. Symbolic fidelity
# ---------------------------------------------------------------------------

_FIDELITY_SCHEMA = """
entity App;
entity Group in [Group, App];
entity User in [Group, App] { name: String, level: Long, groups: Set<Group> };
entity Doc in [App] { owner: User, public: Bool, tags: Set<String> };
action view, edit
    appliesTo { principal: [User], resource: [Doc], context: { flag: Bool, opt?: Bool, n: Long } };
"""


def test_criterion_5_symbolic_fidelity(gen_seed):
    start = time.time()
    schema = parse_schema(_FIDELITY_SCHEMA)
    senv_cache = {}
    checked = 0
    attempts = 0
    seed = gen_seed * 1_000_000
    while checked < 10_000:
        seed += 1
        attempts += 1
        assert attempts < 100_000, "generator acceptance collapsed"
        cfg = GenConfig(seed, max_entities=3)
        store, request = gen_conforming(cfg, schema)
        env = next(
            e
            for e in environments(schema)
            if e.action == request.action
            and e.principal_type == request.principal.entity_type
            and e.resource_type == request.resource.entity_type
        )
        rng = random.Random(seed ^ 0xF1DE)
        expr = gen_typed_bool_expr(rng, env, schema, store, depth=rng.randint(1, 3))
        if expr is None:
            continue
        try:
            typecheck(expr, env, schema)
        except PolicyTypeError:
            continue
        if env not in senv_cache:
            senv_cache[env] = encode_types(schema, env)
        senv = senv_cache[env]
        term = compile_expr(expr, senv)
        interp = TermInterpreter(senv, store, request)
        symbolic = interp.run(term)
        try:
            concrete = ("some", evaluate(expr, store, request))
        except EvalError:
            concrete = ("none",)
        if concrete == ("none",):
            assert symbolic == ("none",), f"seed {seed}: symbolic lost the error"
        else:
            assert isinstance(symbolic, tuple) and symbolic[0] == "some", f"seed {seed}: spurious error"
            assert interp.decode(symbolic[1]) == concrete[1], f"seed {seed}: value disagreement"
        checked += 1
    _ok(5, f"compiled-term interpretation agrees with evaluation on {checked} well-typed triples "
           f"({attempts} generated, {time.time()-start:.0f}s)")


# ---------------------------------------------------------------------------
# 6. Equivalence analysis correctness
# ---------------------------------------------------------------------------


def _load_policy_set(*parts) -> PolicySet:
    return PolicySet.from_policies(parse_policies(read_fixture(*parts)))


def test_criterion_6a_overview_scenario():
    old = _load_policy_set("tinytodo", "policies_guardrail_old.cedar")
    new = _load_policy_set("tinytodo", "policies_guardrail_new.cedar")
    schema = parse_schema(read_fixture("tinytodo", "tinytodo.cedarschema"))
    verdicts = analyze_equivalence(old, new, schema)
    by_action = {v.env.action.entity_id: v for v in verdicts}
    assert all(
        v.status == "equivalent" for a, v in by_action.items() if a != "GetOwnedLists"
    )
    witness = by_action["GetOwnedLists"]
    assert witness.status == "differs"
    cex = witness.counterexample
    assert cex.request.action == EntityRef("Action", "GetOwnedLists")
    assert {cex.decision_a.verdict, cex.decision_b.verdict} == {Verdict.ALLOW, Verdict.DENY}
    assert EntityRef("Team", "interns") in cex.store.ancestors_of(cex.request.principal)
    _ok(6, "(a) dropped-guardrail scenario differs exactly on GetOwnedLists with a re-verified witness")


_REFACTORINGS = (
    ("tinytodo", ("tinytodo", "refactored.cedar"), ("tinytodo", "schema_bug.cedarschema")),
    ("gdrive", ("gdrive", "refactored.cedar"), ("gdrive", "schema_bug.cedarschema")),
    ("github", ("github", "refactored.cedar"), ("github", "schema_bug.cedarschema")),
)


def test_criterion_6b_refactorings():
    for name, refactored_parts, bug_parts in _REFACTORINGS:
        policies, schema = load_fixture_set(name)
        old = PolicySet.from_policies(policies)
        new = _load_policy_set(*refactored_parts)
        verdicts = analyze_equivalence(old, new, schema)
        assert all(v.status == "equivalent" for v in verdicts), f"{name} refactoring must be equivalent"
        bug_schema = parse_schema(read_fixture(*bug_parts))
        verdicts = analyze_equivalence(old, new, bug_schema)
        differing = {v.env.action.entity_id for v in verdicts if v.status == "differs"}
        assert differing == {"bug_inducing"}, f"{name}: bug_inducing must be the only difference"
        (witness,) = [v for v in verdicts if v.status == "differs"]
        assert witness.counterexample.decision_a.verdict != witness.counterexample.decision_b.verdict
    _ok(6, "(b) all three app refactorings equivalent; adding the child action flips each to differs")


# -- 6c: random policy-set pairs against brute-force enumeration -------------

_ANALYSIS_SCHEMA = """
entity App;
entity Group in [Group];
entity User in [Group];
action view, edit
    appliesTo { principal: [User], resource: [App], context: { flag: Bool, opt?: Bool } };
"""

_G0 = EntityRef("Group", "0")
_G1 = EntityRef("Group", "1")
_U0 = EntityRef("User", "0")
_A0 = EntityRef("App", "0")
_A1 = EntityRef("App", "1")
_VIEW = EntityRef("Action", "view")
_EDIT = EntityRef("Action", "edit")

_ATOMS = (
    EBinop("in", EVar("principal"), ELit(VEntity(_G0))),
    EBinop("in", EVar("principal"), ELit(VEntity(_G1))),
    EBinop("==", EVar("principal"), ELit(VEntity(_U0))),
    EBinop("==", EVar("resource"), ELit(VEntity(_A0))),
    EBinop("==", EVar("resource"), ELit(VEntity(_A1))),
    EGetAttr(EVar("context"), "flag"),
    EIf(EHas(EVar("context"), "opt"), EGetAttr(EVar("context"), "opt"), ELit(VBool(False))),
    EBinop("==", EVar("action"), ELit(VEntity(_VIEW))),
    EBinop("in", ELit(VEntity(_G0)), ELit(VEntity(_G1))),
)


def _atom_values(store, request):
    def member(ref, target):
        return target == ref or target in store.ancestors_of(ref)

    opt = request.context.get("opt")
    return (
        member(request.principal, _G0),
        member(request.principal, _G1),
        request.principal == _U0,
        request.resource == _A0,
        request.resource == _A1,
        request.context.get("flag") == VBool(True),
        opt == VBool(True),
        request.action == _VIEW,
        member(_G0, _G1),
    )


def _gen_condition(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return _ATOMS[rng.randrange(len(_ATOMS))]
    k = rng.randrange(3)
    if k == 0:
        return ENot(_gen_condition(rng, depth - 1))
    ctor = EAnd if k == 1 else EOr
    return ctor(_gen_condition(rng, depth - 1), _gen_condition(rng, depth - 1))


def _gen_analysis_set(rng, tag):
    policies = []
    for i in range(rng.randint(1, 3)):
        principal = rng.choice((ANY, ScopeIn(_G0), ScopeIn(_G1), ScopeEq(_U0)))
        action = rng.choice((ANY, ScopeEq(_VIEW), ScopeEq(_EDIT)))
        resource = rng.choice((ANY, ScopeEq(_A0), ScopeEq(_A1)))
        conditions = tuple(
            (rng.choice((CondKind.WHEN, CondKind.UNLESS)), _gen_condition(rng, 2))
            for _ in range(rng.randint(0, 2))
        )
        policies.append(
            Policy(
                id=f"{tag}{i}",
                effect=rng.choice((Effect.PERMIT, Effect.FORBID)),
                principal=principal,
                action=action,
                resource=resource,
                conditions=conditions,
            )
        )
    return PolicySet.from_policies(policies)


def test_criterion_6c_verdicts_match_brute_force():
    start = time.time()
    schema = parse_schema(_ANALYSIS_SCHEMA)
    ids = {"App": ["0", "1", "2"], "Group": ["0", "1"], "User": ["0", "1"]}
    # Precompute the conforming universe once, fingerprinting each
    # (store, request) by the atom valuations every generated policy is
    # built from: distinct fingerprints are the only behaviors that matter.
    universe = {}
    for store, request in enumerate_conforming(schema, 2, ids=ids):
        key = (request.action.entity_id, _atom_values(store, request))
        if key not in universe:
            universe[key] = (store, request)
    assert len(universe) > 50

    config = SolverConfig.default()
    pairs = 0
    non_verdicts = 0
    mismatches = []
    rng = random.Random(0xC0FFEE)
    while pairs < 200:
        set_a = _gen_analysis_set(rng, "a")
        set_b = _gen_analysis_set(rng, "b")
        assert validate(set_a.closed_policies, schema).valid
        assert validate(set_b.closed_policies, schema).valid
        pairs += 1
        brute = {"view": False, "edit": False}
        for (action_id, _), (store, request) in universe.items():
            da = authorize(set_a, store, request, use_slicing=False)
            db = authorize(set_b, store, request, use_slicing=False)
            if da.verdict != db.verdict:
                brute[action_id] = True
        verdicts = analyze_equivalence(set_a, set_b, schema, config=config)
        for v in verdicts:
            action_id = v.env.action.entity_id
            if v.status in ("unknown", "timeout"):
                non_verdicts += 1
                continue
            want = "differs" if brute[action_id] else "equivalent"
            if v.status != want:
                mismatches.append((pairs, action_id, v.status, want))
    assert not mismatches, f"verdict mismatches: {mismatches[:5]}"
    assert non_verdicts <= 0.05 * pairs * 2, f"{non_verdicts} unknown/timeout results"
    _ok(6, f"(c) solver verdicts match brute force on {pairs} random pairs "
           f"({non_verdicts} non-verdicts, {time.time()-start:.0f}s)")


# ---------------------------------------------------------------------------
# 7. Grounding necessity
# ---------------------------------------------------------------------------


def test_criterion_7_grounding_necessity():
    from cedar_engine.parser import parse_expr

    schema = parse_schema(
        """
        entity Team in [Team];
        entity User in [Team];
        entity Application;
        action GetList appliesTo { principal: [User], resource: [Application] };
        """
    )
    env = environments(schema)[0]
    expr = parse_expr('Team::"A" in Team::"B" && Team::"B" in Team::"A"')
    config = SolverConfig.default()

    senv = encode_types(schema, env)
    fp = {}
    compiled = compile_expr(expr, senv, footprint=fp)
    from cedar_engine.symcc import wf_from_footprint

    with_wf = print_script(senv, wf_from_footprint(fp, senv) + [is_true_term(compiled)])
    assert run_solver(config, with_wf).kind == "unsat"

    senv2 = encode_types(schema, env)
    compiled2 = compile_expr(expr, senv2)
    without_wf = print_script(senv2, [is_true_term(compiled2)])
    outcome = run_solver(config, without_wf)
    assert outcome.kind == "sat"
    ev = ModelEvaluator(outcome.model, selector_table(senv2))
    a_below_b = ev.eval(read_sexprs('(set.member (Team "B") (teamInTeam (Team "A")))')[0], {})
    b_below_a = ev.eval(read_sexprs('(set.member (Team "A") (teamInTeam (Team "B")))')[0], {})
    assert a_below_b is True and b_below_a is True, "model must exhibit the hierarchy cycle"
    _ok(7, "cycle claim unsat with grounding, sat without, and the model contains the two-team cycle")


# ---------------------------------------------------------------------------
# 8. Performance smoke
# ---------------------------------------------------------------------------


def _fifty_entity_store():
    entities = [(EntityRef("Application", "TinyTodo"), vrecord({}), [])]
    teams = [EntityRef("Team", f"t{i}") for i in range(10)]
    for i, team in enumerate(teams):
        parents = [EntityRef("Application", "TinyTodo")]
        if i >= 5:
            parents.append(teams[i - 5])
        entities.append((team, vrecord({}), parents))
    users = [EntityRef("User", f"u{i}") for i in range(25)]
    for i, user in enumerate(users):
        entities.append(
            (
                user,
                vrecord({"name": VString(f"user {i}")}),
                [teams[i % 10], EntityRef("Application", "TinyTodo")],
            )
        )
    lists = [EntityRef("List", f"l{i}") for i in range(14)]
    for i, lst in enumerate(lists):
        entities.append(
            (
                lst,
                vrecord(
                    {
                        "name": VString(f"list {i}"),
                        "owner": VEntity(users[i]),
                        "readers": VEntity(teams[i % 10]),
                        "editors": VEntity(teams[(i + 1) % 10]),
                        "tasks": __import__("cedar_engine.ast", fromlist=["vset"]).vset(
                            [vrecord({"id": VLong(1), "name": VString("x"), "state": VString("todo")})]
                        ),
                    }
                ),
                [EntityRef("Application", "TinyTodo")],
            )
        )
    store = build_store(entities)
    assert len(list(store.refs())) == 50
    return store, users, lists


def test_criterion_8_performance_smoke():
    policies, schema = load_fixture_set("tinytodo")
    ps = PolicySet.from_policies(policies)
    store, users, lists = _fifty_entity_store()
    store = merge_action_hierarchy(store, schema)
    actions = [a.ref for a in schema.actions.values()]
    rng = random.Random(8)
    requests = []
    for _ in range(100_000):
        action = rng.choice(actions)
        decl = schema.actions[action]
        resource = (
            EntityRef("Application", "TinyTodo")
            if "Application" in decl.resource_types
            else rng.choice(lists)
        )
        requests.append(Request(rng.choice(users), action, resource, vrecord({})))
    samples = []
    for request in requests:
        t0 = time.perf_counter()
        authorize(ps, store, request, use_slicing=True)
        samples.append(time.perf_counter() - t0)
    median_ms = statistics.median(samples) * 1000
    assert median_ms < 1.0, f"median authorize latency {median_ms:.3f} ms"

    # Per-action analysis latency: encode + solve for every environment of
    # each app's refactoring pair, 50 trials.
    analysis_medians = {}
    for name, refactored_parts, _ in _REFACTORINGS:
        policies, schema = load_fixture_set(name)
        old = PolicySet.from_policies(policies)
        new = _load_policy_set(*refactored_parts)
        per_action = []
        for _ in range(50):
            t0 = time.perf_counter()
            verdicts = analyze_equivalence(old, new, schema)
            elapsed = time.perf_counter() - t0
            per_action.append(elapsed / max(1, len(verdicts)))
        analysis_medians[name] = statistics.median(per_action)
        assert analysis_medians[name] < 5.0, f"{name} per-action analyze {analysis_medians[name]:.2f}s"
    pretty = ", ".join(f"{k}={v*1000:.0f}ms" for k, v in analysis_medians.items())
    _ok(8, f"median authorize {median_ms:.3f} ms over 100k requests on 50 entities; per-action analyze medians {pretty}")


# ---------------------------------------------------------------------------
# 9. Round-trip and fuzz safety
# ---------------------------------------------------------------------------


def test_criterion_9_round_trip_and_fuzz():
    start = time.time()
    total_policies = 0
    seed = 0
    while total_policies < 100_000:
        seed += 1
        policies = gen_policies(GenConfig(seed, max_depth=2))
        total_policies += len(policies)
        assert parse_policies(render_policies(policies)) == policies

    # Parser fuzz: arbitrary character soup plus mutated valid sources.
    corpus = read_fixture("tinytodo", "policies.cedar") + read_fixture("github", "policies.cedar")
    rng = random.Random(0xF422)
    parser_runs = 600_000
    for i in range(parser_runs):
        if i % 2 == 0:
            n = rng.randint(0, 40)
            text = "".join(chr(rng.randint(1, 0x24F)) for _ in range(n))
        else:
            at = rng.randrange(len(corpus))
            text = corpus[at : at + rng.randint(0, 80)]
            if rng.random() < 0.5:
                pos = rng.randrange(max(1, len(text)))
                text = text[:pos] + chr(rng.randint(1, 0x7F)) + text[pos:]
        try:
            parse_policies(text)
        except ParseError:
            pass  # diagnostics are the only permitted failure mode

    # Evaluator fuzz: arbitrary ASTs over arbitrary stores.
    eval_runs = 400_000
    store = gen_store(GenConfig(10))
    refs = sorted(store.refs(), key=str) + [EntityRef("E9", "ghost")]
    for i in range(eval_runs):
        if i % 5000 == 0:
            store = gen_store(GenConfig(i))
            refs = sorted(store.refs(), key=str) + [EntityRef("E9", "ghost")]
        request = gen_request(GenConfig(i % 977), store)
        expr = gen_expr(rng, rng.randint(0, 4), refs)
        try:
            evaluate(expr, store, request)
        except EvalError:
            pass  # reified errors are the only permitted failure mode
    _ok(9, f"{total_policies} policies round-trip; parser survived {parser_runs} and evaluator "
           f"{eval_runs} hostile inputs ({time.time()-start:.0f}s)")
