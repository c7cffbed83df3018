"""Type encoding, expression compilation, grounding, and equivalence analysis."""

import pytest

from cedar_engine.ast import EntityRef, substitute_action, toexp
from cedar_engine.authorizer import PolicySet
from cedar_engine.parser import parse_expr, parse_policies, parse_schema
from cedar_engine.smt_backend import print_script
from cedar_engine.symcc import (
    analyze_equivalence,
    compile_expr,
    encode_types,
    is_true_term,
    wf_constraints,
    wf_from_footprint,
)
from cedar_engine.terms import (
    BOOL_S,
    SOption,
    TBoolLit,
    TSome,
    term_sexpr,
)
from cedar_engine.validator import environments

from conftest import read_fixture


def get_env(schema, action_id):
    return [e for e in environments(schema) if e.action.entity_id == action_id][0]


TEAM_SCHEMA = """
entity Team in [Team];
entity User in [Team];
entity Application;
action GetList appliesTo { principal: [User], resource: [Application] };
"""


def compile_src(src, schema, action_id, footprint=None):
    env = get_env(schema, action_id)
    senv = encode_types(schema, [env])
    expr = substitute_action(parse_expr(src), env.action)
    return compile_expr(expr, env, schema, senv, footprint=footprint), senv, env


# ---------------------------------------------------------------------------
# encode_types
# ---------------------------------------------------------------------------


def test_encoding_declares_store_and_request(fig_schema):
    env = get_env(fig_schema, "GetList")
    senv = encode_types(fig_schema, [env])
    script = print_script(senv, [])
    # The canonical nine declarations for this schema and environment.
    assert "(declare-datatype User ((User (" in script
    assert "(declare-datatype Team ((Team (" in script
    assert "(declare-datatype List ((List (" in script
    # Record attributes are kept in canonical (sorted) order.
    assert "(declare-datatype ListRecord ((ListRecord (editors Team) (owner User) (readers Team))))" in script
    assert "(declare-fun listAttrs (List) ListRecord)" in script
    assert "(declare-fun userInTeam (User) (Set Team))" in script
    assert "(declare-fun teamInTeam (Team) (Set Team))" in script
    assert "(declare-const principal User)" in script
    assert "(declare-const resource List)" in script


def test_entity_without_parents_gets_no_ancestor_functions():
    schema = parse_schema(
        "entity Lonely;\naction a appliesTo { principal: [Lonely], resource: [Lonely] };"
    )
    senv = encode_types(schema, [get_env(schema, "a")])
    assert senv.anc_fn == {}


def test_optional_attribute_encoding():
    schema = parse_schema(
        """
        entity App { a: Long, b?: String };
        action go appliesTo { principal: [App], resource: [App] };
        """
    )
    senv = encode_types(schema, [get_env(schema, "go")])
    script = print_script(senv, [])
    assert "(declare-datatype AppRecord ((AppRecord (a (_ BitVec 64)) (b (Option String)))))" in script


def test_record_types_deduplicate_structurally(fig_schema):
    env = get_env(fig_schema, "GetList")
    senv = encode_types(fig_schema, [env])
    # Application, Team, and User all have empty attribute records: one
    # datatype serves them all.
    empty_records = {
        name
        for name, rec in senv.record_of_name.items()
        if not rec.attrs
    }
    assert len(empty_records) == 1


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_membership_golden(fig_schema):
    t, _, _ = compile_src("principal in resource.readers", fig_schema, "GetList")
    assert term_sexpr(t) == "(some (set.member (readers (listAttrs resource)) (userInTeam principal)))"


def test_compile_true_literal(fig_schema):
    t, _, _ = compile_src("true", fig_schema, "GetList")
    assert t == TSome(TBoolLit(True))


def test_compile_required_has_collapses(fig_schema):
    t, _, _ = compile_src("resource has owner", fig_schema, "GetList")
    assert t == TSome(TBoolLit(True))


def test_compile_action_comparisons_fold(fig_schema):
    t, _, _ = compile_src('action == Action::"GetList"', fig_schema, "GetList")
    assert t == TSome(TBoolLit(True))
    t, _, _ = compile_src('action == Action::"CreateList"', fig_schema, "GetList")
    assert t == TSome(TBoolLit(False))


def test_compile_action_groups_fold():
    schema = parse_schema(read_fixture("github", "github.cedarschema"))
    t, _, _ = compile_src('action in Action::"administrateRepository"', schema, "readRepository")
    assert t == TSome(TBoolLit(True))
    t, _, _ = compile_src('action in Action::"readRepository"', schema, "maintainRepository")
    assert t == TSome(TBoolLit(False))


def test_compiled_terms_sort_check(fig_schema, tinytodo_policies):
    schema = parse_schema(read_fixture("tinytodo", "tinytodo.cedarschema"))
    for env in environments(schema):
        senv = encode_types(schema, [env])
        for p in tinytodo_policies:
            expr = substitute_action(toexp(p), env.action)
            t = compile_expr(expr, env, schema, senv)
            assert t.sort == SOption(BOOL_S)
            print_script(senv, [is_true_term(t)])  # checks applications against their signatures


def test_dead_branches_never_compiled(fig_schema, tinytodo_policies):
    # Policy 3 mentions resource.readers, which does not exist on
    # Application; the action guard folds false first.
    env = get_env(fig_schema, "CreateList")
    senv = encode_types(fig_schema, [env])
    expr = substitute_action(toexp(tinytodo_policies[3]), env.action)
    t = compile_expr(expr, env, fig_schema, senv)
    assert t == TSome(TBoolLit(False))


# ---------------------------------------------------------------------------
# wf constraints
# ---------------------------------------------------------------------------


def test_grounding_matches_worked_example():
    schema = parse_schema(TEAM_SCHEMA)
    env = get_env(schema, "GetList")
    senv = encode_types(schema, [env])
    expr = parse_expr('Team::"A" in Team::"B" && Team::"B" in Team::"A"')
    constraints = wf_constraints(expr, env, schema, senv)
    assert [term_sexpr(c) for c in constraints] == [
        '(not (set.member (Team "A") (teamInTeam (Team "A"))))',
        '(not (set.member (Team "B") (teamInTeam (Team "B"))))',
        '(=> (set.member (Team "B") (teamInTeam (Team "A"))) (set.subset (teamInTeam (Team "B")) (teamInTeam (Team "A"))))',
        '(=> (set.member (Team "A") (teamInTeam (Team "B"))) (set.subset (teamInTeam (Team "A")) (teamInTeam (Team "B"))))',
    ]


def test_no_entities_no_constraints(fig_schema):
    env = get_env(fig_schema, "GetList")
    senv = encode_types(fig_schema, [env])
    assert wf_constraints(parse_expr("1 + 1 < 3"), env, fig_schema, senv) == []


def test_footprint_and_constraint_enumeration(fig_schema):
    fp = []
    t, senv, env = compile_src("principal in resource.readers", fig_schema, "GetList", footprint=fp)
    rendered = [(term_sexpr(term), e) for term, e in fp]
    # footprint is exactly {principal, resource, resource.readers}
    assert rendered == [
        ("(some principal)", "User"),
        ("(some resource)", "List"),
        ("(some (readers (listAttrs resource)))", "Team"),
    ]

    # Independent brute-force of the grounding set-builder over the footprint.
    entries = [(term, e, fig_schema.entity(e).parents) for term, e in fp]
    expected_acyclic = [(i,) for i, (_, e, parents) in enumerate(entries) if e in parents]
    expected_trans = [
        (i, j, e3)
        for i, (_, e1, p1) in enumerate(entries)
        for j, (_, e2, p2) in enumerate(entries)
        if i != j and e2 in p1
        for e3 in sorted(p1 & p2)
    ]
    constraints = wf_from_footprint(fp, fig_schema, senv)
    assert len(constraints) == len(expected_acyclic) + len(expected_trans)
    # Entries: principal (Team in parents? User parents {Team, Application}:
    # no self type), resource (no List parent), readers (Team in {Team, App}).
    assert expected_acyclic == [(2,)]
    # Transitivity pairs: (principal, readers) via Team/Application and
    # (readers, readers) excluded as the diagonal; (readers, principal) has
    # E2=User not in P1.
    assert expected_trans == [(0, 2, "Application"), (0, 2, "Team")]


# ---------------------------------------------------------------------------
# analyze_equivalence
# ---------------------------------------------------------------------------


def load_set(*parts) -> PolicySet:
    return PolicySet.from_policies(parse_policies(read_fixture(*parts)))


def test_any_set_equivalent_to_itself(tinytodo_schema):
    ps = load_set("tinytodo", "policies.cedar")
    verdicts = analyze_equivalence(ps, ps, tinytodo_schema)
    assert all(v.status == "equivalent" for v in verdicts)


def test_dropping_the_forbid_differs(tinytodo_schema):
    full = load_set("tinytodo", "policies.cedar")
    no_forbid = PolicySet.from_policies(
        [p for p in parse_policies(read_fixture("tinytodo", "policies.cedar")) if p.id != "policy4"]
    )
    verdicts = analyze_equivalence(full, no_forbid, tinytodo_schema)
    differing = {v.env.action.entity_id for v in verdicts if v.status == "differs"}
    assert differing == {"CreateList"}
    (witness,) = [v for v in verdicts if v.status == "differs"]
    cex = witness.counterexample
    assert cex.decision_a.verdict != cex.decision_b.verdict
    # The witness principal must be an intern for the forbid to bite.
    assert EntityRef("Team", "interns") in cex.store.ancestors_of(cex.request.principal)


def test_reconstruction_reads_model_text_once(monkeypatch, tinytodo_schema):
    from cedar_engine import minisolver, sexpr, smt_backend, symcc  # noqa: F401 (bound before patching)

    reads, reconstructions = [], []
    real_read, real_reconstruct = sexpr.read_sexprs, symcc.reconstruct_counterexample

    def counting_read(text):
        if reconstructions and reconstructions[-1] == "running":
            reads.append(text)
        return real_read(text)

    def reconstruct(*args):
        reconstructions.append("running")
        try:
            return real_reconstruct(*args)
        finally:
            reconstructions[-1] = "done"

    monkeypatch.setattr(sexpr, "read_sexprs", counting_read)
    monkeypatch.setattr(smt_backend, "read_sexprs", counting_read)
    monkeypatch.setattr(symcc, "reconstruct_counterexample", reconstruct)
    full = load_set("tinytodo", "policies.cedar")
    no_forbid = PolicySet.from_policies(
        [p for p in parse_policies(read_fixture("tinytodo", "policies.cedar")) if p.id != "policy4"]
    )
    verdicts = analyze_equivalence(full, no_forbid, tinytodo_schema, config=smt_backend.SolverConfig.bundled())
    assert [v.status for v in verdicts].count("differs") == reconstructions.count("done") == 1
    assert len(reads) <= 1


def test_is_true_partial_evaluation():
    assert is_true_term(TSome(TBoolLit(True))) == TBoolLit(True)
    assert is_true_term(TSome(TBoolLit(False))) == TBoolLit(False)


def test_arithmetic_guard_boundaries(fig_schema):
    """The compiled overflow guards agree with evaluation at the 64-bit edges."""
    from cedar_engine.ast import EBinop, ELit, EMul, ENeg, I64_MAX, I64_MIN, VLong
    from cedar_engine.entities import Request, build_store
    from cedar_engine.evaluator import EvalError, evaluate
    from cedar_engine.testkit import TermInterpreter
    from cedar_engine.ast import EntityRef, vrecord

    env = get_env(fig_schema, "GetList")
    senv = encode_types(fig_schema, [env])
    store = build_store(
        [
            (EntityRef("User", "u"), vrecord({}), []),
            (EntityRef("List", "l"), vrecord({}), []),
        ]
    )
    request = Request(EntityRef("User", "u"), env.action, EntityRef("List", "l"), vrecord({}))
    interp = TermInterpreter(senv, env, fig_schema, store, request)

    values = [I64_MIN, I64_MIN + 1, -2, -1, 0, 1, 2, I64_MAX - 1, I64_MAX]
    exprs = []
    for v in values:
        exprs.append(ENeg(ELit(VLong(v))))
        for c in (-3, -1, 0, 2, 7, 1 << 40):
            exprs.append(EMul(c, ELit(VLong(v))))
        for w in (I64_MIN, -1, 0, 1, I64_MAX):
            exprs.append(EBinop("+", ELit(VLong(v)), ELit(VLong(w))))
            exprs.append(EBinop("-", ELit(VLong(v)), ELit(VLong(w))))
    for expr in exprs:
        term = compile_expr(expr, env, fig_schema, senv)
        symbolic = interp.run(term)
        try:
            concrete = ("some", evaluate(expr, store, request).i)
        except EvalError:
            concrete = ("none",)
        if concrete == ("none",):
            assert symbolic == ("none",), expr
        else:
            assert symbolic == ("some", concrete[1]), expr


def test_no_declaration_is_named_string():
    # The reader gives string literals the shape ("string", text), so an
    # applied `string` selector, `(string context)`, would read back as the
    # literal "context".
    schema = parse_schema(
        "entity User;\naction view appliesTo { principal: [User], resource: [User], context: { string: String } };"
    )
    env = get_env(schema, "view")
    senv = encode_types(schema, [env])
    term = compile_expr(parse_expr('context.string == "x"'), env, schema, senv)
    script = print_script(senv, [is_true_term(term)])
    assert "(string " not in script and "(string_2 context)" in script


@pytest.mark.parametrize("cond", ['context.foo == "x"', 'principal.name == "x"'])
def test_single_string_field_records_are_decided(cond):
    # The context record and the User attribute record each have one String
    # field, the shape of an entity datatype.
    from cedar_engine.ast import VString, vrecord
    from cedar_engine.authorizer import Verdict
    from cedar_engine.smt_backend import SolverConfig

    schema = parse_schema(
        "entity User { name: String };\nentity Doc;\n"
        "action view appliesTo { principal: [User], resource: [Doc], context: { foo: String } };"
    )
    old = PolicySet.from_policies(parse_policies(f"permit(principal, action, resource) when {{ {cond} }};"))
    new = PolicySet.from_policies(parse_policies("permit(principal, action, resource) when { false };"))
    (verdict,) = analyze_equivalence(old, new, schema, config=SolverConfig.bundled())
    assert verdict.status == "differs"
    cex = verdict.counterexample  # re-verified by analyze_equivalence
    assert (cex.decision_a.verdict, cex.decision_b.verdict) == (Verdict.ALLOW, Verdict.DENY)
    if cond.startswith("context"):
        assert cex.request.context == vrecord({"foo": VString("x")})
    else:
        assert cex.store.get(cex.request.principal).attrs == vrecord({"name": VString("x")})
