"""Type encoding, expression compilation, grounding, and equivalence analysis."""

import random

import pytest

from cedar_engine.ast import EntityRef, toexp
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

from conftest import action_forms, read_fixture


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
    senv = encode_types(schema, env)
    return compile_expr(parse_expr(src), senv, footprint=footprint), senv, env


# ---------------------------------------------------------------------------
# encode_types
# ---------------------------------------------------------------------------


def test_encoding_declares_store_and_request(fig_schema):
    env = get_env(fig_schema, "GetList")
    senv = encode_types(fig_schema, env)
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
    senv = encode_types(schema, get_env(schema, "a"))
    assert senv.anc_fn == {}


def test_optional_attribute_encoding():
    schema = parse_schema(
        """
        entity App { a: Long, b?: String };
        action go appliesTo { principal: [App], resource: [App] };
        """
    )
    senv = encode_types(schema, get_env(schema, "go"))
    script = print_script(senv, [])
    assert "(declare-datatype AppRecord ((AppRecord (a (_ BitVec 64)) (b (Option String)))))" in script


def test_record_types_deduplicate_structurally(fig_schema):
    env = get_env(fig_schema, "GetList")
    senv = encode_types(fig_schema, env)
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
    # compile_expr substitutes the action itself.
    env = get_env(schema, "readRepository")
    expr = parse_expr('action in Action::"administrateRepository"')
    assert compile_expr(expr, encode_types(schema, env)) == TSome(TBoolLit(True))


def test_compiled_terms_sort_check(fig_schema, tinytodo_policies):
    schema = parse_schema(read_fixture("tinytodo", "tinytodo.cedarschema"))
    for env in environments(schema):
        senv = encode_types(schema, env)
        for p in tinytodo_policies:
            t = compile_expr(toexp(p), senv)
            assert t.sort == SOption(BOOL_S)
            print_script(senv, [is_true_term(t)])  # checks applications against their signatures


def test_dead_branches_never_compiled(fig_schema, tinytodo_policies):
    # Policy 3 mentions resource.readers, which does not exist on
    # Application; the action guard folds false first.
    env = get_env(fig_schema, "CreateList")
    senv = encode_types(fig_schema, env)
    t = compile_expr(toexp(tinytodo_policies[3]), senv)
    assert t == TSome(TBoolLit(False))


def test_action_forms_fold_to_literals_that_agree_with_action_in(action_group_schema):
    schema = action_group_schema
    for env in environments(schema):
        senv = encode_types(schema, env)
        for src, want in action_forms(schema, env):
            got = compile_expr(parse_expr(src), senv)
            assert got == TSome(TBoolLit(want)), (env.describe(), src)


# ---------------------------------------------------------------------------
# wf constraints
# ---------------------------------------------------------------------------


def test_grounding_matches_worked_example():
    schema = parse_schema(TEAM_SCHEMA)
    env = get_env(schema, "GetList")
    senv = encode_types(schema, env)
    expr = parse_expr('Team::"A" in Team::"B" && Team::"B" in Team::"A"')
    constraints = wf_constraints(expr, senv)
    assert [term_sexpr(c) for c in constraints] == [
        '(not (set.member (Team "A") (teamInTeam (Team "A"))))',
        '(not (set.member (Team "B") (teamInTeam (Team "B"))))',
        '(=> (set.member (Team "B") (teamInTeam (Team "A"))) (set.subset (teamInTeam (Team "B")) (teamInTeam (Team "A"))))',
        '(=> (set.member (Team "A") (teamInTeam (Team "B"))) (set.subset (teamInTeam (Team "A")) (teamInTeam (Team "B"))))',
    ]


def test_no_entities_no_constraints(fig_schema):
    env = get_env(fig_schema, "GetList")
    senv = encode_types(fig_schema, env)
    assert wf_constraints(parse_expr("1 + 1 < 3"), senv) == []


def test_footprint_and_constraint_enumeration(fig_schema):
    fp = {}
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
    constraints = wf_from_footprint(fp, senv)
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
    senv = encode_types(fig_schema, env)
    store = build_store(
        [
            (EntityRef("User", "u"), vrecord({}), []),
            (EntityRef("List", "l"), vrecord({}), []),
        ]
    )
    request = Request(EntityRef("User", "u"), env.action, EntityRef("List", "l"), vrecord({}))
    interp = TermInterpreter(senv, store, request)

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
        term = compile_expr(expr, senv)
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
    senv = encode_types(schema, env)
    term = compile_expr(parse_expr('context.string == "x"'), senv)
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


# ---------------------------------------------------------------------------
# Set and record forms against both oracles
# ---------------------------------------------------------------------------

# The context's record has an optional attribute and a nested record with
# one, so a record literal (every attribute required) joins it only through
# coercion, and so do sets of either.
STRUCTURED_SCHEMA = """
entity Group in [Group];
entity User in [Group] { name: String };
entity Doc { owner: User };
action view appliesTo { principal: [User], resource: [Doc],
    context: { r: { a?: String, b: Bool, inner: { c?: String } }, s: Set<String> } };
"""


def _structured_exprs(schema, env, store, seed, count):
    """`count` well-typed structured expressions from one generator seed, or None."""
    from cedar_engine.testkit import gen_typed_bool_expr
    from cedar_engine.validator import PolicyTypeError, typecheck

    rng = random.Random(seed ^ 0x5E7)
    out = []
    for _ in range(count):
        expr = gen_typed_bool_expr(rng, env, schema, store, depth=rng.randint(1, 3), structured=True)
        if expr is None:
            return None
        try:
            typecheck(expr, env, schema)
        except PolicyTypeError:
            return None
        out.append(expr)
    return out


def _forms(expr) -> set:
    from cedar_engine.ast import EBinop, EIf, ERecord, ESet, subexpressions

    out = set()
    for sub in subexpressions(expr):
        if isinstance(sub, (ESet, ERecord)):
            out.add(type(sub).__name__)
        elif isinstance(sub, EBinop) and sub.op.startswith("contains"):
            out.add(sub.op)
        elif isinstance(sub, EIf) and isinstance(sub.then, ERecord):
            out.add("record branches")
    return out


def test_set_and_record_forms_match_both_oracles(gen_seed):
    from collections import Counter

    from cedar_engine.ast import ANY, EIf, ELit, CondKind, Effect, Policy, VBool
    from cedar_engine.entities import merge_action_hierarchy
    from cedar_engine.evaluator import EvalError, evaluate
    from cedar_engine.smt_backend import SolverConfig
    from cedar_engine.symcc import UnsupportedConstruct
    from cedar_engine.testkit import (
        GenConfig,
        TermInterpreter,
        enumerate_conforming,
        gen_conforming,
        reference_evaluate,
    )

    schema = parse_schema(STRUCTURED_SCHEMA)
    (env,) = environments(schema)
    senv = encode_types(schema, env)
    base = gen_seed * 1_000_000

    # Compiled terms, interpreted under a store and request, agree with
    # evaluation; a set that would need re-encoding is refused, not guessed.
    forms = Counter()
    checked = unsupported = 0
    for seed in range(base + 1, base + 3001):
        store, request = gen_conforming(GenConfig(seed, max_entities=2), schema)
        exprs = _structured_exprs(schema, env, store, seed, 1)
        if exprs is None:
            continue
        (expr,) = exprs
        try:
            term = compile_expr(expr, senv)
        except UnsupportedConstruct as err:
            assert "re-encode a set" in str(err), f"seed {seed}: {err}"
            unsupported += 1
            continue
        interp = TermInterpreter(senv, store, request)
        symbolic = interp.run(term)
        try:
            concrete = ("some", evaluate(expr, store, request))
        except EvalError:
            concrete = ("none",)
        got = symbolic if symbolic == ("none",) else ("some", interp.decode(symbolic[1]))
        assert got == concrete, f"seed {seed}: {expr}"
        forms.update(_forms(expr))
        checked += 1
    assert checked >= 2500 and unsupported < 0.1 * checked, (checked, unsupported)
    for form in ("ESet", "ERecord", "contains", "containsAny", "containsAll", "record branches"):
        assert forms[form] >= 50, forms

    # Equivalence verdicts: `equivalent` agrees with brute force over every
    # conforming store and request of two users, and every counterexample of
    # `differs` separates the sets under the reference interpreter.
    universe = list(enumerate_conforming(schema, 2, ids={"User": ["0", "1"], "Group": ["0"], "Doc": ["0"]}))

    def allows(cond, store, request) -> bool:
        return reference_evaluate(cond, store, request) == ("ok", VBool(True))

    def policy_set(tag, cond):
        return PolicySet.from_policies([Policy(tag, Effect.PERMIT, ANY, ANY, ANY, ((CondKind.WHEN, cond),))])

    verdicts = Counter()
    seed = base
    while sum(verdicts.values()) < 100:
        seed += 1
        exprs = _structured_exprs(schema, env, universe[0][0], seed, 2)
        if exprs is None:
            continue
        c1, c2 = exprs
        # Against an unrelated condition, against false, and against an
        # equivalent rewriting.
        c2 = (c2, ELit(VBool(False)), EIf(c1, ELit(VBool(True)), ELit(VBool(False))))[seed % 3]
        try:
            (verdict,) = analyze_equivalence(policy_set("a", c1), policy_set("b", c2), schema, config=SolverConfig.bundled())
        except UnsupportedConstruct:
            verdicts["unsupported"] += 1
            continue
        verdicts[verdict.status] += 1
        if verdict.status == "equivalent":
            assert all(allows(c1, s, r) == allows(c2, s, r) for s, r in universe), f"seed {seed}: {c1} vs {c2}"
        elif verdict.status == "differs":
            cex = verdict.counterexample
            store = merge_action_hierarchy(cex.store, schema)
            assert allows(c1, store, cex.request) != allows(c2, store, cex.request), f"seed {seed}"
    assert verdicts["equivalent"] >= 20 and verdicts["differs"] >= 20, verdicts
    assert verdicts["unknown"] + verdicts["unsupported"] <= 40, verdicts


# `q` and `r` differ only in whether `inner.c` is optional, so joining them
# re-encodes an optional attribute; every literal has a Long field.
COERCION_SCHEMA = """
entity User { name: String };
entity Doc;
action view appliesTo { principal: [User], resource: [Doc], context: {
    r: { a?: String, n: Long, inner?: { c?: String } },
    q: { a?: String, n: Long, inner?: { c: String } } } };
"""


@pytest.mark.parametrize(
    "src",
    [
        "[context.q, context.r].contains(context.q)",
        "context.q == context.r",
        '[context.r].contains({a: "alpha", n: 1, inner: {c: "x"}})',
        '(if context.r.n < 0 then context.q else {a: "", n: context.q.n * 1, inner: {c: ""}}).n < 1',
        "principal == resource",
        "context has zz || context.r has zz",
        "action is Action",
        # `action` where no static action rule decides the comparison.
        '[action].contains(Action::"view")',
        "action in principal",
        "action == principal",
    ],
)
def test_coercions_and_static_rules_agree_with_evaluation(src):
    from cedar_engine.evaluator import EvalError, evaluate
    from cedar_engine.testkit import GenConfig, TermInterpreter, gen_conforming
    from cedar_engine.validator import typecheck

    schema = parse_schema(COERCION_SCHEMA)
    (env,) = environments(schema)
    expr = parse_expr(src)
    typecheck(expr, env, schema)
    senv = encode_types(schema, env)
    term = compile_expr(expr, senv)
    for seed in range(200):
        store, request = gen_conforming(GenConfig(seed, max_entities=2), schema)
        interp = TermInterpreter(senv, store, request)
        symbolic = interp.run(term)
        try:
            concrete = ("some", evaluate(expr, store, request))
        except EvalError:
            concrete = ("none",)
        got = symbolic if symbolic == ("none",) else ("some", interp.decode(symbolic[1]))
        assert got == concrete, f"seed {seed}"


def test_template_slots_are_not_compiled(fig_schema):
    from cedar_engine.ast import ESlot, subexpressions
    from cedar_engine.symcc import UnsupportedConstruct

    (template,) = parse_policies("permit(principal == ?principal, action, resource);")
    expr = toexp(template)
    # The slot survives desugaring; the compiler is where it is refused.
    assert ESlot("?principal") in set(subexpressions(expr))
    env = get_env(fig_schema, "GetList")
    with pytest.raises(UnsupportedConstruct, match="link the template first"):
        compile_expr(expr, encode_types(fig_schema, env))


def test_connectives_compile_as_their_if_form(gen_seed):
    # `!`, `&&` and `||` have rules of their own; each must build the term,
    # and fill the footprint in the order, that the conditional it means does.
    from collections import Counter

    from cedar_engine.ast import EAnd, ENot, EOr, subexpressions
    from cedar_engine.testkit import GenConfig, gen_conforming, gen_typed_bool_expr
    from cedar_engine.validator import PolicyTypeError, typecheck

    from conftest import if_form_everywhere
    from test_acceptance import _FIDELITY_SCHEMA

    schema = parse_schema(_FIDELITY_SCHEMA)
    senvs = {env: encode_types(schema, env) for env in environments(schema)}
    connectives = Counter()
    checked = 0
    seed = gen_seed * 1_000_000
    while checked < 2_000:
        seed += 1
        store, request = gen_conforming(GenConfig(seed, max_entities=3), schema)
        env = next(e for e in senvs if e.action == request.action)
        rng = random.Random(seed ^ 0xF1DE)
        expr = gen_typed_bool_expr(rng, env, schema, store, depth=rng.randint(1, 3))
        if expr is None:
            continue
        try:
            typecheck(expr, env, schema)
        except PolicyTypeError:
            continue
        direct_fp, if_fp = {}, {}
        direct = compile_expr(expr, senvs[env], footprint=direct_fp)
        via_if = compile_expr(if_form_everywhere(expr), senvs[env], footprint=if_fp)
        assert direct is via_if, f"seed {seed}"
        assert list(direct_fp) == list(if_fp), f"seed {seed}"
        connectives.update(type(x).__name__ for x in subexpressions(expr) if isinstance(x, (ENot, EAnd, EOr)))
        checked += 1
    assert min(connectives[name] for name in ("ENot", "EAnd", "EOr")) >= 100, connectives


def test_each_policy_desugared_once_across_environments(monkeypatch):
    import sys
    from collections import Counter

    from cedar_engine import ast
    from cedar_engine.validator import validate

    desugared = []
    real = ast.toexp

    def counting(policy):
        desugared.append(id(policy))
        return real(policy)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cedar_engine" and hasattr(module, "toexp"):
            monkeypatch.setattr(module, "toexp", counting)
    schema = parse_schema(read_fixture("github", "github.cedarschema"))
    old = PolicySet.from_policies(parse_policies(read_fixture("github", "policies.cedar")))
    new = PolicySet.from_policies(parse_policies(read_fixture("github", "refactored.cedar")))
    assert len(environments(schema)) > 1
    analyze_equivalence(old, new, schema)
    policies = old.all_policies() + new.all_policies()
    assert max(Counter(desugared).values()) == 1
    assert set(desugared) <= {id(p) for p in policies}
    after_analysis = len(desugared)
    validate(old.all_policies(), schema)
    validate(new.all_policies(), schema)
    assert len(desugared) == after_analysis
