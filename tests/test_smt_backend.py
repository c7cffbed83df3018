"""Script printing, the solver driver, and model parsing."""

import gc
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from cedar_engine.parser import parse_expr, parse_schema
from cedar_engine.smt_backend import (
    Model,
    ModelEvaluator,
    ModelParseError,
    SolverConfig,
    SolverFailure,
    SolverOutcome,
    SolverUnavailable,
    print_script,
    run_solver,
    selector_table,
)
from cedar_engine.sexpr import read_sexprs
from cedar_engine.symcc import compile_expr, encode_types, is_true_term, wf_constraints
from cedar_engine.terms import (
    BOOL_S,
    InternalSortError,
    SSet,
    TAnd,
    TApp,
    TConst,
    TEq,
    TNot,
    TOr,
    TSetMember,
    TStrLit,
    term_sexpr,
)
from cedar_engine.validator import environments

from test_symcc import TEAM_SCHEMA, get_env


def team_setup(with_wf: bool):
    schema = parse_schema(TEAM_SCHEMA)
    env = get_env(schema, "GetList")
    senv = encode_types(schema, env)
    expr = parse_expr('Team::"A" in Team::"B" && Team::"B" in Team::"A"')
    fp = {}
    compiled = compile_expr(expr, senv, footprint=fp)
    asserts = []
    if with_wf:
        asserts += wf_constraints(expr, senv)
    asserts.append(is_true_term(compiled))
    return senv, asserts


def test_print_script_declarations(fig_schema):
    env = get_env(fig_schema, "GetList")
    senv = encode_types(fig_schema, env)
    script = print_script(senv, [])
    assert script.startswith("(set-logic ALL)\n(set-option :produce-models true)\n")
    assert "(declare-fun listAttrs (List) ListRecord)" in script
    assert script.rstrip().endswith("(check-sat)")
    assert "(assert" not in script  # zero assertions: declarations only


def test_print_script_worked_example_assertions():
    senv, asserts = team_setup(with_wf=True)
    script = print_script(senv, asserts[:-1])
    assert '(assert (not (set.member (Team "A") (teamInTeam (Team "A")))))' in script
    assert '(assert (not (set.member (Team "B") (teamInTeam (Team "B")))))' in script
    assert (
        '(assert (=> (set.member (Team "B") (teamInTeam (Team "A"))) '
        '(set.subset (teamInTeam (Team "B")) (teamInTeam (Team "A")))))'
    ) in script


def _doubling(levels: int):
    """A term whose every level uses the level below twice, as each step of
    an error-propagating Cedar expression does: unfolded, it has 2**levels
    leaves."""
    p, q = TConst("p", BOOL_S), TConst("q", BOOL_S)
    t = p
    for _ in range(levels):
        t = TOr((TAnd((t, q)), TNot(t)))
    senv = SimpleNamespace(
        signatures=dict, const_sigs={"p": BOOL_S, "q": BOOL_S}, datatypes=[], fn_sigs={}
    )
    return senv, t


def test_print_script_writes_shared_subterms_once():
    senv, t = _doubling(16)
    script = print_script(senv, [t])
    assert len(script) < 5_000  # unfolded: over a megabyte
    assert run_solver(SolverConfig.bundled(), script).kind == "sat"
    # The lets read back as the unfolded tree.
    senv, t = _doubling(8)
    (assertion,) = [c for c in read_sexprs(print_script(senv, [t])) if c[0] == "assert"]
    assert assertion == read_sexprs(f"(assert {term_sexpr(t)})")[0]
    assert "(let " in print_script(senv, [t])


def test_print_script_byte_stable():
    a = print_script(*_roundtrip_args())
    b = print_script(*_roundtrip_args())
    assert a == b


def test_print_script_stable_across_processes():
    # Each child finds the package through its own sys.path, and the two run
    # under different string hash seeds, whatever seed the caller fixed.
    from conftest import ROOT

    helper = (
        f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r})\n"
        "from cedar_engine.parser import parse_schema, parse_expr\n"
        "from cedar_engine.symcc import encode_types, compile_expr, wf_constraints, is_true_term\n"
        "from cedar_engine.smt_backend import print_script\n"
        "from cedar_engine.validator import environments\n"
        f"schema = parse_schema('''{TEAM_SCHEMA}''')\n"
        "env = environments(schema)[0]\n"
        "senv = encode_types(schema, env)\n"
        "expr = parse_expr('Team::\"A\" in Team::\"B\" && Team::\"B\" in Team::\"A\"')\n"
        "asserts = wf_constraints(expr, senv)\n"
        "asserts.append(is_true_term(compile_expr(expr, senv)))\n"
        "import sys; sys.stdout.write(print_script(senv, asserts))\n"
    )
    runs = {
        subprocess.run(
            [sys.executable, "-c", helper],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(runs) == 1
    assert runs.pop() == print_script(*_roundtrip_args())


def test_emitted_scripts_are_quantifier_free():
    senv, asserts = team_setup(with_wf=True)
    script = print_script(senv, asserts)
    assert "forall" not in script and "exists" not in script


def _roundtrip_args():
    senv, asserts = team_setup(with_wf=True)
    return senv, asserts


def test_print_script_rejects_ill_sorted():
    senv, _ = team_setup(with_wf=False)
    user = TConst("principal", "User")
    with pytest.raises(InternalSortError):
        TEq(user, TConst("resource", "Application"))
    # What needs the declarations is checked when the script is printed.
    with pytest.raises(InternalSortError):
        print_script(senv, [TConst("mystery", BOOL_S)])
    with pytest.raises(InternalSortError):
        print_script(senv, [user])
    # teamInTeam is declared on a Team, not a User.
    team_a = TApp("Team", (TStrLit("A"),), "Team")
    bad_app = TSetMember(team_a, TApp("teamInTeam", (user,), SSet("Team")))
    with pytest.raises(InternalSortError):
        print_script(senv, [bad_app])


def test_run_solver_contradiction():
    script = "(set-logic ALL)\n(assert false)\n(check-sat)\n"
    outcome = run_solver(SolverConfig.bundled(), script)
    assert outcome.kind == "unsat"


def test_run_solver_trivial_sat_with_model():
    script = (
        "(set-logic ALL)\n(set-option :produce-models true)\n"
        "(declare-const p Bool)\n(assert p)\n(check-sat)\n"
    )
    outcome = run_solver(SolverConfig.bundled(), script)
    assert outcome.kind == "sat"
    ev = ModelEvaluator(outcome.model)
    assert ev.eval(read_sexprs("p")[0], {}) is True


def test_cycle_claim_needs_grounding():
    # With well-formedness assertions the cyclic membership is refuted...
    senv, asserts = team_setup(with_wf=True)
    assert run_solver(SolverConfig.bundled(), print_script(senv, asserts)).kind == "unsat"
    # ...without them the solver produces a model with a two-team cycle.
    senv, asserts = team_setup(with_wf=False)
    outcome = run_solver(SolverConfig.bundled(), print_script(senv, asserts))
    assert outcome.kind == "sat"
    ev = ModelEvaluator(outcome.model, selector_table(senv))
    assert ev.eval(read_sexprs('(set.member (Team "B") (teamInTeam (Team "A")))')[0], {}) is True
    assert ev.eval(read_sexprs('(set.member (Team "A") (teamInTeam (Team "B")))')[0], {}) is True


def test_solver_unavailable():
    with pytest.raises(SolverUnavailable):
        run_solver(SolverConfig(("/nonexistent/solver-binary",)), "(check-sat)\n")


def test_solver_timeout_reaps_child(monkeypatch):
    spawned = []
    popen = subprocess.Popen

    def spawn(*args, **kwargs):
        spawned.append(popen(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(subprocess, "Popen", spawn)
    config = SolverConfig((sys.executable, "-c", "import time; time.sleep(60)"), timeout_ms=300)
    start = time.time()
    outcome = run_solver(config, "(check-sat)\n")
    assert outcome.kind == "timeout"
    assert time.time() - start < 5
    [child] = spawned
    assert child.returncode is not None  # killed and reaped: nothing left running


def test_a_script_nested_too_deeply_is_unknown_not_a_failure():
    from test_minisolver import DEEP_NOT

    outcome = run_solver(SolverConfig.bundled(), DEEP_NOT)
    assert outcome.kind == "unknown"
    assert outcome.detail.startswith('(error "unsupported: terms nested too deeply")')


def test_model_parsing_shapes():
    text = """
    (
    (define-fun principal () User (User "aaron"))
    (define-fun userInTeam ((x!0 User)) (Set Team)
      (ite (= x!0 (User "aaron"))
           (set.union (set.singleton (Team "interns")) (set.singleton (Team "1")))
           (as set.empty (Set Team))))
    (define-fun flag () Bool true)
    (define-fun opt () (Option Bool) (as none (Option Bool)))
    )
    """
    model = Model.parse(text)
    ev = ModelEvaluator(model)
    assert ev.eval(read_sexprs("principal")[0], {}) == ("dt", "User", (("string", "aaron"),))
    got = ev.apply("userInTeam", [("dt", "User", (("string", "aaron"),))])
    assert got == (
        "set",
        frozenset(
            {("dt", "Team", (("string", "interns"),)), ("dt", "Team", (("string", "1"),))}
        ),
    )
    assert ev.apply("userInTeam", [("dt", "User", (("string", "bob"),))]) == ("set", frozenset())
    assert ev.eval(read_sexprs("opt")[0], {}) == ("none",)

    # Heads that cvc5 writes in models and the bundled solver never does.
    cvc5 = Model.parse(
        """(
        (define-fun d () Bool (distinct (_ bv1 64) (_ bv2 64)))
        (define-fun b () Bool (not (and true (or false d))))
        (define-fun i () Bool (=> b false))
        (define-fun v () String (val (some "x")))
        (define-fun s () (Set Team) (set.insert (Team "a") (Team "b") (set.singleton (Team "c"))))
        (define-fun sub () Bool (set.subset (set.singleton (Team "a")) s))
        (define-fun o () (Option Bool) ((as some (Option Bool)) true))
        (define-fun isSome () Bool ((_ is some) o))
        (define-fun isUser () Bool ((_ is User) (Team "a")))
        (define-fun n () Int 5)
        (define-fun f ((x Int)) Int x)
        )"""
    )
    ev = ModelEvaluator(cvc5)
    team = lambda name: ("dt", "Team", (("string", name),))  # noqa: E731
    expected = {
        "d": True,
        "b": False,
        "i": True,
        "v": ("string", "x"),
        "s": ("set", frozenset({team("a"), team("b"), team("c")})),
        "sub": True,
        "o": ("some", True),
        "isSome": True,
        "isUser": False,
        "n": ("int", 5),
        "(f 7)": ("int", 7),
        "(g 7)": ("dt", "g", (("int", 7),)),  # an undefined function reads as a constructor
    }
    for text, value in expected.items():
        assert ev.eval(read_sexprs(text)[0], {}) == value, text
    for text in ("(val (as none (Option Bool)))", "f", "(_ bv1)"):
        with pytest.raises(ModelParseError):
            ev.eval(read_sexprs(text)[0], {})
    with pytest.raises(ModelParseError):
        ev.apply("g", [])


def test_malformed_solver_output_is_a_model_parse_error():
    for text in ("((define-fun x () Bool true)", '((define-fun x () String "a))', "())", "((define-fun |x () Bool true))"):
        with pytest.raises(ModelParseError) as err:
            Model.parse(text)
        assert err.value.raw == text


def test_model_parse_leaves_no_reference_cycle():
    shapes = (
        "((define-fun x () Bool true))",  # cvc5's bare paren block
        "(model (define-fun x () Bool true))",
        "(define-fun x () Bool true)",
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        for text in shapes:
            gc.collect()
            model = Model.parse(text)
            assert list(model.defs) == ["x"]
            del model
            assert gc.collect() == 0, text
    finally:
        if enabled:
            gc.enable()


def test_sexpr_tokenizer_strings_and_comments():
    got = read_sexprs('(a "x""y" 12 ; comment\n (b))')
    assert got == [("a", ("string", 'x"y'), 12, ("b",))]


def test_awkward_entity_ids_round_trip_through_solver():
    # Quotes inside entity ids must survive printing, solving, and model
    # parsing unchanged.
    script = (
        "(set-logic ALL)\n(set-option :produce-models true)\n"
        "(declare-datatype T ((T (eid String))))\n"
        "(declare-const x T)\n"
        '(assert (= x (T "a""b c")))\n'
        "(check-sat)\n"
    )
    outcome = run_solver(SolverConfig.bundled(), script)
    assert outcome.kind == "sat"
    ev = ModelEvaluator(outcome.model)
    assert ev.eval(read_sexprs("x")[0], {}) == ("dt", "T", (("string", 'a"b c'),))

    from cedar_engine.ast import EntityRef, VEntity
    from cedar_engine.terms import TSome
    from cedar_engine.symcc import encode_types, compile_expr
    from cedar_engine.parser import parse_schema
    from cedar_engine.validator import environments
    from cedar_engine.ast import EBinop, ELit, EVar

    schema = parse_schema(
        "entity T;\naction a appliesTo { principal: [T], resource: [T] };"
    )
    env = environments(schema)[0]
    senv = encode_types(schema, env)
    weird = EntityRef("T", 'a"b c')
    expr = EBinop("==", EVar("principal"), ELit(VEntity(weird)))
    compiled = compile_expr(expr, senv)
    script = print_script(senv, [__import__("cedar_engine.symcc", fromlist=["is_true_term"]).is_true_term(compiled)])
    outcome = run_solver(SolverConfig.bundled(), script)
    assert outcome.kind == "sat"
    ev = ModelEvaluator(outcome.model)
    assert ev.eval(read_sexprs("principal")[0], {}) == ("dt", "T", (("string", 'a"b c'),))


def test_solver_config_precedence(monkeypatch):
    monkeypatch.setenv("SOLVER_BIN", "/opt/solvers/cvc5")
    config = SolverConfig.default()
    assert config.argv[0] == "/opt/solvers/cvc5"
    assert "--lang" in config.argv
    monkeypatch.delenv("SOLVER_BIN")
    config = SolverConfig.default()
    assert config.argv[0] in (sys.executable,) or "cvc5" in config.argv[0]


def test_bundled_solver_timeout_is_a_deadline():
    from test_minisolver import pigeonhole

    start = time.monotonic()
    outcome = run_solver(SolverConfig.bundled(timeout_ms=200), pigeonhole(11))
    assert outcome == SolverOutcome("timeout", detail="exceeded 200 ms")
    assert time.monotonic() - start < 2


def guardrail_pair():
    from cedar_engine.authorizer import PolicySet
    from cedar_engine.parser import parse_policies

    from conftest import read_fixture

    old, new = (
        PolicySet.from_policies(parse_policies(read_fixture("tinytodo", f"policies_guardrail_{v}.cedar")))
        for v in ("old", "new")
    )
    return old, new, parse_schema(read_fixture("tinytodo", "tinytodo.cedarschema"))


def test_child_process_and_in_process_solvers_agree(monkeypatch):
    from cedar_engine.symcc import analyze_equivalence

    from conftest import ROOT

    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    child = SolverConfig((sys.executable, "-c", "from cedar_engine.minisolver import main; main()"))
    old, new, schema = guardrail_pair()
    verdicts = {}
    for config in (SolverConfig.bundled(), child):
        got = analyze_equivalence(old, new, schema, config=config)
        verdicts[config.argv] = [(v.env.describe(), v.status, v.detail) for v in got]
    in_process, spawned = verdicts.values()
    assert in_process == spawned
    assert {status for _, status, _ in in_process} == {"equivalent", "differs"}


def test_bundled_solver_crash_is_a_solver_failure(monkeypatch):
    from cedar_engine import minisolver

    def crash(self, text, out, err=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(minisolver.Session, "run", crash)
    with pytest.raises(SolverFailure, match="RuntimeError: boom"):
        run_solver(SolverConfig.bundled(), "(check-sat)\n")


def test_bundled_solver_needs_no_pythonpath(tmp_path):
    # The package is importable only through sys.path: not installed, not on
    # PYTHONPATH, and not in the working directory.
    from conftest import ROOT

    program = f"""
import sys
sys.path.insert(0, {os.path.join(ROOT, "src")!r})
from cedar_engine.authorizer import PolicySet, authorize
from cedar_engine.entities import Request, load_entities
from cedar_engine.ast import EntityRef, vrecord
from cedar_engine.parser import parse_policies, parse_schema
from cedar_engine.smt_backend import SolverConfig
from cedar_engine.symcc import analyze_equivalence

def read(name):
    with open({os.path.join(ROOT, "fixtures", "tinytodo")!r} + "/" + name, encoding="utf-8") as fh:
        return fh.read()

policies = PolicySet.from_policies(parse_policies(read("policies.cedar")))
store = load_entities(read("entities.json"))
request = Request(EntityRef("User", "kesha"), EntityRef("Action", "GetList"), EntityRef("List", "0"), vrecord({{}}))
authorize(policies, store, request)
print(sorted(m for m in sys.modules if m in ("cedar_engine.minisolver", "cedar_engine.sat")))
old, new = (PolicySet.from_policies(parse_policies(read(f"policies_guardrail_{{v}}.cedar"))) for v in ("old", "new"))
verdicts = analyze_equivalence(old, new, parse_schema(read("tinytodo.cedarschema")), config=SolverConfig.bundled())
print(sorted(v.env.action.entity_id for v in verdicts if v.status == "differs"))
"""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    got = subprocess.run([sys.executable, "-c", program], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    assert got.stdout.splitlines() == ["[]", "['GetOwnedLists']"]
