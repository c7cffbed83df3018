"""The bundled finite-model solver: CNF core and SMT-LIB session behavior."""

import gc
import io
import os
import random
import subprocess
import sys
import time
import weakref

import pytest

from cedar_engine.minisolver import CNF, Session, dpll
from cedar_engine.sat import Timeout
from cedar_engine.sexpr import read_sexprs, write_sexpr
from cedar_engine.smt_backend import Model, ModelEvaluator

from conftest import fixture_path


def run_script(script: str) -> str:
    out = io.StringIO()
    Session().run(script, out)
    return out.getvalue()


def oracle(nvars, clauses):
    """Tiny complete solver used to cross-check the CDCL loop."""
    assign = [0] * (nvars + 1)

    def value(lit):
        v = assign[abs(lit)]
        return 0 if v == 0 else (1 if (v > 0) == (lit > 0) else -1)

    def prop(trail):
        while True:
            changed = False
            for c in clauses:
                sat, cnt, un = False, 0, None
                for lit in c:
                    v = value(lit)
                    if v == 1:
                        sat = True
                        break
                    if v == 0:
                        cnt += 1
                        un = lit
                if sat:
                    continue
                if cnt == 0:
                    return False
                if cnt == 1:
                    assign[abs(un)] = 1 if un > 0 else -1
                    trail.append(abs(un))
                    changed = True
            if not changed:
                return True

    def rec():
        trail = []
        if not prop(trail):
            for v in trail:
                assign[v] = 0
            return False
        var = next((v for v in range(1, nvars + 1) if assign[v] == 0), None)
        if var is None:
            return True
        for val in (1, -1):
            assign[var] = val
            if rec():
                return True
            assign[var] = 0
        for v in trail:
            assign[v] = 0
        return False

    return rec()


def test_cdcl_differential():
    rng = random.Random(2024)
    for trial in range(1500):
        nv = rng.randint(2, 14)
        clauses = [(1,)]
        for _ in range(rng.randint(1, 45)):
            width = rng.randint(1, 4)
            clauses.append(tuple(rng.choice([1, -1]) * rng.randint(2, nv) for _ in range(width)))
        mine = dpll(nv, clauses)
        ref = oracle(nv, clauses)
        assert (mine is not None) == ref, (trial, clauses)
        if mine is not None:
            for c in clauses:
                assert any(mine[abs(l)] == (1 if l > 0 else -1) for l in c), (trial, c, mine)


def test_cnf_gates():
    cnf = CNF()
    a, b = cnf.new_var(), cnf.new_var()
    t = cnf.mk_and([a, b])
    cnf.add(t)
    cnf.add(-a)
    assert dpll(cnf.nvars, cnf.clauses) is None
    cnf2 = CNF()
    a, b = cnf2.new_var(), cnf2.new_var()
    cnf2.add(cnf2.mk_or([a, b]))
    cnf2.add(-a)
    model = dpll(cnf2.nvars, cnf2.clauses)
    assert model is not None and model[b] == 1


def test_unsat_contradiction():
    assert "unsat" in run_script("(set-logic ALL)\n(assert false)\n(check-sat)\n")


def test_a_command_that_is_not_an_application_is_skipped_and_exit_ends_the_script():
    assert run_script("x 1 (assert false)(check-sat)(exit)(check-sat)") == "unsat\n"


def test_sat_model_shape():
    out = run_script(
        "(set-logic ALL)\n"
        "(declare-datatype T ((T (eid String))))\n"
        "(declare-const x T)\n"
        '(assert (not (= x (T "a"))))\n'
        "(check-sat)\n(get-model)\n"
    )
    assert out.startswith("sat")
    assert "(define-fun x () T (T " in out
    assert '(T "a")' not in out.split("define-fun x")[1].splitlines()[0]


def test_uninterpreted_functions_and_sets():
    out = run_script(
        "(set-logic ALL)\n"
        "(declare-datatype T ((T (eid String))))\n"
        "(declare-fun anc (T) (Set T))\n"
        '(assert (set.member (T "b") (anc (T "a"))))\n'
        '(assert (not (set.member (T "a") (anc (T "a")))))\n'
        "(check-sat)\n(get-model)\n"
    )
    assert out.startswith("sat")
    assert "define-fun anc" in out


def test_option_values():
    out = run_script(
        "(set-logic ALL)\n"
        "(declare-datatypes ((Option 1)) ((par (X) ((none) (some (val X))))))\n"
        "(declare-const o (Option Bool))\n"
        "(assert ((_ is some) o))\n"
        "(assert (val o))\n"
        "(check-sat)\n(get-model)\n"
    )
    assert out.startswith("sat")
    assert "(define-fun o () (Option Bool) (some true))" in out


def test_unknown_on_bitvector_arithmetic():
    out = run_script(
        "(set-logic ALL)\n"
        "(declare-const n (_ BitVec 64))\n"
        "(assert (= (bvadd n (_ bv1 64)) (_ bv0 64)))\n"
        "(check-sat)\n"
    )
    assert "unknown" in out


def test_fresh_witnesses_for_negated_equalities():
    # Satisfiable only because an entity other than the named one may exist.
    out = run_script(
        "(set-logic ALL)\n"
        "(declare-datatype T ((T (eid String))))\n"
        "(declare-const x T)\n"
        "(declare-const y T)\n"
        '(assert (not (= x y)))\n'
        '(assert (not (= x (T "a"))))\n'
        '(assert (not (= y (T "a"))))\n'
        "(check-sat)\n"
    )
    assert out.startswith("sat")


def test_subset_witness_under_negation():
    out = run_script(
        "(set-logic ALL)\n"
        "(declare-datatype T ((T (eid String))))\n"
        "(declare-fun f (T) (Set T))\n"
        "(declare-fun g (T) (Set T))\n"
        '(assert (not (set.subset (f (T "a")) (g (T "a")))))\n'
        '(assert (not (set.member (T "a") (f (T "a")))))\n'
        "(check-sat)\n"
    )
    assert out.startswith("sat")


def test_sexp_parser():
    got = read_sexprs('(a (b "x""y") 3)')
    assert got == [("a", ("b", ("string", 'x"y')), 3)]


def test_malformed_script_answers_unknown(capsys):
    for script in ("(check-sat", "(check-sat))", '(assert (= x "y))\n(check-sat)\n'):
        assert run_script(script) == "unknown\n"
        assert capsys.readouterr().err.startswith('(error "')


MALFORMED = (
    ("(declare-const x)(check-sat)", "declare-const applied to 1 arguments, expected 2"),
    ("(assert)(check-sat)", "assert applied to 0 arguments, expected 1"),
    ("(declare-fun f (Bool))(check-sat)", "declare-fun applied to 2 arguments, expected 3"),
    ("(declare-datatype D)(check-sat)", "declare-datatype applied to 1 arguments, expected 2"),
    ("(declare-const x Bool)(assert (ite x))(check-sat)", "ite applied to 1 arguments, expected 3"),
    ("(declare-const x Bool)(assert (and x (not)))(check-sat)", "not applied to 0 arguments, expected 1"),
    ("(declare-datatype D ((D f)))(check-sat)", "expected an application, got f"),
    ("(declare-datatype D (()))(check-sat)", "constructor name differing from datatype name"),
    ("(declare-datatype D ((D (f String))))(assert (= (D) (D)))(check-sat)", "D takes arguments of sorts (String)"),
    ("(declare-fun f (String) Bool)(assert (f true))(check-sat)", "f takes arguments of sorts (String)"),
    ("(declare-fun f Bool Bool)(check-sat)", "argument sorts Bool"),
    ("(declare-datatype D ((D) (E)))(check-sat)", "multi-constructor datatypes"),
    ("(declare-const s String)(assert s)(check-sat)", "assertion is not Bool"),
    ("(assert y)(check-sat)", "unknown symbol y"),
    ("(assert (= 1 1))(check-sat)", "bare numeral"),
    ("(assert (= (_ bv1 32) (_ bv1 32)))(check-sat)", "indexed (_ bv1 32)"),
    ("(assert (= (_ bv\u00b2 64) (_ bv5 64)))(check-sat)", "indexed (_ bv\u00b2 64)"),  # a digit, not a decimal one
    ("(assert (as none Bool))(check-sat)", "as-expression (as none Bool)"),
    ("(declare-const n (_ BitVec 64))(assert (= n (_ bv5 64)))(check-sat)", "equality over symbolic bit-vectors"),
    ("(declare-fun f (Bool Bool) Bool)(declare-const x Bool)(assert (f x x))(check-sat)",
     "multi-argument uninterpreted functions"),
    ("(declare-fun f (Bool) Bool)(declare-const x Bool)(assert (f x))(check-sat)",
     "function argument without a finite domain"),
    # Only declared sorts: an undeclared name anywhere a sort is read.
    ("(declare-const x Foo)(check-sat)", "sort Foo"),
    ("(declare-fun f (Foo) Bool)(check-sat)", "sort Foo"),
    ("(declare-const x (Set Foo))(check-sat)", "sort Foo"),
    ("(declare-datatype D ((D (f Foo))))(check-sat)", "sort Foo"),
    ("(declare-const x (_ BitVec 32))(check-sat)", "sort (_ BitVec 32)"),
    # No declaration takes a built-in name: a term of a built-in head is
    # one term whatever sort it was given, so the name would take the
    # built-in's sort.
    ("(declare-const distinct String)(declare-const s String)(assert (= distinct s))(check-sat)",
     "declaration of the built-in distinct"),
    ("(declare-datatype D ((D (and String))))(check-sat)", "declaration of the built-in and"),
    # Nor a name declared already: constants, functions, datatypes (and
    # their constructors) and selectors share one namespace.
    ('(declare-const x Bool)(declare-const x String)(assert (= x "a"))(check-sat)', "redeclaration of x"),
    ("(declare-fun f (String) Bool)(declare-const f Bool)(assert f)(check-sat)", "redeclaration of f"),
    ("(declare-datatype D ((D (a String))))(declare-fun a (String) Bool)(check-sat)", "redeclaration of a"),
    ("(declare-const D Bool)(declare-datatype D ((D)))(check-sat)", "redeclaration of D"),
    ("(declare-datatype D ((D (a String) (a Bool))))(check-sat)", "a name declared twice in datatype D"),
    ("(declare-datatype D ((D (D String))))(check-sat)", "a name declared twice in datatype D"),
    # The first fault is noted, not the last.
    ("(declare-const x)(assert)(check-sat)", "declare-const applied to 1 arguments, expected 2"),
    # Built-in heads over arguments of the wrong sorts.
    ('(declare-const x Bool)(assert (ite x x "a"))(check-sat)', "ite takes arguments of sorts (Bool A A)"),
    ("(declare-datatype U ((U (u String))))(declare-datatype T ((T (t String))))(declare-const a (Set U))"
     "(declare-const b (Set T))(declare-const x U)(assert (set.member x (set.union b a)))"
     "(assert (not (set.member x a)))(check-sat)", "set.union takes arguments of sorts ((Set A) (Set A))"),
    ("(declare-datatype U ((U (u String))))(declare-const a (Set U))(declare-const b (Set String))"
     "(assert (= a b))(check-sat)", "= takes arguments of sorts (A A)"),
    ("(declare-const s String)(assert ((_ is some) s))(check-sat)", "(_ is some) takes arguments of sorts ((Option A))"),
    ("(declare-const o (Option Bool))(assert ((_ is foo) o))(check-sat)", "unknown application head (_ is foo)"),
)
HOSTILE_IDS = ["first-fault", "ite-branches", "set.union-elements", "=-elements", "tester-sort", "tester-name"]


@pytest.mark.parametrize(
    "script,note",
    MALFORMED,
    ids=["declare-const", "assert", "declare-fun", "declare-datatype", "ite", "not", "field", "ctor", "arity", "sorts",
         "fun-argument-sorts", "multi-constructor", "assert-sort", "unknown-symbol", "bare-numeral", "indexed",
         "non-decimal-index", "as-expression", "bv-equality", "multi-argument-fun", "fun-domain",
         "undeclared-const-sort", "undeclared-fun-sort", "undeclared-element-sort", "undeclared-field-sort",
         "narrow-bit-vector", "built-in-const", "built-in-selector", "redeclared-const", "redeclared-fun",
         "redeclared-selector", "redeclared-datatype", "repeated-selector", "selector-named-as-datatype",
         *HOSTILE_IDS],
)
def test_malformed_commands_and_terms_answer_unknown(script, note):
    out, err = io.StringIO(), io.StringIO()
    assert Session().run(script, out, err) == ["unknown"]
    assert (out.getvalue(), err.getvalue()) == ("unknown\n", f'(error "unsupported: {note}")\n')


def test_the_standalone_solver_answers_malformed_input():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for script, note in [MALFORMED[4], *MALFORMED[-len(HOSTILE_IDS):]]:
        done = subprocess.run(
            [sys.executable, "-m", "cedar_engine.minisolver"], input=script, env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "unknown\n", f'(error "unsupported: {note}")\n'), script


# Nested deeper than Python recurses: reading a level takes two calls.
DEEP_NOT = "(declare-const p Bool)(assert " + "(not " * 3000 + "p" + ")" * 3001 + "(check-sat)"


def test_a_script_nested_too_deeply_answers_unknown():
    out, err = io.StringIO(), io.StringIO()
    assert Session().run(DEEP_NOT, out, err) == ["unknown"]
    assert (out.getvalue(), err.getvalue()) == ("unknown\n", '(error "unsupported: terms nested too deeply")\n')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "cedar_engine.minisolver"], input=DEEP_NOT, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, out.getvalue(), err.getvalue())


# Models of the parts of a script no assertion constrains, and of fresh
# elements named clear of the script's literals.
MODELS = (
    # A function of other than one argument, unused (used, it is unsupported),
    # has no definition.
    ("(declare-fun f () Bool)(declare-const x Bool)(assert x)", ["(define-fun x () Bool true)"]),
    ("(declare-fun g (String Bool) Bool)(assert true)", []),
    # A function over a sort without a finite domain is never applied: its default.
    ("(declare-fun f (Bool) Bool)(assert true)", ["(define-fun f ((x!0 Bool)) Bool false)"]),
    # A bit-vector constant is free (one the solver equates is unsupported): zero.
    ("(declare-const n (_ BitVec 64))(assert ((_ is some) (some n)))",
     ["(define-fun n () (_ BitVec 64) (_ bv0 64))"]),
    # The fresh element `string_2` is renamed: the script has that literal.
    ('(declare-const x String)(assert (distinct x "string_2"))', ['(define-fun x () String "string_2_1")']),
)


@pytest.mark.parametrize(
    "script,model", MODELS, ids=["nullary-fun", "binary-fun", "fun-without-domain", "bit-vector", "fresh-name"]
)
def test_model_of_unconstrained_parts(script, model):
    assert run_script(script + "(check-sat)(get-model)") == "\n".join(["sat", "(", *model, ")", ""])


def pigeonhole(pigeons: int) -> str:
    """Unsatisfiable, and hard for resolution: `pigeons` pigeons in one hole fewer."""
    holes = pigeons - 1
    lines = ["(set-logic ALL)"]
    lines += [f"(declare-const p{i}_{j} Bool)" for i in range(pigeons) for j in range(holes)]
    for i in range(pigeons):
        lines.append("(assert (or " + " ".join(f"p{i}_{j}" for j in range(holes)) + "))")
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                lines.append(f"(assert (not (and p{i}_{j} p{k}_{j})))")
    return "\n".join(lines) + "\n(check-sat)\n"


def test_deadline_stops_the_cdcl_loop():
    session = Session(deadline=time.monotonic() + 0.2)
    start = time.monotonic()
    with pytest.raises(Timeout):
        session.run(pigeonhole(11), io.StringIO())
    assert time.monotonic() - start < 2
    assert "unsat" in run_script(pigeonhole(5))
    with pytest.raises(Timeout):  # a deadline already past stops it before any search
        dpll(3, [(1,), (2, 3)], deadline=time.monotonic() - 1)


_ENTITY_T = "(declare-datatype T ((T (eid String))))(declare-const x T)"

# Scripts the compiler never writes, since its smart constructors fold them,
# each reaching one shortcut of the translation: a literal guard picks its
# branch, a bit-vector value is concrete or free, and an equality with a
# `none` needs no payload.
SHORTCUTS = (
    (_ENTITY_T + '(assert (= (ite true x (T "a")) (T "b")))(assert (= (ite false (T "a") x) (T "b")))', "sat"),
    (_ENTITY_T + '(assert (= (ite true (T "a") x) (T "b")))', "unsat"),
    (_ENTITY_T + '(assert (= (ite false x (T "a")) (T "b")))', "unsat"),
    ("(assert (= (_ bv5 64) (_ bv5 64)))", "sat"),
    ("(assert (= (_ bv5 64) (_ bv6 64)))", "unsat"),
    ("(assert (distinct (_ bv18446744073709551621 64) (_ bv5 64)))", "unsat"),  # 2^64 + 5 wraps to 5
    ("(declare-const c Bool)(assert (= (ite c (_ bv5 64) (_ bv5 64)) (_ bv5 64)))", "sat"),
    ("(declare-const c Bool)(assert (= (ite c (_ bv5 64) (_ bv6 64)) (_ bv5 64)))", "unknown"),
    ("(declare-const o (Option Bool))(assert (= o (as none (Option Bool))))(assert ((_ is some) o))", "unsat"),
    ("(assert (= (as none (Option Bool)) (as none (Option Bool))))", "sat"),
)


@pytest.mark.parametrize("script,answer", SHORTCUTS)
def test_translation_shortcuts_on_the_text_path(script, answer):
    assert run_script(script + "(check-sat)") == answer + "\n"


def test_nullary_datatype_and_re_all_symbols_are_read():
    # A nullary datatype's name is its one value; re.all is read and
    # sort-checked, then not translated.
    assert run_script("(declare-datatype E ((E)))(declare-const e E)(assert (= e E))(check-sat)") == "sat\n"
    out, err = io.StringIO(), io.StringIO()
    assert Session().run('(assert (str.in_re "a" re.all))(check-sat)', out, err) == ["unknown"]
    assert err.getvalue() == '(error "unsupported: str.in_re (bit-vector/regex theory)")\n'


def test_error_notes_go_to_the_given_stream(capsys):
    out, err = io.StringIO(), io.StringIO()
    Session().run("(declare-const n (_ BitVec 64))\n(assert (bvslt n n))\n(check-sat)\n(get-model)\n", out, err)
    assert out.getvalue() == "unknown\n"
    assert err.getvalue().splitlines() == ['(error "unsupported: bvslt (bit-vector/regex theory)")', '(error "no model available")']
    assert capsys.readouterr().err == ""


def fixture_scripts(tmp_path) -> list:
    """The scripts analysis writes for the tinytodo guardrail pair."""
    from cedar_engine.authorizer import PolicySet
    from cedar_engine.parser import parse_policies, parse_schema
    from cedar_engine.smt_backend import SolverConfig
    from cedar_engine.symcc import analyze_equivalence

    def load(name):
        with open(fixture_path("tinytodo", name), encoding="utf-8") as fh:
            return fh.read()

    old, new = (PolicySet.from_policies(parse_policies(load(f"policies_guardrail_{v}.cedar"))) for v in ("old", "new"))
    schema = parse_schema(load("tinytodo.cedarschema"))
    analyze_equivalence(old, new, schema, config=SolverConfig.bundled(), emit_dir=str(tmp_path))
    return [(tmp_path / name).read_text() for name in sorted(p.name for p in tmp_path.iterdir())]


def test_a_solved_session_is_freed_without_the_cycle_collector(tmp_path):
    scripts = fixture_scripts(tmp_path)
    assert scripts
    enabled = gc.isenabled()
    gc.disable()
    try:
        for script in scripts:
            gc.collect()
            session = Session()
            out = io.StringIO()
            session.run(script + "(get-model)\n", out)
            assert out.getvalue().split("\n", 1)[0] in ("sat", "unsat")
            ref = weakref.ref(session)
            del session
            assert ref() is None
            assert gc.collect() == 0  # nothing the solve made is left in a cycle
    finally:
        if enabled:
            gc.enable()


def test_single_string_field_records_are_read():
    # R has the shape of an entity datatype; reading or building its field
    # puts it on the String domain, where selector and constructor are the
    # identity.
    decls = (
        "(set-logic ALL)\n"
        "(declare-datatype R ((R (f String))))\n"
        "(declare-const a R)\n(declare-const b R)\n(declare-const s String)\n"
    )
    assert run_script(decls + "(assert (distinct a b))\n(assert (= b (R (f a))))\n(check-sat)\n") == "unsat\n"
    assert run_script(decls + '(assert (= (f a) "x"))\n(assert (= a (R "y")))\n(check-sat)\n') == "unsat\n"
    out = run_script(
        decls + '(assert (= (f a) s))\n(assert (distinct s "x"))\n(assert (distinct a b))\n'
        '(assert (distinct b (R "x")))\n(check-sat)\n(get-model)\n'
    )
    assert out.startswith("sat\n")
    ev = ModelEvaluator(Model.parse(out[4:]), {"f": ("R", 0)})
    a, b, s = (ev.eval(read_sexprs(x)[0], {}) for x in "abs")
    assert a == ("dt", "R", (s,)) and a != b and s != ("string", "x") and b != ("dt", "R", (("string", "x"),))


def _sorted_scripts(monkeypatch) -> list:
    """The commands read from the printed scripts of the fixture pairs and
    the wide pairs, each with its argument slots, (parent tree, index, sort
    the argument must have), and its subterm trees, (tree, the compiler's
    term it was printed from).  By the compiler's rule a tester takes any
    Option, written "Option"."""
    from test_script_trees import _fixture_pairs, _wide_pairs

    from cedar_engine import smt_backend
    from cedar_engine.smt_backend import SolverConfig, print_script
    from cedar_engine.symcc import analyze_equivalence
    from cedar_engine.terms import IS_SOME, Term, term_shape

    captured = []
    real = smt_backend.script_commands

    def capture(senv, assertions):
        captured.append((senv, assertions))
        return real(senv, assertions)

    monkeypatch.setattr(smt_backend, "script_commands", capture)
    for _, old, new, schema in [*_fixture_pairs(), *_wide_pairs()]:
        analyze_equivalence(old, new, schema, config=SolverConfig.bundled())

    def walk(term, tree, seen, slots, subterms):
        if id(tree) in seen:
            return
        seen.add(id(tree))
        subterms.append((tree, term))
        shape = term_shape(term)
        for i, child in enumerate(shape if type(shape) is tuple else ()):
            if isinstance(child, Term):
                slots.append((tree, i, "Option" if term.head == IS_SOME else child.sort))
                walk(child, tree[i], seen, slots, subterms)

    scripts = []
    for senv, assertions in captured:
        commands, seen, slots, subterms = read_sexprs(print_script(senv, assertions)), set(), [], []
        for term, command in zip(assertions, [c for c in commands if c[0] == "assert"]):
            walk(term, command[1], seen, slots, subterms)
        scripts.append((commands, slots, subterms))
    return scripts


def _swapped(commands, parent, index, donor) -> list:
    """`commands` with argument `index` of `parent`, wherever it occurs,
    replaced by `donor`."""
    new, memo = parent[:index] + (donor,) + parent[index + 1 :], {}

    def rebuild(node):
        if node is parent:
            return new
        if type(node) is not tuple:
            return node
        got = memo.get(id(node))
        if got is None:
            got = memo[id(node)] = tuple(map(rebuild, node))
        return got

    return list(map(rebuild, commands))


def test_sort_mutations_answer_unknown(monkeypatch, gen_seed):
    """The solver reads every subtree of a printed script as the term it
    was printed from.  Swapping one argument for a subterm of another sort
    makes the script ill-sorted: the solver answers unknown and raises
    nothing.  A swap for a subterm of the same sort raises nothing either."""
    scripts = _sorted_scripts(monkeypatch)
    for commands, _, subterms in scripts:
        session = Session()
        session.run_commands([c for c in commands if c[0] != "check-sat"], io.StringIO())
        memo: dict = {}
        for tree, term in subterms:
            assert session._read(tree, memo) is term, write_sexpr(tree)
    rng = random.Random(0x50127 + gen_seed)
    answers = {True: set(), False: set()}
    for i in range(600):
        commands, slots, subterms = rng.choice(scripts)
        parent, index, want = rng.choice(slots)
        same = i % 4 == 0
        donors = [tree for tree, t in subterms if (t.sort[0] == want if want == "Option" else t.sort == want) == same]
        if not donors:
            continue
        mutated = _swapped(commands, parent, index, rng.choice(donors))
        err = io.StringIO()
        replies = Session().run_commands(mutated, err)
        if not same:
            assert replies == ["unknown"], (write_sexpr(parent), index, err.getvalue())
        answers[same].update(replies)
    assert answers[False] == {"unknown"} and answers[True] >= {"sat", "unsat"}
