"""The bundled finite-model solver: CNF core and SMT-LIB session behavior."""

import io
import random

from cedar_engine.minisolver import CNF, Session, dpll
from cedar_engine.sexpr import read_sexprs


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
