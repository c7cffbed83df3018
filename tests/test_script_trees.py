"""The bundled solver's tree path: scripts reach the solver as the trees the
reader would make of their text, models come back as trees, and the text
that remains (--emit-smt, the standalone solver, the CLI) is unchanged."""

import io
import os
import random

import pytest

from cedar_engine import minisolver, sexpr, smt_backend
from cedar_engine.authorizer import PolicySet
from cedar_engine.cli import _counterexample_doc, main
from cedar_engine.minisolver import Session
from cedar_engine.parser import parse_policies, parse_schema
from cedar_engine.sexpr import read_sexprs
from cedar_engine.smt_backend import SolverConfig, print_script, script_commands
from cedar_engine.symcc import analyze_equivalence
from cedar_engine.validator import validate

from conftest import FIXTURES, ROOT, read_fixture
from test_acceptance import _ANALYSIS_SCHEMA, _gen_analysis_set

GOLDEN = os.path.join(ROOT, "tests", "golden")

# (name, old policies, new policies, schema), paths under fixtures/.
with open(os.path.join(GOLDEN, "cases.txt"), encoding="utf-8") as _fh:
    CASES = [line.split() for line in _fh if line.strip()]

# Pairs whose scripts use what the fixtures do not: strings and `like`,
# Long arithmetic, sets of strings, and optional record attributes.
_WIDE_SCHEMA = """
entity User { name: String, age: Long, tags: Set<String> };
entity Doc;
action read appliesTo { principal: [User], resource: [Doc], context: { n: Long, r?: { a: String } } };
"""
_WIDE_PAIRS = (
    ('permit(principal, action, resource) when { principal.name like "a*b" };',
     'permit(principal, action, resource) when { principal.name == "ab" };'),
    ("permit(principal, action, resource) when { 3 < principal.age + context.n };",
     "permit(principal, action, resource) when { 3 - context.n < principal.age };"),
    ('permit(principal, action, resource) when { principal.tags.contains("x") };',
     'permit(principal, action, resource) when { principal.tags.containsAny(["x", "y"]) };'),
    ('permit(principal, action, resource) when { context has r && context.r.a == "q\\"uote" };',
     "permit(principal, action, resource) when { context has r };"),
)

# The commands the bundled solver skips, which the tree path leaves out.
_HEADER = ("set-logic", "set-option", "declare-datatypes")


def _fixture_pairs():
    for name, old, new, schema in CASES:
        sets = [PolicySet.from_policies(parse_policies(read_fixture(*p.split("/")))) for p in (old, new)]
        yield name, sets[0], sets[1], parse_schema(read_fixture(*schema.split("/")))


def _generated_pairs(n):
    schema = parse_schema(_ANALYSIS_SCHEMA)
    rng = random.Random(0xC0FFEE)
    for i in range(n):
        yield f"random{i}", _gen_analysis_set(rng, "a"), _gen_analysis_set(rng, "b"), schema


def _wide_pairs():
    schema = parse_schema(_WIDE_SCHEMA)
    for i, texts in enumerate(_WIDE_PAIRS):
        sets = [PolicySet.from_policies(parse_policies(t)) for t in texts]
        assert all(validate(s.closed_policies, schema).valid for s in sets)
        yield f"wide{i}", sets[0], sets[1], schema


def _outcome(verdicts) -> list:
    return [
        (v.env.describe(), v.status, v.detail, v.counterexample and _counterexample_doc(v.counterexample))
        for v in verdicts
    ]


def _node_ids(trees) -> set:
    seen, todo = set(), list(trees)
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if type(node) is tuple:
                todo.extend(node)
    return seen


def test_bundled_path_handles_no_text(monkeypatch):
    pairs = [*_fixture_pairs(), *_generated_pairs(40), *_wide_pairs()]
    config = SolverConfig.bundled()
    expected = [_outcome(analyze_equivalence(a, b, schema, config=config)) for _, a, b, schema in pairs]
    assert {s for outcome in expected for _, s, _, _ in outcome} == {"equivalent", "differs", "unknown"}

    def text_used(*args):
        raise AssertionError("text on the bundled path")

    for module in (sexpr, smt_backend, minisolver):
        monkeypatch.setattr(module, "read_sexprs", text_used)
    monkeypatch.setattr(smt_backend, "print_script", text_used)
    monkeypatch.setattr(smt_backend.Model, "parse", staticmethod(text_used))
    for (name, a, b, schema), want in zip(pairs, expected):
        assert _outcome(analyze_equivalence(a, b, schema, config=config)) == want, name


def test_command_trees_are_the_read_script(monkeypatch):
    compared = []
    real = script_commands

    def checked(senv, assertions):
        trees = real(senv, assertions)
        read = [c for c in read_sexprs(print_script(senv, assertions)) if c[0] not in _HEADER]
        assert trees == read
        assert len(_node_ids(trees)) == len(_node_ids(read))
        compared.append(len(trees))
        return trees

    monkeypatch.setattr(smt_backend, "script_commands", checked)
    config = SolverConfig.bundled()
    for _, a, b, schema in [*_fixture_pairs(), *_generated_pairs(200), *_wide_pairs()]:
        analyze_equivalence(a, b, schema, config=config)
    assert len(compared) > 200


def test_fixture_pairs_match_golden_output(monkeypatch, tmp_path, capsys):
    """What run_cases.sh writes, made in this process and compared byte
    for byte with fixture_pairs/."""
    monkeypatch.setattr(SolverConfig, "default", staticmethod(lambda timeout_ms=60000: SolverConfig.bundled(timeout_ms)))
    expected_dir = os.path.join(GOLDEN, "fixture_pairs")
    for name, old, new, schema in CASES:
        want = os.path.join(expected_dir, name)
        args = ["analyze", "equivalence", "--old", os.path.join(FIXTURES, old), "--new", os.path.join(FIXTURES, new),
                "--schema", os.path.join(FIXTURES, schema)]
        emitted = tmp_path / name
        status = main([*args, "--emit-smt", str(emitted)])
        got = {"cli.txt": capsys.readouterr().out, "cli.status": f"{status}\n"}
        main([*args, "--json"])
        got["cli.json"] = capsys.readouterr().out
        for script in sorted(os.listdir(emitted)) if emitted.exists() else []:
            text = (emitted / script).read_text(encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            Session().run(text + "(get-model)\n", out, err)
            base = script[: -len(".smt2")]
            got[f"smt/{script}"] = text
            got[f"solver/{base}.out"], got[f"solver/{base}.err"] = out.getvalue(), err.getvalue()
        files = sorted(os.path.relpath(os.path.join(d, f), want) for d, _, fs in os.walk(want) for f in fs)
        assert sorted(got) == files, name
        for rel in files:
            with open(os.path.join(want, rel), encoding="utf-8") as fh:
                assert got[rel] == fh.read(), f"{name}/{rel}"


@pytest.mark.parametrize("tree", [("a", ("string", 'q"x'), 64, ()), "atom", ("string", ""), (("_", "is", "some"), "x")])
def test_written_trees_read_back(tree):
    assert read_sexprs(sexpr.write_sexpr(tree)) == [tree]
