"""The command-line surface: outputs, JSON stability, exit codes."""

import json

import pytest

from cedar_engine.cli import main

import huge_hierarchy
from conftest import fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


F = lambda *parts: fixture_path(*parts)  # noqa: E731


def test_authorize_deny_with_determining(capsys):
    code, out, _ = run(
        capsys,
        "authorize",
        "--policies", F("tinytodo", "policies.cedar"),
        "--entities", F("tinytodo", "entities.json"),
        "--request", F("tinytodo", "requests", "aaron_createlist.json"),
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
    )
    assert code == 1
    assert out.splitlines()[0] == "DENY"
    assert "policy4" in out


def test_authorize_allow_json_golden(capsys):
    code, out, _ = run(
        capsys,
        "authorize",
        "--policies", F("tinytodo", "policies.cedar"),
        "--entities", F("tinytodo", "entities.json"),
        "--request", F("tinytodo", "requests", "andrew_createlist.json"),
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
        "--json",
    )
    assert code == 0
    assert out == '{"decision": "ALLOW", "determining": ["policy0"], "errors": []}\n'


def test_authorize_empty_policy_file(tmp_path, capsys):
    empty = tmp_path / "empty.cedar"
    empty.write_text("")
    code, out, _ = run(
        capsys,
        "authorize",
        "--policies", str(empty),
        "--entities", F("tinytodo", "entities.json"),
        "--request", F("tinytodo", "requests", "aaron_createlist.json"),
        "--json",
    )
    assert code == 1
    assert json.loads(out) == {"decision": "DENY", "determining": [], "errors": []}


def test_no_slicing_output_identical(capsys):
    args = [
        "authorize",
        "--policies", F("tinytodo", "policies.cedar"),
        "--entities", F("tinytodo", "entities.json"),
        "--request", F("tinytodo", "requests", "aaron_getlist.json"),
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
        "--json",
    ]
    _, with_slicing, _ = run(capsys, *args)
    _, without, _ = run(capsys, *args, "--no-slicing")
    assert with_slicing == without


def test_parse_failure_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.cedar"
    bad.write_text("permit(principal action, resource);")
    code, _, err = run(
        capsys,
        "validate",
        "--policies", str(bad),
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
    )
    assert code == 2
    assert "bad.cedar:1:18: error:" in err


def test_validate_fixture_sets(capsys):
    for policies, schema in (
        (F("tinytodo", "policies.cedar"), F("tinytodo", "tinytodo.cedarschema")),
        (F("gdrive", "policies.cedar"), F("gdrive", "gdrive.cedarschema")),
        (F("github", "policies.cedar"), F("github", "github.cedarschema")),
    ):
        code, out, _ = run(capsys, "validate", "--policies", policies, "--schema", schema)
        assert code == 0
        assert out.splitlines()[0] == "valid"


def test_validate_reports_env_tagged_error(tmp_path, capsys):
    bad = tmp_path / "bad.cedar"
    bad.write_text("permit(principal, action, resource) when { resource.unknownattr };")
    code, out, _ = run(
        capsys,
        "validate",
        "--policies", str(bad),
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
        "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["errors"][0]["kind"] == "MissingAttribute"
    assert doc["errors"][0]["principal_type"] == "User"


def test_validate_rejects_a_slot_in_a_condition(tmp_path, capsys):
    bad = tmp_path / "slot.cedar"
    bad.write_text("permit(principal == ?principal, action, resource) when { ?principal == principal };")
    code, _, err = run(capsys, "validate", "--policies", str(bad), "--schema", F("tinytodo", "tinytodo.cedarschema"))
    assert code == 2
    assert "slot.cedar:1:58: error: slot ?principal in a when condition" in err


def test_evaluate_expressions(capsys):
    code, out, _ = run(
        capsys,
        "evaluate",
        "--expr", 'User::"aaron" in Team::"interns"',
        "--entities", F("tinytodo", "entities.json"),
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "evaluate", "--expr", "1 + 1")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "evaluate", "--expr", '"x" < 1')
    assert code == 0 and out.startswith("error: TypeMismatch")
    code, _, err = run(capsys, "evaluate", "--expr", "principal")
    assert code == 2  # variables need a request


def test_slice_lists_keys_and_superset(capsys):
    code, out, _ = run(
        capsys,
        "slice",
        "--policies", F("tinytodo", "policies.cedar"),
        "--entities", F("tinytodo", "entities.json"),
        "--request", F("tinytodo", "requests", "aaron_getlist.json"),
    )
    assert code == 0
    assert 'policy4: key=<Team::"interns", Application::"TinyTodo">' in out
    assert "policy2" not in out  # admin-keyed policy is not relevant to aaron
    # Satisfied policies for this request are within the slice.
    assert "policy1" in out and "policy3" in out


def test_analyze_equivalent_refactoring(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "equivalence",
        "--old", F("github", "policies.cedar"),
        "--new", F("github", "refactored.cedar"),
        "--schema", F("github", "github.cedarschema"),
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "equivalent"
    assert all(row["verdict"] == "equivalent" for row in doc["environments"])


def test_analyze_differs_with_counterexample(capsys, tmp_path):
    emit = tmp_path / "smt"
    emit.mkdir()
    code, out, _ = run(
        capsys,
        "analyze", "equivalence",
        "--old", F("tinytodo", "policies_guardrail_old.cedar"),
        "--new", F("tinytodo", "policies_guardrail_new.cedar"),
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
        "--emit-smt", str(emit),
        "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "differs"
    rows = {row["action"]: row for row in doc["environments"]}
    differing = [a for a, row in rows.items() if row["verdict"] == "differs"]
    assert differing == ['Action::"GetOwnedLists"']
    cex = rows['Action::"GetOwnedLists"']["counterexample"]
    assert cex["decisions"] == {"old": "ALLOW", "new": "DENY"}
    assert cex["request"]["action"]["id"] == "GetOwnedLists"
    dumped = list(emit.iterdir())
    assert dumped and all(p.suffix == ".smt2" for p in dumped)


def test_analyze_emit_smt_at_a_file_is_an_input_error(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run(
        capsys,
        "analyze", "equivalence",
        "--old", F("tinytodo", "policies_guardrail_old.cedar"),
        "--new", F("tinytodo", "policies_guardrail_new.cedar"),
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
        "--emit-smt", str(taken),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot create --emit-smt directory") and "internal error" not in err


_RELATIONS_SCHEMA = """
entity User { age: Long };
entity Doc { owner: User };
action read appliesTo { principal: [User], resource: [Doc], context: { n: Long } };
"""


@pytest.mark.parametrize(
    "old,new,verdict",
    [
        # `>` and `>=` desugar to the negated `<=` and `<`, so these pairs are
        # the same policy once desugared (the bundled solver has no Longs).
        ("when { principal.age > context.n }", "unless { principal.age <= context.n }", "equivalent"),
        ("when { context.n >= 3 }", "unless { context.n < 3 }", "equivalent"),
        ("when { principal != resource.owner }", "when { resource.owner != principal }", "equivalent"),
        ("when { principal != resource.owner }", "when { principal == resource.owner }", "differs"),
    ],
)
def test_analyze_derived_relations(capsys, tmp_path, old, new, verdict):
    head = "permit(principal, action, resource) "
    (tmp_path / "s.cedarschema").write_text(_RELATIONS_SCHEMA)
    (tmp_path / "old.cedar").write_text(head + old + ";")
    (tmp_path / "new.cedar").write_text(head + new + ";")
    code, out, _ = run(
        capsys,
        "analyze", "equivalence",
        "--old", str(tmp_path / "old.cedar"),
        "--new", str(tmp_path / "new.cedar"),
        "--schema", str(tmp_path / "s.cedarschema"),
        "--json",
    )
    doc = json.loads(out)
    assert (code, doc["verdict"]) == ({"equivalent": 0, "differs": 1}[verdict], verdict)
    if verdict == "differs":
        cex = doc["environments"][0]["counterexample"]
        assert cex["decisions"] == {"old": "DENY", "new": "ALLOW"}


@pytest.mark.parametrize("entity_type", ["Foo", "bvadd", "distinct", "as", "_"])
def test_analyze_entity_type_named_like_a_solver_head(capsys, tmp_path, entity_type):
    # The type's datatype, and the selector of its attribute `as`, must not be
    # declared under the name of a built-in head or an SMT-LIB reserved word,
    # or the bundled solver reads them as that head or word.
    (tmp_path / "s.cedarschema").write_text(
        f"entity {entity_type} {{ as: String }};"
        f" action a appliesTo {{ principal: [{entity_type}], resource: [{entity_type}] }};"
    )
    (tmp_path / "old.cedar").write_text(
        f'permit(principal == {entity_type}::"x", action, resource) when {{ principal.as == "y" }};'
    )
    (tmp_path / "new.cedar").write_text("permit(principal, action, resource);")
    code, out, _ = run(
        capsys,
        "analyze", "equivalence",
        "--old", str(tmp_path / "old.cedar"),
        "--new", str(tmp_path / "new.cedar"),
        "--schema", str(tmp_path / "s.cedarschema"),
        "--json",
    )
    doc = json.loads(out)
    assert (code, doc["verdict"]) == (1, "differs")
    cex = doc["environments"][0]["counterexample"]
    assert cex["decisions"] == {"old": "DENY", "new": "ALLOW"}
    assert cex["request"]["principal"]["type"] == entity_type
    # Re-verify the counterexample through `authorize`.
    (tmp_path / "request.json").write_text(json.dumps(cex["request"]))
    (tmp_path / "entities.json").write_text(json.dumps(cex["entities"]))
    for side, decision in cex["decisions"].items():
        code, out, _ = run(
            capsys,
            "authorize",
            "--policies", str(tmp_path / f"{side}.cedar"),
            "--entities", str(tmp_path / "entities.json"),
            "--request", str(tmp_path / "request.json"),
            "--schema", str(tmp_path / "s.cedarschema"),
        )
        assert out.splitlines()[0] == decision


def test_analyze_identical_files_equivalent(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "equivalence",
        "--old", F("tinytodo", "policies.cedar"),
        "--new", F("tinytodo", "policies.cedar"),
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
    )
    assert code == 0
    assert out.strip().endswith("overall: equivalent")


def test_analyze_invalid_input_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.cedar"
    bad.write_text("permit(principal, action, resource) when { 1 };")
    code, _, err = run(
        capsys,
        "analyze", "equivalence",
        "--old", str(bad),
        "--new", F("tinytodo", "policies.cedar"),
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
    )
    assert code == 2
    assert "does not validate" in err


def test_validate_warnings_do_not_affect_exit_code(tmp_path, capsys):
    src = tmp_path / "warn.cedar"
    src.write_text("permit(principal, action, resource) when { false };")
    code, out, _ = run(
        capsys,
        "validate",
        "--policies", str(src),
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
    )
    assert code == 0
    assert "warning: policy0: AlwaysFalse" in out


def test_missing_file_is_input_error(capsys):
    code, _, err = run(
        capsys,
        "validate",
        "--policies", "/nonexistent/file.cedar",
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
    )
    assert code == 2
    assert "cannot read" in err


def test_long_parent_chain_authorizes(tmp_path, capsys):
    # A user at the bottom of a 1500-group chain is in the topmost group.
    n = 1500
    entities = [{"uid": {"type": "User", "id": "u"}, "parents": [{"type": "G", "id": "0"}]}]
    entities += [
        {"uid": {"type": "G", "id": str(i)}, "parents": [{"type": "G", "id": str(i + 1)}] if i + 1 < n else []}
        for i in range(n)
    ]
    (tmp_path / "entities.json").write_text(json.dumps(entities))
    (tmp_path / "policies.cedar").write_text(f'permit(principal in G::"{n - 1}", action, resource);')
    (tmp_path / "request.json").write_text(
        json.dumps(
            {
                "principal": {"type": "User", "id": "u"},
                "action": {"type": "Action", "id": "view"},
                "resource": {"type": "Doc", "id": "d"},
            }
        )
    )
    code, out, err = run(
        capsys,
        "authorize",
        "--policies", str(tmp_path / "policies.cedar"),
        "--entities", str(tmp_path / "entities.json"),
        "--request", str(tmp_path / "request.json"),
    )
    assert (code, out.splitlines()[0], err) == (0, "ALLOW", "")


@pytest.mark.parametrize("case", ["chain", "fan-out"])
def test_huge_hierarchy_decides_in_bounded_memory(tmp_path, case):
    # 10^5 entities: a chain whose closure would hold 5*10^9 pairs, and one
    # group with 10^5 children.  The child process runs under a 1 GiB
    # address-space cap; a quadratic store would die with MemoryError or a kill.
    args = huge_hierarchy.write_case(huge_hierarchy.CASES[case](), str(tmp_path))
    proc = huge_hierarchy.authorize(args, preexec_fn=huge_hierarchy.address_space_cap(1 << 30))
    assert (proc.returncode, proc.stdout.splitlines()[:1], proc.stderr) == (0, ["ALLOW"], "")


def test_internal_failure_exits_3_on_one_line(capsys, monkeypatch):
    # A bug inside the engine is an internal failure, which must not read as
    # DENY (exit 1), and is reported on one line even if its message is not.
    import cedar_engine.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("engine bug\nsecond line")

    monkeypatch.setattr(cli, "authorize", broken)
    code, out, err = run(
        capsys,
        "authorize",
        "--policies", F("tinytodo", "policies.cedar"),
        "--entities", F("tinytodo", "entities.json"),
        "--request", F("tinytodo", "requests", "aaron_createlist.json"),
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "RuntimeError: engine bug second line" in err
    assert "Traceback" not in err


def test_deep_nesting_exits_2(tmp_path, capsys):
    # Nesting beyond the parser's bound is bad input with a diagnostic.
    for body in ("(" * 150 + "true" + ")" * 150, "!" * 1200 + "true", " + ".join(["1"] * 600) + " == 1"):
        deep = tmp_path / "deep.cedar"
        deep.write_text("permit(principal, action, resource) when { " + body + " };")
        code, out, err = run(
            capsys,
            "authorize",
            "--policies", str(deep),
            "--entities", F("tinytodo", "entities.json"),
            "--request", F("tinytodo", "requests", "aaron_createlist.json"),
        )
        assert (code, out) == (2, "")
        assert "error: expression nests deeper than 64 levels" in err
        assert "Traceback" not in err


def _nested(height: int) -> str:
    """JSON text of a value `height` levels high: a scalar in height - 1 arrays."""
    return "[" * (height - 1) + "1" + "]" * (height - 1)


def _authorize_with(tmp_path, capsys, context_height: int, attr_height: int):
    uid = '{"type": "User", "id": "u"}'
    (tmp_path / "entities.json").write_text(f'[{{"uid": {uid}, "attrs": {{"deep": {_nested(attr_height)}}}}}]')
    # The context record is one level; its attribute the rest.
    (tmp_path / "request.json").write_text(
        f'{{"principal": {uid}, "action": {{"type": "Action", "id": "view"}},'
        f' "resource": {{"type": "Doc", "id": "d"}}, "context": {{"x": {_nested(context_height - 1)}}}}}'
    )
    (tmp_path / "policies.cedar").write_text(
        "permit(principal, action, resource) when { !(context.x == 0) && !(principal.deep == context.x) };"
    )
    return run(
        capsys,
        "authorize",
        "--policies", str(tmp_path / "policies.cedar"),
        "--entities", str(tmp_path / "entities.json"),
        "--request", str(tmp_path / "request.json"),
    )


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    for context_height, attr_height in ((3000, 1), (65, 1), (2, 65)):
        code, out, err = _authorize_with(tmp_path, capsys, context_height, attr_height)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "deep" in err and "Traceback" not in err


def test_json_values_at_the_nesting_bound_authorize(tmp_path, capsys):
    code, out, err = _authorize_with(tmp_path, capsys, 64, 64)
    assert (code, out.splitlines()[0], err) == (0, "ALLOW", "")


# -- analysis failures are internal or solver errors (exit 3), not input errors

_RECORD_SCHEMA = (
    "entity User;\n"
    "action view appliesTo { principal: [User], resource: [User], context: { r: { a?: String } } };\n"
)


def _analyze_files(tmp_path, old, new, schema):
    for name, text in (("old.cedar", old), ("new.cedar", new), ("schema.cedarschema", schema)):
        (tmp_path / name).write_text(text)
    return (
        "analyze", "equivalence",
        "--old", str(tmp_path / "old.cedar"),
        "--new", str(tmp_path / "new.cedar"),
        "--schema", str(tmp_path / "schema.cedarschema"),
    )


def test_malformed_solver_model_exits_3(tmp_path, capsys):
    solver = tmp_path / "solver.sh"
    solver.write_text("#!/bin/sh\ncat > /dev/null\necho sat\necho '(model (define-fun x () Bool'\n")
    solver.chmod(0o755)
    code, out, err = run(
        capsys,
        "analyze", "equivalence",
        "--old", F("tinytodo", "policies_guardrail_old.cedar"),
        "--new", F("tinytodo", "policies_guardrail_new.cedar"),
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
        "--solver", str(solver),
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("error:") == 1


def test_set_that_would_need_re_encoding_exits_3(tmp_path, capsys):
    # The policy validates, but comparing the literal's records with the
    # optional-attribute record would re-encode each element of a set.
    argv = _analyze_files(
        tmp_path,
        'permit(principal, action, resource) when { [{a: "x"}].contains(context.r) };',
        "permit(principal, action, resource) when { false };",
        _RECORD_SCHEMA,
    )
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "re-encode a set" in err


def test_internal_sort_error_exits_3(capsys, monkeypatch):
    import cedar_engine.cli as cli
    from cedar_engine.terms import InternalSortError

    def ill_sorted(*args, **kwargs):
        raise InternalSortError("= on Bool vs (_ BitVec 64)")

    monkeypatch.setattr(cli, "analyze_equivalence", ill_sorted)
    code, out, err = run(
        capsys,
        "analyze", "equivalence",
        "--old", F("tinytodo", "policies.cedar"),
        "--new", F("tinytodo", "refactored.cedar"),
        "--schema", F("tinytodo", "tinytodo.cedarschema"),
    )
    assert (code, out, err) == (3, "", "error: = on Bool vs (_ BitVec 64)\n")


def test_records_of_different_encodings_are_joined(tmp_path, capsys):
    # The literal and the optional-attribute record join to the latter's
    # type, so the set literal holds both and contains its own element.
    argv = _analyze_files(
        tmp_path,
        'permit(principal, action, resource) when { [context.r, {a: "x"}].contains({a: "x"}) };',
        "permit(principal, action, resource);",
        _RECORD_SCHEMA,
    )
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.strip().endswith("overall: equivalent")


_ONE_TYPE_SCHEMA = "entity User;\naction view appliesTo { principal: [User], resource: [User] };\n"
_MODEL = {
    "principal": '(User "a")',
    "resource": '(User "r")',
    "context": "UserRecord",
}


def _fake_solver(tmp_path, answer: str):
    solver = tmp_path / "solver.sh"
    solver.write_text("#!/bin/sh\ncat > /dev/null\ncat <<'EOF'\n" + answer + "\nEOF\n")
    solver.chmod(0o755)
    return str(solver)


@pytest.mark.parametrize(
    "wrong, message",
    [
        ({"principal": '(User "b")'}, "counterexample failed concrete re-verification"),
        ({"resource": "true"}, "expected an entity value"),
        ({"context": "true"}, "context did not decode to a record"),
        ({"context": "(as none (Option Bool))"}, "cannot decode model value"),
    ],
    ids=["not-a-counterexample", "resource-not-an-entity", "context-not-a-record", "undecodable-value"],
)
def test_solver_model_that_contradicts_the_analysis_exits_3(tmp_path, capsys, wrong, message):
    # Only a solver that breaks its contract reaches these checks.
    model = dict(_MODEL, **wrong)
    types = {"principal": "User", "resource": "User", "context": "UserRecord"}
    defs = "".join(f"(define-fun {k} () {types[k]} {v})\n" for k, v in model.items())
    solver = _fake_solver(tmp_path, "sat\n(\n" + defs + "(define-fun userAttrs ((x User)) UserRecord UserRecord)\n)")
    argv = _analyze_files(
        tmp_path,
        'permit(principal == User::"a", action, resource);',
        "permit(principal, action, resource) when { false };",
        _ONE_TYPE_SCHEMA,
    )
    code, out, err = run(capsys, *argv, "--solver", solver)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and message in err


def test_solver_without_an_answer_exits_3(tmp_path, capsys):
    argv = _analyze_files(
        tmp_path,
        'permit(principal == User::"a", action, resource);',
        "permit(principal, action, resource) when { false };",
        _ONE_TYPE_SCHEMA,
    )
    code, out, err = run(capsys, *argv, "--solver", _fake_solver(tmp_path, ""))
    assert (code, out) == (3, "")
    assert err.startswith("error: solver produced no answer")


def test_solver_past_its_deadline_is_a_timeout(tmp_path, capsys):
    solver = tmp_path / "solver.sh"
    solver.write_text("#!/bin/sh\nexec sleep 5\n")
    solver.chmod(0o755)
    argv = _analyze_files(
        tmp_path,
        'permit(principal == User::"a", action, resource);',
        "permit(principal, action, resource) when { false };",
        _ONE_TYPE_SCHEMA,
    )
    code, out, _ = run(capsys, *argv, "--solver", str(solver), "--timeout-ms", "200")
    assert code == 3
    assert out.splitlines()[0] == 'Action::"view" <User, User>: timeout (exceeded 200 ms)'


@pytest.mark.parametrize("timeout", ["0", "-5"])
def test_non_positive_timeout_is_a_usage_error(tmp_path, capsys, timeout):
    argv = _analyze_files(
        tmp_path,
        'permit(principal == User::"a", action, resource);',
        "permit(principal, action, resource) when { false };",
        _ONE_TYPE_SCHEMA,
    )
    code, out, err = run(capsys, *argv, "--timeout-ms", timeout)
    assert (code, out) == (2, "")
    assert err == f"error: --timeout-ms must be positive, got {timeout}\n"
