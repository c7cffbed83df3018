"""The command-line surface: outputs, JSON stability, exit codes."""

import json


from cedar_engine.cli import main

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
