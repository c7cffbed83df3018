"""Seeded byte and token mutations of the fixture schema, entity and request
texts, through `cli.main`: every run exits 0, 1 or 2, and none reports an
internal error (exit 3 is for internal and solver errors, never bad input)."""

import random
import re

from cedar_engine.cli import main
from cedar_engine.smt_backend import SolverConfig

from conftest import fixture_path, read_fixture

# Strings, words and single characters; whitespace is kept as it is.
_TOKEN = re.compile(r'\s+|"(?:[^"\\]|\\.)*"|\w+|.', re.S)
_HOSTILE = ("{", "}", "[", "]", "<", ">", ",", ":", ";", '"', "-1", "1e999", "18446744073709551616", "null", "true",
            "Set", "Long", "entity", "__entity", "\\u0000", "é")


def _byte_mutation(rng, text: str) -> bytes:
    data = bytearray(text.encode("utf-8"))
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(data) + 1)
        kind = rng.randrange(3)
        if kind == 0 and at < len(data):
            data[at] = rng.randrange(256)
        elif kind == 1:
            data[at:at] = bytes([rng.randrange(256)])
        else:
            del data[at : at + rng.randint(1, 8)]
    return bytes(data)


def _token_mutation(rng, text: str) -> bytes:
    tokens = _TOKEN.findall(text)
    spots = [i for i, t in enumerate(tokens) if not t.isspace()]
    for _ in range(rng.randint(1, 3)):
        at, other = rng.choice(spots), rng.choice(spots)
        kind = rng.randrange(4)
        if kind == 0:
            tokens[at] = ""
        elif kind == 1:
            tokens[at] += " " + tokens[other]
        elif kind == 2:
            tokens[at], tokens[other] = tokens[other], tokens[at]
        else:
            tokens[at] = rng.choice(_HOSTILE)
    return "".join(tokens).encode("utf-8")


def test_mutated_inputs_exit_0_1_or_2(tmp_path, capsys, monkeypatch, gen_seed):
    monkeypatch.setattr(SolverConfig, "default", staticmethod(lambda timeout_ms=60000: SolverConfig.bundled(timeout_ms)))
    texts = {
        "schema": read_fixture("tinytodo", "tinytodo.cedarschema"),
        "entities": read_fixture("tinytodo", "entities.json"),
        "request": read_fixture("tinytodo", "requests", "aaron_getlist.json"),
    }
    paths = {name: tmp_path / name for name in texts}
    for name, text in texts.items():
        paths[name].write_text(text, encoding="utf-8")
    policies, schema = fixture_path("tinytodo", "policies.cedar"), ["--schema", str(paths["schema"])]
    authorize = ["authorize", "--policies", policies, "--entities", str(paths["entities"]),
                 "--request", str(paths["request"]), *schema]
    analyze = ["analyze", "equivalence", "--old", fixture_path("tinytodo", "policies_guardrail_old.cedar"),
               "--new", fixture_path("tinytodo", "policies_guardrail_new.cedar"), *schema]
    runs = {"schema": (["validate", "--policies", policies, *schema], analyze, authorize),
            "entities": (authorize,), "request": (authorize,)}
    rng = random.Random(0x1F022 + gen_seed)
    codes = set()
    for i in range(240):
        name = ("schema", "entities", "request")[i % 3]
        mutate = _byte_mutation if rng.random() < 0.5 else _token_mutation
        paths[name].write_bytes(mutate(rng, texts[name]))
        for argv in runs[name]:
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "internal error" not in err, (argv, paths[name].read_bytes(), code, err)
            codes.add(code)
        paths[name].write_text(texts[name], encoding="utf-8")
    assert 2 in codes and codes & {0, 1}  # some mutations are rejected, some are read


def test_undecodable_input_file_is_an_input_error(tmp_path, capsys):
    request = tmp_path / "request.json"
    request.write_bytes(read_fixture("tinytodo", "requests", "aaron_getlist.json").encode("utf-8") + b"\xff")
    code = main(["authorize", "--policies", fixture_path("tinytodo", "policies.cedar"),
                 "--entities", fixture_path("tinytodo", "entities.json"), "--request", str(request)])
    assert (code, capsys.readouterr().err.startswith(f"error: cannot read {request}: 'utf-8' codec")) == (2, True)
