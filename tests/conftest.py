import contextlib
import gc
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")


def pytest_addoption(parser):
    parser.addoption(
        "--gen-seed",
        type=int,
        default=0,
        help="offset added to every generator seed (replay a different shard)",
    )


@pytest.fixture(scope="session")
def gen_seed(request) -> int:
    return request.config.getoption("--gen-seed")


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request) -> bool:
    """The cyclic garbage collector on, then off, for the test; the state it
    had before is put back after."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if enabled else gc.disable)()


@contextlib.contextmanager
def collections_logged():
    """Run the block with the cyclic collector on, from a heap without
    garbage, and yield a list that gets `(phase, generation, collected)` for
    each collection that starts or stops in it."""
    enabled = gc.isenabled()
    gc.collect()
    log = []

    def record(phase, info):
        log.append((phase, info["generation"], info["collected"]))

    gc.enable()
    gc.callbacks.append(record)
    try:
        yield log
    finally:
        gc.callbacks.remove(record)
        if not enabled:
            gc.disable()


def if_form(e):
    """`!a`, `a && b` and `a || b` written as the conditionals they mean:
    `if a then false else true`, `if a then (if b then true else false)
    else false` and `if a then true else (if b then true else false)`.  Any
    other expression, and the operands, stay as they are."""
    from cedar_engine.ast import FALSE, TRUE, EAnd, EIf, ELit, ENot, EOr

    true, false = ELit(TRUE), ELit(FALSE)
    if isinstance(e, ENot):
        return EIf(e.arg, false, true)
    if isinstance(e, EAnd):
        return EIf(e.left, EIf(e.right, true, false), false)
    if isinstance(e, EOr):
        return EIf(e.left, true, EIf(e.right, true, false))
    return e


def if_form_everywhere(e):
    """`e` with every `!`, `&&` and `||` in it written by `if_form`."""
    from dataclasses import fields, replace

    from cedar_engine.ast import Expr

    def rewrite(x):
        if isinstance(x, tuple):
            return tuple(map(rewrite, x))
        if not isinstance(x, Expr):
            return x
        x = if_form(x)
        return replace(x, **{f.name: rewrite(getattr(x, f.name)) for f in fields(x)})

    return rewrite(e)


def fixture_path(*parts) -> str:
    return os.path.join(FIXTURES, *parts)


def read_fixture(*parts) -> str:
    with open(fixture_path(*parts), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def tinytodo_schema():
    from cedar_engine.parser import parse_schema

    return parse_schema(read_fixture("tinytodo", "tinytodo.cedarschema"))


@pytest.fixture(scope="session")
def tinytodo_policies():
    from cedar_engine.parser import parse_policies

    return parse_policies(read_fixture("tinytodo", "policies.cedar"))


@pytest.fixture(scope="session")
def tinytodo_store():
    from cedar_engine.entities import load_entities

    return load_entities(read_fixture("tinytodo", "entities.json"))


# The compact four-entity-type schema from the overview figure: no name or
# task attributes, exactly two actions.
FIG_SCHEMA = """
entity Application;
entity Team, User in [Team, Application];
entity List in [Application] { readers: Team, editors: Team, owner: User };
action CreateList appliesTo { principal: [User], resource: [Application] };
action GetList appliesTo { principal: [User], resource: [List] };
"""


@pytest.fixture(scope="session")
def fig_schema():
    from cedar_engine.parser import parse_schema

    return parse_schema(FIG_SCHEMA)


# Action groups two levels deep: `view` and `edit` are in `Read`, `edit` is
# also in `Write`, and `Read` and `Write` are in `All`.
ACTION_GROUP_SCHEMA = """
entity User;
entity Team;
entity Doc;
action All;
action Read, Write in [All];
action view in [Read] appliesTo { principal: [User], resource: [Doc] };
action edit in [Read, Write] appliesTo { principal: [User, Team], resource: [Doc] };
action share in [Write] appliesTo { principal: [User], resource: [Doc, Team] };
"""


def action_forms(schema, env):
    """(source, expected truth) for every static action form in ``env``."""
    a = env.action
    refs = list(schema.actions)
    out = [("action is Action", True), ("action is User", False)]
    for b in refs:
        out += [
            (f"action == {b}", a == b),
            (f"{b} == action", b == a),
            (f"action in {b}", schema.action_in(a, b)),
            (f"{b} in action", schema.action_in(b, a)),
        ]
        for c in refs:
            out.append((f"action in [{b}, {c}]", schema.action_in(a, b) or schema.action_in(a, c)))
    return out


@pytest.fixture(scope="session")
def action_group_schema():
    from cedar_engine.parser import parse_schema

    return parse_schema(ACTION_GROUP_SCHEMA)
