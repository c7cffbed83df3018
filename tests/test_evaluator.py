"""Expression and policy evaluation semantics."""

import random

import pytest

from cedar_engine.ast import (
    EAnd,
    EBinop,
    ELit,
    EntityRef,
    EOr,
    I64_MAX,
    I64_MIN,
    VBool,
    VEntity,
    VLong,
    toexp,
    vrecord,
)
from cedar_engine.entities import EMPTY_STORE, Request, build_store
from cedar_engine.evaluator import (
    EvalError,
    EvalErrorKind,
    PolicyEvalStatus,
    evaluate,
    evaluate_policy,
)
from cedar_engine.parser import parse_expr, parse_policies
from cedar_engine.testkit import GenConfig, gen_expr, gen_request, gen_store


def dummy_request():
    return Request(EntityRef("User", "u"), EntityRef("Action", "a"), EntityRef("R", "r"), vrecord({}))


def ev(src, store=EMPTY_STORE, request=None):
    return evaluate(parse_expr(src), store, request or dummy_request())


def test_short_circuit_skips_erroring_conjunct():
    assert ev('false && ("hello" < 1)') == VBool(False)
    assert ev('true || ("hello" < 1)') == VBool(True)


def test_mutual_membership_is_false_on_any_dag():
    # Over a well-formed hierarchy two entities can never be ancestors of
    # each other, so the conjunction is false whichever store we try.
    expr = 'Team::"A" in Team::"B" && Team::"B" in Team::"A"'
    assert ev(expr) == VBool(False)
    store = build_store(
        [
            (EntityRef("Team", "A"), vrecord({}), [EntityRef("Team", "B")]),
            (EntityRef("Team", "B"), vrecord({}), []),
        ]
    )
    assert ev(expr, store) == VBool(False)
    from cedar_engine.testkit import reference_evaluate

    assert reference_evaluate(parse_expr(expr), store, dummy_request()) == ("ok", VBool(False))


def test_conditional_literal_guard():
    assert ev("if true then 1 else 2") == VLong(1)


def test_reader_policy_satisfied_for_intern(tinytodo_store, tinytodo_policies):
    request = Request(
        EntityRef("User", "aaron"),
        EntityRef("Action", "GetList"),
        EntityRef("List", "0"),
        vrecord({}),
    )
    policy3 = tinytodo_policies[3]
    assert evaluate(toexp(policy3), tinytodo_store, request) == VBool(True)


def test_overflow_matches_wide_integer_oracle():
    with pytest.raises(EvalError) as err:
        ev(f"{I64_MAX} + 1")
    assert err.value.kind is EvalErrorKind.ARITHMETIC_OVERFLOW
    from cedar_engine.testkit import reference_evaluate

    assert reference_evaluate(parse_expr(f"{I64_MAX} + 1"), EMPTY_STORE, dummy_request()) == (
        "err",
        "ArithmeticOverflow",
    )
    # Spot-check the 64-bit boundary against unbounded integer arithmetic.
    rng = random.Random(5)
    cases = [(I64_MAX, 1), (I64_MIN, -1), (I64_MAX, 0), (I64_MIN + 1, -1)]
    cases += [(rng.randint(I64_MIN, I64_MAX), rng.randint(-3, 3)) for _ in range(200)]
    for a, b in cases:
        wide = a + b
        expr = EBinop("+", ELit(VLong(a)), ELit(VLong(b)))
        if I64_MIN <= wide <= I64_MAX:
            assert evaluate(expr, EMPTY_STORE, dummy_request()) == VLong(wide)
        else:
            with pytest.raises(EvalError):
                evaluate(expr, EMPTY_STORE, dummy_request())


def test_unary_negation_overflow():
    with pytest.raises(EvalError):
        ev(f"-({I64_MIN})")
    assert ev(f"{I64_MIN} + 0") == VLong(I64_MIN)


def test_forbid_policy_satisfied(tinytodo_store, tinytodo_policies):
    request = Request(
        EntityRef("User", "aaron"),
        EntityRef("Action", "CreateList"),
        EntityRef("Application", "TinyTodo"),
        vrecord({}),
    )
    policy4 = tinytodo_policies[4]
    assert evaluate_policy(policy4, tinytodo_store, request).status is PolicyEvalStatus.SATISFIED


def test_policy_false_condition_not_satisfied():
    (p,) = parse_policies("permit(principal, action, resource) when { false };")
    assert evaluate_policy(p, EMPTY_STORE, dummy_request()).status is PolicyEvalStatus.NOT_SATISFIED


def test_policy_missing_attribute_errors(tinytodo_store):
    (p,) = parse_policies("permit(principal, action, resource) when { resource.missing == 1 };")
    request = Request(
        EntityRef("User", "aaron"),
        EntityRef("Action", "GetList"),
        EntityRef("List", "0"),
        vrecord({}),
    )
    out = evaluate_policy(p, tinytodo_store, request)
    assert out.status is PolicyEvalStatus.ERRORED
    assert out.error.kind is EvalErrorKind.ATTR_NOT_FOUND
    # The independent interpreter agrees.
    from cedar_engine.testkit import reference_evaluate

    assert reference_evaluate(toexp(p), tinytodo_store, request) == ("err", "AttrNotFound")


def test_has_and_projection_semantics(tinytodo_store):
    req = Request(
        EntityRef("User", "aaron"),
        EntityRef("Action", "GetList"),
        EntityRef("List", "0"),
        vrecord({}),
    )
    assert ev('List::"0" has owner', tinytodo_store, req) == VBool(True)
    assert ev('List::"0" has missing', tinytodo_store, req) == VBool(False)
    assert ev('List::"9" has owner', tinytodo_store, req) == VBool(False)  # absent entity
    with pytest.raises(EvalError) as err:
        ev('List::"9".owner', tinytodo_store, req)
    assert err.value.kind is EvalErrorKind.ENTITY_NOT_FOUND
    assert ev("{a: 1} has a", tinytodo_store, req) == VBool(True)
    with pytest.raises(EvalError) as err:
        ev("{a: 1}.b", tinytodo_store, req)
    assert err.value.kind is EvalErrorKind.ATTR_NOT_FOUND


def test_equality_is_nominal_for_absent_entities():
    assert ev('Action::"foo" == Action::"foo"') == VBool(True)
    assert ev('Action::"foo" == Action::"bar"') == VBool(False)
    assert ev('User::"x" == Team::"x"') == VBool(False)
    assert ev("1 == true") == VBool(False)


def test_in_reflexive_even_when_absent():
    assert ev('Ghost::"g" in Ghost::"g"') == VBool(True)
    assert ev('Ghost::"g" in Ghost::"h"') == VBool(False)
    assert ev('Ghost::"g" in [Ghost::"h", Ghost::"g"]') == VBool(True)
    assert ev('Ghost::"g" in []') == VBool(False)


def test_in_reflexivity_property():
    for seed in range(100):
        store = gen_store(GenConfig(seed))
        request = gen_request(GenConfig(seed), store)
        for r in list(store.refs())[:5] + [EntityRef("E0", "absent")]:
            expr = EBinop("in", ELit(VEntity(r)), ELit(VEntity(r)))
            assert evaluate(expr, store, request) == VBool(True)


def test_short_circuit_laws_hold_for_arbitrary_operands():
    rng = random.Random(17)
    store = gen_store(GenConfig(3))
    request = gen_request(GenConfig(3), store)
    refs = sorted(store.refs(), key=str)
    for _ in range(500):
        e = gen_expr(rng, rng.randint(0, 3), refs)
        assert evaluate(EOr(ELit(VBool(True)), e), store, request) == VBool(True)
        assert evaluate(EAnd(ELit(VBool(False)), e), store, request) == VBool(False)


def test_set_and_string_operators():
    assert ev("[1, 2].contains(2)") == VBool(True)
    assert ev("[1, 2].containsAny([3, 2])") == VBool(True)
    assert ev("[1, 2].containsAll([2, 1, 1])") == VBool(True)
    assert ev("[1].containsAll([2])") == VBool(False)
    assert ev('"Create demo" like "Create*"') == VBool(True)
    assert ev('"star*here" like "star\\*here"') == VBool(True)
    assert ev('"starXhere" like "star\\*here"') == VBool(False)
    with pytest.raises(EvalError):
        ev('1 like "x"')


def test_type_mismatches():
    for src in ('1 in User::"x"', "true + 1", '"a" < "b"', "[1].containsAny(2)", "5 has f", "!5"):
        with pytest.raises(EvalError) as err:
            ev(src)
        assert err.value.kind is EvalErrorKind.TYPE_MISMATCH
    assert ev("1 is User") == VBool(False)  # is is total


def test_determinism(tinytodo_store):
    request = Request(
        EntityRef("User", "emma"),
        EntityRef("Action", "GetList"),
        EntityRef("List", "0"),
        vrecord({}),
    )
    e = parse_expr("principal in resource.readers || principal in resource.editors")
    first = evaluate(e, tinytodo_store, request)
    for _ in range(5):
        assert evaluate(e, tinytodo_store, request) == first


# ---------------------------------------------------------------------------
# Every error site: exact kind, detail and trace (the rendered node at fault).
# ---------------------------------------------------------------------------

MISMATCH, MISSING_ATTR = EvalErrorKind.TYPE_MISMATCH, EvalErrorKind.ATTR_NOT_FOUND
OVERFLOW = EvalErrorKind.ARITHMETIC_OVERFLOW

ERROR_SITES = [
    ('List::"9".owner', EvalErrorKind.ENTITY_NOT_FOUND, 'entity List::"9" does not exist', 'List::"9".owner'),
    ('List::"0".missing', MISSING_ATTR, "List::\"0\" has no attribute 'missing'", 'List::"0".missing'),
    ("{a: 1}.b", MISSING_ATTR, "record has no attribute 'b'", "{a: 1}.b"),
    ("context.x", MISSING_ATTR, "record has no attribute 'x'", "context.x"),
    ('"s".f', MISMATCH, "attribute access on string", '"s".f'),
    ("1 has f", MISMATCH, "has test on long", "1 has f"),
    ("true + 1", MISMATCH, "expected long, got bool", "true"),
    ('1 + "a"', MISMATCH, "expected long, got string", '"a"'),
    ("true - 1", MISMATCH, "expected long, got bool", "true"),
    ('1 - "a"', MISMATCH, "expected long, got string", '"a"'),
    ('"a" < 1', MISMATCH, "expected long, got string", '"a"'),
    ('1 < "b"', MISMATCH, "expected long, got string", '"b"'),
    ("[] <= 1", MISMATCH, "expected long, got set", "[]"),
    ("1 <= {}", MISMATCH, "expected long, got record", "{}"),
    ('1 in User::"x"', MISMATCH, "in with long left operand", '1 in User::"x"'),
    ('User::"x" in 1', MISMATCH, "in with long right operand", 'User::"x" in 1'),
    ('User::"x" in [User::"y", 1]', MISMATCH, "in with a set containing long", 'User::"x" in [User::"y", 1]'),
    ('"a".contains(1)', MISMATCH, "contains on string", '"a".contains(1)'),
    ("[1].containsAny(2)", MISMATCH, "containsAny expects two sets", "[1].containsAny(2)"),
    ('[1].containsAll("x")', MISMATCH, "containsAll expects two sets", '[1].containsAll("x")'),
    ('1 like "x"', MISMATCH, "like on long", '1 like "x"'),
    ("1 && true", MISMATCH, "expected bool, got long", "1"),
    ("true && 1", MISMATCH, "expected bool, got long", "1"),
    ('"x" || true', MISMATCH, "expected bool, got string", '"x"'),
    ('false || "x"', MISMATCH, "expected bool, got string", '"x"'),
    ("!5", MISMATCH, "expected bool, got long", "5"),
    ('-"a"', MISMATCH, "expected long, got string", '"a"'),
    ('2 * "a"', MISMATCH, "expected long, got string", '"a"'),
    ("if 1 then 2 else 3", MISMATCH, "expected bool, got long", "1"),
    (f"{I64_MAX} + 1", OVERFLOW, "signed 64-bit overflow", f"{I64_MAX} + 1"),
    (f"{I64_MIN} - 1", OVERFLOW, "signed 64-bit overflow", f"{I64_MIN} - 1"),
    (f"-({I64_MIN})", OVERFLOW, "signed 64-bit overflow", f"-{I64_MIN}"),
    (f"2 * {I64_MAX}", OVERFLOW, "signed 64-bit overflow", f"2 * {I64_MAX}"),
    ("principal == ?principal", MISMATCH, "unfilled template slot ?principal", "?principal"),
    # Call-by-value, left to right: both operands are evaluated before either
    # is type-checked, so the right operand's error wins over the mismatch.
    ('"a" + principal.nope', MISSING_ATTR, "User::\"aaron\" has no attribute 'nope'", "principal.nope"),
    ('principal.nope < "b"', MISSING_ATTR, "User::\"aaron\" has no attribute 'nope'", "principal.nope"),
    ("if true then principal.nope else 1", MISSING_ATTR, "User::\"aaron\" has no attribute 'nope'", "principal.nope"),
]


@pytest.mark.parametrize("src,kind,detail,trace", ERROR_SITES)
def test_error_site_kind_detail_and_trace(tinytodo_store, src, kind, detail, trace):
    request = Request(EntityRef("User", "aaron"), EntityRef("Action", "GetList"), EntityRef("List", "0"), vrecord({}))
    with pytest.raises(EvalError) as err:
        evaluate(parse_expr(src), tinytodo_store, request)
    assert (err.value.kind, err.value.detail, err.value.trace) == (kind, detail, trace)
    assert str(err.value) == f"{kind.value}: {detail}"
