"""Terms: values whose sorts are set when they are built, and checked there."""

from itertools import product
from types import SimpleNamespace

import pytest

from cedar_engine.terms import (
    BOOL_S,
    BV64_S,
    STRING_S,
    InternalSortError,
    SOption,
    SSet,
    FALSE_TERM,
    TAnd,
    TBVLit,
    TBVOp,
    TConst,
    TEq,
    TImplies,
    TIsSome,
    TIte,
    TNone,
    TNot,
    TOr,
    TSetEmpty,
    TSetInter,
    TSetMember,
    TSetSingleton,
    TSetSubset,
    TSetUnion,
    TSome,
    TReAll,
    TStrInRe,
    TStrLit,
    TVal,
    TRUE_TERM,
    mk_and2,
    mk_eq,
    mk_ifok,
    mk_implies,
    mk_is_some,
    mk_ite,
    mk_member,
    mk_not,
    mk_or,
    mk_or2,
    mk_set_literal,
    mk_val,
    term_shape,
)
from cedar_engine.testkit import TermInterpreter

P = TConst("p", BOOL_S)
N = TBVLit(1)
S = TStrLit("s")
OPT = TConst("o", SOption(BOOL_S))
NUMS, STRS = TSetEmpty(BV64_S), TSetEmpty(STRING_S)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TIte(N, P, P),
        lambda: TIte(P, N, S),
        lambda: TEq(N, S),
        lambda: TAnd((P, N)),
        lambda: TOr((S, P)),
        lambda: TNot(N),
        lambda: TImplies(P, S),
        lambda: TSetMember(S, NUMS),
        lambda: TSetSubset(NUMS, STRS),
        lambda: TSetSubset(N, N),
        lambda: TSetInter(NUMS, STRS),
        lambda: TSetUnion(STRS, NUMS),
        lambda: TVal(N),
        lambda: TIsSome(P),
        lambda: TBVOp("bvadd", (N, S)),
        lambda: TBVOp("bvslt", (P, N)),
        lambda: TBVOp("bvneg", (N, TBVLit(2))),
        lambda: TBVOp("bvudiv", (N, N)),
        lambda: TBVLit(1 << 63),
        lambda: TBVLit(-(1 << 63) - 1),
        lambda: TStrInRe(N, TReAll()),
        lambda: mk_ifok(OPT, P),
        lambda: mk_ifok(TSome(P), P),
        # The smart constructors check sorts before they fold.
        lambda: mk_eq(TRUE_TERM, N),
        lambda: mk_and2(TRUE_TERM, N),
        lambda: mk_or2(N, TRUE_TERM),
        lambda: mk_implies(TRUE_TERM, N),
        lambda: mk_ite(TRUE_TERM, N, S),
        lambda: mk_ite(N, P, P),
        lambda: mk_or([N]),
    ],
    ids=[
        "ite-guard", "ite-branches", "eq", "and", "or", "not", "implies", "member", "subset",
        "subset-non-set", "inter", "union", "val", "is-some", "bvadd", "bvslt", "bvneg-arity",
        "bv-unknown-head", "bv-too-big", "bv-too-small", "in-re", "ifok-body", "ifok-literal-guard",
        "mk-eq", "mk-and2", "mk-or2", "mk-implies", "mk-ite-branches", "mk-ite-guard", "mk-or",
    ],
)
def test_ill_sorted_term_raises_where_it_is_built(build):
    with pytest.raises(InternalSortError):
        build()


def test_sorts_are_derived_and_not_compared():
    assert TIte(P, N, TBVOp("bvneg", (N,))).sort == BV64_S
    assert TVal(TSome(S)).sort == STRING_S
    assert TSetUnion(TSetSingleton(N), NUMS).sort == SSet(BV64_S)
    assert TBVOp("bvsle", (N, N)).sort == TEq(N, N).sort == BOOL_S
    assert TSome(N) == TSome(TBVLit(1)) and hash(TSome(N)) == hash(TSome(TBVLit(1)))
    assert "sort" not in repr(TSome(N))


def test_terms_are_immutable_values():
    a, b = TSome(TEq(P, TConst("q", BOOL_S))), TSome(TEq(P, TConst("q", BOOL_S)))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a is b  # hash-consed: equal terms are one object
    assert TConst("x", BOOL_S) != TConst("x", STRING_S)
    for t in (a, P, N, S, NUMS, TReAll()):
        assert t != term_shape(t) and term_shape(t) != t
    with pytest.raises(AttributeError):
        a.head = "val"
    with pytest.raises(AttributeError):
        del a.args
    assert a.head == "some" and a.sort == SOption(BOOL_S)
    assert repr(a) == "Term((some (= p q)))"


def test_smart_constructors_agree_with_the_terms_they_fold():
    # Closed terms of built-in heads only, so the term interpreter needs no
    # store or request: literals, and terms no constructor folds.
    run = TermInterpreter(SimpleNamespace(datatypes=[]), None, None).run
    one, two = TBVLit(1), TBVLit(2)
    bools = [TRUE_TERM, FALSE_TERM, TEq(one, one), TEq(one, two)]
    nums = [one, two, TBVOp("bvneg", (one,))]
    options = [TSome(one), TSome(two), TNone(BV64_S), TIte(bools[3], TSome(one), TNone(BV64_S))]
    sets = [TSetEmpty(BV64_S), mk_set_literal([one, two]), mk_set_literal([two, TBVOp("bvneg", (one,)), one])]
    pools = [bools, nums, options, sets]
    for a in bools:
        assert run(mk_not(a)) == run(TNot(a))
        assert run(mk_or([a, *bools])) == run(TOr((a, *bools)))
        for b in bools:
            assert run(mk_and2(a, b)) == run(TAnd((a, b)))
            assert run(mk_or2(a, b)) == run(TOr((a, b)))
            assert run(mk_implies(a, b)) == run(TImplies(a, b))
    for pool in pools:
        for a, b in product(pool, repeat=2):
            assert run(mk_eq(a, b)) == run(TEq(a, b)), (a, b)
            for c in bools:
                assert run(mk_ite(c, a, b)) == run(TIte(c, a, b)), (c, a, b)
    for o, n in product(options, nums):
        assert run(mk_is_some(o)) == run(TIsSome(o))
        assert run(mk_val(o)) == run(TVal(o))
        assert run(mk_ifok(o, TSome(n))) == run(TIte(TIsSome(o), TSome(n), TNone(BV64_S)))
    for e, s in product(nums, sets):
        assert run(mk_member(e, s)) == run(TSetMember(e, s))
    # Membership in a set literal listing the element folds, wherever it
    # stands in the literal.
    listed = [one, two, nums[2]]
    for e in listed:
        assert mk_member(e, mk_set_literal(listed)) == TRUE_TERM
    assert mk_member(TBVLit(3), mk_set_literal(listed)).head == "set.member"
