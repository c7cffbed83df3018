"""Term sorts: set when a term is built, and checked there."""

import pytest

from cedar_engine.terms import (
    BOOL_S,
    BV64_S,
    STRING_S,
    InternalSortError,
    RAll,
    SOption,
    SSet,
    TAnd,
    TBVLit,
    TBVOp,
    TConst,
    TEq,
    TImplies,
    TIsSome,
    TIte,
    TNot,
    TOr,
    TSetEmpty,
    TSetInter,
    TSetMember,
    TSetSingleton,
    TSetSubset,
    TSetUnion,
    TSome,
    TStrInRe,
    TStrLit,
    TVal,
    TRUE_TERM,
    mk_and2,
    mk_eq,
    mk_ifok,
    mk_implies,
    mk_ite,
    mk_or,
    mk_or2,
)

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
        lambda: TStrInRe(N, RAll()),
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
