"""Typed SMT term trees.

Every term has exactly one sort, its `sort` attribute, a tree as SMT-LIB
writes it (see `sexpr`): fixed by its class, or derived from its children's
sorts when it is built.  A term written ``(head, *children)`` gets its sort
from its head's rank in `sexpr.RANKS`, the table the bundled solver checks
its input against, so building an ill-sorted term raises
`InternalSortError`.  Only the checks that need the declarations (each
application against its function's signature, each constant against its
declaration) are left to `smt_backend`, which makes them once for a
script, whether it is printed or built as trees.

The smart constructors check their operands' sorts first, then partially
evaluate (literal guards collapse conditionals, `and`/`or`/`implies` drop
literal operands, membership in a set literal listing the element is true)
so that statically-decided subexpressions vanish from the output.  Terms
are spelled (`term_shape`) in the finite-set theory's names (`set.member`,
`set.subset`, `set.inter`, `set.singleton`, `as set.empty`), as text
(`term_sexpr`) or as a shared tree (`term_tree`).

Option-wrapped sorts carry the error channel: `none` is a runtime error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .ast import CedarError, I64_MAX, I64_MIN
from .sexpr import BOOL, BV, RANKS, REGLAN, STRING, Sharer, rank_arguments, ranked_sort, write_sexpr


class InternalSortError(CedarError):
    """An emitted term failed the sort check: a compiler bug."""


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

# A sort is its `sexpr` tree; a datatype's is its name.  The compiler's
# names for the sorts it builds:
BOOL_S, BV64_S, STRING_S = BOOL, BV, STRING


def SSet(elem):
    return ("Set", elem)


def SOption(elem):
    return ("Option", elem)


def _check(shape: tuple):
    """The sort of the term written `shape`, `(head, *children)`, by its
    head's rank; raises InternalSortError when the children's sorts do not
    fit it."""
    # Most terms built have one child (`TSome` above all): no loop for them.
    sorts = (shape[1].sort,) if len(shape) == 2 else tuple([a.sort for a in shape[1:]])
    sort = _result_sort(shape[0], sorts)
    if sort is None:
        raise InternalSortError(f"{write_sexpr(shape[0])} applied to arguments of sorts {write_sexpr(sorts)}")
    return sort


@lru_cache(maxsize=4096)
def _result_sort(head, sorts: tuple):
    # Memoised: the compiler builds many terms of few distinct heads and sorts.
    rank = RANKS.get(head)
    return None if rank is None else ranked_sort(rank_arguments(rank, len(sorts)), rank[1], sorts)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """An SMT term.  Each has a `sort`: given (constants, applications),
    fixed by its class, or derived from its children's sorts when it is
    built.  A derived sort takes no part in equality or hashing."""

    __slots__ = ()


def _derived_sort():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class _Ranked(Term):
    """A term written `(head, *children)` (its `term_shape`), whose sort is
    its head's rank applied to its children's sorts."""

    sort: object = _derived_sort()

    def __post_init__(self):
        object.__setattr__(self, "sort", _check(_SHAPES[type(self)](self)))


@dataclass(frozen=True)
class TBoolLit(Term):
    b: bool
    sort = BOOL


@dataclass(frozen=True)
class TBVLit(Term):
    i: int  # signed, within 64-bit range
    sort = BV

    def __post_init__(self):
        if not (I64_MIN <= self.i <= I64_MAX):
            raise InternalSortError("bitvector literal out of range")


@dataclass(frozen=True)
class TStrLit(Term):
    s: str
    sort = STRING


@dataclass(frozen=True)
class TConst(Term):
    name: str
    sort: object


@dataclass(frozen=True)
class TApp(Term):
    """Uninterpreted function, datatype constructor, or selector application.
    Its arguments are checked against the declared signature when the
    script is printed."""

    fn: str
    args: tuple
    sort: object


@dataclass(frozen=True)
class TSome(_Ranked):
    arg: Term


@dataclass(frozen=True)
class TNone(Term):
    elem: object
    sort: object = _derived_sort()

    def __post_init__(self):
        object.__setattr__(self, "sort", SOption(self.elem))


@dataclass(frozen=True)
class TVal(_Ranked):
    arg: Term  # Option-sorted


@dataclass(frozen=True)
class TIsSome(_Ranked):
    arg: Term


@dataclass(frozen=True)
class TIte(_Ranked):
    cond: Term
    then: Term
    els: Term


@dataclass(frozen=True)
class TEq(_Ranked):
    left: Term
    right: Term


@dataclass(frozen=True)
class TNot(_Ranked):
    arg: Term


@dataclass(frozen=True)
class TAnd(_Ranked):
    args: tuple  # len >= 2


@dataclass(frozen=True)
class TOr(_Ranked):
    args: tuple  # len >= 2


@dataclass(frozen=True)
class TImplies(_Ranked):
    left: Term
    right: Term


@dataclass(frozen=True)
class TSetMember(_Ranked):
    elem: Term
    set: Term


@dataclass(frozen=True)
class TSetSubset(_Ranked):
    left: Term
    right: Term


@dataclass(frozen=True)
class TSetInter(_Ranked):
    left: Term
    right: Term


@dataclass(frozen=True)
class TSetUnion(_Ranked):
    left: Term
    right: Term


@dataclass(frozen=True)
class TSetSingleton(_Ranked):
    elem: Term


@dataclass(frozen=True)
class TSetEmpty(Term):
    elem: object
    sort: object = _derived_sort()

    def __post_init__(self):
        object.__setattr__(self, "sort", SSet(self.elem))


@dataclass(frozen=True)
class TBVOp(_Ranked):
    op: str
    args: tuple


class Regex:
    __slots__ = ()
    sort = REGLAN  # what `TStrInRe` checks its regex's sort against


@dataclass(frozen=True)
class RLit(Regex):
    s: str


@dataclass(frozen=True)
class RAll(Regex):
    pass


@dataclass(frozen=True)
class RConcat(Regex):
    parts: tuple


@dataclass(frozen=True)
class TStrInRe(Term):
    s: Term
    re: Regex
    sort: object = _derived_sort()

    def __post_init__(self):
        object.__setattr__(self, "sort", _check(("str.in_re", self.s, self.re)))


TRUE_TERM = TBoolLit(True)
FALSE_TERM = TBoolLit(False)


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def mk_not(t: Term) -> Term:
    if isinstance(t, TBoolLit):
        return TBoolLit(not t.b)
    if isinstance(t, TNot):
        return t.arg
    return TNot(t)


def mk_and2(a: Term, b: Term) -> Term:
    _check(("and", a, b))
    if isinstance(a, TBoolLit):
        return b if a.b else FALSE_TERM
    if isinstance(b, TBoolLit):
        return a if b.b else FALSE_TERM
    return TAnd((a, b))


def mk_or2(a: Term, b: Term) -> Term:
    _check(("or", a, b))
    if isinstance(a, TBoolLit):
        return TRUE_TERM if a.b else b
    if isinstance(b, TBoolLit):
        return TRUE_TERM if b.b else a
    return TOr((a, b))


def mk_or(args) -> Term:
    args = tuple(args)
    _check(("or", *args))
    out = []
    for a in args:
        if isinstance(a, TBoolLit):
            if a.b:
                return TRUE_TERM
            continue
        out.append(a)
    if not out:
        return FALSE_TERM
    if len(out) == 1:
        return out[0]
    return TOr(tuple(out))


def mk_implies(a: Term, b: Term) -> Term:
    _check(("=>", a, b))
    if isinstance(a, TBoolLit):
        return b if a.b else TRUE_TERM
    if isinstance(b, TBoolLit) and b.b:
        return TRUE_TERM
    return TImplies(a, b)


def mk_eq(a: Term, b: Term) -> Term:
    _check(("=", a, b))
    if a == b:
        return TRUE_TERM
    if isinstance(a, TBoolLit) and isinstance(b, TBoolLit):
        return TBoolLit(a.b == b.b)
    if isinstance(a, TBoolLit):
        return b if a.b else mk_not(b)
    if isinstance(b, TBoolLit):
        return a if b.b else mk_not(a)
    if isinstance(a, (TBVLit, TStrLit)) and isinstance(b, (TBVLit, TStrLit)):
        return FALSE_TERM  # equal literals already matched above
    if isinstance(a, TSome) and isinstance(b, TNone):
        return FALSE_TERM
    if isinstance(a, TNone) and isinstance(b, TSome):
        return FALSE_TERM
    if isinstance(a, TSome) and isinstance(b, TSome):
        return mk_eq(a.arg, b.arg)
    if _is_ctor_literal(a) and _is_ctor_literal(b):
        return TBoolLit(a == b)
    return TEq(a, b)


def _is_ctor_literal(t: Term) -> bool:
    # A constructor is named after its datatype, which is its sort.
    return isinstance(t, TApp) and t.fn == t.sort and all(isinstance(x, (TStrLit, TBVLit, TBoolLit)) for x in t.args)


def mk_ite(cond: Term, then: Term, els: Term) -> Term:
    _check(("ite", cond, then, els))
    if isinstance(cond, TBoolLit):
        return then if cond.b else els
    if then == els:
        return then
    if then.sort == BOOL:
        if isinstance(then, TBoolLit) and isinstance(els, TBoolLit):
            return cond if then.b else mk_not(cond)
        if isinstance(then, TBoolLit):
            return mk_or2(cond, els) if then.b else mk_and2(mk_not(cond), els)
        if isinstance(els, TBoolLit):
            return mk_and2(cond, then) if not els.b else mk_or2(mk_not(cond), then)
    if isinstance(then, TSome) and isinstance(els, TSome):
        return TSome(mk_ite(cond, then.arg, els.arg))
    return TIte(cond, then, els)


def mk_member(elem: Term, s: Term) -> Term:
    """set.member, true when `elem` is itself an element of the set literal
    `s` (as `mk_set_literal` builds it)."""
    member = TSetMember(elem, s)
    while isinstance(s, TSetUnion):
        if isinstance(s.right, TSetSingleton) and s.right.elem == elem:
            return TRUE_TERM
        s = s.left
    if isinstance(s, TSetSingleton) and s.elem == elem:
        return TRUE_TERM
    return member


def mk_is_some(t: Term) -> Term:
    if isinstance(t, TSome):
        return TRUE_TERM
    if isinstance(t, TNone):
        return FALSE_TERM
    return TIsSome(t)


def mk_val(t: Term) -> Term:
    if isinstance(t, TSome):
        return t.arg
    return TVal(t)


def mk_ifok(guarded: Term, body: Term) -> Term:
    """Propagate the error channel: none when ``guarded`` is none, else body."""
    elem = _check(("val", body))
    b = mk_is_some(guarded)
    if isinstance(b, TBoolLit):
        return body if b.b else TNone(elem)
    return mk_ite(b, body, TNone(elem))


def mk_set_literal(elems) -> Term:
    """The union of singletons of a non-empty list of elements."""
    out = TSetSingleton(elems[0])
    for e in elems[1:]:
        out = TSetUnion(out, TSetSingleton(e))
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------
#
# A term's shape is one level of its s-expression tree (see `sexpr`): atoms,
# string literals ("string", text), nested tuples for sorts and regexes, and
# the term's children as Term objects.  Text and shared trees are both made
# from it, so the two cannot disagree.


def _regex_shape(r: Regex):
    if isinstance(r, RLit):
        return ("str.to_re", ("string", r.s))
    if isinstance(r, RAll):
        return "re.all"
    if isinstance(r, RConcat):
        if not r.parts:
            return ("str.to_re", ("string", ""))
        if len(r.parts) == 1:
            return _regex_shape(r.parts[0])
        return ("re.++", *map(_regex_shape, r.parts))
    raise TypeError(f"not a regex: {r!r}")


_SHAPES = {
    TBoolLit: lambda t: "true" if t.b else "false",
    TBVLit: lambda t: ("_", f"bv{t.i % (1 << 64)}", 64),
    TStrLit: lambda t: ("string", t.s),
    TConst: lambda t: t.name,
    TApp: lambda t: (t.fn, *t.args) if t.args else t.fn,
    TSome: lambda t: ("some", t.arg),
    TNone: lambda t: ("as", "none", t.sort),
    TVal: lambda t: ("val", t.arg),
    TIsSome: lambda t: (("_", "is", "some"), t.arg),
    TIte: lambda t: ("ite", t.cond, t.then, t.els),
    TEq: lambda t: ("=", t.left, t.right),
    TNot: lambda t: ("not", t.arg),
    TAnd: lambda t: ("and", *t.args),
    TOr: lambda t: ("or", *t.args),
    TImplies: lambda t: ("=>", t.left, t.right),
    TSetMember: lambda t: ("set.member", t.elem, t.set),
    TSetSubset: lambda t: ("set.subset", t.left, t.right),
    TSetInter: lambda t: ("set.inter", t.left, t.right),
    TSetUnion: lambda t: ("set.union", t.left, t.right),
    TSetSingleton: lambda t: ("set.singleton", t.elem),
    TSetEmpty: lambda t: ("as", "set.empty", t.sort),
    TBVOp: lambda t: (t.op, *t.args),
    TStrInRe: lambda t: ("str.in_re", t.s, _regex_shape(t.re)),
}


def term_shape(t: Term):
    shape = _SHAPES.get(type(t))
    if shape is None:
        raise TypeError(f"not a term: {t!r}")
    return shape(t)


def term_sexpr(t: Term, show=None) -> str:
    """SMT-LIB text of `t`; `show(child)` gives each child's text, by
    default term_sexpr itself."""
    if show is None:
        show = term_sexpr
    return write_sexpr(term_shape(t), lambda leaf: show(leaf) if isinstance(leaf, Term) else str(leaf))


def term_tree(t: Term, sharer: Sharer, trees: dict) -> tuple:
    """The tree `read_sexprs` reads from term_sexpr(t), built through
    `sharer`.  `trees` maps id(term) to the tree of each term built so far,
    and gets `t` and its subterms."""
    got = trees.get(id(t))
    if got is None:
        got = trees[id(t)] = sharer.share(term_shape(t), lambda child: term_tree(child, sharer, trees))
    return got
