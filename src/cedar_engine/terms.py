"""Typed SMT term trees.

Every term has exactly one sort, its `sort` attribute: fixed by its class,
or derived from its children's sorts when it is built.  The sort rules are
checked there too, so building an ill-sorted term raises
`InternalSortError`.  Only the checks that need the declarations (each
application against its function's signature, each constant against its
declaration) are left to `smt_backend.print_script`.

The smart constructors check their operands' sorts first, then partially
evaluate (literal guards collapse conditionals, `and`/`or`/`implies` drop
literal operands, membership in a set literal listing the element is true)
so that statically-decided subexpressions vanish from the output, and the
printer emits the finite-set theory spellings (`set.member`, `set.subset`,
`set.inter`, `set.singleton`, `as set.empty`).

Option-wrapped sorts carry the error channel: `none` is a runtime error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ast import CedarError, I64_MAX, I64_MIN


class InternalSortError(CedarError):
    """An emitted term failed the sort check: a compiler bug."""


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------


class Sort:
    __slots__ = ()


@dataclass(frozen=True)
class SBool(Sort):
    pass


@dataclass(frozen=True)
class SBV64(Sort):
    pass


@dataclass(frozen=True)
class SString(Sort):
    pass


@dataclass(frozen=True)
class SSet(Sort):
    elem: Sort


@dataclass(frozen=True)
class SData(Sort):
    name: str


@dataclass(frozen=True)
class SOption(Sort):
    elem: Sort


BOOL_S = SBool()
BV64_S = SBV64()
STRING_S = SString()


def sort_sexpr(s: Sort) -> str:
    if isinstance(s, SBool):
        return "Bool"
    if isinstance(s, SBV64):
        return "(_ BitVec 64)"
    if isinstance(s, SString):
        return "String"
    if isinstance(s, SSet):
        return f"(Set {sort_sexpr(s.elem)})"
    if isinstance(s, SData):
        return s.name
    if isinstance(s, SOption):
        return f"(Option {sort_sexpr(s.elem)})"
    raise TypeError(f"not a sort: {s!r}")


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


def _set_sort(term: Term, sort: Sort) -> None:
    object.__setattr__(term, "sort", sort)


def _require_bool(op: str, args) -> None:
    if not all(isinstance(a.sort, SBool) for a in args):
        raise InternalSortError(f"{op} over non-Bool")


@dataclass(frozen=True)
class TBoolLit(Term):
    b: bool
    sort = BOOL_S


@dataclass(frozen=True)
class TBVLit(Term):
    i: int  # signed, within 64-bit range
    sort = BV64_S

    def __post_init__(self):
        if not (I64_MIN <= self.i <= I64_MAX):
            raise InternalSortError("bitvector literal out of range")


@dataclass(frozen=True)
class TStrLit(Term):
    s: str
    sort = STRING_S


@dataclass(frozen=True)
class TConst(Term):
    name: str
    sort: Sort


@dataclass(frozen=True)
class TApp(Term):
    """Uninterpreted function, datatype constructor, or selector application.
    Its arguments are checked against the declared signature when the
    script is printed."""

    fn: str
    args: tuple
    sort: Sort


@dataclass(frozen=True)
class TSome(Term):
    arg: Term
    sort: Sort = _derived_sort()

    def __post_init__(self):
        _set_sort(self, SOption(self.arg.sort))


@dataclass(frozen=True)
class TNone(Term):
    elem: Sort
    sort: Sort = _derived_sort()

    def __post_init__(self):
        _set_sort(self, SOption(self.elem))


@dataclass(frozen=True)
class TVal(Term):
    arg: Term  # Option-sorted
    sort: Sort = _derived_sort()

    def __post_init__(self):
        s = self.arg.sort
        if not isinstance(s, SOption):
            raise InternalSortError(f"val applied to {sort_sexpr(s)}")
        _set_sort(self, s.elem)


@dataclass(frozen=True)
class TIsSome(Term):
    arg: Term
    sort = BOOL_S

    def __post_init__(self):
        if not isinstance(self.arg.sort, SOption):
            raise InternalSortError("is-some over non-Option")


@dataclass(frozen=True)
class TIte(Term):
    cond: Term
    then: Term
    els: Term
    sort: Sort = _derived_sort()

    def __post_init__(self):
        if not isinstance(self.cond.sort, SBool):
            raise InternalSortError("ite guard is not Bool")
        st, se = self.then.sort, self.els.sort
        if st != se:
            raise InternalSortError(f"ite branches {sort_sexpr(st)} vs {sort_sexpr(se)}")
        _set_sort(self, st)


@dataclass(frozen=True)
class TEq(Term):
    left: Term
    right: Term
    sort = BOOL_S

    def __post_init__(self):
        sl, sr = self.left.sort, self.right.sort
        if sl != sr:
            raise InternalSortError(f"= on {sort_sexpr(sl)} vs {sort_sexpr(sr)}")


@dataclass(frozen=True)
class TNot(Term):
    arg: Term
    sort = BOOL_S

    def __post_init__(self):
        _require_bool("not", (self.arg,))


@dataclass(frozen=True)
class TAnd(Term):
    args: tuple  # len >= 2
    sort = BOOL_S

    def __post_init__(self):
        _require_bool("and", self.args)


@dataclass(frozen=True)
class TOr(Term):
    args: tuple  # len >= 2
    sort = BOOL_S

    def __post_init__(self):
        _require_bool("or", self.args)


@dataclass(frozen=True)
class TImplies(Term):
    left: Term
    right: Term
    sort = BOOL_S

    def __post_init__(self):
        _require_bool("=>", (self.left, self.right))


@dataclass(frozen=True)
class TSetMember(Term):
    elem: Term
    set: Term
    sort = BOOL_S

    def __post_init__(self):
        if self.set.sort != SSet(self.elem.sort):
            raise InternalSortError("set.member sorts disagree")


def _check_set_operands(term) -> Sort:
    sl = term.left.sort
    if sl != term.right.sort or not isinstance(sl, SSet):
        raise InternalSortError("set operation sorts disagree")
    return sl


@dataclass(frozen=True)
class TSetSubset(Term):
    left: Term
    right: Term
    sort = BOOL_S

    def __post_init__(self):
        _check_set_operands(self)


@dataclass(frozen=True)
class TSetInter(Term):
    left: Term
    right: Term
    sort: Sort = _derived_sort()

    def __post_init__(self):
        _set_sort(self, _check_set_operands(self))


@dataclass(frozen=True)
class TSetUnion(Term):
    left: Term
    right: Term
    sort: Sort = _derived_sort()

    def __post_init__(self):
        _set_sort(self, _check_set_operands(self))


@dataclass(frozen=True)
class TSetSingleton(Term):
    elem: Term
    sort: Sort = _derived_sort()

    def __post_init__(self):
        _set_sort(self, SSet(self.elem.sort))


@dataclass(frozen=True)
class TSetEmpty(Term):
    elem: Sort
    sort: Sort = _derived_sort()

    def __post_init__(self):
        _set_sort(self, SSet(self.elem))


_BV_RESULT = {
    "bvadd": BV64_S,
    "bvsub": BV64_S,
    "bvneg": BV64_S,
    "bvmul": BV64_S,
    "bvslt": BOOL_S,
    "bvsle": BOOL_S,
}


@dataclass(frozen=True)
class TBVOp(Term):
    op: str
    args: tuple
    sort: Sort = _derived_sort()

    def __post_init__(self):
        if not all(isinstance(a.sort, SBV64) for a in self.args):
            raise InternalSortError(f"{self.op} over non-bitvector")
        _set_sort(self, _BV_RESULT[self.op])


class Regex:
    __slots__ = ()


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
    sort = BOOL_S

    def __post_init__(self):
        if not isinstance(self.s.sort, SString):
            raise InternalSortError("str.in_re over non-String")


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


def _require_same_sort(op: str, a: Term, b: Term) -> None:
    if a.sort != b.sort:
        raise InternalSortError(f"{op} on {sort_sexpr(a.sort)} vs {sort_sexpr(b.sort)}")


def mk_and2(a: Term, b: Term) -> Term:
    _require_bool("and", (a, b))
    if isinstance(a, TBoolLit):
        return b if a.b else FALSE_TERM
    if isinstance(b, TBoolLit):
        return a if b.b else FALSE_TERM
    return TAnd((a, b))


def mk_or2(a: Term, b: Term) -> Term:
    _require_bool("or", (a, b))
    if isinstance(a, TBoolLit):
        return TRUE_TERM if a.b else b
    if isinstance(b, TBoolLit):
        return TRUE_TERM if b.b else a
    return TOr((a, b))


def mk_or(args) -> Term:
    args = tuple(args)
    _require_bool("or", args)
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
    _require_bool("=>", (a, b))
    if isinstance(a, TBoolLit):
        return b if a.b else TRUE_TERM
    if isinstance(b, TBoolLit) and b.b:
        return TRUE_TERM
    return TImplies(a, b)


def mk_eq(a: Term, b: Term) -> Term:
    _require_same_sort("=", a, b)
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
    return isinstance(t, TApp) and t.fn == _data_name(t.sort) and all(
        isinstance(x, (TStrLit, TBVLit, TBoolLit)) for x in t.args
    )


def _data_name(s: Sort) -> Optional[str]:
    return s.name if isinstance(s, SData) else None


def mk_ite(cond: Term, then: Term, els: Term) -> Term:
    _require_bool("ite guard", (cond,))
    _require_same_sort("ite branches", then, els)
    if isinstance(cond, TBoolLit):
        return then if cond.b else els
    if then == els:
        return then
    if isinstance(then.sort, SBool):
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
    s = body.sort
    if not isinstance(s, SOption):
        raise InternalSortError(f"expected an Option sort, got {sort_sexpr(s)}")
    b = mk_is_some(guarded)
    if isinstance(b, TBoolLit):
        return body if b.b else TNone(s.elem)
    return mk_ite(b, body, TNone(s.elem))


def mk_set_literal(elems) -> Term:
    """The union of singletons of a non-empty list of elements."""
    out = TSetSingleton(elems[0])
    for e in elems[1:]:
        out = TSetUnion(out, TSetSingleton(e))
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _smt_string(s: str) -> str:
    return '"' + s.replace('"', '""') + '"'


def regex_sexpr(r: Regex) -> str:
    if isinstance(r, RLit):
        return f"(str.to_re {_smt_string(r.s)})"
    if isinstance(r, RAll):
        return "re.all"
    if isinstance(r, RConcat):
        if not r.parts:
            return '(str.to_re "")'
        if len(r.parts) == 1:
            return regex_sexpr(r.parts[0])
        return "(re.++ " + " ".join(regex_sexpr(p) for p in r.parts) + ")"
    raise TypeError(f"not a regex: {r!r}")


def term_sexpr(t: Term, show=None) -> str:
    """SMT-LIB text of `t`; `show(child)` gives each child's text, by
    default term_sexpr itself."""
    if show is None:
        show = term_sexpr
    if isinstance(t, TBoolLit):
        return "true" if t.b else "false"
    if isinstance(t, TBVLit):
        return f"(_ bv{t.i % (1 << 64)} 64)"
    if isinstance(t, TStrLit):
        return _smt_string(t.s)
    if isinstance(t, TConst):
        return t.name
    if isinstance(t, TApp):
        if not t.args:
            return t.fn
        return f"({t.fn} " + " ".join(show(a) for a in t.args) + ")"
    if isinstance(t, TSome):
        return f"(some {show(t.arg)})"
    if isinstance(t, TNone):
        return f"(as none (Option {sort_sexpr(t.elem)}))"
    if isinstance(t, TVal):
        return f"(val {show(t.arg)})"
    if isinstance(t, TIsSome):
        return f"((_ is some) {show(t.arg)})"
    if isinstance(t, TIte):
        return f"(ite {show(t.cond)} {show(t.then)} {show(t.els)})"
    if isinstance(t, TEq):
        return f"(= {show(t.left)} {show(t.right)})"
    if isinstance(t, TNot):
        return f"(not {show(t.arg)})"
    if isinstance(t, TAnd):
        return "(and " + " ".join(show(a) for a in t.args) + ")"
    if isinstance(t, TOr):
        return "(or " + " ".join(show(a) for a in t.args) + ")"
    if isinstance(t, TImplies):
        return f"(=> {show(t.left)} {show(t.right)})"
    if isinstance(t, TSetMember):
        return f"(set.member {show(t.elem)} {show(t.set)})"
    if isinstance(t, TSetSubset):
        return f"(set.subset {show(t.left)} {show(t.right)})"
    if isinstance(t, TSetInter):
        return f"(set.inter {show(t.left)} {show(t.right)})"
    if isinstance(t, TSetUnion):
        return f"(set.union {show(t.left)} {show(t.right)})"
    if isinstance(t, TSetSingleton):
        return f"(set.singleton {show(t.elem)})"
    if isinstance(t, TSetEmpty):
        return f"(as set.empty (Set {sort_sexpr(t.elem)}))"
    if isinstance(t, TBVOp):
        return f"({t.op} " + " ".join(show(a) for a in t.args) + ")"
    if isinstance(t, TStrInRe):
        return f"(str.in_re {show(t.s)} {regex_sexpr(t.re)})"
    raise TypeError(f"not a term: {t!r}")
