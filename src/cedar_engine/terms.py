"""Typed SMT term trees.

A term is its SMT-LIB application: one `Term` holds its head, its argument
terms and its sort, a tree as SMT-LIB writes it (see `sexpr`).  Terms are
hash-consed (Filliâtre & Conchon, "Type-Safe Modular Hash-Consing"): equal
terms are one object, which the intern table holds weakly.  The head is
data: an operator (`"and"`, `"set.member"`, `("_", "is", "some")`), a
declared function's, constructor's, selector's or constant's name, or a
leaf's text (`"true"`, `("_", "bv5", 64)`, `("string", s)`,
`("as", "none", sort)`).  A term of a built-in head gets its sort from that
head's rank in `sexpr.RANKS`, the table the bundled solver checks its input
against, so building an ill-sorted term raises `InternalSortError`.  Only
the checks that need the declarations (each application against its
function's signature, each constant against its declaration) are left to
`smt_backend`, which makes them once for a script, whether it is printed or
handed to the bundled solver, which translates the terms themselves.

The smart constructors check their operands' sorts first, then partially
evaluate (literal guards collapse conditionals, `and`/`or`/`implies` drop
literal operands, membership in a set literal listing the element is true)
so that statically-decided subexpressions vanish from the output.  Terms
are spelled (`term_shape`) in the finite-set theory's names (`set.member`,
`set.subset`, `set.inter`, `set.singleton`, `as set.empty`), and written
as text (`term_sexpr`).  A regex is a term of sort RegLan.

Option-wrapped sorts carry the error channel: `none` is a runtime error.
"""

from __future__ import annotations

from functools import lru_cache

from .ast import CedarError, I64_MAX, I64_MIN, InternTable
from .sexpr import BOOL, BV, RANKS, REGLAN, STRING, rank_arguments, ranked_sort, write_sexpr


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


def _check(head, args: tuple):
    """The sort of `head` applied to `args`, by the head's rank; raises
    InternalSortError when the arguments' sorts do not fit it."""
    sorts = tuple([a.sort for a in args])
    sort = _result_sort(head, sorts)
    if sort is None:
        raise InternalSortError(f"{write_sexpr(head)} applied to arguments of sorts {write_sexpr(sorts)}")
    return sort


@lru_cache(maxsize=4096)
def _result_sort(head, sorts: tuple):
    # Memoised: the compiler builds many terms of few distinct heads and sorts.
    rank = RANKS.get(head)
    return None if rank is None else ranked_sort(rank_arguments(rank, len(sorts)), rank[1], sorts)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


# (head, args), or (head, args, sort) for a head outside RANKS, -> the one live
# Term.  A ranked head's sort follows from its arguments: a hit checks none.
_TERMS = InternTable()


class Term:
    """An SMT term: `head` applied to the terms `args` (none for a leaf),
    of sort `sort`.  Given no sort, the term takes the one its head's rank
    gives its arguments.  Immutable and hash-consed: `Term(head, args,
    sort)` returns the one live term with those fields, so equal terms are
    one object, and equality and hash are identity."""

    __slots__ = ("head", "args", "sort", "__weakref__")

    def __new__(cls, head, args: tuple = (), sort=None):
        key = (head, args) if head in RANKS else (head, args, sort)
        self = _TERMS.live(key)
        if self is None:
            self = object.__new__(cls)
            init = object.__setattr__
            init(self, "head", head)
            init(self, "args", args)
            init(self, "sort", _check(head, args) if sort is None else sort)
            self = _TERMS.add(key, self)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"a Term is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"a Term is immutable: cannot delete {name}")

    def __repr__(self):
        return f"Term({term_sexpr(self)})"


IS_SOME = ("_", "is", "some")

# Constructors, one for each kind of term the compiler builds.


def TBoolLit(b: bool) -> Term:
    return Term("true" if b else "false", (), BOOL)


def TBVLit(i: int) -> Term:
    """The bit-vector literal of `i`, signed, within 64-bit range."""
    if not (I64_MIN <= i <= I64_MAX):
        raise InternalSortError("bitvector literal out of range")
    return Term(("_", f"bv{i % (1 << 64)}", 64), (), BV)


def TStrLit(s: str) -> Term:
    return Term(("string", s), (), STRING)


def TConst(name: str, sort) -> Term:
    return Term(name, (), sort)


def TApp(fn: str, args: tuple, sort) -> Term:
    """Uninterpreted function, datatype constructor, or selector application.
    Its arguments are checked against the declared signature when the
    script is printed."""
    return Term(fn, args, sort)


def TNone(elem) -> Term:
    return Term(("as", "none", SOption(elem)), (), SOption(elem))


def TSetEmpty(elem) -> Term:
    return Term(("as", "set.empty", SSet(elem)), (), SSet(elem))


def TSome(arg: Term) -> Term:
    return Term("some", (arg,))


def TVal(arg: Term) -> Term:
    return Term("val", (arg,))


def TIsSome(arg: Term) -> Term:
    return Term(IS_SOME, (arg,))


def TIte(cond: Term, then: Term, els: Term) -> Term:
    return Term("ite", (cond, then, els))


def TEq(left: Term, right: Term) -> Term:
    return Term("=", (left, right))


def TNot(arg: Term) -> Term:
    return Term("not", (arg,))


def TAnd(args: tuple) -> Term:
    return Term("and", tuple(args))


def TOr(args: tuple) -> Term:
    return Term("or", tuple(args))


def TImplies(left: Term, right: Term) -> Term:
    return Term("=>", (left, right))


def TSetMember(elem: Term, s: Term) -> Term:
    return Term("set.member", (elem, s))


def TSetSubset(left: Term, right: Term) -> Term:
    return Term("set.subset", (left, right))


def TSetInter(left: Term, right: Term) -> Term:
    return Term("set.inter", (left, right))


def TSetUnion(left: Term, right: Term) -> Term:
    return Term("set.union", (left, right))


def TSetSingleton(elem: Term) -> Term:
    return Term("set.singleton", (elem,))


def TBVOp(op: str, args: tuple) -> Term:
    return Term(op, tuple(args))


def TStrInRe(s: Term, regex: Term) -> Term:
    return Term("str.in_re", (s, regex))


def TStrToRe(s: str) -> Term:
    """The regex matching exactly `s`."""
    return Term("str.to_re", (TStrLit(s),))


def TReAll() -> Term:
    """The regex matching every string."""
    return Term("re.all", (), REGLAN)


def TReConcat(parts: list) -> Term:
    """The regex matching the concatenations of strings matching `parts`,
    a non-empty list of regexes."""
    return parts[0] if len(parts) == 1 else Term("re.++", tuple(parts))


TRUE_TERM = TBoolLit(True)
FALSE_TERM = TBoolLit(False)


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

_TRUTH = {"true": True, "false": False}


def _truth(t: Term):
    """The value of a Bool literal; None for any other term."""
    return None if t.args else _TRUTH.get(t.head)


def _is_literal(t: Term) -> bool:
    """Whether `t` is a Bool, bit-vector or string literal."""
    head = t.head
    return not t.args and (head in _TRUTH if type(head) is str else head[0] == "_" or head[0] == "string")


def _is_none(t: Term) -> bool:
    return type(t.head) is tuple and t.head[:2] == ("as", "none")


def mk_not(t: Term) -> Term:
    truth = _truth(t)
    if truth is not None:
        return TBoolLit(not truth)
    if t.head == "not":
        return t.args[0]
    return TNot(t)


def mk_and2(a: Term, b: Term) -> Term:
    sort = _check("and", (a, b))
    truth = _truth(a)
    if truth is not None:
        return b if truth else FALSE_TERM
    truth = _truth(b)
    if truth is not None:
        return a if truth else FALSE_TERM
    return Term("and", (a, b), sort)


def mk_or2(a: Term, b: Term) -> Term:
    sort = _check("or", (a, b))
    truth = _truth(a)
    if truth is not None:
        return TRUE_TERM if truth else b
    truth = _truth(b)
    if truth is not None:
        return TRUE_TERM if truth else a
    return Term("or", (a, b), sort)


def mk_or(args) -> Term:
    args = tuple(args)
    sort = _check("or", args)
    out = []
    for a in args:
        truth = _truth(a)
        if truth:
            return TRUE_TERM
        if truth is None:
            out.append(a)
    if not out:
        return FALSE_TERM
    if len(out) == 1:
        return out[0]
    return Term("or", tuple(out), sort)


def mk_implies(a: Term, b: Term) -> Term:
    sort = _check("=>", (a, b))
    truth = _truth(a)
    if truth is not None:
        return b if truth else TRUE_TERM
    if _truth(b):
        return TRUE_TERM
    return Term("=>", (a, b), sort)


def mk_eq(a: Term, b: Term) -> Term:
    sort = _check("=", (a, b))
    if a is b:
        return TRUE_TERM
    ta, tb = _truth(a), _truth(b)
    if ta is not None and tb is not None:
        return TBoolLit(ta == tb)
    if ta is not None:
        return b if ta else mk_not(b)
    if tb is not None:
        return a if tb else mk_not(a)
    if _is_literal(a) and _is_literal(b):
        return FALSE_TERM  # equal literals already matched above
    if a.head == "some" and _is_none(b):
        return FALSE_TERM
    if _is_none(a) and b.head == "some":
        return FALSE_TERM
    if a.head == "some" and b.head == "some":
        return mk_eq(a.args[0], b.args[0])
    if _is_ctor_literal(a) and _is_ctor_literal(b):
        return FALSE_TERM  # equal ones are one term, matched above
    return Term("=", (a, b), sort)


def _is_ctor_literal(t: Term) -> bool:
    # A constructor is named after its datatype, which is its sort.
    return t.head == t.sort and all(map(_is_literal, t.args))


def mk_ite(cond: Term, then: Term, els: Term) -> Term:
    sort = _check("ite", (cond, then, els))
    truth = _truth(cond)
    if truth is not None:
        return then if truth else els
    if then is els:
        return then
    if sort == BOOL:
        tt, te = _truth(then), _truth(els)
        if tt is not None and te is not None:
            return cond if tt else mk_not(cond)
        if tt is not None:
            return mk_or2(cond, els) if tt else mk_and2(mk_not(cond), els)
        if te is not None:
            return mk_and2(cond, then) if not te else mk_or2(mk_not(cond), then)
    if then.head == "some" and els.head == "some":
        return TSome(mk_ite(cond, then.args[0], els.args[0]))
    return Term("ite", (cond, then, els), sort)


def mk_member(elem: Term, s: Term) -> Term:
    """set.member, true when `elem` is itself an element of the set literal
    `s` (as `mk_set_literal` builds it)."""
    member = TSetMember(elem, s)
    while s.head == "set.union":
        s, right = s.args
        if right.head == "set.singleton" and right.args[0] is elem:
            return TRUE_TERM
    if s.head == "set.singleton" and s.args[0] is elem:
        return TRUE_TERM
    return member


def mk_is_some(t: Term) -> Term:
    if t.head == "some":
        return TRUE_TERM
    if _is_none(t):
        return FALSE_TERM
    return TIsSome(t)


def mk_val(t: Term) -> Term:
    if t.head == "some":
        return t.args[0]
    return TVal(t)


def mk_ifok(guarded: Term, body: Term) -> Term:
    """Propagate the error channel: none when ``guarded`` is none, else body."""
    elem = _check("val", (body,))
    b = mk_is_some(guarded)
    truth = _truth(b)
    if truth is not None:
        return body if truth else TNone(elem)
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
# A term's shape is one level of its s-expression tree (see `sexpr`): its
# head, then its arguments as Term objects.  Its text writes the shape.


def term_shape(t: Term):
    return (t.head, *t.args) if t.args else t.head


def term_sexpr(t: Term) -> str:
    """SMT-LIB text of `t`."""
    return write_sexpr(term_shape(t), lambda item: term_sexpr(item) if isinstance(item, Term) else str(item))

