"""The one SMT-LIB s-expression reader, for scripts and for solver output.

Trees: a compound is a tuple, a string literal is ``("string", text)`` with
``""`` unescaped, a ``|quoted|`` symbol is the plain string between the bars,
and an atom whose first character is a digit is an int when ``int()``
accepts it.  Every other atom is a plain string.  `write_sexpr` writes a
tree as text.

A sort is a tree too, and `RANKS` states each built-in term head's SMT-LIB
rank over such trees, once for the term builder and the bundled solver.

This module imports nothing from the package, so the term builder, the
solver driver and the bundled solver share it without importing each other.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Optional


class SexprError(Exception):
    """The text is not a sequence of well-formed s-expressions."""


# Every consumer of these trees recurses in Python and stops near depth
# 1,000, so the reader stops long before a depth that could exhaust the C
# stack of whoever hashes or compares a tree.
MAX_DEPTH = 10_000

# Every character starts some alternative, so the matches leave no gaps.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]+ | ;[^\n]*
    | (?P<open>\() | (?P<close>\))
    | "(?P<string>[^"]*(?:""[^"]*)*)"
    | \|(?P<quoted>[^|]*)\|
    | (?P<atom>[^ \t\r\n();"|][^ \t\r\n();"]*)
    | (?P<unterminated>["|])""",
    re.VERBOSE,
)


def read_sexprs(text: str) -> list:
    """The top-level s-expressions of `text`, in order; raises SexprError.

    A `(let ((name term) ...) body)` reads as its body with each name
    replaced by its term, so a script that binds its shared subterms reads
    as the same tree as one that writes them out.
    """
    stack: list = [[]]
    lets = False
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "open":
            if len(stack) > MAX_DEPTH:
                raise SexprError("s-expression nested too deeply")
            stack.append([])
            continue
        if kind == "close":
            if len(stack) == 1:
                raise SexprError("unbalanced parenthesis")
            node = tuple(stack.pop())
            if node and node[0] == "let":
                lets = True
        elif kind == "string":
            node = ("string", m.group(kind).replace('""', '"'))
        elif kind == "quoted" or kind == "atom":
            node = m.group(kind)
            if kind == "atom" and node[0].isdigit():
                try:
                    node = int(node)
                except ValueError:
                    pass
        else:
            raise SexprError("unterminated string" if m.group() == '"' else "unterminated quoted symbol")
        stack[-1].append(node)
    if len(stack) > 1:
        raise SexprError("unterminated s-expression")
    if not lets:
        return stack[0]
    try:
        return [_expand(node, {}) for node in stack[0]]
    except RecursionError:
        raise SexprError("s-expression nested too deeply") from None


def _expand(node, env: dict):
    """`node` with its lets expanded and the names of `env` replaced.  A
    bound term is expanded once, where it is bound, so it is one object
    wherever its name occurs."""
    if type(node) is str:
        return env.get(node, node)
    if type(node) is not tuple or is_string_literal(node):
        return node
    if len(node) == 3 and node[0] == "let" and type(node[1]) is tuple:
        inner = dict(env)
        for binding in node[1]:
            if type(binding) is not tuple or len(binding) != 2 or type(binding[0]) is not str:
                raise SexprError("malformed let binding")
            inner[binding[0]] = _expand(binding[1], env)
        return _expand(node[2], inner)
    return tuple([_expand(item, env) for item in node])


def is_string_literal(node) -> bool:
    """Whether a node read by `read_sexprs` is a string literal."""
    return isinstance(node, tuple) and len(node) == 2 and node[0] == "string" and isinstance(node[1], str)


def write_sexpr(tree, leaf=str) -> str:
    """The text of a tree, as the reader reads it back; `leaf(item)` gives
    the text of each item that is not a tuple."""
    if type(tree) is not tuple:
        return leaf(tree)
    if is_string_literal(tree):
        return '"' + tree[1].replace('"', '""') + '"'
    return "(" + " ".join([write_sexpr(item, leaf) for item in tree]) + ")"


# ---------------------------------------------------------------------------
# Sorts and ranks
# ---------------------------------------------------------------------------

# A sort is its tree in SMT-LIB: a name (Bool, String, RegLan or a datatype),
# (_ BitVec 64), or (Set s) and (Option s).
BOOL = "Bool"
STRING = "String"
BV = ("_", "BitVec", 64)
REGLAN = "RegLan"


class _SortVar(str):
    """A rank's sort variable: any one sort, the same wherever it occurs."""


A = _SortVar("A")
_SET_A = ("Set", A)
_BV_OP, _BV_CMP = ((BV, BV), BV), ((BV, BV), BOOL)

# Each built-in term head's (argument sorts, result sort), its rank in the
# SMT-LIB 2.6 theory declarations; `(s, ...)` takes any number of arguments
# of sort s.  A declared function, constructor or selector has the rank its
# declaration gives, in the same shape.
RANKS = {
    "ite": ((BOOL, A, A), A), "=": ((A, A), BOOL), "distinct": ((A, A), BOOL), "not": ((BOOL,), BOOL),
    "and": ((BOOL, ...), BOOL), "or": ((BOOL, ...), BOOL), "=>": ((BOOL, BOOL), BOOL),
    "some": ((A,), ("Option", A)), "val": ((("Option", A),), A), ("_", "is", "some"): ((("Option", A),), BOOL),
    "set.singleton": ((A,), _SET_A), "set.union": ((_SET_A, _SET_A), _SET_A), "set.inter": ((_SET_A, _SET_A), _SET_A),
    "set.minus": ((_SET_A, _SET_A), _SET_A), "set.member": ((A, _SET_A), BOOL), "set.subset": ((_SET_A, _SET_A), BOOL),
    "bvadd": _BV_OP, "bvsub": _BV_OP, "bvmul": _BV_OP, "bvneg": ((BV,), BV), "bvslt": _BV_CMP, "bvsle": _BV_CMP,
    "str.in_re": ((STRING, REGLAN), BOOL), "str.to_re": ((STRING,), REGLAN), "re.++": ((REGLAN, ...), REGLAN),
}

# The built-in leaves: the Bool literals and the regex of every string.
BUILT_IN_LEAVES = frozenset({"true", "false", "re.all"})


def _unify(want, got, binding: dict) -> bool:
    """Whether sort `got` is an instance of `want`, binding A in `binding`."""
    if type(want) is _SortVar:
        return binding.setdefault(want, got) == got
    if type(want) is not tuple:
        return want == got
    return type(got) is tuple and len(got) == len(want) and all(map(_unify, want, got, repeat(binding)))


def _fill(sort, binding: dict):
    """`sort` with A replaced by its binding."""
    if type(sort) is _SortVar:
        return binding[sort]
    return tuple(_fill(s, binding) for s in sort) if type(sort) is tuple and binding else sort


def rank_arguments(rank: tuple, n: int) -> tuple:
    """The argument sorts a head of rank `rank` wants when applied to `n`
    arguments."""
    wants = rank[0]
    return wants[:1] * n if wants[-1] is ... else wants


def ranked_sort(wants: tuple, result, args) -> Optional[object]:
    """`result`, the sort of an application whose argument sorts are
    `wants`, with A filled in from `args`, the sorts of its arguments; None
    when they do not fit `wants`."""
    binding: dict = {}
    if len(args) != len(wants) or not all(map(_unify, wants, args, repeat(binding))):
        return None
    return _fill(result, binding)
