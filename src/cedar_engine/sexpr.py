"""The one SMT-LIB s-expression reader, for scripts and for solver output.

Trees: a compound is a tuple, a string literal is ``("string", text)`` with
``""`` unescaped, a ``|quoted|`` symbol is the plain string between the bars,
and an atom whose first character is a digit is an int when ``int()``
accepts it.  Every other atom is a plain string.

This module imports nothing from the package, so the solver driver and the
bundled solver share it without importing each other.
"""

from __future__ import annotations

import re
import struct


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

    Equal nodes read from one text are one object, so a tree takes the
    memory of its distinct subterms only, and `is` decides equality.
    A `(let ((name term) ...) body)` reads as its body with each name
    replaced by its term, so a script that binds its shared subterms reads
    as the same tree as one that writes them out.
    """
    atoms: dict = {}  # each distinct atom, keyed by itself
    compounds: dict = {}  # each distinct compound, keyed by the ids of its items

    def share(items) -> tuple:
        # Items are shared already, so their ids decide equality without
        # hashing whole subtrees; packed, a key is one small object.
        key = struct.pack(f"{len(items)}N", *map(id, items))
        node = compounds.get(key)
        if node is None:
            node = compounds[key] = tuple(items)
        return node

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
            node = share(stack.pop())
            if node and node[0] == "let":
                lets = True
        elif kind == "string":
            body = m.group(kind).replace('""', '"')
            node = share((atoms.setdefault("string", "string"), atoms.setdefault(body, body)))
        elif kind == "quoted" or kind == "atom":
            node = m.group(kind)
            if kind == "atom" and node[0].isdigit():
                try:
                    node = int(node)
                except ValueError:
                    pass
            node = atoms.setdefault(node, node)
        else:
            raise SexprError("unterminated string" if m.group() == '"' else "unterminated quoted symbol")
        stack[-1].append(node)
    if len(stack) > 1:
        raise SexprError("unterminated s-expression")
    if not lets:
        return stack[0]
    try:
        return [_expand(node, {}, {}, share) for node in stack[0]]
    except RecursionError:
        raise SexprError("s-expression nested too deeply") from None


def _expand(node, env: dict, memo: dict, share):
    """`node` with its lets expanded and the names of `env` replaced.

    `memo` maps id(node) to its expansion under `env`; a let's body gets a
    memo of its own.  Each node is expanded once per scope it occurs in.
    """
    if type(node) is str:
        return env.get(node, node)
    if type(node) is not tuple or is_string_literal(node):
        return node
    got = memo.get(id(node))
    if got is not None:
        return got
    if len(node) == 3 and node[0] == "let" and type(node[1]) is tuple:
        inner = dict(env)
        for binding in node[1]:
            if type(binding) is not tuple or len(binding) != 2 or type(binding[0]) is not str:
                raise SexprError("malformed let binding")
            inner[binding[0]] = _expand(binding[1], env, memo, share)
        got = _expand(node[2], inner, {}, share)
    else:
        got = share([_expand(item, env, memo, share) for item in node])
    memo[id(node)] = got
    return got


def is_string_literal(node) -> bool:
    """Whether a node read by `read_sexprs` is a string literal."""
    return isinstance(node, tuple) and len(node) == 2 and node[0] == "string" and isinstance(node[1], str)
