"""The one SMT-LIB s-expression reader, for scripts and for solver output.

Trees: a compound is a tuple (hashable, so the bundled solver can intern
subterms), a string literal is ``("string", text)`` with ``""`` unescaped, a
``|quoted|`` symbol is the plain string between the bars, and an atom whose
first character is a digit is an int when ``int()`` accepts it.  Every other
atom is a plain string.

This module imports nothing from the package, so the solver driver and the
bundled solver share it without importing each other.
"""

from __future__ import annotations

import re


class SexprError(Exception):
    """The text is not a sequence of well-formed s-expressions."""


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
    """The top-level s-expressions of `text`, in order; raises SexprError."""
    stack: list = [[]]
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "open":
            stack.append([])
        elif kind == "close":
            if len(stack) == 1:
                raise SexprError("unbalanced parenthesis")
            done = tuple(stack.pop())
            stack[-1].append(done)
        elif kind == "string":
            stack[-1].append(("string", m.group(kind).replace('""', '"')))
        elif kind == "quoted":
            stack[-1].append(m.group(kind))
        elif kind == "atom":
            atom = m.group(kind)
            if atom[0].isdigit():
                try:
                    atom = int(atom)
                except ValueError:
                    pass
            stack[-1].append(atom)
        else:
            raise SexprError("unterminated string" if m.group() == '"' else "unterminated quoted symbol")
    if len(stack) > 1:
        raise SexprError("unterminated s-expression")
    return stack[0]


def is_string_literal(node) -> bool:
    """Whether a node read by `read_sexprs` is a string literal."""
    return isinstance(node, tuple) and len(node) == 2 and node[0] == "string" and isinstance(node[1], str)
