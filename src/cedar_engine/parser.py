"""Concrete syntax: policy and schema text to AST, and canonical rendering.

Policies live in `.cedar` files, schemas in `.cedarschema` files.  Tokens
carry character offsets; a ParseError holds one message and the offsets it
is about, and works out its line, column and byte span only when read.  It
renders as `file:line:col: error: message` plus the offending line.  Parsing
never raises anything but ParseError, no matter the input bytes.

Nesting is bounded by MAX_NESTING, so that no input can exhaust the stack of
this recursive-descent parser or of the recursive passes over its output
(evaluation, validation, rendering, symbolic compilation):
- brackets, `if`s, `!`s and unary `-`s, and schema types, nest at most
  MAX_NESTING deep;
- every expression tree is at most MAX_NESTING levels high, counting a leaf
  as one level, so left-nested chains such as `1 + 1 + ...` are bounded too;
- a policy's desugared expression is as well: a condition sits under the
  `&&`s joining it to the scope and to the conditions before it.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .ast import (
    ANY,
    CedarError,
    CondKind,
    EAnd,
    EBinop,
    EGetAttr,
    EHas,
    EIf,
    EIs,
    ELike,
    ELit,
    EMul,
    ENeg,
    ENot,
    EOr,
    ERecord,
    ESet,
    ESlot,
    EVar,
    EMPTY_RECORD,
    Effect,
    EntityRef,
    Expr,
    I64_MAX,
    I64_MIN,
    LikePattern,
    MAX_NESTING,
    Policy,
    Scope,
    ScopeAny,
    ScopeEq,
    ScopeIn,
    ScopeInSet,
    SlotRef,
    TEntity,
    TRecord,
    TSet,
    VBool,
    VEntity,
    VLong,
    VString,
    BOOL,
    LONG,
    STRING,
    expr_depth,
    quote_string,
    trecord,
    render_value,
)
from .validator import ActionDecl, EntityTypeDecl, Schema, SchemaError, check_schema

# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpan:
    byte_start: int
    byte_end: int
    line: int
    column: int


def span_at(source: str, start: int, end: int) -> SourceSpan:
    """The span of characters ``start`` to ``end`` of ``source``: the line is
    one more than the newlines before ``start``, the column counts characters
    from the last of them, and the byte offsets are UTF-8 lengths."""
    prefix = source[:start]
    byte_start = len(prefix.encode("utf-8", "surrogatepass"))
    width = len(source[start:end].encode("utf-8", "surrogatepass"))
    return SourceSpan(byte_start, byte_start + width, prefix.count("\n") + 1, start - prefix.rfind("\n"))


# Each C0 control character but the tab, as the quoted line shows it: its
# Unicode control picture (U+2400 to U+241F), one visible column, where the
# character itself could move a terminal's cursor (a lone `\r` returns it
# to the start of the line).
_CONTROL_PICTURES = {c: 0x2400 + c for c in range(0x20) if c != 0x09}


def _pad(ch: str) -> str:
    """What the caret line puts under ``ch``: a tab, or a space for each
    terminal column it takes."""
    if ch == "\t":
        return ch
    return "  " if unicodedata.east_asian_width(ch) in ("W", "F") else " "


class ParseError(CedarError):
    """A message about characters ``start`` to ``end`` of ``source``."""

    def __init__(self, message: str, start: int, end: int, source: str, filename: str = "<input>"):
        super().__init__(message)
        self.message, self.start, self.end = message, start, end
        self.source, self.filename = source, filename

    @property
    def span(self) -> SourceSpan:
        return span_at(self.source, self.start, self.end)

    def render(self) -> str:
        """`file:line:col: error: message`, then the `\\n`-delimited line of
        the error, less a trailing `\\r` and with each other control
        character but the tab shown as its control picture, and a caret
        under its column: the caret line copies each tab before the column
        and pads each East Asian Wide or Fullwidth character with two
        spaces, so that a terminal lines it up.  An error at the end of
        input after a final newline, or in an empty source, quotes no
        line."""
        span = self.span
        head = f"{self.filename}:{span.line}:{span.column}: error: {self.message}"
        line_start = self.start - span.column + 1
        if line_start == len(self.source):
            return head
        line_end = self.source.find("\n", line_start)
        src_line = self.source[line_start : line_end if line_end >= 0 else None].removesuffix("\r")
        src_line = src_line.translate(_CONTROL_PICTURES)
        pad = "".join(map(_pad, self.source[line_start : self.start]))
        return f"{head}\n  {src_line}\n  {pad}^"

    __str__ = render


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

RESERVED = {
    "permit",
    "forbid",
    "when",
    "unless",
    "if",
    "then",
    "else",
    "true",
    "false",
    "in",
    "has",
    "like",
    "is",
}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# One alternative per token class, tried in order: two-character punctuation
# before its one-character prefixes, and `bad` last, for any other character.
# A string token matches only its opening quote; `_string` reads the body.
_TOKEN_RE = re.compile(
    rf"""(?P<skip>(?:[ \t\r\n]+|//[^\n]*)+)
    |(?P<int>[0-9]+)
    |(?P<ident>{_IDENT_RE.pattern})
    |(?P<slot>\?{_IDENT_RE.pattern})
    |(?P<string>")
    |(?P<punct>&&|\|\||==|!=|<=|>=|::|[()\[\]{{}}<>,;:.@!+\-*?=])
    |(?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)
_STRING_STOP_RE = re.compile(r'["\\]')
# `\*` is kept escaped, so that like-pattern splitting can see it.
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"', "*": "\\*"}


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "string" | "slot" | "eof" | punctuation text
    text: str
    value: object
    start: int  # character offsets in the source
    end: int


class _Lexer:
    def __init__(self, source: str, filename: str = "<input>"):
        self.source = source
        self.filename = filename

    def error(self, message: str, start: int, end: int):
        raise ParseError(message, start, end, self.source, self.filename)

    def tokens(self) -> list:
        src = self.source
        out = []
        pos, n = 0, len(src)
        while pos < n:
            m = _TOKEN_RE.match(src, pos)
            kind, text, start, pos = m.lastgroup, m.group(), pos, m.end()
            if kind == "skip":
                continue
            if kind == "string":
                tok = self._string(start)
                pos = start + len(tok.text)
            elif kind == "bad":
                self.error(f"unexpected character {text!r}", start, pos)
            else:
                value = int(text) if kind == "int" else text
                # `Token(...)` would call its generated `__new__`, a Python function.
                tok = tuple.__new__(Token, (text if kind == "punct" else kind, text, value, start, pos))
            out.append(tok)
        out.append(Token("eof", "", None, n, n))
        return out

    def _string(self, start: int) -> Token:
        # Jumps from one quote or backslash to the next.
        src = self.source
        pos = start + 1
        buf: list = []
        while True:
            stop = _STRING_STOP_RE.search(src, pos)
            if stop is None:
                self.error("unterminated string literal", start, len(src))
            buf.append(src[pos : stop.start()])
            pos = stop.end()
            if stop.group() == '"':
                break
            if pos >= len(src):
                self.error("unterminated escape", start, pos)
            esc = src[pos]
            pos += 1
            if esc in _ESCAPES:
                buf.append(_ESCAPES[esc])
            elif esc == "u":
                if not src.startswith("{", pos):
                    self.error("expected { after \\u", pos, pos + 1)
                hex_start = pos + 1
                close = src.find("}", hex_start)
                digits = src[hex_start : close if close >= 0 else len(src)]
                if close < 0 or not digits or len(digits) > 6:
                    self.error("malformed \\u{...} escape", hex_start, hex_start + len(digits))
                try:
                    buf.append(chr(int(digits, 16)))
                except (ValueError, OverflowError):
                    self.error("invalid unicode escape", hex_start, close)
                pos = close + 1
            else:
                self.error(f"unknown escape \\{esc}", pos - 1, pos)
        return Token("string", src[start:pos], "".join(buf), start, pos)


# Cedar's other relations, parsed as the negations of the ones the AST has:
# `a != b` is `!(a == b)`, `a > b` is `!(a <= b)` and `a >= b` is `!(a < b)`.
# The operands keep their order, so they are still evaluated left to right.
_NEGATED_RELATIONS = {"!=": "==", ">": "<=", ">=": "<"}

# ---------------------------------------------------------------------------
# Token stream base
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str, filename: str):
        self.source = source
        self.filename = filename
        self.toks = _Lexer(source, filename).tokens()
        self.i = 0
        self.nesting = 0

    def peek(self, offset: int = 0) -> Token:
        # Nothing looks past the final eof token, the only one with none after it.
        return self.toks[self.i + offset]

    def next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.toks[self.i].kind == kind

    def at_ident(self, *names: str) -> bool:
        tok = self.toks[self.i]
        return tok.kind == "ident" and tok.text in names

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.toks[self.i]
        if tok.kind != kind:
            self.error(f"expected {what or kind}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def expect_ident(self, name: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != name:
            self.error(f"expected {name!r}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.start, tok.end, self.source, self.filename)

    def nest(self, what: str) -> None:
        """Enter one more level of recursion; the caller leaves it with
        ``self.nesting -= 1``.  Too deep is a ParseError, raised before the
        recursion can exhaust the stack."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            self.error(f"{what} nests deeper than {MAX_NESTING} levels")

    # Shared small rules -----------------------------------------------------

    def path(self) -> str:
        parts = [self.expect("ident", "a name").text]
        while self.at("::") and self.peek(1).kind == "ident":
            self.next()
            parts.append(self.expect("ident").text)
        return "::".join(parts)

    def entity_ref(self) -> EntityRef:
        etype = self.path()
        self.expect("::", "'::'")
        ident = self.expect("string", "an entity id string")
        return EntityRef(etype, ident.value)

    def name(self, what: str) -> str:
        """An identifier, or a string for a name that is not one."""
        tok = self.peek()
        if tok.kind == "ident":
            return self.next().text
        if tok.kind == "string":
            return self.next().value
        self.error(f"expected {what}")

    def bracketed(self, item, bracket: str = "[", empty_ok: bool = False) -> list:
        """The items ``item`` reads between ``bracket`` and its closing
        bracket, separated by commas; a comma may follow the last.  At least
        one, unless ``empty_ok``."""
        close = "]" if bracket == "[" else "}"
        self.expect(bracket)
        items = []
        if not (empty_ok and self.at(close)):
            items.append(item())
            while self.at(","):
                self.next()
                if self.at(close):
                    break
                items.append(item())
        self.expect(close)
        return items

    def names(self, item) -> list:
        """One name read by ``item``, or a bracketed list of them."""
        return self.bracketed(item) if self.at("[") else [item()]

    def fields(self, value, duplicate: str) -> list:
        """A record's `{name ..., ...}`: the (name, ``value()``) pairs, where
        ``value`` reads what follows each name.  A name given twice is the
        error ``duplicate`` and the name, at its second occurrence."""
        seen = set()

        def field() -> tuple:
            tok = self.peek()
            name = self.name("an attribute name")
            if name in seen:
                self.error(f"{duplicate} {name!r}", tok)
            seen.add(name)
            return name, value()

        return self.bracketed(field, "{", empty_ok=True)


# ---------------------------------------------------------------------------
# Policy parsing
# ---------------------------------------------------------------------------


class _PolicyParser(_Parser):
    # The kind of the condition being parsed, if any: a slot may stand in a
    # policy's scope or in a lone expression, never in a condition.
    clause: Optional[CondKind] = None

    def parse(self) -> list:
        policies = []
        while not self.at("eof"):
            policies.append(self._policy(len(policies)))
        return policies

    def _policy(self, index: int) -> Policy:
        annotations = []
        while self.at("@"):
            self.next()
            key = self.expect("ident", "an annotation name").text
            self.expect("(")
            value = self.expect("string", "an annotation value").value
            self.expect(")")
            annotations.append((key, value))
        tok = self.peek()
        if not self.at_ident("permit", "forbid"):
            self.error("expected 'permit' or 'forbid'", tok)
        effect = Effect.PERMIT if self.next().text == "permit" else Effect.FORBID
        self.expect("(")
        principal = self._scope_part("principal", slots_ok=True)
        self.expect(",")
        action = self._scope_part("action", slots_ok=False)
        self.expect(",")
        resource = self._scope_part("resource", slots_ok=True)
        self.expect(")")
        conditions = []
        while self.at_ident("when", "unless"):
            kind = CondKind.WHEN if self.next().text == "when" else CondKind.UNLESS
            self.expect("{")
            # Desugared, a condition sits below the `&&`s joining it to the
            # three scope constraints and to each condition before it, one
            # more `&&` if another condition follows (assumed: not known yet),
            # and the `!` of an `unless`.
            outer = 4 + len(conditions) + (kind is CondKind.UNLESS)
            self.clause = kind
            conditions.append((kind, self._bounded_expr(outer)))
            self.clause = None
            self.expect("}")
        self.expect(";", "';' after policy")
        ann_map = dict(annotations)
        pid = ann_map.get("id", f"policy{index}")
        return Policy(
            id=pid,
            effect=effect,
            principal=principal,
            action=action,
            resource=resource,
            conditions=tuple(conditions),
            annotations=tuple(annotations),
        )

    def _scope_part(self, var: str, slots_ok: bool) -> Scope:
        self.expect_ident(var)
        if self.at(",") or self.at(")"):
            return ANY
        op_tok = self.peek()
        if op_tok.text == "==":
            self.next()
            return ScopeEq(self._scope_target(var, slots_ok))
        if op_tok.kind == "ident" and op_tok.text == "in":
            self.next()
            if self.at("["):
                if var != "action":
                    self.error(f"{var} constraint cannot use a set of entities", op_tok)
                return ScopeInSet(tuple(self.bracketed(self.entity_ref)))
            return ScopeIn(self._scope_target(var, slots_ok))
        self.error(f"expected '==', 'in', ',' or ')' after {var}", op_tok)

    def _scope_target(self, var: str, slots_ok: bool):
        if self.at("slot"):
            tok = self.slot()
            if not slots_ok:
                self.error(f"slots cannot appear in the {var} constraint", tok)
            if tok.text != f"?{var}":
                self.error(f"slot {tok.text} cannot appear in the {var} constraint", tok)
            return SlotRef(tok.text)
        return self.entity_ref()

    def slot(self) -> Token:
        """The slot at hand, which must be `?principal` or `?resource`."""
        tok = self.next()
        if tok.text not in ("?principal", "?resource"):
            self.error(f"unknown slot {tok.text}", tok)
        return tok

    # Expressions, lowest precedence first ------------------------------------

    def _bounded_expr(self, outer: int = 0) -> Expr:
        """An expression whose tree, placed ``outer`` levels down, is at most
        MAX_NESTING levels high."""
        start, tok = self.i, self.peek()
        e = self._expr()
        # Every node has a token of its own, so only an expression of more
        # tokens than the bound allows can be too deep: skip the walk otherwise.
        if self.i - start > MAX_NESTING - outer and outer + expr_depth(e) > MAX_NESTING:
            self.error(f"expression nests deeper than {MAX_NESTING} levels", tok)
        return e

    def _expr(self) -> Expr:
        self.nest("expression")
        if self.at_ident("if"):
            self.next()
            cond = self._expr()
            self.expect_ident("then")
            then = self._expr()
            self.expect_ident("else")
            e = EIf(cond, then, self._expr())
        else:
            e = self._or()
        self.nesting -= 1
        return e

    def _or(self) -> Expr:
        left = self._and()
        while self.at("||"):
            self.next()
            left = EOr(left, self._and())
        return left

    def _and(self) -> Expr:
        left = self._rel()
        while self.at("&&"):
            self.next()
            left = EAnd(left, self._rel())
        return left

    def _rel(self) -> Expr:
        left = self._add()
        while True:
            tok = self.peek()
            if tok.kind in ("==", "<", "<="):
                self.next()
                left = EBinop(tok.kind, left, self._add())
            elif tok.kind in _NEGATED_RELATIONS:
                self.next()
                left = ENot(EBinop(_NEGATED_RELATIONS[tok.kind], left, self._add()))
            elif tok.kind == "ident" and tok.text == "in":
                self.next()
                left = EBinop("in", left, self._add())
            elif tok.kind == "ident" and tok.text == "has":
                self.next()
                left = EHas(left, self.name("an attribute name"))
            elif tok.kind == "ident" and tok.text == "like":
                self.next()
                pat = self.expect("string", "a pattern string")
                left = ELike(left, LikePattern.from_source(pat.value))
            elif tok.kind == "ident" and tok.text == "is":
                self.next()
                left = EIs(left, self.path())
            else:
                return left

    def _add(self) -> Expr:
        left = self._mul()
        while self.at("+") or self.at("-"):
            op = self.next().kind
            left = EBinop(op, left, self._mul())
        return left

    def _mul(self) -> Expr:
        left = self._unary()
        while self.at("*"):
            tok = self.next()
            right = self._unary()
            if isinstance(left, ELit) and isinstance(left.value, VLong):
                left = EMul(left.value.i, right)
            elif isinstance(right, ELit) and isinstance(right.value, VLong):
                left = EMul(right.value.i, left)
            else:
                self.error("multiplication requires a literal integer factor", tok)
        return left

    def _unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            self.nest("expression")
            e = ENot(self._unary())
            self.nesting -= 1
            return e
        if tok.kind == "-":
            self.next()
            if self.at("int"):
                lit = self.next()
                value = -lit.value
                if value < I64_MIN:
                    self.error("integer literal out of 64-bit range", lit)
                return ELit(VLong(value))
            self.nest("expression")
            e = ENeg(self._unary())
            self.nesting -= 1
            return e
        return self._postfix()

    def _postfix(self) -> Expr:
        e = self._primary()
        while True:
            if self.at("."):
                self.next()
                name = self.expect("ident", "an attribute or method name").text
                if name in ("contains", "containsAny", "containsAll") and self.at("("):
                    self.next()
                    arg = self._expr()
                    self.expect(")")
                    e = EBinop(name, e, arg)
                elif self.at("("):
                    self.error(f"unsupported method call .{name}(...) (extension types are not supported)")
                else:
                    e = EGetAttr(e, name)
            elif self.at("["):
                # e["attr name"] projection for non-identifier attributes.
                save = self.i
                self.next()
                if self.at("string") and self.peek(1).kind == "]":
                    name = self.next().value
                    self.next()
                    e = EGetAttr(e, name)
                else:
                    self.i = save
                    return e
            else:
                return e

    def _primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            if tok.value > I64_MAX:
                self.error("integer literal out of 64-bit range", tok)
            return ELit(VLong(tok.value))
        if tok.kind == "string":
            self.next()
            return ELit(VString(tok.value))
        if tok.kind == "slot":
            if self.clause is not None:
                self.error(f"slot {tok.text} in a {self.clause.value} condition: slots may appear only in the scope", tok)
            return ESlot(self.slot().text)
        if tok.kind == "(":
            self.next()
            e = self._expr()
            self.expect(")")
            return e
        if tok.kind == "[":
            return ESet(tuple(self.bracketed(self._expr, empty_ok=True)))
        if tok.kind == "{":
            return ERecord(tuple(self.fields(self._field_value, "duplicate record attribute")))
        if tok.kind == "ident":
            if tok.text == "true":
                self.next()
                return ELit(VBool(True))
            if tok.text == "false":
                self.next()
                return ELit(VBool(False))
            if tok.text in ("principal", "action", "resource", "context") and not (
                self.peek(1).kind == "::"
            ):
                self.next()
                return EVar(tok.text)
            if tok.text == "if":  # Cedar's grammar has `if` only where an expression starts
                self.error("an if-then-else operand must be parenthesised", tok)
            if tok.text in RESERVED and tok.text not in ("true", "false"):
                self.error(f"reserved word {tok.text!r} cannot start an expression", tok)
            # Entity reference: Path::"id"
            save = self.i
            etype = self.path()
            if self.at("::") and self.peek(1).kind == "string":
                self.next()
                ident = self.next()
                return ELit(VEntity(EntityRef(etype, ident.value)))
            self.i = save
            self.error(f"unexpected name {tok.text!r} (expected an entity reference Type::\"id\")", tok)
        self.error(f"unexpected token {tok.text or 'end of input'!r}", tok)

    def _field_value(self) -> Expr:
        self.expect(":")
        return self._expr()


def parse_policies(text: str, filename: str = "<input>") -> list:
    """Parse a policy document into Policy values in document order."""
    return _PolicyParser(text, filename).parse()


def parse_expr(text: str, filename: str = "<input>") -> Expr:
    """Parse a single expression (used by the evaluate command and tests)."""
    parser = _PolicyParser(text, filename)
    e = parser._bounded_expr()
    parser.expect("eof", "end of input")
    return e


# ---------------------------------------------------------------------------
# Schema parsing
# ---------------------------------------------------------------------------

_BUILTIN_TYPES = {"Bool": BOOL, "Boolean": BOOL, "Long": LONG, "String": STRING}


class _SchemaParser(_Parser):
    def __init__(self, source: str, filename: str):
        super().__init__(source, filename)
        self.entities: dict = {}
        self.actions: dict = {}

    def parse(self) -> Schema:
        while not self.at("eof"):
            if self.at_ident("entity"):
                self._entity_decl()
            elif self.at_ident("action"):
                self._action_decl()
            else:
                self.error("expected an 'entity' or 'action' declaration")
            if self.at(";"):
                self.next()
        # Action groups referenced as parents but never declared become
        # empty groups: no appliesTo, hence no request environments.
        for decl in list(self.actions.values()):
            for parent in decl.parents:
                if parent not in self.actions:
                    self.actions[parent] = ActionDecl(parent, (), (), EMPTY_RECORD, ())
        schema = Schema(dict(self.entities), dict(self.actions))
        try:
            check_schema(schema)
        except SchemaError as err:
            self.error(str(err), self.toks[-1])
        return schema

    def _entity_decl(self) -> None:
        self.expect_ident("entity")
        names = [self.path()]
        name_tok = self.peek()
        while self.at(","):
            self.next()
            names.append(self.path())
        parents: frozenset = frozenset()
        if self.at_ident("in"):
            self.next()
            parents = frozenset(self.names(self.path))
        attrs = trecord({})
        if self.at("{"):
            attrs = self._record_type()
        for name in names:
            if name in self.entities:
                self.error(f"duplicate declaration of entity type {name}", name_tok)
            self.entities[name] = EntityTypeDecl(attrs, parents)

    def _record_type(self) -> TRecord:
        return trecord(dict(self.fields(self._attr_type, "duplicate attribute")))

    def _attr_type(self) -> tuple:
        """An attribute's `?` if optional, `:` and type: (required, type)."""
        optional = self.at("?")
        if optional:
            self.next()
        self.expect(":")
        return not optional, self._type()

    def _type(self):
        self.nest("type")
        if self.at("{"):
            t = self._record_type()
        elif self.at_ident("Set"):
            self.next()
            self.expect("<")
            t = TSet(self._type())
            self.expect(">")
        else:
            if not self.at("ident"):
                self.error("expected a type")
            name = self.path()
            t = _BUILTIN_TYPES[name] if name in _BUILTIN_TYPES else TEntity(name)
        self.nesting -= 1
        return t

    def _action_name(self) -> EntityRef:
        return EntityRef("Action", self.name("an action name"))

    def _action_decl(self) -> None:
        self.expect_ident("action")
        names = [self._action_name()]
        name_tok = self.peek()
        while self.at(","):
            self.next()
            names.append(self._action_name())
        parents: tuple = ()
        if self.at_ident("in"):
            self.next()
            parents = tuple(self.names(self._action_name))
        applies: dict = {}
        if self.at_ident("appliesTo"):
            self.next()
            applies = dict(self.bracketed(self._applies_to_field, "{"))
        principal_types, resource_types = applies.get("principal", ()), applies.get("resource", ())
        context = applies.get("context", EMPTY_RECORD)
        for ref in names:
            if ref in self.actions:
                self.error(f"duplicate declaration of action {ref}", name_tok)
            self.actions[ref] = ActionDecl(ref, principal_types, resource_types, context, parents)

    def _applies_to_field(self) -> tuple:
        """`principal: ...`, `resource: ...` or `context: ...`, as a (key,
        value) pair; a later one replaces an earlier one of the same key."""
        key = self.expect("ident", "'principal', 'resource' or 'context'").text
        self.expect(":")
        if key in ("principal", "resource"):
            return key, tuple(self.names(self.path))
        if key == "context":
            t = self._type()
            if not isinstance(t, TRecord):
                self.error("context type must be a record")
            return key, t
        self.error(f"unknown appliesTo field {key!r}")


def parse_schema(text: str, filename: str = "<input>") -> Schema:
    return _SchemaParser(text, filename).parse()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_REL = 3
_LEVEL_ADD = 4
_LEVEL_MUL = 5
_LEVEL_UNARY = 6
_LEVEL_POSTFIX = 7
_LEVEL_ATOM = 8

def _is_ident(name: str) -> bool:
    return _IDENT_RE.fullmatch(name) is not None and name not in RESERVED


def _attr_suffix(name: str) -> str:
    return f".{name}" if _is_ident(name) else f"[{quote_string(name)}]"


def _level(e: Expr) -> int:
    if isinstance(e, ELit) and isinstance(e.value, VLong) and e.value.i < 0:
        # Negative literals print with a leading minus and bind like a unary.
        return _LEVEL_UNARY
    if isinstance(e, EIf):
        return 0
    if isinstance(e, EOr):
        return _LEVEL_OR
    if isinstance(e, EAnd):
        return _LEVEL_AND
    if isinstance(e, (EHas, EIs, ELike)):
        return _LEVEL_REL
    if isinstance(e, EBinop):
        if e.op in ("+", "-"):
            return _LEVEL_ADD
        if e.op in ("contains", "containsAny", "containsAll"):
            return _LEVEL_POSTFIX
        return _LEVEL_REL
    if isinstance(e, EMul):
        return _LEVEL_MUL
    if isinstance(e, (ENot, ENeg)):
        return _LEVEL_UNARY
    if isinstance(e, EGetAttr):
        return _LEVEL_POSTFIX
    return _LEVEL_ATOM


def render_expr(e: Expr, min_level: int = 0) -> str:
    text = _render(e)
    if _level(e) < min_level:
        return f"({text})"
    return text


def _render(e: Expr) -> str:
    if isinstance(e, ELit):
        return render_value(e.value)
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, ESlot):
        return e.name
    if isinstance(e, ESet):
        return "[" + ", ".join(render_expr(x) for x in e.elems) + "]"
    if isinstance(e, ERecord):
        inner = ", ".join(
            f"{k if _is_ident(k) else quote_string(k)}: {render_expr(x)}" for k, x in e.fields
        )
        return "{" + inner + "}"
    if isinstance(e, EGetAttr):
        return render_expr(e.obj, _LEVEL_POSTFIX) + _attr_suffix(e.attr)
    if isinstance(e, EHas):
        attr = e.attr if _is_ident(e.attr) else quote_string(e.attr)
        return f"{render_expr(e.obj, _LEVEL_REL)} has {attr}"
    if isinstance(e, EIs):
        return f"{render_expr(e.obj, _LEVEL_REL)} is {e.entity_type}"
    if isinstance(e, ELike):
        return f"{render_expr(e.obj, _LEVEL_REL)} like {quote_string(e.pattern.to_source())}"
    if isinstance(e, EAnd):
        return f"{render_expr(e.left, _LEVEL_AND)} && {render_expr(e.right, _LEVEL_AND + 1)}"
    if isinstance(e, EOr):
        return f"{render_expr(e.left, _LEVEL_OR)} || {render_expr(e.right, _LEVEL_OR + 1)}"
    if isinstance(e, ENot):
        return "!" + render_expr(e.arg, _LEVEL_UNARY)
    if isinstance(e, ENeg):
        return "-" + render_expr(e.arg, _LEVEL_UNARY)
    if isinstance(e, EMul):
        return f"{e.factor} * {render_expr(e.arg, _LEVEL_UNARY)}"
    if isinstance(e, EBinop):
        if e.op in ("contains", "containsAny", "containsAll"):
            return f"{render_expr(e.left, _LEVEL_POSTFIX)}.{e.op}({render_expr(e.right)})"
        lhs = render_expr(e.left, _level(e))
        rhs = render_expr(e.right, _level(e) + 1)
        return f"{lhs} {e.op} {rhs}"
    if isinstance(e, EIf):
        # No parentheses around a nested `if`: the grammar needs none, and
        # each pair would count against MAX_NESTING when parsed back.
        return f"if {render_expr(e.cond)} then {render_expr(e.then)} else {render_expr(e.els)}"
    raise TypeError(f"not an expression: {e!r}")


def _render_scope(var: str, scope: Scope) -> str:
    if isinstance(scope, ScopeAny):
        return var
    if isinstance(scope, ScopeEq):
        target = scope.target.name if isinstance(scope.target, SlotRef) else str(scope.target)
        return f"{var} == {target}"
    if isinstance(scope, ScopeIn):
        target = scope.target.name if isinstance(scope.target, SlotRef) else str(scope.target)
        return f"{var} in {target}"
    if isinstance(scope, ScopeInSet):
        return f"{var} in [" + ", ".join(str(r) for r in scope.targets) + "]"
    raise TypeError(f"not a scope constraint: {scope!r}")


def render_policy(policy: Policy) -> str:
    """Canonical text for one policy; parses back to the same AST."""
    lines = []
    for key, value in policy.annotations:
        lines.append(f"@{key}({quote_string(value)})")
    head = (
        f"{policy.effect.value}("
        f"{_render_scope('principal', policy.principal)}, "
        f"{_render_scope('action', policy.action)}, "
        f"{_render_scope('resource', policy.resource)})"
    )
    body = [head]
    for kind, cond in policy.conditions:
        body.append(f"{kind.value} {{ {render_expr(cond)} }}")
    lines.append("\n".join(body) + ";")
    return "\n".join(lines)


def render_policies(policies) -> str:
    return "\n\n".join(render_policy(p) for p in policies) + "\n"
