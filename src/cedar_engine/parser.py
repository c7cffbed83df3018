"""Concrete syntax: policy and schema text to AST, and canonical rendering.

Policies live in `.cedar` files, schemas in `.cedarschema` files.  All
diagnostics carry a source span and render as `file:line:col: severity:
message` plus the offending line.  Parsing never raises anything but
ParseError, no matter the input bytes.

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

from dataclasses import dataclass
from enum import Enum
from typing import Optional

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

MAX_NESTING = 64

# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class SourceSpan:
    byte_start: int
    byte_end: int
    line: int
    column: int


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: Severity
    message: str
    span: SourceSpan


class ParseError(CedarError):
    def __init__(self, diagnostics, source: str = "", filename: str = "<input>"):
        self.diagnostics = list(diagnostics)
        self.source = source
        self.filename = filename
        super().__init__(self.render())

    def render(self) -> str:
        return "\n".join(format_diagnostic(d, self.source, self.filename) for d in self.diagnostics)


def format_diagnostic(diag: ParseDiagnostic, source: str, filename: str = "<input>") -> str:
    head = f"{filename}:{diag.span.line}:{diag.span.column}: {diag.severity.value}: {diag.message}"
    lines = source.splitlines()
    if 1 <= diag.span.line <= len(lines):
        src_line = lines[diag.span.line - 1]
        marker = " " * (diag.span.column - 1) + "^"
        return f"{head}\n  {src_line}\n  {marker}"
    return head


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT2 = ("&&", "||", "==", "<=", "::")
_PUNCT1 = "()[]{}<>,;:.@!+-*?="

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


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _is_ident_start(ch: str) -> bool:
    return ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return _is_ident_start(ch) or _is_digit(ch)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "string" | "slot" | "eof" | punctuation text
    text: str
    value: object
    span: SourceSpan


class _Lexer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.byte = 0
        self.line = 1
        self.col = 1
        self.diagnostics: list = []

    def error(self, message: str, span: Optional[SourceSpan] = None):
        if span is None:
            span = self._span(self.pos, self.pos)
        raise ParseError([ParseDiagnostic(Severity.ERROR, message, span)], self.source)

    def _span(self, start: int, end: int) -> SourceSpan:
        # Line/column point at the start of the token.
        prefix = self.source[:start]
        line = prefix.count("\n") + 1
        col = start - (prefix.rfind("\n") + 1) + 1
        bstart = len(prefix.encode("utf-8"))
        bend = bstart + len(self.source[start:end].encode("utf-8"))
        return SourceSpan(bstart, bend, line, col)

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def tokens(self) -> list:
        out = []
        src = self.source
        n = len(src)
        while self.pos < n:
            ch = src[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
                continue
            if ch == "/" and self._peek(1) == "/":
                while self.pos < n and src[self.pos] != "\n":
                    self.pos += 1
                continue
            start = self.pos
            if _is_digit(ch):
                while self.pos < n and _is_digit(src[self.pos]):
                    self.pos += 1
                text = src[start : self.pos]
                out.append(Token("int", text, int(text), self._span(start, self.pos)))
                continue
            if _is_ident_start(ch):
                while self.pos < n and _is_ident_char(src[self.pos]):
                    self.pos += 1
                text = src[start : self.pos]
                out.append(Token("ident", text, text, self._span(start, self.pos)))
                continue
            if ch == '"':
                out.append(self._string())
                continue
            if ch == "?" and _is_ident_start(self._peek(1)):
                self.pos += 1
                while self.pos < n and _is_ident_char(src[self.pos]):
                    self.pos += 1
                text = src[start : self.pos]
                out.append(Token("slot", text, text, self._span(start, self.pos)))
                continue
            two = src[self.pos : self.pos + 2]
            if two in _PUNCT2:
                self.pos += 2
                out.append(Token(two, two, two, self._span(start, self.pos)))
                continue
            if ch in _PUNCT1:
                self.pos += 1
                out.append(Token(ch, ch, ch, self._span(start, self.pos)))
                continue
            self.error(f"unexpected character {ch!r}", self._span(start, start + 1))
        out.append(Token("eof", "", None, self._span(n, n)))
        return out

    def _string(self) -> Token:
        src = self.source
        start = self.pos
        self.pos += 1  # opening quote
        buf: list = []
        while True:
            if self.pos >= len(src):
                self.error("unterminated string literal", self._span(start, self.pos))
            ch = src[self.pos]
            if ch == '"':
                self.pos += 1
                break
            if ch == "\\":
                self.pos += 1
                if self.pos >= len(src):
                    self.error("unterminated escape", self._span(start, self.pos))
                esc = src[self.pos]
                self.pos += 1
                if esc == "n":
                    buf.append("\n")
                elif esc == "t":
                    buf.append("\t")
                elif esc == "r":
                    buf.append("\r")
                elif esc == "0":
                    buf.append("\0")
                elif esc == "\\":
                    buf.append("\\")
                elif esc == '"':
                    buf.append('"')
                elif esc == "*":
                    # Kept verbatim so like-pattern splitting can see it.
                    buf.append("\\*")
                elif esc == "u":
                    if self._peek() != "{":
                        self.error("expected { after \\u", self._span(self.pos, self.pos + 1))
                    self.pos += 1
                    hex_start = self.pos
                    while self._peek() not in ("}", ""):
                        self.pos += 1
                    digits = src[hex_start : self.pos]
                    if self._peek() != "}" or not digits or len(digits) > 6:
                        self.error("malformed \\u{...} escape", self._span(hex_start, self.pos))
                    try:
                        code = int(digits, 16)
                        buf.append(chr(code))
                    except (ValueError, OverflowError):
                        self.error("invalid unicode escape", self._span(hex_start, self.pos))
                    self.pos += 1
                else:
                    self.error(f"unknown escape \\{esc}", self._span(self.pos - 1, self.pos))
            else:
                buf.append(ch)
                self.pos += 1
        return Token("string", src[start : self.pos], "".join(buf), self._span(start, self.pos))


# ---------------------------------------------------------------------------
# Token stream base
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.toks = _Lexer(source).tokens()
        self.i = 0
        self.nesting = 0

    def peek(self, offset: int = 0) -> Token:
        return self.toks[min(self.i + offset, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def at_ident(self, *names: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text in names

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.peek()
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
        raise ParseError([ParseDiagnostic(Severity.ERROR, message, tok.span)], self.source)

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


# ---------------------------------------------------------------------------
# Policy parsing
# ---------------------------------------------------------------------------


class _PolicyParser(_Parser):
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
            conditions.append((kind, self._bounded_expr(outer)))
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
                self.next()
                refs = [self.entity_ref()]
                while self.at(","):
                    self.next()
                    if self.at("]"):
                        break
                    refs.append(self.entity_ref())
                self.expect("]")
                return ScopeInSet(tuple(refs))
            return ScopeIn(self._scope_target(var, slots_ok))
        self.error(f"expected '==', 'in', ',' or ')' after {var}", op_tok)

    def _scope_target(self, var: str, slots_ok: bool):
        if self.at("slot"):
            tok = self.next()
            if tok.text not in ("?principal", "?resource"):
                self.error(f"unknown slot {tok.text}", tok)
            if not slots_ok:
                self.error(f"slots cannot appear in the {var} constraint", tok)
            if tok.text != f"?{var}":
                self.error(f"slot {tok.text} cannot appear in the {var} constraint", tok)
            return SlotRef(tok.text)
        return self.entity_ref()

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
            elif tok.kind == "ident" and tok.text == "in":
                self.next()
                left = EBinop("in", left, self._add())
            elif tok.kind == "ident" and tok.text == "has":
                self.next()
                left = EHas(left, self._attr_name())
            elif tok.kind == "ident" and tok.text == "like":
                self.next()
                pat = self.expect("string", "a pattern string")
                left = ELike(left, LikePattern.from_source(pat.value))
            elif tok.kind == "ident" and tok.text == "is":
                self.next()
                left = EIs(left, self.path())
            else:
                return left

    def _attr_name(self) -> str:
        tok = self.peek()
        if tok.kind == "ident":
            return self.next().text
        if tok.kind == "string":
            return self.next().value
        self.error("expected an attribute name")

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
            self.next()
            if tok.text not in ("?principal", "?resource"):
                self.error(f"unknown slot {tok.text}", tok)
            return ESlot(tok.text)
        if tok.kind == "(":
            self.next()
            e = self._expr()
            self.expect(")")
            return e
        if tok.kind == "[":
            self.next()
            elems = []
            if not self.at("]"):
                elems.append(self._expr())
                while self.at(","):
                    self.next()
                    if self.at("]"):
                        break
                    elems.append(self._expr())
            self.expect("]")
            return ESet(tuple(elems))
        if tok.kind == "{":
            self.next()
            fields = []
            seen = set()
            if not self.at("}"):
                while True:
                    name = self._attr_name()
                    if name in seen:
                        self.error(f"duplicate record attribute {name!r}")
                    seen.add(name)
                    self.expect(":")
                    fields.append((name, self._expr()))
                    if self.at(","):
                        self.next()
                        if self.at("}"):
                            break
                    else:
                        break
            self.expect("}")
            return ERecord(tuple(fields))
        if tok.kind == "ident":
            if tok.text == "true":
                self.next()
                return ELit(VBool(True))
            if tok.text == "false":
                self.next()
                return ELit(VBool(False))
            if tok.text == "if":
                self.next()
                cond = self._expr()
                self.expect_ident("then")
                then = self._expr()
                self.expect_ident("else")
                els = self._expr()
                return EIf(cond, then, els)
            if tok.text in ("principal", "action", "resource", "context") and not (
                self.peek(1).kind == "::"
            ):
                self.next()
                return EVar(tok.text)
            if tok.text in RESERVED and tok.text not in ("true", "false", "if"):
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


def parse_policies(text: str, filename: str = "<input>") -> list:
    """Parse a policy document into Policy values in document order."""
    try:
        return _PolicyParser(text).parse()
    except ParseError as err:
        err.filename = filename
        raise


def parse_expr(text: str, filename: str = "<input>") -> Expr:
    """Parse a single expression (used by the evaluate command and tests)."""
    try:
        parser = _PolicyParser(text)
        e = parser._bounded_expr()
        parser.expect("eof", "end of input")
        return e
    except ParseError as err:
        err.filename = filename
        raise


# ---------------------------------------------------------------------------
# Schema parsing
# ---------------------------------------------------------------------------

_BUILTIN_TYPES = {"Bool": BOOL, "Boolean": BOOL, "Long": LONG, "String": STRING}


class _SchemaParser(_Parser):
    def __init__(self, source: str):
        super().__init__(source)
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
            parents = frozenset(self._type_name_list())
        attrs = trecord({})
        if self.at("{"):
            attrs = self._record_type()
        for name in names:
            if name in self.entities:
                self.error(f"duplicate declaration of entity type {name}", name_tok)
            self.entities[name] = EntityTypeDecl(attrs, parents)

    def _type_name_list(self) -> list:
        if self.at("["):
            self.next()
            names = [self.path()]
            while self.at(","):
                self.next()
                if self.at("]"):
                    break
                names.append(self.path())
            self.expect("]")
            return names
        return [self.path()]

    def _record_type(self) -> TRecord:
        self.expect("{")
        attrs: dict = {}
        if not self.at("}"):
            while True:
                tok = self.peek()
                if tok.kind == "string":
                    name = self.next().value
                elif tok.kind == "ident":
                    name = self.next().text
                else:
                    self.error("expected an attribute name")
                if name in attrs:
                    self.error(f"duplicate attribute {name!r}", tok)
                required = True
                if self.at("?"):
                    self.next()
                    required = False
                self.expect(":")
                attrs[name] = (required, self._type())
                if self.at(","):
                    self.next()
                    if self.at("}"):
                        break
                else:
                    break
        self.expect("}")
        return trecord(attrs)

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
        tok = self.peek()
        if tok.kind == "string":
            return EntityRef("Action", self.next().value)
        if tok.kind == "ident":
            return EntityRef("Action", self.next().text)
        self.error("expected an action name")

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
            if self.at("["):
                self.next()
                ps = [self._action_name()]
                while self.at(","):
                    self.next()
                    if self.at("]"):
                        break
                    ps.append(self._action_name())
                self.expect("]")
                parents = tuple(ps)
            else:
                parents = (self._action_name(),)
        principal_types: tuple = ()
        resource_types: tuple = ()
        context = EMPTY_RECORD
        if self.at_ident("appliesTo"):
            self.next()
            self.expect("{")
            while True:
                key = self.expect("ident", "'principal', 'resource' or 'context'").text
                self.expect(":")
                if key == "principal":
                    principal_types = tuple(self._type_name_list())
                elif key == "resource":
                    resource_types = tuple(self._type_name_list())
                elif key == "context":
                    t = self._type()
                    if not isinstance(t, TRecord):
                        self.error("context type must be a record")
                    context = t
                else:
                    self.error(f"unknown appliesTo field {key!r}")
                if self.at(","):
                    self.next()
                    if self.at("}"):
                        break
                else:
                    break
            self.expect("}")
        for ref in names:
            if ref in self.actions:
                self.error(f"duplicate declaration of action {ref}", name_tok)
            self.actions[ref] = ActionDecl(ref, principal_types, resource_types, context, parents)


def parse_schema(text: str, filename: str = "<input>") -> Schema:
    try:
        return _SchemaParser(text).parse()
    except ParseError as err:
        err.filename = filename
        raise


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

_IDENT_RE = None


def _is_ident(name: str) -> bool:
    if not name or name in RESERVED:
        return False
    return _is_ident_start(name[0]) and all(_is_ident_char(c) for c in name)


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
