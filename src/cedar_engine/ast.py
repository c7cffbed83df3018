"""Abstract syntax: entity references, values, expressions, policies, and types.

Everything here is a frozen dataclass; AST values are immutable after
construction and safe to share across threads.  Sets of values are kept in a
canonical form (frozenset of hashable values) so that value equality is
extensional: order and duplicates in a set literal never matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, Mapping, Optional, Union

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

# How deep policies, schema types and JSON values may nest: deeper input is
# rejected before any recursive pass over it can exhaust the stack.
MAX_NESTING = 64

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r", "\0": "\\0"}


def quote_string(s: str) -> str:
    """Render a string literal with escapes, the inverse of the lexer."""
    out = ['"']
    for ch in s:
        out.append(_STRING_ESCAPES.get(ch, ch))
    out.append('"')
    return "".join(out)


class CedarError(Exception):
    """Base class for all errors raised by this package."""


class NotClosed(CedarError):
    """A template slot was found where a closed policy was required."""


class UnboundSlot(CedarError):
    """link() was given no binding for a slot occurring in the template."""


class UnknownSlot(CedarError):
    """link() was given a binding for a slot the template does not contain."""


# ---------------------------------------------------------------------------
# Entity references and values
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class EntityRef:
    """A typed entity identifier.  Identity is nominal: both fields compare.

    The hash is computed once, at construction, and equals
    ``hash((entity_type, entity_id))``, so sets of refs iterate in the same
    order as they would with the plain dataclass hash."""

    entity_type: str
    entity_id: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.entity_type, self.entity_id)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not EntityRef:
            return NotImplemented
        return self.entity_id == other.entity_id and self.entity_type == other.entity_type

    def __reduce__(self):
        # Pickle the fields only: string hashes differ between processes.
        return EntityRef, (self.entity_type, self.entity_id)

    def __str__(self) -> str:
        return f"{self.entity_type}::{quote_string(self.entity_id)}"

    @property
    def type_tail(self) -> str:
        return self.entity_type.rsplit("::", 1)[-1]

    def is_action(self) -> bool:
        # Request invariant: action refs use an entity type path ending in Action.
        return self.type_tail == "Action"


class Value:
    """Marker base class for runtime values."""

    __slots__ = ()


@dataclass(frozen=True)
class VBool(Value):
    b: bool


@dataclass(frozen=True)
class VLong(Value):
    i: int


@dataclass(frozen=True)
class VString(Value):
    s: str


@dataclass(frozen=True)
class VEntity(Value):
    ref: EntityRef


@dataclass(frozen=True)
class VSet(Value):
    elems: frozenset


@dataclass(frozen=True)
class VRecord(Value):
    # Sorted by attribute name; names are unique.
    fields: tuple

    def get(self, name: str) -> Optional[Value]:
        for k, v in self.fields:
            if k == name:
                return v
        return None

    def has(self, name: str) -> bool:
        return any(k == name for k, _ in self.fields)

    def keys(self) -> tuple:
        return tuple(k for k, _ in self.fields)


TRUE = VBool(True)
FALSE = VBool(False)


def vset(elems) -> VSet:
    return VSet(frozenset(elems))


def vrecord(fields: Mapping[str, Value]) -> VRecord:
    return VRecord(tuple(sorted(fields.items())))


def render_value(v: Value) -> str:
    if isinstance(v, VBool):
        return "true" if v.b else "false"
    if isinstance(v, VLong):
        return str(v.i)
    if isinstance(v, VString):
        return quote_string(v.s)
    if isinstance(v, VEntity):
        return str(v.ref)
    if isinstance(v, VSet):
        return "[" + ", ".join(sorted(render_value(e) for e in v.elems)) + "]"
    if isinstance(v, VRecord):
        return "{" + ", ".join(f"{k}: {render_value(x)}" for k, x in v.fields) + "}"
    raise TypeError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# Like patterns
# ---------------------------------------------------------------------------

WILDCARD = None  # sentinel inside LikePattern.parts


@dataclass(frozen=True)
class LikePattern:
    """A match pattern: literal chunks interleaved with `*` wildcards.

    ``parts`` holds ``str`` literals and ``None`` wildcards.  A literal `*` is
    written ``\\*`` in source (the escape is applied after string unescaping).
    """

    parts: tuple

    @staticmethod
    def from_source(raw: str) -> "LikePattern":
        parts: list = []
        buf: list = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch == "\\" and i + 1 < len(raw) and raw[i + 1] == "*":
                buf.append("*")
                i += 2
                continue
            if ch == "*":
                if buf:
                    parts.append("".join(buf))
                    buf = []
                if not parts or parts[-1] is not WILDCARD:
                    parts.append(WILDCARD)
                i += 1
                continue
            buf.append(ch)
            i += 1
        if buf:
            parts.append("".join(buf))
        return LikePattern(tuple(parts))

    def to_source(self) -> str:
        out = []
        for p in self.parts:
            if p is WILDCARD:
                out.append("*")
            else:
                out.append(p.replace("*", "\\*"))
        return "".join(out)

    def matches(self, s: str) -> bool:
        """Glob match with `*` spanning any substring (including empty)."""
        parts = self.parts
        n = len(parts)

        def go(pi: int, si: int) -> bool:
            if pi == n:
                return si == len(s)
            p = parts[pi]
            if p is WILDCARD:
                if pi == n - 1:
                    return True
                return any(go(pi + 1, k) for k in range(si, len(s) + 1))
            if s.startswith(p, si):
                return go(pi + 1, si + len(p))
            return False

        return go(0, 0)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

VARIABLES = ("principal", "action", "resource", "context")


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class ELit(Expr):
    """A Bool, Long, String or entity literal; sets and records are ESet/ERecord."""

    value: Value


@dataclass(frozen=True)
class EVar(Expr):
    name: str  # one of VARIABLES


@dataclass(frozen=True)
class ESlot(Expr):
    name: str  # "?principal" | "?resource"


@dataclass(frozen=True)
class ESet(Expr):
    elems: tuple


@dataclass(frozen=True)
class ERecord(Expr):
    fields: tuple  # ((name, Expr), ...) in source order, names unique


@dataclass(frozen=True)
class EGetAttr(Expr):
    obj: Expr
    attr: str


@dataclass(frozen=True)
class EHas(Expr):
    obj: Expr
    attr: str


@dataclass(frozen=True)
class EIs(Expr):
    obj: Expr
    entity_type: str


@dataclass(frozen=True)
class ELike(Expr):
    obj: Expr
    pattern: LikePattern


@dataclass(frozen=True)
class EAnd(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class EOr(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class ENot(Expr):
    arg: Expr


@dataclass(frozen=True)
class ENeg(Expr):
    arg: Expr


@dataclass(frozen=True)
class EBinop(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class EMul(Expr):
    # Exactly one literal integer factor, kept separate from the expression.
    factor: int
    arg: Expr


@dataclass(frozen=True)
class EIf(Expr):
    cond: Expr
    then: Expr
    els: Expr


E_TRUE = ELit(TRUE)
E_FALSE = ELit(FALSE)


def children(e: Expr) -> tuple:
    if isinstance(e, (ELit, EVar, ESlot)):
        return ()
    if isinstance(e, ESet):
        return e.elems
    if isinstance(e, ERecord):
        return tuple(x for _, x in e.fields)
    if isinstance(e, (EGetAttr, EHas, EIs, ELike)):
        return (e.obj,)
    if isinstance(e, (EAnd, EOr)):
        return (e.left, e.right)
    if isinstance(e, (ENot, ENeg, EMul)):
        return (e.arg,)
    if isinstance(e, EBinop):
        return (e.left, e.right)
    if isinstance(e, EIf):
        return (e.cond, e.then, e.els)
    raise TypeError(f"not an expression: {e!r}")


def subexpressions(e: Expr) -> Iterator[Expr]:
    """Pre-order traversal including ``e`` itself."""
    yield e
    for c in children(e):
        yield from subexpressions(c)


def expr_depth(e: Expr) -> int:
    """Height of the expression tree (a leaf is 1), found without recursion."""
    depth, stack = 0, [(e, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in children(node))
    return depth


def expr_slots(e: Expr):
    return {s.name for s in subexpressions(e) if isinstance(s, ESlot)}


def substitute_action(e: Expr, action: EntityRef) -> Expr:
    """Replace every occurrence of the `action` variable with a literal ref."""
    if isinstance(e, EVar):
        return ELit(VEntity(action)) if e.name == "action" else e
    if isinstance(e, (ELit, ESlot)):
        return e
    if isinstance(e, ESet):
        return ESet(tuple(substitute_action(x, action) for x in e.elems))
    if isinstance(e, ERecord):
        return ERecord(tuple((k, substitute_action(x, action)) for k, x in e.fields))
    if isinstance(e, EGetAttr):
        return EGetAttr(substitute_action(e.obj, action), e.attr)
    if isinstance(e, EHas):
        return EHas(substitute_action(e.obj, action), e.attr)
    if isinstance(e, EIs):
        return EIs(substitute_action(e.obj, action), e.entity_type)
    if isinstance(e, ELike):
        return ELike(substitute_action(e.obj, action), e.pattern)
    if isinstance(e, EAnd):
        return EAnd(substitute_action(e.left, action), substitute_action(e.right, action))
    if isinstance(e, EOr):
        return EOr(substitute_action(e.left, action), substitute_action(e.right, action))
    if isinstance(e, ENot):
        return ENot(substitute_action(e.arg, action))
    if isinstance(e, ENeg):
        return ENeg(substitute_action(e.arg, action))
    if isinstance(e, EMul):
        return EMul(e.factor, substitute_action(e.arg, action))
    if isinstance(e, EBinop):
        return EBinop(e.op, substitute_action(e.left, action), substitute_action(e.right, action))
    if isinstance(e, EIf):
        return EIf(
            substitute_action(e.cond, action),
            substitute_action(e.then, action),
            substitute_action(e.els, action),
        )
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class Effect(Enum):
    PERMIT = "permit"
    FORBID = "forbid"


class CondKind(Enum):
    WHEN = "when"
    UNLESS = "unless"


@dataclass(frozen=True)
class SlotRef:
    name: str  # "?principal" | "?resource"


ScopeTarget = Union[EntityRef, SlotRef]


class Scope:
    __slots__ = ()


@dataclass(frozen=True)
class ScopeAny(Scope):
    pass


@dataclass(frozen=True)
class ScopeEq(Scope):
    target: ScopeTarget


@dataclass(frozen=True)
class ScopeIn(Scope):
    target: ScopeTarget


@dataclass(frozen=True)
class ScopeInSet(Scope):
    # Only legal on the action constraint; never holds slots.
    targets: tuple


ANY = ScopeAny()


@dataclass(frozen=True)
class Policy:
    id: str
    effect: Effect
    principal: Scope
    action: Scope
    resource: Scope
    conditions: tuple  # ((CondKind, Expr), ...)
    annotations: tuple = ()  # ((key, value), ...) in source order

    def annotation(self, key: str) -> Optional[str]:
        for k, v in self.annotations:
            if k == key:
                return v
        return None

    def slots(self) -> frozenset:
        """The slot names in the scope and conditions, found once per policy."""
        return self._slots

    @cached_property
    def _slots(self) -> frozenset:
        found = set()
        for scope in (self.principal, self.resource):
            if isinstance(scope, (ScopeEq, ScopeIn)) and isinstance(scope.target, SlotRef):
                found.add(scope.target.name)
        for _, e in self.conditions:
            found |= expr_slots(e)
        return frozenset(found)

    def is_template(self) -> bool:
        return bool(self.slots())

    @cached_property
    def compiled(self) -> Callable:
        """``compile_expr(toexp(self))``: desugared and compiled on first use,
        then kept with the policy.

        Raises NotClosed for a template (and then caches nothing)."""
        from .evaluator import compile_expr  # local import to avoid a cycle

        return compile_expr(toexp(self))


def _scope_expr(var: str, scope: Scope) -> Expr:
    if isinstance(scope, ScopeAny):
        return E_TRUE
    if isinstance(scope, ScopeEq):
        if isinstance(scope.target, SlotRef):
            raise NotClosed(f"slot {scope.target.name} in {var} constraint")
        return EBinop("==", EVar(var), ELit(VEntity(scope.target)))
    if isinstance(scope, ScopeIn):
        if isinstance(scope.target, SlotRef):
            raise NotClosed(f"slot {scope.target.name} in {var} constraint")
        return EBinop("in", EVar(var), ELit(VEntity(scope.target)))
    if isinstance(scope, ScopeInSet):
        return EBinop("in", EVar(var), ESet(tuple(ELit(VEntity(r)) for r in scope.targets)))
    raise TypeError(f"not a scope constraint: {scope!r}")


def _scope_expr_sloted(var: str, scope: Scope) -> Expr:
    # Internal variant for typechecking unlinked templates: slots stay as ESlot.
    if isinstance(scope, (ScopeEq, ScopeIn)) and isinstance(scope.target, SlotRef):
        op = "==" if isinstance(scope, ScopeEq) else "in"
        return EBinop(op, EVar(var), ESlot(scope.target.name))
    return _scope_expr(var, scope)


def toexp(policy: Policy, allow_slots: bool = False) -> Expr:
    """Desugar a policy to one expression.

    The conjunction is right-nested with scope conjuncts first:
    ``p && (a && (r && (c1 && (c2 && ...))))``.  Unconstrained scope parts
    contribute literal ``true``; `unless` conditions are negated.
    """
    mk = _scope_expr_sloted if allow_slots else _scope_expr
    conjuncts = [mk("principal", policy.principal), mk("action", policy.action), mk("resource", policy.resource)]
    for kind, cond in policy.conditions:
        conjuncts.append(ENot(cond) if kind is CondKind.UNLESS else cond)
    out = conjuncts[-1]
    for c in reversed(conjuncts[:-1]):
        out = EAnd(c, out)
    return out


def link(template: Policy, bindings: Mapping[str, EntityRef], link_id: Optional[str] = None) -> Policy:
    """Fill every slot of ``template`` from ``bindings``, yielding a closed policy."""
    slots = template.slots()
    for name in bindings:
        if name not in slots:
            raise UnknownSlot(f"template {template.id} has no slot {name}")
    for name in slots:
        if name not in bindings:
            raise UnboundSlot(f"no binding for slot {name} of template {template.id}")

    annotations = template.annotations
    if link_id is None:
        link_id = template.id
    else:
        annotations = tuple((k, v) for k, v in annotations if k != "id") + (("id", link_id),)
    return Policy(
        link_id,
        template.effect,
        _fill(template.principal, bindings),
        template.action,
        _fill(template.resource, bindings),
        template.conditions,
        annotations,
    )


def _fill(scope: Scope, bindings: Mapping[str, EntityRef]) -> Scope:
    if isinstance(scope, (ScopeEq, ScopeIn)) and isinstance(scope.target, SlotRef):
        return scope.__class__(bindings[scope.target.name])
    return scope


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class CedarType:
    __slots__ = ()


@dataclass(frozen=True)
class TBool(CedarType):
    pass


@dataclass(frozen=True)
class TTrue(CedarType):
    pass


@dataclass(frozen=True)
class TFalse(CedarType):
    pass


@dataclass(frozen=True)
class TLong(CedarType):
    pass


@dataclass(frozen=True)
class TString(CedarType):
    pass


@dataclass(frozen=True)
class TEntity(CedarType):
    name: str


@dataclass(frozen=True)
class TSet(CedarType):
    elem: CedarType


@dataclass(frozen=True)
class TRecordAttr(CedarType):
    name: str
    required: bool
    type: CedarType


@dataclass(frozen=True)
class TRecord(CedarType):
    # Sorted by attribute name; names unique.
    attrs: tuple

    def attr(self, name: str) -> Optional[TRecordAttr]:
        for a in self.attrs:
            if a.name == name:
                return a
        return None


BOOL = TBool()
TRUE_T = TTrue()
FALSE_T = TFalse()
LONG = TLong()
STRING = TString()
EMPTY_RECORD = TRecord(())


def trecord(attrs: Mapping[str, tuple]) -> TRecord:
    """Build a record type from ``{name: (required, type)}``."""
    return TRecord(tuple(TRecordAttr(k, req, ty) for k, (req, ty) in sorted(attrs.items())))


def render_type(t: CedarType) -> str:
    if isinstance(t, TBool):
        return "Bool"
    if isinstance(t, TTrue):
        return "True"
    if isinstance(t, TFalse):
        return "False"
    if isinstance(t, TLong):
        return "Long"
    if isinstance(t, TString):
        return "String"
    if isinstance(t, TEntity):
        return t.name
    if isinstance(t, TSet):
        return f"Set<{render_type(t.elem)}>"
    if isinstance(t, TRecord):
        inner = ", ".join(
            f"{a.name}{'' if a.required else '?'}: {render_type(a.type)}" for a in t.attrs
        )
        return "{" + inner + "}"
    raise TypeError(f"not a type: {t!r}")
