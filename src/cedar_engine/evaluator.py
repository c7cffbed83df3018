"""Expression and policy evaluation.

Call-by-value, left to right.  Stuck states surface as EvalError with a kind
naming the failure class; the semantics is otherwise forgiving about entity
references that are absent from the store (equality and hierarchy tests work,
attribute projection does not).

Expressions are compiled, not interpreted: ``compile_expr`` turns a tree into
closures once, and each policy keeps its compiled body (``Policy.compiled``),
so a request pays only for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .ast import (
    CedarError,
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
    Expr,
    FALSE,
    I64_MAX,
    I64_MIN,
    Policy,
    TRUE,
    VBool,
    VEntity,
    VLong,
    VRecord,
    VSet,
    VString,
    Value,
    vrecord,
)
from .entities import EntityStore, Request


class EvalErrorKind(Enum):
    ENTITY_NOT_FOUND = "EntityNotFound"
    ATTR_NOT_FOUND = "AttrNotFound"
    TYPE_MISMATCH = "TypeMismatch"
    ARITHMETIC_OVERFLOW = "ArithmeticOverflow"


class EvalError(CedarError):
    def __init__(self, kind: EvalErrorKind, detail: str, trace: str = ""):
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.detail = detail
        self.trace = trace


def _type_name(v: Value) -> str:
    return {
        VBool: "bool",
        VLong: "long",
        VString: "string",
        VEntity: "entity",
        VSet: "set",
        VRecord: "record",
    }[type(v)]


def _fail(kind: EvalErrorKind, detail: str, at: Expr):
    from .parser import render_expr  # local import to avoid a cycle

    raise EvalError(kind, detail, trace=render_expr(at))


def _long(v: Value, at: Expr) -> int:
    if not isinstance(v, VLong):
        _fail(EvalErrorKind.TYPE_MISMATCH, f"expected long, got {_type_name(v)}", at)
    return v.i


def _bool(v: Value, at: Expr) -> bool:
    if not isinstance(v, VBool):
        _fail(EvalErrorKind.TYPE_MISMATCH, f"expected bool, got {_type_name(v)}", at)
    return v.b


def _check64(i: int, at: Expr) -> VLong:
    if not (I64_MIN <= i <= I64_MAX):
        _fail(EvalErrorKind.ARITHMETIC_OVERFLOW, "signed 64-bit overflow", at)
    return VLong(i)


Compiled = Callable[[EntityStore, Request], Value]

_VARS = {
    "principal": lambda store, request: VEntity(request.principal),
    "action": lambda store, request: VEntity(request.action),
    "resource": lambda store, request: VEntity(request.resource),
    "context": lambda store, request: request.context,
}


def compile_expr(e: Expr) -> Compiled:
    """Walk ``e`` once and return a closure ``f(store, request) -> Value``.

    The node's class is looked at here, not on every evaluation.  The closure
    raises the same EvalError, with the same trace, as walking the tree would."""
    cls = e.__class__
    if cls is ELit:
        value = e.value
        return lambda store, request: value
    if cls is EVar:
        return _VARS.get(e.name, _VARS["context"])
    if cls is ESlot:
        return lambda store, request: _fail(EvalErrorKind.TYPE_MISMATCH, f"unfilled template slot {e.name}", e)
    if cls is ESet:
        elems = [compile_expr(x) for x in e.elems]
        return lambda store, request: VSet(frozenset([f(store, request) for f in elems]))
    if cls is ERecord:
        fields = [(k, compile_expr(x)) for k, x in e.fields]
        return lambda store, request: vrecord({k: f(store, request) for k, f in fields})
    if cls in _ON_OBJECT:
        obj, apply = compile_expr(e.obj), _ON_OBJECT[cls]
        return lambda store, request: apply(obj(store, request), store, e)
    if cls is EAnd or cls is EOr:
        left, right, stop = compile_expr(e.left), compile_expr(e.right), cls is EOr

        def run(store, request):
            if _bool(left(store, request), e.left) == stop:  # short-circuit
                return TRUE if stop else FALSE
            return TRUE if _bool(right(store, request), e.right) else FALSE

        return run
    if cls is ENot:
        arg = compile_expr(e.arg)
        return lambda store, request: FALSE if _bool(arg(store, request), e.arg) else TRUE
    if cls is ENeg:
        arg = compile_expr(e.arg)
        return lambda store, request: _check64(-_long(arg(store, request), e.arg), e)
    if cls is EMul:
        arg, factor = compile_expr(e.arg), e.factor
        return lambda store, request: _check64(factor * _long(arg(store, request), e.arg), e)
    if cls is EIf:
        cond, then, els = compile_expr(e.cond), compile_expr(e.then), compile_expr(e.els)
        return lambda store, request: (then if _bool(cond(store, request), e.cond) else els)(store, request)
    if cls is EBinop:
        left, right = compile_expr(e.left), compile_expr(e.right)
        if e.op == "==":
            return lambda store, request: TRUE if left(store, request) == right(store, request) else FALSE
        apply = _BINOPS.get(e.op)
        if apply is None:
            raise TypeError(f"unknown operator {e.op}")
        # Both operands are evaluated, left first, before either is type-checked.
        return lambda store, request: apply(left(store, request), right(store, request), store, e)
    raise TypeError(f"not an expression: {e!r}")


def evaluate(expr: Expr, store: EntityStore, request: Request) -> Value:
    """Evaluate a closed expression; raises EvalError on stuck states."""
    return compile_expr(expr)(store, request)


def _get_attr(v: Value, store: EntityStore, e: EGetAttr) -> Value:
    if isinstance(v, VEntity):
        data = store.get(v.ref)
        if data is None:
            _fail(EvalErrorKind.ENTITY_NOT_FOUND, f"entity {v.ref} does not exist", e)
        out = data.attrs.get(e.attr)
        if out is None:
            _fail(EvalErrorKind.ATTR_NOT_FOUND, f"{v.ref} has no attribute {e.attr!r}", e)
        return out
    if isinstance(v, VRecord):
        out = v.get(e.attr)
        if out is None:
            _fail(EvalErrorKind.ATTR_NOT_FOUND, f"record has no attribute {e.attr!r}", e)
        return out
    _fail(EvalErrorKind.TYPE_MISMATCH, f"attribute access on {_type_name(v)}", e)


def _has(v: Value, store: EntityStore, e: EHas) -> Value:
    if isinstance(v, VEntity):
        data = store.get(v.ref)
        return TRUE if data is not None and data.attrs.has(e.attr) else FALSE
    if isinstance(v, VRecord):
        return TRUE if v.has(e.attr) else FALSE
    _fail(EvalErrorKind.TYPE_MISMATCH, f"has test on {_type_name(v)}", e)


def _like(v: Value, store: EntityStore, e: ELike) -> Value:
    if not isinstance(v, VString):
        _fail(EvalErrorKind.TYPE_MISMATCH, f"like on {_type_name(v)}", e)
    return TRUE if e.pattern.matches(v.s) else FALSE


_ON_OBJECT = {
    EGetAttr: _get_attr,
    EHas: _has,
    EIs: lambda v, store, e: TRUE if isinstance(v, VEntity) and v.ref.entity_type == e.entity_type else FALSE,
    ELike: _like,
}


def _in(v1: Value, v2: Value, store: EntityStore, e: EBinop) -> Value:
    if not isinstance(v1, VEntity):
        _fail(EvalErrorKind.TYPE_MISMATCH, f"in with {_type_name(v1)} left operand", e)
    # Reflexive even for absent entities; otherwise closed-set membership.
    lhs, ancestors = v1.ref, store.ancestors_of(v1.ref)
    if isinstance(v2, VEntity):
        return TRUE if lhs == v2.ref or v2.ref in ancestors else FALSE
    if isinstance(v2, VSet):
        for elem in v2.elems:
            if not isinstance(elem, VEntity):
                _fail(EvalErrorKind.TYPE_MISMATCH, f"in with a set containing {_type_name(elem)}", e)
        return TRUE if any(lhs == x.ref or x.ref in ancestors for x in v2.elems) else FALSE
    _fail(EvalErrorKind.TYPE_MISMATCH, f"in with {_type_name(v2)} right operand", e)


def _contains(v1: Value, v2: Value, store: EntityStore, e: EBinop) -> Value:
    if not isinstance(v1, VSet):
        _fail(EvalErrorKind.TYPE_MISMATCH, f"contains on {_type_name(v1)}", e)
    return TRUE if v2 in v1.elems else FALSE


def _sets(v1: Value, v2: Value, e: EBinop) -> tuple:
    if not (isinstance(v1, VSet) and isinstance(v2, VSet)):
        _fail(EvalErrorKind.TYPE_MISMATCH, f"{e.op} expects two sets", e)
    return v1.elems, v2.elems


_BINOPS = {
    "+": lambda v1, v2, store, e: _check64(_long(v1, e.left) + _long(v2, e.right), e),
    "-": lambda v1, v2, store, e: _check64(_long(v1, e.left) - _long(v2, e.right), e),
    "<": lambda v1, v2, store, e: TRUE if _long(v1, e.left) < _long(v2, e.right) else FALSE,
    "<=": lambda v1, v2, store, e: TRUE if _long(v1, e.left) <= _long(v2, e.right) else FALSE,
    "in": _in,
    "contains": _contains,
    "containsAny": lambda v1, v2, store, e: FALSE if frozenset.isdisjoint(*_sets(v1, v2, e)) else TRUE,
    "containsAll": lambda v1, v2, store, e: TRUE if frozenset.issuperset(*_sets(v1, v2, e)) else FALSE,
}


class PolicyEvalStatus(Enum):
    SATISFIED = "satisfied"
    NOT_SATISFIED = "not-satisfied"
    ERRORED = "errored"


@dataclass(frozen=True)
class PolicyOutcome:
    status: PolicyEvalStatus
    error: Optional[EvalError] = None


SATISFIED = PolicyOutcome(PolicyEvalStatus.SATISFIED)
NOT_SATISFIED = PolicyOutcome(PolicyEvalStatus.NOT_SATISFIED)


def evaluate_policy(policy: Policy, store: EntityStore, request: Request) -> PolicyOutcome:
    """Satisfied iff the desugared policy evaluates to boolean true."""
    try:
        v = policy.compiled(store, request)
    except EvalError as err:
        return PolicyOutcome(PolicyEvalStatus.ERRORED, err)
    except CedarError as err:
        wrapped = EvalError(EvalErrorKind.TYPE_MISMATCH, str(err))
        return PolicyOutcome(PolicyEvalStatus.ERRORED, wrapped)
    if v == TRUE:
        return SATISFIED
    if v == FALSE:
        return NOT_SATISFIED
    # Desugared policies cannot produce non-boolean values, but map them to an
    # error rather than trusting that.
    bad = EvalError(EvalErrorKind.TYPE_MISMATCH, f"policy evaluated to {_type_name(v)}")
    return PolicyOutcome(PolicyEvalStatus.ERRORED, bad)
