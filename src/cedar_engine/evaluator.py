"""Expression and policy evaluation.

Call-by-value, left to right.  Stuck states surface as EvalError with a kind
naming the failure class; the semantics is otherwise forgiving about entity
references that are absent from the store (equality and hierarchy tests work,
attribute projection does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

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
    EntityRef,
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


class _Evaluator:
    def __init__(self, store: EntityStore, request: Request):
        self.store = store
        self.request = request

    def _err(self, kind: EvalErrorKind, detail: str, at: Expr):
        from .parser import render_expr  # local import to avoid a cycle

        raise EvalError(kind, detail, trace=render_expr(at))

    def _long(self, v: Value, at: Expr) -> int:
        if not isinstance(v, VLong):
            self._err(EvalErrorKind.TYPE_MISMATCH, f"expected long, got {_type_name(v)}", at)
        return v.i

    def _bool(self, v: Value, at: Expr) -> bool:
        if not isinstance(v, VBool):
            self._err(EvalErrorKind.TYPE_MISMATCH, f"expected bool, got {_type_name(v)}", at)
        return v.b

    def _check64(self, i: int, at: Expr) -> VLong:
        if not (I64_MIN <= i <= I64_MAX):
            self._err(EvalErrorKind.ARITHMETIC_OVERFLOW, "signed 64-bit overflow", at)
        return VLong(i)

    def eval(self, e: Expr) -> Value:
        if isinstance(e, ELit):
            return e.value
        if isinstance(e, EVar):
            if e.name == "principal":
                return VEntity(self.request.principal)
            if e.name == "action":
                return VEntity(self.request.action)
            if e.name == "resource":
                return VEntity(self.request.resource)
            return self.request.context
        if isinstance(e, ESlot):
            self._err(EvalErrorKind.TYPE_MISMATCH, f"unfilled template slot {e.name}", e)
        if isinstance(e, ESet):
            return VSet(frozenset(self.eval(x) for x in e.elems))
        if isinstance(e, ERecord):
            return vrecord({k: self.eval(x) for k, x in e.fields})
        if isinstance(e, EGetAttr):
            v = self.eval(e.obj)
            if isinstance(v, VEntity):
                data = self.store.get(v.ref)
                if data is None:
                    self._err(EvalErrorKind.ENTITY_NOT_FOUND, f"entity {v.ref} does not exist", e)
                out = data.attrs.get(e.attr)
                if out is None:
                    self._err(
                        EvalErrorKind.ATTR_NOT_FOUND, f"{v.ref} has no attribute {e.attr!r}", e
                    )
                return out
            if isinstance(v, VRecord):
                out = v.get(e.attr)
                if out is None:
                    self._err(
                        EvalErrorKind.ATTR_NOT_FOUND, f"record has no attribute {e.attr!r}", e
                    )
                return out
            self._err(
                EvalErrorKind.TYPE_MISMATCH, f"attribute access on {_type_name(v)}", e
            )
        if isinstance(e, EHas):
            v = self.eval(e.obj)
            if isinstance(v, VEntity):
                data = self.store.get(v.ref)
                return VBool(data is not None and data.attrs.has(e.attr))
            if isinstance(v, VRecord):
                return VBool(v.has(e.attr))
            self._err(EvalErrorKind.TYPE_MISMATCH, f"has test on {_type_name(v)}", e)
        if isinstance(e, EIs):
            v = self.eval(e.obj)
            return VBool(isinstance(v, VEntity) and v.ref.entity_type == e.entity_type)
        if isinstance(e, ELike):
            v = self.eval(e.obj)
            if not isinstance(v, VString):
                self._err(EvalErrorKind.TYPE_MISMATCH, f"like on {_type_name(v)}", e)
            return VBool(e.pattern.matches(v.s))
        if isinstance(e, EAnd):
            if not self._bool(self.eval(e.left), e.left):
                return FALSE
            return VBool(self._bool(self.eval(e.right), e.right))
        if isinstance(e, EOr):
            if self._bool(self.eval(e.left), e.left):
                return TRUE
            return VBool(self._bool(self.eval(e.right), e.right))
        if isinstance(e, ENot):
            return VBool(not self._bool(self.eval(e.arg), e.arg))
        if isinstance(e, ENeg):
            return self._check64(-self._long(self.eval(e.arg), e.arg), e)
        if isinstance(e, EMul):
            return self._check64(e.factor * self._long(self.eval(e.arg), e.arg), e)
        if isinstance(e, EIf):
            if self._bool(self.eval(e.cond), e.cond):
                return self.eval(e.then)
            return self.eval(e.els)
        if isinstance(e, EBinop):
            return self._binop(e)
        raise TypeError(f"not an expression: {e!r}")

    def _entity_in(self, lhs: EntityRef, rhs: EntityRef) -> bool:
        # Reflexive even for absent entities; otherwise closed-set membership.
        return lhs == rhs or rhs in self.store.ancestors_of(lhs)

    def _binop(self, e: EBinop) -> Value:
        v1 = self.eval(e.left)
        v2 = self.eval(e.right)
        op = e.op
        if op == "==":
            return VBool(v1 == v2)
        if op == "+":
            return self._check64(self._long(v1, e.left) + self._long(v2, e.right), e)
        if op == "-":
            return self._check64(self._long(v1, e.left) - self._long(v2, e.right), e)
        if op == "<":
            return VBool(self._long(v1, e.left) < self._long(v2, e.right))
        if op == "<=":
            return VBool(self._long(v1, e.left) <= self._long(v2, e.right))
        if op == "in":
            if not isinstance(v1, VEntity):
                self._err(EvalErrorKind.TYPE_MISMATCH, f"in with {_type_name(v1)} left operand", e)
            if isinstance(v2, VEntity):
                return VBool(self._entity_in(v1.ref, v2.ref))
            if isinstance(v2, VSet):
                for elem in v2.elems:
                    if not isinstance(elem, VEntity):
                        self._err(
                            EvalErrorKind.TYPE_MISMATCH,
                            f"in with a set containing {_type_name(elem)}",
                            e,
                        )
                return VBool(any(self._entity_in(v1.ref, elem.ref) for elem in v2.elems))
            self._err(EvalErrorKind.TYPE_MISMATCH, f"in with {_type_name(v2)} right operand", e)
        if op == "contains":
            if not isinstance(v1, VSet):
                self._err(EvalErrorKind.TYPE_MISMATCH, f"contains on {_type_name(v1)}", e)
            return VBool(v2 in v1.elems)
        if op == "containsAny":
            if not (isinstance(v1, VSet) and isinstance(v2, VSet)):
                self._err(EvalErrorKind.TYPE_MISMATCH, "containsAny expects two sets", e)
            return VBool(bool(v1.elems & v2.elems))
        if op == "containsAll":
            if not (isinstance(v1, VSet) and isinstance(v2, VSet)):
                self._err(EvalErrorKind.TYPE_MISMATCH, "containsAll expects two sets", e)
            return VBool(v2.elems <= v1.elems)
        raise TypeError(f"unknown operator {op}")


def evaluate(expr: Expr, store: EntityStore, request: Request) -> Value:
    """Evaluate a closed expression; raises EvalError on stuck states."""
    return _Evaluator(store, request).eval(expr)


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
        v = evaluate(policy.body, store, request)
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
