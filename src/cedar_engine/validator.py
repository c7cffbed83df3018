"""Schema-based policy validation.

A policy is checked once per request environment (one environment per
action and allowed principal/resource type pair), where the `action`
variable denotes the environment's action.  The checker tracks
boolean singleton types (True/False) to prune dead branches and a
capability set recording which optional attributes a `has` test has
proven present on the current control path.  `!`, `&&` and `||` have rules
of their own that share the `if` rule's logic: each is typed as the
conditional it means (`a || b` as `if a then true else (if b then true else
false)`), so `&&` carries the capabilities its left operand proves to its
right one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Mapping, Optional

from .ast import (
    BOOL,
    CedarError,
    CedarType,
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
    FALSE_T,
    LONG,
    Policy,
    STRING,
    Scope,
    ScopeAny,
    ScopeEq,
    ScopeIn,
    ScopeInSet,
    TBool,
    TEntity,
    TFalse,
    TLong,
    TRecord,
    TRecordAttr,
    TSet,
    TString,
    TTrue,
    TRUE_T,
    VBool,
    VEntity,
    VLong,
    VString,
    Value,
    render_type,
)

# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntityTypeDecl:
    """Attribute record type plus the set of allowed ancestor entity types."""

    attrs: TRecord
    parents: frozenset


@dataclass(frozen=True)
class ActionDecl:
    ref: EntityRef
    principal_types: tuple
    resource_types: tuple
    context: TRecord
    parents: tuple  # direct action-group parents


@dataclass(frozen=True)
class Schema:
    entity_types: Mapping  # name -> EntityTypeDecl
    actions: Mapping  # EntityRef -> ActionDecl

    def entity(self, name: str) -> Optional[EntityTypeDecl]:
        return self.entity_types.get(name)

    def action_ancestors(self, ref: EntityRef) -> frozenset:
        """Transitive closure of the action-group parent relation."""
        seen = set()
        stack = [ref]
        while stack:
            decl = self.actions.get(stack.pop())
            if decl is None:
                continue
            for p in decl.parents:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return frozenset(seen)

    def action_in(self, lhs: EntityRef, rhs: EntityRef) -> bool:
        return lhs == rhs or rhs in self.action_ancestors(lhs)


class SchemaError(CedarError):
    """The schema is not well-formed.  ``reference``, where there is one, is
    the (declaration, name) pair at fault: an entity type name or action
    ref, and the name its declaration refers to."""

    def __init__(self, message: str, reference: Optional[tuple] = None):
        super().__init__(message)
        self.reference = reference


def check_schema(schema: Schema) -> None:
    """Raise SchemaError on undefined type references or action-group cycles."""

    def check_type(t: CedarType, owner, where: str) -> None:
        if isinstance(t, TEntity):
            if t.name not in schema.entity_types:
                raise SchemaError(f"unknown entity type {t.name} in {where}", (owner, t.name))
        elif isinstance(t, TSet):
            check_type(t.elem, owner, where)
        elif isinstance(t, TRecord):
            for a in t.attrs:
                check_type(a.type, owner, where)

    for name, decl in schema.entity_types.items():
        check_type(decl.attrs, name, f"attributes of entity {name}")
        # Sorted, so that every run names the same unknown parent first.
        for p in sorted(decl.parents):
            if p not in schema.entity_types:
                raise SchemaError(f"unknown entity type {p} in parents of entity {name}", (name, p))
    for ref, decl in schema.actions.items():
        for t in decl.principal_types + decl.resource_types:
            if t not in schema.entity_types:
                raise SchemaError(f"unknown entity type {t} in appliesTo of {ref}", (ref, t))
        check_type(decl.context, ref, f"context of {ref}")

    # Action-group cycle detection over direct parents.
    state: dict = {}

    def visit(ref: EntityRef, child: Optional[EntityRef]) -> None:
        mark = state.get(ref)
        if mark == "done":
            return
        if mark == "active":
            raise SchemaError(f"cyclic action-group membership at {ref}", (child, ref))
        state[ref] = "active"
        decl = schema.actions.get(ref)
        if decl is not None:
            for p in decl.parents:
                visit(p, ref)
        state[ref] = "done"

    for ref in schema.actions:
        visit(ref, None)


@dataclass(frozen=True)
class RequestEnv:
    principal_type: str
    action: EntityRef
    resource_type: str
    context_type: TRecord

    def describe(self) -> str:
        return f"<{self.principal_type}, {self.action}, {self.resource_type}>"


def environments(schema: Schema) -> list:
    """One environment per action and (principal type, resource type) pair."""
    envs = []
    for ref, decl in schema.actions.items():
        for pt in decl.principal_types:
            for rt in decl.resource_types:
                envs.append(RequestEnv(pt, ref, rt, decl.context))
    return envs


# ---------------------------------------------------------------------------
# Capabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Caps:
    """A set of (expression, attribute) pairs proven present, or the top set.

    False-typed expressions grant the top capability: the grant is vacuous
    because the expression never evaluates to true, and representing it
    symbolically keeps capability sets finite (top absorbs under union and
    disappears under intersection).
    """

    is_top: bool = False
    items: frozenset = frozenset()

    def union(self, other: "Caps") -> "Caps":
        if self.is_top or other.is_top:
            return CAPS_TOP
        return Caps(False, self.items | other.items)

    def inter(self, other: "Caps") -> "Caps":
        if self.is_top:
            return other
        if other.is_top:
            return self
        return Caps(False, self.items & other.items)

    def has(self, obj: Expr, attr: str) -> bool:
        return self.is_top or (obj, attr) in self.items


CAPS_NONE = Caps()
CAPS_TOP = Caps(is_top=True)


# ---------------------------------------------------------------------------
# Subtyping and joins
# ---------------------------------------------------------------------------


def is_subtype(a: CedarType, b: CedarType) -> bool:
    if a == b:
        return True
    if isinstance(a, (TTrue, TFalse)) and isinstance(b, TBool):
        return True
    if isinstance(a, TSet) and isinstance(b, TSet):
        return is_subtype(a.elem, b.elem)
    if isinstance(a, TRecord) and isinstance(b, TRecord):
        # Depth subtyping only: same attribute names, pointwise subtypes,
        # required may become optional.
        if [x.name for x in a.attrs] != [x.name for x in b.attrs]:
            return False
        for xa, xb in zip(a.attrs, b.attrs):
            if xb.required and not xa.required:
                return False
            if not is_subtype(xa.type, xb.type):
                return False
        return True
    return False


def join(a: CedarType, b: CedarType) -> Optional[CedarType]:
    """Least common supertype, or None when the types are incomparable."""
    if a == b:
        return a
    boolish = (TBool, TTrue, TFalse)
    if isinstance(a, boolish) and isinstance(b, boolish):
        return BOOL
    if isinstance(a, TSet) and isinstance(b, TSet):
        j = join(a.elem, b.elem)
        return None if j is None else TSet(j)
    if isinstance(a, TRecord) and isinstance(b, TRecord):
        if [x.name for x in a.attrs] != [x.name for x in b.attrs]:
            return None
        attrs = []
        for xa, xb in zip(a.attrs, b.attrs):
            j = join(xa.type, xb.type)
            if j is None:
                return None
            attrs.append(TRecordAttr(xa.name, xa.required and xb.required, j))
        return TRecord(tuple(attrs))
    return None


# ---------------------------------------------------------------------------
# The typing judgment
# ---------------------------------------------------------------------------


class TypeErrorKind(Enum):
    NOT_COMPARABLE = "NotComparable"
    MISSING_ATTRIBUTE = "MissingAttribute"
    CAPABILITY_REQUIRED = "CapabilityRequired"
    HETEROGENEOUS_SET = "HeterogeneousSet"
    UNKNOWN_ENTITY_TYPE = "UnknownEntityType"
    NON_BOOLEAN_GUARD = "NonBooleanGuard"
    EMPTY_SET_LITERAL = "EmptySetLiteral"


class PolicyTypeError(CedarError):
    def __init__(self, kind: TypeErrorKind, detail: str, at: Optional[Expr] = None):
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.detail = detail
        self.at = at


def value_type(v: Value) -> CedarType:
    """The type of an `ELit`'s value: a Bool, Long, String or entity."""
    if isinstance(v, VBool):
        return TRUE_T if v.b else FALSE_T
    if isinstance(v, VLong):
        return LONG
    if isinstance(v, VString):
        return STRING
    return TEntity(v.ref.entity_type)


def action_literal(e: Expr, env: RequestEnv, schema: Schema) -> Optional[EntityRef]:
    """The action an expression names in ``env``, or None.  The `action`
    variable names ``env.action``; an entity literal names an action when its
    type is an action type or the schema declares it."""
    if isinstance(e, EVar) and e.name == "action":
        return env.action
    if isinstance(e, ELit) and isinstance(e.value, VEntity):
        ref = e.value.ref
        if ref.is_action() or ref in schema.actions:
            return ref
    return None


def action_test(
    op: str, lhs: Optional[EntityRef], right: Expr, env: RequestEnv, schema: Schema
) -> Optional[bool]:
    """``left == right`` or ``left in right`` decided in ``env`` when both
    sides name actions (the right of `in` may be a set literal of actions),
    or None.  ``lhs`` is the left operand's `action_literal`.  The validator
    types the answer as a singleton and the symbolic compiler folds it to a
    literal."""
    if lhs is None:
        return None
    if op == "in" and isinstance(right, ESet):
        rhs = [action_literal(x, env, schema) for x in right.elems]
    else:
        rhs = [action_literal(right, env, schema)]
    if any(r is None for r in rhs):
        return None
    if op == "==":
        return lhs == rhs[0]
    return any(schema.action_in(lhs, r) for r in rhs)


def _singleton(b: bool):
    """The type and capability of an expression statically known to be ``b``."""
    return (TRUE_T, CAPS_NONE) if b else (FALSE_T, CAPS_TOP)


def _true(caps: Caps):
    """The `true` branch of a connective: typed as the literal is."""
    return _singleton(True)


def _false(caps: Caps):
    """The `false` branch of a connective: typed as the literal is."""
    return _singleton(False)


class _Checker:
    def __init__(self, env: RequestEnv, schema: Schema):
        self.env = env
        self.schema = schema
        self.action = ELit(VEntity(env.action))

    def _ground(self, x):
        """An expression (or a tuple of them, or a field) with `action`
        written as the environment's action literal.  The identity rule of
        `==` and capability keys compare expressions in this form: `action`
        and that literal evaluate alike."""
        if isinstance(x, EVar) and x.name == "action":
            return self.action
        if isinstance(x, tuple):
            return tuple(map(self._ground, x))
        if isinstance(x, Expr) and not isinstance(x, (ELit, EVar, ESlot)):
            return replace(x, **{f.name: self._ground(getattr(x, f.name)) for f in fields(x)})
        return x

    # -- helpers ----------------------------------------------------------

    def _attribute(self, t: CedarType, attr: str, at: Expr):
        """Resolve an attribute against a record or entity type.

        Returns (required, type) or None when the attribute is statically
        absent.  Raises for types that cannot carry attributes.
        """
        if isinstance(t, TRecord):
            a = t.attr(attr)
            return None if a is None else (a.required, a.type)
        if isinstance(t, TEntity):
            decl = self.schema.entity(t.name)
            if decl is None:
                raise PolicyTypeError(
                    TypeErrorKind.UNKNOWN_ENTITY_TYPE, f"entity type {t.name} is not declared", at
                )
            a = decl.attrs.attr(attr)
            return None if a is None else (a.required, a.type)
        raise PolicyTypeError(
            TypeErrorKind.NOT_COMPARABLE, f"attribute test on {render_type(t)}", at
        )

    def _require_boolish(self, t: CedarType, at: Expr) -> None:
        if not is_subtype(t, BOOL):
            raise PolicyTypeError(
                TypeErrorKind.NON_BOOLEAN_GUARD, f"guard has type {render_type(t)}", at
            )

    # -- the judgment ------------------------------------------------------

    def check(self, e: Expr, caps: Caps):
        if isinstance(e, ELit):
            t = value_type(e.value)
            return (t, CAPS_TOP if isinstance(t, TFalse) else CAPS_NONE)
        if isinstance(e, EVar):
            if e.name == "principal":
                return (TEntity(self.env.principal_type), CAPS_NONE)
            if e.name == "resource":
                return (TEntity(self.env.resource_type), CAPS_NONE)
            if e.name == "context":
                return (self.env.context_type, CAPS_NONE)
            return (TEntity(self.env.action.entity_type), CAPS_NONE)
        if isinstance(e, ESlot):
            # Unlinked templates: the slot stands for an entity of the
            # environment's principal/resource type.
            if e.name == "?principal":
                return (TEntity(self.env.principal_type), CAPS_NONE)
            return (TEntity(self.env.resource_type), CAPS_NONE)
        if isinstance(e, ESet):
            if not e.elems:
                raise PolicyTypeError(
                    TypeErrorKind.EMPTY_SET_LITERAL, "empty set literal has no type", e
                )
            out = None
            for elem in e.elems:
                t, _ = self.check(elem, caps)
                out = t if out is None else join(out, t)
                if out is None:
                    raise PolicyTypeError(
                        TypeErrorKind.HETEROGENEOUS_SET,
                        "set literal elements have no common type",
                        e,
                    )
            return (TSet(out), CAPS_NONE)
        if isinstance(e, ERecord):
            attrs = []
            for k, x in e.fields:
                t, _ = self.check(x, caps)
                attrs.append(TRecordAttr(k, True, t))
            return (TRecord(tuple(sorted(attrs, key=lambda a: a.name))), CAPS_NONE)
        if isinstance(e, EGetAttr):
            t_obj, _ = self.check(e.obj, caps)
            found = self._attribute(t_obj, e.attr, e)
            if found is None:
                raise PolicyTypeError(
                    TypeErrorKind.MISSING_ATTRIBUTE,
                    f"{render_type(t_obj)} has no attribute {e.attr}",
                    e,
                )
            required, t_attr = found
            if not required and not caps.has(self._ground(e.obj), e.attr):
                raise PolicyTypeError(
                    TypeErrorKind.CAPABILITY_REQUIRED,
                    f"optional attribute {e.attr} accessed without a preceding has check",
                    e,
                )
            return (t_attr, CAPS_NONE)
        if isinstance(e, EHas):
            t_obj, _ = self.check(e.obj, caps)
            found = self._attribute(t_obj, e.attr, e)
            if found is None:
                return _singleton(False)
            required, _ = found
            if required:
                return _singleton(True)
            return (BOOL, Caps(False, frozenset({(self._ground(e.obj), e.attr)})))
        if isinstance(e, EIs):
            t_obj, _ = self.check(e.obj, caps)
            if not isinstance(t_obj, TEntity):
                raise PolicyTypeError(
                    TypeErrorKind.NOT_COMPARABLE, f"is test on {render_type(t_obj)}", e
                )
            return _singleton(t_obj.name == e.entity_type)
        if isinstance(e, ELike):
            t_obj, _ = self.check(e.obj, caps)
            if not isinstance(t_obj, TString):
                raise PolicyTypeError(
                    TypeErrorKind.NOT_COMPARABLE, f"like on {render_type(t_obj)}", e
                )
            return (BOOL, CAPS_NONE)
        if isinstance(e, ENot):
            return self._if(e.arg, caps, _false, _true, e)
        if isinstance(e, EAnd):
            return self._if(e.left, caps, partial(self._truth, e.right), _false, e)
        if isinstance(e, EOr):
            return self._if(e.left, caps, _true, partial(self._truth, e.right), e)
        if isinstance(e, ENeg):
            t, _ = self.check(e.arg, caps)
            if not isinstance(t, TLong):
                raise PolicyTypeError(
                    TypeErrorKind.NOT_COMPARABLE, f"negation of {render_type(t)}", e
                )
            return (LONG, CAPS_NONE)
        if isinstance(e, EMul):
            t, _ = self.check(e.arg, caps)
            if not isinstance(t, TLong):
                raise PolicyTypeError(
                    TypeErrorKind.NOT_COMPARABLE, f"multiplication of {render_type(t)}", e
                )
            return (LONG, CAPS_NONE)
        if isinstance(e, EIf):
            return self._if(e.cond, caps, partial(self.check, e.then), partial(self.check, e.els), e)
        if isinstance(e, EBinop):
            return self._binop(e, caps)
        raise TypeError(f"not an expression: {e!r}")

    def _if(self, cond: Expr, caps: Caps, then: Callable, els: Callable, at: Expr):
        """`if cond then .. else ..`, where `then` and `els` type a branch
        under the capabilities they are given: the then-branch under those
        `cond` proves.  A branch a singleton-typed guard rules out is never
        typed.  `at` is the expression an incompatible join is reported at."""
        t1, eps1 = self.check(cond, caps)
        self._require_boolish(t1, cond)
        if isinstance(t1, TTrue):
            t2, eps2 = then(caps.union(eps1))
            return (t2, eps1.union(eps2))
        if isinstance(t1, TFalse):
            return els(caps)
        t2, eps2 = then(caps.union(eps1))
        t3, eps3 = els(caps)
        t = join(t2, t3)
        if t is None:
            raise PolicyTypeError(
                TypeErrorKind.NOT_COMPARABLE,
                f"branches have incompatible types {render_type(t2)} and {render_type(t3)}",
                at,
            )
        return (t, eps1.union(eps2).inter(eps3))

    def _truth(self, e: Expr, caps: Caps):
        """`if e then true else false`: the right operand of `&&` and `||`."""
        return self._if(e, caps, _true, _false, e)

    def _binop(self, e: EBinop, caps: Caps):
        op = e.op
        if op in ("+", "-", "<", "<="):
            t1, _ = self.check(e.left, caps)
            t2, _ = self.check(e.right, caps)
            if not (isinstance(t1, TLong) and isinstance(t2, TLong)):
                raise PolicyTypeError(
                    TypeErrorKind.NOT_COMPARABLE,
                    f"{op} on {render_type(t1)} and {render_type(t2)}",
                    e,
                )
            return (LONG if op in ("+", "-") else BOOL, CAPS_NONE)
        if op == "==":
            return self._eq(e, caps)
        if op == "in":
            return self._in(e, caps)
        if op in ("contains", "containsAny", "containsAll"):
            t1, _ = self.check(e.left, caps)
            t2, _ = self.check(e.right, caps)
            if not isinstance(t1, TSet):
                raise PolicyTypeError(
                    TypeErrorKind.NOT_COMPARABLE, f"{op} on {render_type(t1)}", e
                )
            if op == "contains":
                if join(t1.elem, t2) is None:
                    raise PolicyTypeError(
                        TypeErrorKind.NOT_COMPARABLE,
                        f"contains of {render_type(t2)} in {render_type(t1)}",
                        e,
                    )
            else:
                if not isinstance(t2, TSet) or join(t1.elem, t2.elem) is None:
                    raise PolicyTypeError(
                        TypeErrorKind.NOT_COMPARABLE,
                        f"{op} on {render_type(t1)} and {render_type(t2)}",
                        e,
                    )
            return (BOOL, CAPS_NONE)
        raise TypeError(f"unknown operator {op}")

    def _eq(self, e: EBinop, caps: Caps):
        t1, _ = self.check(e.left, caps)
        t2, _ = self.check(e.right, caps)
        if self._ground(e.left) == self._ground(e.right):
            # Syntactically identical expressions evaluate to equal values.
            return _singleton(True)
        lhs = action_literal(e.left, self.env, self.schema)
        decided = action_test("==", lhs, e.right, self.env, self.schema)
        if decided is not None:
            return _singleton(decided)
        if isinstance(t1, TEntity) and isinstance(t2, TEntity):
            if t1.name != t2.name:
                return _singleton(False)
            lit1 = isinstance(e.left, ELit) and isinstance(e.left.value, VEntity)
            lit2 = isinstance(e.right, ELit) and isinstance(e.right.value, VEntity)
            if lit1 and lit2:
                return _singleton(e.left.value.ref == e.right.value.ref)
            return (BOOL, CAPS_NONE)
        if join(t1, t2) is None:
            raise PolicyTypeError(
                TypeErrorKind.NOT_COMPARABLE,
                f"== on {render_type(t1)} and {render_type(t2)}",
                e,
            )
        return (BOOL, CAPS_NONE)

    def _in(self, e: EBinop, caps: Caps):
        t1, _ = self.check(e.left, caps)
        if not isinstance(t1, TEntity):
            raise PolicyTypeError(
                TypeErrorKind.NOT_COMPARABLE, f"in with left operand {render_type(t1)}", e
            )
        lhs = action_literal(e.left, self.env, self.schema)
        decided = action_test("in", lhs, e.right, self.env, self.schema)
        if decided is not None:
            return _singleton(decided)
        if lhs is not None:
            # Actions only ever have action ancestors.
            t2, _ = self.check(e.right, caps)
            if isinstance(t2, TEntity) or (isinstance(t2, TSet) and isinstance(t2.elem, TEntity)):
                return _singleton(False)
            raise PolicyTypeError(
                TypeErrorKind.NOT_COMPARABLE, f"in with right operand {render_type(t2)}", e
            )
        t2, _ = self.check(e.right, caps)
        if isinstance(t2, TSet) and isinstance(t2.elem, TEntity):
            rhs_type = t2.elem.name
        elif isinstance(t2, TEntity):
            rhs_type = t2.name
        else:
            raise PolicyTypeError(
                TypeErrorKind.NOT_COMPARABLE, f"in with right operand {render_type(t2)}", e
            )
        decl = self.schema.entity(t1.name)
        if decl is None:
            raise PolicyTypeError(
                TypeErrorKind.UNKNOWN_ENTITY_TYPE, f"entity type {t1.name} is not declared", e
            )
        if rhs_type != t1.name and rhs_type not in decl.parents:
            return _singleton(False)
        return (BOOL, CAPS_NONE)


def typecheck(expr: Expr, env: RequestEnv, schema: Schema):
    """Type an expression in one environment, with no capability proven yet.

    The `action` variable denotes the environment's action: where that is
    `Action::"view"`, `action == Action::"view"` types as
    `Action::"view" == Action::"view"` does.  Returns (type, capability) or
    raises PolicyTypeError.
    """
    return _Checker(env, schema).check(expr, CAPS_NONE)


# ---------------------------------------------------------------------------
# Whole-set validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvResult:
    policy_id: str
    env: RequestEnv
    ok: bool
    type: Optional[CedarType] = None
    error_kind: Optional[TypeErrorKind] = None
    error_detail: Optional[str] = None


@dataclass(frozen=True)
class ValidationReport:
    results: tuple
    warnings: tuple  # ((policy_id, "AlwaysFalse" | "AlwaysTrue"), ...)

    @property
    def valid(self) -> bool:
        return all(r.ok for r in self.results)

    def errors(self) -> list:
        return [r for r in self.results if not r.ok]


def matching_actions(schema: Schema, scope: Scope) -> list:
    """Actions the policy's action constraint can match, in schema order."""
    out = []
    for ref in schema.actions:
        if isinstance(scope, ScopeAny):
            out.append(ref)
        elif isinstance(scope, ScopeEq):
            if scope.target == ref:
                out.append(ref)
        elif isinstance(scope, ScopeIn):
            if schema.action_in(ref, scope.target):
                out.append(ref)
        elif isinstance(scope, ScopeInSet):
            if any(schema.action_in(ref, t) for t in scope.targets):
                out.append(ref)
    return out


def validate(policies: Iterable[Policy], schema: Schema) -> ValidationReport:
    """Validate closed policies and unlinked templates against a schema."""
    results = []
    warnings = []
    envs_of: dict = {}  # action -> its environments, in schema order
    for env in environments(schema):
        envs_of.setdefault(env.action, []).append(env)
    for policy in policies:
        expr = policy.desugared
        actions = matching_actions(schema, policy.action)
        envs = [env for action in actions for env in envs_of.get(action, ())]
        if not envs:
            warnings.append((policy.id, "AlwaysFalse"))
            continue
        types = []
        for env in envs:
            try:
                t, _ = typecheck(expr, env, schema)
                results.append(EnvResult(policy.id, env, True, type=t))
                types.append(t)
            except PolicyTypeError as err:
                results.append(
                    EnvResult(policy.id, env, False, error_kind=err.kind, error_detail=err.detail)
                )
        if types and len(types) == len(envs):
            if all(isinstance(t, TFalse) for t in types):
                warnings.append((policy.id, "AlwaysFalse"))
            elif all(isinstance(t, TTrue) for t in types):
                warnings.append((policy.id, "AlwaysTrue"))
    return ValidationReport(tuple(results), tuple(warnings))
