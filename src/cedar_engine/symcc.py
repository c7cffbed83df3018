"""Symbolic compilation of well-typed expressions to SMT terms.

Types become SMT sorts (entities and records are datatypes, longs are 64-bit
bit-vectors), the request and store become uninterpreted constants and
functions, and every compiled expression is Option-wrapped so that `none`
marks a runtime error.  The `action` variable compiles to the environment's
action literal.  Statically-decided guards (notably the action comparisons
that `validator.action_test` decides) partially evaluate away, which mirrors
the validator's dead-branch pruning.  `!`, `&&` and `||` have rules of their
own that share the `if` rule's logic: each compiles to the term of the
conditional it means (`a && b` as `if a then (if b then true else false)
else false`), and an operand a folded guard rules out is never compiled.

Hierarchy well-formedness is grounded over the *footprint*: the entity-typed
subexpressions actually compiled.  Acyclicity and transitivity instances over
footprint terms replace quantified axioms, keeping every emitted assertion
quantifier-free.  Emitted scripts carry every instance; the bundled solver
is given only those its models violate (see `_decide`).
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

from .ast import (
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
    Effect,
    EntityRef,
    Expr,
    I64_MAX,
    I64_MIN,
    LONG,
    STRING,
    BOOL,
    TEntity,
    TRecord,
    TRecordAttr,
    TSet,
    VBool,
    VEntity,
    VLong,
    VRecord,
    VSet,
    VString,
    Value,
    WILDCARD,
    render_type,
)
from .authorizer import Decision, PolicySet, authorize
from .entities import EntityStore, HierarchyCycle, Request, build_store, merge_action_hierarchy
from .sexpr import RANKS
from .validator import RequestEnv, Schema, action_literal, action_test, environments, join
from .terms import (
    BOOL_S,
    BV64_S,
    FALSE_TERM,
    SOption,
    SSet,
    STRING_S,
    TApp,
    TBVLit,
    TBVOp,
    TBoolLit,
    TConst,
    TNone,
    TReAll,
    TReConcat,
    TSetEmpty,
    TSetInter,
    TSetMember,
    TSetSubset,
    TSome,
    TStrInRe,
    TStrLit,
    TStrToRe,
    Term,
    TRUE_TERM,
    mk_and2,
    mk_eq,
    mk_ifok,
    mk_implies,
    mk_is_some,
    mk_ite,
    mk_member,
    mk_not,
    mk_or,
    mk_or2,
    mk_set_literal,
    mk_val,
    term_sexpr,
)


class AnalysisError(CedarError):
    """Internal analysis failure (for example a counterexample that fails
    concrete re-verification)."""


class UnsupportedConstruct(AnalysisError):
    """The expression reached a corner the compiler does not encode, so the
    analysis cannot decide (for example a set whose elements would need
    re-encoding)."""


# Names the compiler never gives a declaration: SMT-LIB words and every
# built-in head the bundled solver ranks (an entity type `bvadd` must not
# declare a constructor the solver reads as `bvadd`).  `string` is among them
# because `(string x)` would read back as the string literal "x".
_SMT_RESERVED = {
    *(head for head in RANKS if isinstance(head, str)),
    "string",
    "Bool",
    "Int",
    "Real",
    "String",
    "Array",
    "Set",
    "Seq",
    "Option",
    "RegLan",
    "true",
    "false",
    "none",
    "assert",
    # SMT-LIB 2.6's reserved words
    *"_ ! as BINARY DECIMAL HEXADECIMAL NUMERAL STRING exists forall let match par".split(),
}


def _sanitize(name: str) -> str:
    out = "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in name.replace("::", "_"))
    if not out or out[0].isdigit():
        out = "T_" + out
    return out


def _lower_first(name: str) -> str:
    return name[:1].lower() + name[1:] if name else name


class _Names:
    def __init__(self):
        self.used = set(_SMT_RESERVED)

    def fresh(self, base: str) -> str:
        base = _sanitize(base)
        name = base
        n = 1
        while name in self.used:
            n += 1
            name = f"{base}_{n}"
        self.used.add(name)
        return name


@dataclass
class SymbolicEnv:
    """Declarations and the injective name map for one (schema, env) pair."""

    schema: Schema
    env: RequestEnv

    def __post_init__(self):
        self._names = _Names()
        self.entity_name: dict = {}
        self.entity_of_name: dict = {}
        self.record_name: dict = {}
        self.record_of_name: dict = {}
        self.datatypes: list = []  # (name, ((selector, sort), ...))
        self.selector_names: dict = {}  # (dt_name, attr) -> selector
        self.fn_sigs: dict = {}  # in declaration order
        self.attr_fn: dict = {}
        self.anc_fn: dict = {}
        self.const_sigs: dict = {}  # in declaration order
        self.var_consts: dict = {}  # var -> (name, sort)

    # -- datatypes ----------------------------------------------------------

    def ensure_entity(self, entity_type: str) -> str:
        """The name of the entity type's datatype, which is its sort."""
        name = self.entity_name.get(entity_type)
        if name is None:
            name = self._names.fresh(entity_type)
            self.entity_name[entity_type] = name
            self.entity_of_name[name] = entity_type
            eid = self._names.fresh("eid")
            self.selector_names[(name, "eid")] = eid
            self.datatypes.append((name, ((eid, STRING_S),)))
        return name

    def ensure_record(self, rec: TRecord, preferred: Optional[str] = None) -> str:
        name = self.record_name.get(rec)
        if name is None:
            fields = []
            pending = []
            for attr in rec.attrs:
                inner = self.encode_type(attr.type)
                sort = inner if attr.required else SOption(inner)
                pending.append((attr.name, sort))
            name = self._names.fresh(preferred or f"Record{len(self.record_name)}")
            self.record_name[rec] = name
            self.record_of_name[name] = rec
            for attr_name, sort in pending:
                sel = self._names.fresh(attr_name)
                self.selector_names[(name, attr_name)] = sel
                fields.append((sel, sort))
            self.datatypes.append((name, tuple(fields)))
        return name

    def encode_type(self, t: CedarType):
        if isinstance(t, TEntity):
            return self.ensure_entity(t.name)
        if isinstance(t, TRecord):
            return self.ensure_record(t)
        if isinstance(t, TSet):
            return SSet(self.encode_type(t.elem))
        if t == LONG:
            return BV64_S
        if t == STRING:
            return STRING_S
        # Bool and its singletons share the Bool sort.
        return BOOL_S

    def cedar_of_sort(self, s) -> CedarType:
        if s == BOOL_S:
            return BOOL
        if s == BV64_S:
            return LONG
        if s == STRING_S:
            return STRING
        if type(s) is tuple:  # payload sorts are never Option
            return TSet(self.cedar_of_sort(s[1]))
        if s in self.entity_of_name:
            return TEntity(self.entity_of_name[s])
        return self.record_of_name[s]

    # -- functions and constants --------------------------------------------

    def ensure_attr_fn(self, entity_type: str) -> str:
        name = self.attr_fn.get(entity_type)
        if name is None:
            decl = self.schema.entity_types[entity_type]
            es = self.ensure_entity(entity_type)
            rs = self.ensure_record(decl.attrs, preferred=f"{es}Record")
            name = self._names.fresh(_lower_first(es) + "Attrs")
            self.attr_fn[entity_type] = name
            self.fn_sigs[name] = ((es,), rs)
        return name

    def ensure_anc_fn(self, entity_type: str, ancestor_type: str) -> str:
        key = (entity_type, ancestor_type)
        name = self.anc_fn.get(key)
        if name is None:
            es = self.ensure_entity(entity_type)
            as_ = self.ensure_entity(ancestor_type)
            name = self._names.fresh(f"{_lower_first(es)}In{as_}")
            self.anc_fn[key] = name
            self.fn_sigs[name] = ((es,), SSet(as_))
        return name

    def declare_var(self, var: str, cedar_type: CedarType) -> None:
        sort = self.encode_type(cedar_type)
        name = self._names.fresh(var)
        self.const_sigs[name] = sort
        self.var_consts[var] = (name, sort)

    def var_const(self, var: str) -> Term:
        name, sort = self.var_consts[var]
        return TConst(name, sort)

    def parents(self, entity_type: str) -> frozenset:
        """The entity type's allowed parent types; none for a type the
        schema does not declare."""
        decl = self.schema.entity(entity_type)
        return decl.parents if decl is not None else frozenset()

    def selector(self, dt_name: str, attr: str) -> str:
        return self.selector_names[(dt_name, attr)]

    def signatures(self) -> dict:
        sigs = dict(self.fn_sigs)
        for dt_name, fields in self.datatypes:
            sigs[dt_name] = (tuple(s for _, s in fields), dt_name)
            for sel, sort in fields:
                sigs[sel] = ((dt_name,), sort)
        return sigs


def encode_types(schema: Schema, env: RequestEnv) -> SymbolicEnv:
    """Declare datatypes, attribute/ancestor functions, and request constants."""
    senv = SymbolicEnv(schema, env)
    for entity_type in schema.entity_types:
        senv.ensure_entity(entity_type)
    for entity_type, decl in schema.entity_types.items():
        senv.ensure_attr_fn(entity_type)
        for ancestor in sorted(decl.parents):
            senv.ensure_anc_fn(entity_type, ancestor)
    senv.declare_var("principal", TEntity(env.principal_type))
    senv.declare_var("resource", TEntity(env.resource_type))
    senv.declare_var("context", env.context_type)
    return senv


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


SOME_TRUE = TSome(TRUE_TERM)
SOME_FALSE = TSome(FALSE_TERM)


def _some_true() -> Term:
    return SOME_TRUE


def _some_false() -> Term:
    return SOME_FALSE


class _Compiler:
    def __init__(self, senv: SymbolicEnv, footprint: Optional[dict]):
        self.senv = senv
        self.footprint = footprint

    # -- entry --------------------------------------------------------------

    def compile(self, e: Expr) -> Term:
        out = self._go(e)
        if self.footprint is not None:
            option, inner = out.sort
            assert option == "Option"
            if type(inner) is str:
                entity_type = self.senv.entity_of_name.get(inner)
                if entity_type is not None and entity_type in self.senv.schema.entity_types:
                    self.footprint[out, entity_type] = None
        return out

    # -- helpers -------------------------------------------------------------

    def _value_term(self, v: Value) -> Term:
        """The term of an `ELit`'s value: a Bool, Long, String or entity."""
        if isinstance(v, VBool):
            return TBoolLit(v.b)
        if isinstance(v, VLong):
            return TBVLit(v.i)
        if isinstance(v, VString):
            return TStrLit(v.s)
        es = self.senv.ensure_entity(v.ref.entity_type)
        return TApp(es, (TStrLit(v.ref.entity_id),), es)

    def _field(self, attr: str, v: Term):
        """Resolve an attribute on a record or entity payload term.

        Returns (required, field term) or None when statically absent.
        """
        name = v.sort
        entity_type = self.senv.entity_of_name.get(name)
        if entity_type is not None:
            fn = self.senv.ensure_attr_fn(entity_type)
            _, rs = self.senv.fn_sigs[fn]
            return self._field(attr, TApp(fn, (v,), rs))
        a = self.senv.record_of_name[name].attr(attr)
        if a is None:
            return None
        inner = self.senv.encode_type(a.type)
        fsort = inner if a.required else SOption(inner)
        return (a.required, TApp(self.senv.selector(name, attr), (v,), fsort))

    def _unify(self, terms: list) -> Optional[list]:
        """Option-sorted terms coerced to the encoding of their Cedar types'
        join, or None when the types have no join.

        Operands of different encodings are reconciled here, and `contains`
        does the same one set level down: a record literal and a record with
        an optional attribute, say, have the same attribute names but
        different datatypes."""
        if all(t.sort == terms[0].sort for t in terms):
            return terms
        types = [self.senv.cedar_of_sort(t.sort[1]) for t in terms]
        target = types[0]
        for t in types[1:]:
            target = join(target, t)
            if target is None:
                return None
        return [self._coerce(t, source, target) for t, source in zip(terms, types)]

    def _coerce(self, opt_term: Term, source: CedarType, target: CedarType) -> Term:
        """Coerce an Option-sorted term of type `source` to the encoding of
        its supertype `target`."""
        if self.senv.encode_type(source) == self.senv.encode_type(target):
            return opt_term
        coerced = self._coerce_value(mk_val(opt_term), source, target)
        return mk_ifok(opt_term, TSome(coerced))

    def _coerce_value(self, v: Term, source: CedarType, target: CedarType) -> Term:
        if self.senv.encode_type(source) == self.senv.encode_type(target):
            return v
        if not (isinstance(source, TRecord) and isinstance(target, TRecord)):
            # Only sets and records nest types whose encodings can differ;
            # re-encoding each element of a set would need a quantifier.
            raise UnsupportedConstruct(
                f"comparing {render_type(source)} with {render_type(target)} "
                "would re-encode a set"
            )
        dst_sort = self.senv.ensure_record(target)
        args = []
        for sa, da in zip(source.attrs, target.attrs):
            field = self._field(sa.name, v)[1]
            if sa.required:
                coerced = self._coerce_value(field, sa.type, da.type)
                args.append(coerced if da.required else TSome(coerced))
            else:
                args.append(self._coerce(field, sa.type, da.type))
        return TApp(dst_sort, tuple(args), dst_sort)

    # -- the rules ------------------------------------------------------------

    def _go(self, e: Expr) -> Term:
        if isinstance(e, ELit):
            return TSome(self._value_term(e.value))
        if isinstance(e, EVar):
            if e.name == "action":
                return TSome(self._value_term(VEntity(self.senv.env.action)))
            return TSome(self.senv.var_const(e.name))
        if isinstance(e, ESlot):
            raise UnsupportedConstruct("template slots cannot be compiled; link the template first")
        if isinstance(e, ESet):
            # Validation rejects empty and heterogeneous set literals.
            elems = self._unify([self.compile(x) for x in e.elems])
            vals = sorted((mk_val(t) for t in elems), key=term_sexpr)
            out: Term = TSome(mk_set_literal(vals))
            for t in reversed(elems):
                out = mk_ifok(t, out)
            return out
        if isinstance(e, ERecord):
            parts = [(k, self.compile(x)) for k, x in e.fields]
            rec = TRecord(
                tuple(
                    sorted(
                        (
                            TRecordAttr(k, True, self.senv.cedar_of_sort(t.sort[1]))
                            for k, t in parts
                        ),
                        key=lambda a: a.name,
                    )
                )
            )
            rs = self.senv.ensure_record(rec)
            by_name = {k: mk_val(t) for k, t in parts}
            args = tuple(by_name[a.name] for a in rec.attrs)
            out = TSome(TApp(rs, args, rs))
            for _, t in reversed(parts):
                out = mk_ifok(t, out)
            return out
        if isinstance(e, EGetAttr):
            obj = self.compile(e.obj)
            # Validation rejects projections of absent attributes.
            required, f_term = self._field(e.attr, mk_val(obj))
            return mk_ifok(obj, TSome(f_term) if required else f_term)
        if isinstance(e, EHas):
            obj = self.compile(e.obj)
            found = self._field(e.attr, mk_val(obj))
            if found is None:
                return mk_ifok(obj, SOME_FALSE)
            required, f_term = found
            if required:
                return mk_ifok(obj, SOME_TRUE)
            return mk_ifok(obj, TSome(mk_is_some(f_term)))
        if isinstance(e, EIs):
            a = action_literal(e.obj, self.senv.env, self.senv.schema)
            if a is not None:
                return TSome(TBoolLit(a.entity_type == e.entity_type))
            obj = self.compile(e.obj)
            entity_type = self.senv.entity_of_name[obj.sort[1]]
            return mk_ifok(obj, TSome(TBoolLit(entity_type == e.entity_type)))
        if isinstance(e, ELike):
            obj = self.compile(e.obj)
            parts = [TReAll() if p is WILDCARD else TStrToRe(p) for p in e.pattern.parts]
            regex = TReConcat(parts) if parts else TStrToRe("")
            return mk_ifok(obj, TSome(TStrInRe(mk_val(obj), regex)))
        if isinstance(e, ENot):
            return self._if(self.compile(e.arg), _some_false, _some_true)
        if isinstance(e, EAnd):
            return self._if(self.compile(e.left), partial(self._truth, e.right), _some_false)
        if isinstance(e, EOr):
            return self._if(self.compile(e.left), _some_true, partial(self._truth, e.right))
        if isinstance(e, ENeg):
            arg = self.compile(e.arg)
            v = mk_val(arg)
            guard = mk_eq(v, TBVLit(I64_MIN))
            return mk_ifok(arg, mk_ite(guard, TNone(BV64_S), TSome(TBVOp("bvneg", (v,)))))
        if isinstance(e, EMul):
            return self._mul(e)
        if isinstance(e, EIf):
            return self._if(self.compile(e.cond), partial(self.compile, e.then), partial(self.compile, e.els))
        if isinstance(e, EBinop):
            return self._binop(e)
        raise TypeError(f"not an expression: {e!r}")

    def _if(self, cond: Term, then: Callable[[], Term], els: Callable[[], Term]) -> Term:
        """`if` over the compiled guard `cond`, with `then` and `els`
        compiling the branches when called.  A branch the guard folds away is
        never compiled, so it adds nothing to the footprint."""
        if cond is SOME_TRUE:
            return then()
        if cond is SOME_FALSE:
            return els()
        # Validation rejects branches whose types have no join.
        then_term, els_term = self._unify([then(), els()])
        return mk_ifok(cond, mk_ite(mk_val(cond), then_term, els_term))

    def _truth(self, e: Expr) -> Term:
        """`if e then true else false`: the right operand of `&&` and `||`."""
        return self._if(self.compile(e), _some_true, _some_false)

    def _mul(self, e: EMul) -> Term:
        arg = self.compile(e.arg)
        c = e.factor
        if c == 0:
            return mk_ifok(arg, TSome(TBVLit(0)))
        if c == 1:
            return arg
        v = mk_val(arg)
        if c == -1:
            guard = mk_eq(v, TBVLit(I64_MIN))
            return mk_ifok(arg, mk_ite(guard, TNone(BV64_S), TSome(TBVOp("bvneg", (v,)))))
        # The in-range operand interval is computable from the constant factor.
        if c > 0:
            lo, hi = _ceil_div(I64_MIN, c), I64_MAX // c
        else:
            lo, hi = _ceil_div(I64_MAX, c), I64_MIN // c
        overflow = mk_or2(
            TBVOp("bvslt", (v, TBVLit(lo))),
            TBVOp("bvslt", (TBVLit(hi), v)),
        )
        product = TBVOp("bvmul", (TBVLit(c), v))
        return mk_ifok(arg, mk_ite(overflow, TNone(BV64_S), TSome(product)))

    def _arith(self, op: str, e: EBinop) -> Term:
        left = self.compile(e.left)
        right = self.compile(e.right)
        a, b = mk_val(left), mk_val(right)
        zero = TBVLit(0)

        def neg(t: Term) -> Term:
            return TBVOp("bvslt", (t, zero))

        if op == "+":
            s = TBVOp("bvadd", (a, b))
            overflow = mk_or2(
                mk_and2(mk_and2(mk_not(neg(a)), mk_not(neg(b))), neg(s)),
                mk_and2(mk_and2(neg(a), neg(b)), mk_not(neg(s))),
            )
        else:
            s = TBVOp("bvsub", (a, b))
            overflow = mk_or2(
                mk_and2(mk_and2(mk_not(neg(a)), neg(b)), neg(s)),
                mk_and2(mk_and2(neg(a), mk_not(neg(b))), mk_not(neg(s))),
            )
        body = mk_ite(overflow, TNone(BV64_S), TSome(s))
        return mk_ifok(left, mk_ifok(right, body))

    def _binop(self, e: EBinop) -> Term:
        op = e.op
        if op in ("+", "-"):
            return self._arith(op, e)
        if op in ("<", "<="):
            left = self.compile(e.left)
            right = self.compile(e.right)
            cmp_op = "bvslt" if op == "<" else "bvsle"
            body = TSome(TBVOp(cmp_op, (mk_val(left), mk_val(right))))
            return mk_ifok(left, mk_ifok(right, body))
        if op == "==":
            return self._eq(e)
        if op == "in":
            return self._in(e)
        if op in ("contains", "containsAny", "containsAll"):
            return self._set_op(op, self.compile(e.left), self.compile(e.right))
        raise TypeError(f"unknown operator {op}")

    def _set_op(self, op: str, left: Term, right: Term) -> Term:
        # Validation rejects operands whose (element) types have no join.
        if op == "contains":
            # The operand is one set level below the set, so this is
            # `_unify` with the set's element type joined to the operand's.
            if left.sort[1] != SSet(right.sort[1]):
                set_type = self.senv.cedar_of_sort(left.sort[1])
                elem_type = self.senv.cedar_of_sort(right.sort[1])
                target = join(set_type.elem, elem_type)
                left = self._coerce(left, set_type, TSet(target))
                right = self._coerce(right, elem_type, target)
            body = mk_member(mk_val(right), mk_val(left))
        else:
            left, right = self._unify([left, right])
            if op == "containsAny":
                inter = TSetInter(mk_val(left), mk_val(right))
                body = mk_not(mk_eq(inter, TSetEmpty(left.sort[1][1])))
            else:
                body = TSetSubset(mk_val(right), mk_val(left))
        return mk_ifok(left, mk_ifok(right, TSome(body)))

    def _eq(self, e: EBinop) -> Term:
        lhs = action_literal(e.left, self.senv.env, self.senv.schema)
        decided = action_test("==", lhs, e.right, self.senv.env, self.senv.schema)
        if decided is not None:
            return TSome(TBoolLit(decided))
        left = self.compile(e.left)
        right = self.compile(e.right)
        unified = self._unify([left, right])
        if unified is None:
            # Values of types without a join, such as two entity types,
            # are never equal.
            return mk_ifok(left, mk_ifok(right, SOME_FALSE))
        left, right = unified
        return mk_ifok(left, mk_ifok(right, TSome(mk_eq(mk_val(left), mk_val(right)))))

    def _in(self, e: EBinop) -> Term:
        lhs = action_literal(e.left, self.senv.env, self.senv.schema)
        decided = action_test("in", lhs, e.right, self.senv.env, self.senv.schema)
        if decided is not None:
            return TSome(TBoolLit(decided))
        left = self.compile(e.left)
        right = self.compile(e.right)
        v1, v2 = mk_val(left), mk_val(right)
        e1 = self.senv.entity_of_name[v1.sort]
        # The right operand is an entity or a set of entities.
        one = type(v2.sort) is str
        rhs_sort = v2.sort if one else v2.sort[1]
        e2 = self.senv.entity_of_name[rhs_sort]
        if e1 != e2:
            b1: Term = TBoolLit(False)
        else:
            b1 = mk_eq(v1, v2) if one else TSetMember(v1, v2)
        if e2 in self.senv.parents(e1):
            anc = TApp(self.senv.ensure_anc_fn(e1, e2), (v1,), SSet(rhs_sort))
            b2 = TSetMember(v2, anc) if one else mk_not(mk_eq(TSetInter(v2, anc), TSetEmpty(rhs_sort)))
        else:
            b2 = TBoolLit(False)
        return mk_ifok(left, mk_ifok(right, TSome(mk_or2(b1, b2))))


def compile_expr(expr: Expr, senv: SymbolicEnv, footprint: Optional[dict] = None) -> Term:
    """Compile a well-typed expression to an Option-sorted term.

    The `action` variable compiles as the literal of the environment's
    action.  When ``footprint`` is a dict, every compiled entity-typed
    subexpression is added to it as a (term, entity type) key, in first
    occurrence order.
    """
    return _Compiler(senv, footprint).compile(expr)


# ---------------------------------------------------------------------------
# Ground well-formedness constraints
# ---------------------------------------------------------------------------


def _wfa(senv: SymbolicEnv, t1: Term, e1: str) -> Term:
    v1 = mk_val(t1)
    fn = senv.ensure_anc_fn(e1, e1)
    es = senv.ensure_entity(e1)
    member = TSetMember(v1, TApp(fn, (v1,), SSet(es)))
    return mk_implies(mk_is_some(t1), mk_not(member))


def _wft(senv: SymbolicEnv, t1: Term, t2: Term, e1: str, e2: str, e3: str) -> Term:
    v1, v2 = mk_val(t1), mk_val(t2)
    both = mk_and2(mk_is_some(t1), mk_is_some(t2))
    fn12 = senv.ensure_anc_fn(e1, e2)
    fn23 = senv.ensure_anc_fn(e2, e3)
    fn13 = senv.ensure_anc_fn(e1, e3)
    s2 = senv.ensure_entity(e2)
    s3 = senv.ensure_entity(e3)
    member = TSetMember(v2, TApp(fn12, (v1,), SSet(s2)))
    subset = TSetSubset(TApp(fn23, (v2,), SSet(s3)), TApp(fn13, (v1,), SSet(s3)))
    return mk_implies(mk_and2(both, member), subset)


def _wf_instances(footprint: dict, senv: SymbolicEnv):
    """Every wf instance over the footprint, in the order wf_from_footprint
    asserts them: ``(t1, e1)`` for acyclicity, then ``(t1, t2, e1, e2, e3)``
    for transitivity."""
    entries = [(term, entity_type, senv.parents(entity_type)) for term, entity_type in footprint]
    for t1, e1, p1 in entries:
        if e1 in p1:
            yield t1, e1
    for i, (t1, e1, p1) in enumerate(entries):
        for j, (t2, e2, p2) in enumerate(entries):
            if i == j or e2 not in p1:
                continue
            for e3 in sorted(p1 & p2):
                yield t1, t2, e1, e2, e3


def _wf_term(senv: SymbolicEnv, instance: tuple) -> Term:
    return _wfa(senv, *instance) if len(instance) == 2 else _wft(senv, *instance)


def wf_from_footprint(footprint: dict, senv: SymbolicEnv) -> list:
    """Acyclicity and transitivity instances grounded over the footprint."""
    out = (_wf_term(senv, instance) for instance in _wf_instances(footprint, senv))
    return [c for c in out if c is not TRUE_TERM]


def wf_constraints(expr: Expr, senv: SymbolicEnv) -> list:
    """Footprint-grounded well-formedness constraints for one expression."""
    fp: dict = {}
    compile_expr(expr, senv, footprint=fp)
    return wf_from_footprint(fp, senv)


# ---------------------------------------------------------------------------
# Policy-set equivalence
# ---------------------------------------------------------------------------


def is_true_term(t: Term) -> Term:
    """(= (some true) t), partially evaluated."""
    return mk_eq(SOME_TRUE, t)


def allowed_term(policies: PolicySet, senv: SymbolicEnv, footprint: dict) -> Term:
    """No satisfied forbid and at least one satisfied permit, symbolically."""
    permits = []
    forbids = []
    for p in policies.closed_policies:
        # Validation makes each policy Bool-typed: `is_true_term` checks it.
        flag = is_true_term(compile_expr(p.desugared, senv, footprint=footprint))
        if p.effect is Effect.PERMIT:
            permits.append(flag)
        else:
            forbids.append(flag)
    return mk_and2(mk_or(permits), mk_not(mk_or(forbids)))


@dataclass(frozen=True)
class Counterexample:
    request: Request
    store: EntityStore
    decision_a: Decision
    decision_b: Decision


@dataclass(frozen=True)
class EnvVerdict:
    env: RequestEnv
    status: str  # "equivalent" | "differs" | "unknown" | "timeout"
    counterexample: Optional[Counterexample] = None
    detail: str = ""


def _decode_value(senv: SymbolicEnv, v) -> Value:
    """SMT model value to a runtime value."""
    if v is True or v is False:
        return VBool(bool(v))
    if isinstance(v, tuple):
        tag = v[0]
        if tag == "bv":
            raw = v[1] % (1 << 64)
            return VLong(raw - (1 << 64) if raw >= (1 << 63) else raw)
        if tag == "string":
            return VString(v[1])
        if tag == "set":
            return VSet(frozenset(_decode_value(senv, x) for x in v[1]))
        if tag == "dt":
            name, args = v[1], v[2]
            if name in senv.entity_of_name:
                eid = _decode_value(senv, args[0])
                assert isinstance(eid, VString)
                return VEntity(EntityRef(senv.entity_of_name[name], eid.s))
            if name in senv.record_of_name:
                rec = senv.record_of_name[name]
                fields = {}
                for attr, arg in zip(rec.attrs, args):
                    if attr.required:
                        fields[attr.name] = _decode_value(senv, arg)
                    elif isinstance(arg, tuple) and arg[0] == "some":
                        fields[attr.name] = _decode_value(senv, arg[1])
                from .ast import vrecord

                return vrecord(fields)
    raise AnalysisError(f"cannot decode model value {v!r}")


class _ModelHierarchy:
    """The entity values a model gives footprint terms, and the ancestor
    sets it gives those values, read as reconstruction reads them."""

    def __init__(self, model, senv: SymbolicEnv):
        from .smt_backend import ModelEvaluator, selector_table

        self.senv = senv
        self.ev = ModelEvaluator(model, selector_table(senv))
        self._ancestors: dict = {}

    def value(self, t: Term):
        """The model value of footprint term ``t``, unwrapped; None where it
        is `none`."""
        v = self.ev.eval(t, {})
        if isinstance(v, tuple) and v[0] == "none":
            return None
        if isinstance(v, tuple) and v[0] == "some":
            return v[1]
        return v

    def ancestors(self, value, entity_type: str, ancestor_type: str) -> frozenset:
        """The model values in the ancestor set of ``value``, an entity of
        ``entity_type``, for one allowed parent type."""
        key = (value, entity_type, ancestor_type)
        got = self._ancestors.get(key)
        if got is None:
            fn = self.senv.anc_fn[(entity_type, ancestor_type)]
            got = self._ancestors[key] = self.ev.apply(fn, [value])[1]
        return got


def reconstruct_counterexample(model, senv: SymbolicEnv, footprint: dict) -> tuple:
    """Concrete (request, store) from a model: read entity ids at footprint
    points, apply attribute/ancestor functions there, close transitively."""
    hierarchy = _ModelHierarchy(model, senv)
    ev = hierarchy.ev

    def var_value(var: str):
        return ev.eval(senv.var_consts[var][0], {})

    def as_ref(v) -> EntityRef:
        decoded = _decode_value(senv, v)
        if not isinstance(decoded, VEntity):
            raise AnalysisError(f"expected an entity value, got {decoded!r}")
        return decoded.ref

    refs: dict = {}
    for t, _ in footprint:
        v = hierarchy.value(t)
        if v is not None:
            refs[as_ref(v)] = v
    principal = as_ref(var_value("principal"))
    resource = as_ref(var_value("resource"))
    context = _decode_value(senv, var_value("context"))
    if not isinstance(context, VRecord):
        raise AnalysisError("context did not decode to a record")

    triples = []
    # The footprint holds only schema entity types, each of which has an
    # attribute function and an ancestor function per allowed parent type.
    for ref, value in refs.items():
        rec = _decode_value(senv, ev.apply(senv.attr_fn[ref.entity_type], [value]))
        direct = set()
        for ancestor_type in sorted(senv.parents(ref.entity_type)):
            direct.update(as_ref(elem) for elem in hierarchy.ancestors(value, ref.entity_type, ancestor_type))
        triples.append((ref, rec, direct))
    store = build_store(triples)
    request = Request(principal=principal, action=senv.env.action, resource=resource, context=context)
    return request, store


def _violated_wf(model, senv: SymbolicEnv, footprint: dict) -> list:
    """The instances of wf_from_footprint(footprint, senv) that ``model``
    falsifies.  Each is tested on the concrete values and ancestor sets the
    model gives the footprint, and only a violated one is built as a term."""
    hierarchy = _ModelHierarchy(model, senv)
    value = {t: hierarchy.value(t) for t, _ in footprint}
    anc = hierarchy.ancestors
    out = []
    for instance in _wf_instances(footprint, senv):
        if len(instance) == 2:
            t1, e1 = instance
            v1 = value[t1]
            violated = v1 is not None and v1 in anc(v1, e1, e1)
        else:
            t1, t2, e1, e2, e3 = instance
            v1, v2 = value[t1], value[t2]
            violated = (
                v1 is not None
                and v2 is not None
                and v2 in anc(v1, e1, e2)
                and not anc(v2, e2, e3) <= anc(v1, e1, e3)
            )
        if violated:
            out.append(_wf_term(senv, instance))
    return out


def _counterexample(set_a: PolicySet, set_b: PolicySet, schema: Schema, senv: SymbolicEnv, model, footprint: dict):
    """The model's request and store as a Counterexample, if the concrete
    authorizer decides them differently under the two sets; else None.
    Raises HierarchyCycle where the model's hierarchy is cyclic."""
    request, store = reconstruct_counterexample(model, senv, footprint)
    full_store = merge_action_hierarchy(store, schema)
    decision_a = authorize(set_a, full_store, request, use_slicing=False)
    decision_b = authorize(set_b, full_store, request, use_slicing=False)
    if decision_a.verdict == decision_b.verdict:
        return None
    return Counterexample(request, store, decision_a, decision_b)


# Refinement rounds the bundled solver gets after its first solve, each with
# the wf instances its earlier models violated; the solve after the last
# round asserts the whole of wf_from_footprint.
_REFINEMENT_ROUNDS = 8


def _decide(set_a, set_b, schema, senv: SymbolicEnv, footprint: dict, goal: Term, config, text) -> EnvVerdict:
    """One environment's verdict on (not phi), ``goal``, within one
    ``config.timeout_ms`` budget.

    A solver other than the bundled one gets ``text``, the script with the
    full wf grounding, once.  The bundled solver first gets ``goal`` alone:
    dropping constraints only adds models, so unsat means equivalent, and a
    model that re-verifies is a counterexample whatever it leaves out.  A
    model that does not re-verify, or whose hierarchy is cyclic, violates
    some wf instances: those are added and the solver runs again, on
    whatever is left of the budget, for up to _REFINEMENT_ROUNDS rounds
    before the full grounding is asserted.
    """
    from . import smt_backend

    env = senv.env
    deadline = time.monotonic() + config.timeout_ms / 1000.0
    grounded = not config.in_process
    learnt: list = []
    for solves in itertools.count():
        if solves == _REFINEMENT_ROUNDS + 1:
            grounded, learnt = True, wf_from_footprint(footprint, senv)
        remaining_ms = int((deadline - time.monotonic()) * 1000)
        if remaining_ms <= 0:
            return EnvVerdict(env, "timeout", detail=f"exceeded {config.timeout_ms} ms")
        script = smt_backend.script_commands(senv, learnt + [goal]) if config.in_process else text
        outcome = smt_backend.run_solver(replace(config, timeout_ms=remaining_ms), script)
        if outcome.kind == "unsat":
            return EnvVerdict(env, "equivalent")
        if outcome.kind == "timeout":
            return EnvVerdict(env, "timeout", detail=f"exceeded {config.timeout_ms} ms")
        if outcome.kind != "sat":
            return EnvVerdict(env, "unknown", detail=outcome.detail)
        try:
            cex = _counterexample(set_a, set_b, schema, senv, outcome.model, footprint)
        except HierarchyCycle as cycle:
            fault = cycle
        else:
            if cex is not None:
                return EnvVerdict(env, "differs", counterexample=cex)
            fault = AnalysisError(f"counterexample failed concrete re-verification in {env.describe()}")
        violated = None if grounded else _violated_wf(outcome.model, senv, footprint)
        if not violated:
            raise fault
        learnt.extend(violated)


def analyze_equivalence(
    set_a: PolicySet,
    set_b: PolicySet,
    schema: Schema,
    config=None,
    emit_dir: Optional[str] = None,
) -> list:
    """Per-environment equivalence of two policy sets, with concrete witnesses.

    The question is (not phi), where phi equates the two sets' allow
    conditions, under the hierarchy's well-formedness wf(phi): unsat means
    the sets agree everywhere in that environment.  Sat models are
    reconstructed into a request and store and re-verified against the
    concrete authorizer before being reported.  The bundled solver grounds
    wf(phi) lazily (see _decide); every other solver, and every emitted
    script, gets it whole.  Given `emit_dir`, an existing directory, each
    script is written there, named after its environment and unique within
    the analysis.
    """
    from .smt_backend import SolverConfig, print_script

    if config is None:
        config = SolverConfig.default()
    verdicts = []
    script_names = _Names()
    for env in environments(schema):
        senv = encode_types(schema, env)
        footprint: dict = {}
        allow_a = allowed_term(set_a, senv, footprint)
        allow_b = allowed_term(set_b, senv, footprint)
        phi = mk_eq(allow_a, allow_b)
        if phi is TRUE_TERM:
            verdicts.append(EnvVerdict(env, "equivalent", detail="statically identical"))
            continue
        goal = mk_not(phi)
        text = None
        if emit_dir is not None or not config.in_process:
            text = print_script(senv, wf_from_footprint(footprint, senv) + [goal])
        if emit_dir is not None:
            fname = script_names.fresh(f"{env.action.entity_id}_{env.principal_type}_{env.resource_type}") + ".smt2"
            with open(os.path.join(emit_dir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        verdicts.append(_decide(set_a, set_b, schema, senv, footprint, goal, config, text))
    return verdicts
