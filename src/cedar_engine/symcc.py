"""Symbolic compilation of well-typed expressions to SMT terms.

Types become SMT sorts (entities and records are datatypes, longs are 64-bit
bit-vectors), the request and store become uninterpreted constants and
functions, and every compiled expression is Option-wrapped so that `none`
marks a runtime error.  Statically-decided guards (notably comparisons of the
substituted action literal) partially evaluate away, which mirrors the
validator's dead-branch pruning.

Hierarchy well-formedness is grounded over the *footprint*: the entity-typed
subexpressions actually compiled.  Acyclicity and transitivity instances over
footprint terms replace quantified axioms, keeping every emitted assertion
quantifier-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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
    substitute_action,
    toexp,
)
from .authorizer import Decision, PolicySet, authorize
from .entities import EntityStore, Request, build_store, merge_action_hierarchy
from .validator import RequestEnv, Schema, action_literal, action_set_literal, environments, join
from .terms import (
    BOOL_S,
    BV64_S,
    RAll,
    RConcat,
    RLit,
    SBV64,
    SBool,
    SData,
    SOption,
    SSet,
    SString,
    STRING_S,
    Sort,
    TApp,
    TBVLit,
    TBVOp,
    TBoolLit,
    TConst,
    TNone,
    TSetEmpty,
    TSetInter,
    TSetMember,
    TSetSubset,
    TSome,
    TStrInRe,
    TStrLit,
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
    term_tree,
)


class AnalysisError(CedarError):
    """Internal analysis failure (for example a counterexample that fails
    concrete re-verification)."""


class UnsupportedConstruct(AnalysisError):
    """The expression reached a corner the compiler does not encode, so the
    analysis cannot decide (for example a set whose elements would need
    re-encoding)."""


# Names the compiler never gives a declaration.  `string` is among them
# because `(string x)` would read back as the string literal "x".
_SMT_RESERVED = {
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
    "some",
    "val",
    "and",
    "or",
    "not",
    "ite",
    "assert",
    "let",
    "forall",
    "exists",
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
    envs: tuple

    def __post_init__(self):
        self._names = _Names()
        self.entity_name: dict = {}
        self.entity_of_name: dict = {}
        self.record_name: dict = {}
        self.record_of_name: dict = {}
        self.datatypes: list = []  # (name, ((selector, Sort), ...))
        self.selector_names: dict = {}  # (dt_name, attr) -> selector
        self.fn_sigs: dict = {}
        self.fn_order: list = []
        self.attr_fn: dict = {}
        self.anc_fn: dict = {}
        self.const_sigs: dict = {}
        self.const_order: list = []
        self.var_consts: dict = {}  # (env, var) -> (name, Sort)

    # -- datatypes ----------------------------------------------------------

    def ensure_entity(self, entity_type: str) -> SData:
        name = self.entity_name.get(entity_type)
        if name is None:
            name = self._names.fresh(entity_type)
            self.entity_name[entity_type] = name
            self.entity_of_name[name] = entity_type
            eid = self._names.fresh("eid")
            self.selector_names[(name, "eid")] = eid
            self.datatypes.append((name, ((eid, STRING_S),)))
        return SData(name)

    def ensure_record(self, rec: TRecord, preferred: Optional[str] = None) -> SData:
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
        return SData(name)

    def encode_type(self, t: CedarType) -> Sort:
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

    def cedar_of_sort(self, s: Sort) -> CedarType:
        if isinstance(s, SBool):
            return BOOL
        if isinstance(s, SBV64):
            return LONG
        if isinstance(s, SString):
            return STRING
        if isinstance(s, SSet):
            return TSet(self.cedar_of_sort(s.elem))
        # A datatype: payload sorts are never Option.
        if s.name in self.entity_of_name:
            return TEntity(self.entity_of_name[s.name])
        return self.record_of_name[s.name]

    # -- functions and constants --------------------------------------------

    def _declare_fn(self, name: str, args: tuple, ret: Sort) -> str:
        self.fn_sigs[name] = (args, ret)
        self.fn_order.append(name)
        return name

    def ensure_attr_fn(self, entity_type: str) -> str:
        name = self.attr_fn.get(entity_type)
        if name is None:
            decl = self.schema.entity_types[entity_type]
            es = self.ensure_entity(entity_type)
            rs = self.ensure_record(decl.attrs, preferred=f"{es.name}Record")
            name = self._names.fresh(_lower_first(es.name) + "Attrs")
            self.attr_fn[entity_type] = name
            self._declare_fn(name, (es,), rs)
        return name

    def ensure_anc_fn(self, entity_type: str, ancestor_type: str) -> str:
        key = (entity_type, ancestor_type)
        name = self.anc_fn.get(key)
        if name is None:
            es = self.ensure_entity(entity_type)
            as_ = self.ensure_entity(ancestor_type)
            name = self._names.fresh(f"{_lower_first(es.name)}In{as_.name}")
            self.anc_fn[key] = name
            self._declare_fn(name, (es,), SSet(as_))
        return name

    def declare_var(self, env: RequestEnv, var: str, cedar_type: CedarType, suffix: str) -> None:
        sort = self.encode_type(cedar_type)
        name = self._names.fresh(var + suffix)
        self.const_sigs[name] = sort
        self.const_order.append(name)
        self.var_consts[(env, var)] = (name, sort)

    def var_const(self, env: RequestEnv, var: str) -> TConst:
        name, sort = self.var_consts[(env, var)]
        return TConst(name, sort)

    def selector(self, dt_name: str, attr: str) -> str:
        return self.selector_names[(dt_name, attr)]

    def signatures(self) -> dict:
        sigs = dict(self.fn_sigs)
        for dt_name, fields in self.datatypes:
            sigs[dt_name] = (tuple(s for _, s in fields), SData(dt_name))
            for sel, sort in fields:
                sigs[sel] = ((SData(dt_name),), sort)
        return sigs


def encode_types(schema: Schema, envs: Iterable[RequestEnv]) -> SymbolicEnv:
    """Declare datatypes, attribute/ancestor functions, and request constants."""
    envs = tuple(envs)
    senv = SymbolicEnv(schema, envs)
    for entity_type in schema.entity_types:
        senv.ensure_entity(entity_type)
    for entity_type, decl in schema.entity_types.items():
        senv.ensure_attr_fn(entity_type)
        for ancestor in sorted(decl.parents):
            senv.ensure_anc_fn(entity_type, ancestor)
    for i, env in enumerate(envs):
        suffix = "" if len(envs) == 1 else f"_{i}"
        senv.declare_var(env, "principal", TEntity(env.principal_type), suffix)
        senv.declare_var(env, "resource", TEntity(env.resource_type), suffix)
        senv.declare_var(env, "context", env.context_type, suffix)
    return senv


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class _Compiler:
    def __init__(self, env: RequestEnv, schema: Schema, senv: SymbolicEnv, footprint: Optional[list]):
        self.env = env
        self.schema = schema
        self.senv = senv
        self.footprint = footprint
        self._fp_seen = set()

    # -- entry --------------------------------------------------------------

    def compile(self, e: Expr) -> Term:
        out = self._go(e)
        if self.footprint is not None:
            payload = out.sort
            assert isinstance(payload, SOption)
            inner = payload.elem
            if isinstance(inner, SData):
                entity_type = self.senv.entity_of_name.get(inner.name)
                if entity_type is not None and entity_type in self.schema.entity_types:
                    key = (out, entity_type)
                    if key not in self._fp_seen:
                        self._fp_seen.add(key)
                        self.footprint.append(key)
        return out

    # -- helpers -------------------------------------------------------------

    def _parents(self, entity_type: str) -> frozenset:
        decl = self.schema.entity(entity_type)
        return decl.parents if decl is not None else frozenset()

    def _value_term(self, v: Value) -> Term:
        """The term of an `ELit`'s value: a Bool, Long, String or entity."""
        if isinstance(v, VBool):
            return TBoolLit(v.b)
        if isinstance(v, VLong):
            return TBVLit(v.i)
        if isinstance(v, VString):
            return TStrLit(v.s)
        es = self.senv.ensure_entity(v.ref.entity_type)
        return TApp(es.name, (TStrLit(v.ref.entity_id),), es)

    def _field(self, attr: str, v: Term):
        """Resolve an attribute on a record or entity payload term.

        Returns (required, field term) or None when statically absent.
        """
        name = v.sort.name
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
        types = [self.senv.cedar_of_sort(t.sort.elem) for t in terms]
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
        return TApp(dst_sort.name, tuple(args), dst_sort)

    # -- the rules ------------------------------------------------------------

    def _go(self, e: Expr) -> Term:
        if isinstance(e, ELit):
            return TSome(self._value_term(e.value))
        if isinstance(e, EVar):
            return TSome(self.senv.var_const(self.env, e.name))
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
                            TRecordAttr(k, True, self.senv.cedar_of_sort(t.sort.elem))
                            for k, t in parts
                        ),
                        key=lambda a: a.name,
                    )
                )
            )
            rs = self.senv.ensure_record(rec)
            by_name = {k: mk_val(t) for k, t in parts}
            args = tuple(by_name[a.name] for a in rec.attrs)
            out = TSome(TApp(rs.name, args, rs))
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
                return mk_ifok(obj, TSome(TBoolLit(False)))
            required, f_term = found
            if required:
                return mk_ifok(obj, TSome(TBoolLit(True)))
            return mk_ifok(obj, TSome(mk_is_some(f_term)))
        if isinstance(e, EIs):
            a = action_literal(e.obj, self.schema)
            if a is not None:
                return TSome(TBoolLit(a.entity_type == e.entity_type))
            obj = self.compile(e.obj)
            entity_type = self.senv.entity_of_name[obj.sort.elem.name]
            return mk_ifok(obj, TSome(TBoolLit(entity_type == e.entity_type)))
        if isinstance(e, ELike):
            obj = self.compile(e.obj)
            parts = tuple(RAll() if p is WILDCARD else RLit(p) for p in e.pattern.parts)
            regex = RConcat(parts) if parts else RLit("")
            return mk_ifok(obj, TSome(TStrInRe(mk_val(obj), regex)))
        if isinstance(e, ENot):
            return self._go(EIf(e.arg, ELit(VBool(False)), ELit(VBool(True))))
        if isinstance(e, EAnd):
            return self._go(EIf(e.left, EIf(e.right, ELit(VBool(True)), ELit(VBool(False))), ELit(VBool(False))))
        if isinstance(e, EOr):
            return self._go(EIf(e.left, ELit(VBool(True)), EIf(e.right, ELit(VBool(True)), ELit(VBool(False)))))
        if isinstance(e, ENeg):
            arg = self.compile(e.arg)
            v = mk_val(arg)
            guard = mk_eq(v, TBVLit(I64_MIN))
            return mk_ifok(arg, mk_ite(guard, TNone(BV64_S), TSome(TBVOp("bvneg", (v,)))))
        if isinstance(e, EMul):
            return self._mul(e)
        if isinstance(e, EIf):
            cond = self.compile(e.cond)
            if cond == TSome(TBoolLit(True)):
                return self.compile(e.then)
            if cond == TSome(TBoolLit(False)):
                return self.compile(e.els)
            # Validation rejects branches whose types have no join.
            then, els = self._unify([self.compile(e.then), self.compile(e.els)])
            return mk_ifok(cond, mk_ite(mk_val(cond), then, els))
        if isinstance(e, EBinop):
            return self._binop(e)
        raise TypeError(f"not an expression: {e!r}")

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
            if left.sort.elem != SSet(right.sort.elem):
                set_type = self.senv.cedar_of_sort(left.sort.elem)
                elem_type = self.senv.cedar_of_sort(right.sort.elem)
                target = join(set_type.elem, elem_type)
                left = self._coerce(left, set_type, TSet(target))
                right = self._coerce(right, elem_type, target)
            body = mk_member(mk_val(right), mk_val(left))
        else:
            left, right = self._unify([left, right])
            if op == "containsAny":
                inter = TSetInter(mk_val(left), mk_val(right))
                body = mk_not(mk_eq(inter, TSetEmpty(left.sort.elem.elem)))
            else:
                body = TSetSubset(mk_val(right), mk_val(left))
        return mk_ifok(left, mk_ifok(right, TSome(body)))

    def _eq(self, e: EBinop) -> Term:
        a1 = action_literal(e.left, self.schema)
        a2 = action_literal(e.right, self.schema)
        if a1 is not None and a2 is not None:
            return TSome(TBoolLit(a1 == a2))
        left = self.compile(e.left)
        right = self.compile(e.right)
        unified = self._unify([left, right])
        if unified is None:
            # Values of types without a join, such as two entity types,
            # are never equal.
            return mk_ifok(left, mk_ifok(right, TSome(TBoolLit(False))))
        left, right = unified
        return mk_ifok(left, mk_ifok(right, TSome(mk_eq(mk_val(left), mk_val(right)))))

    def _in(self, e: EBinop) -> Term:
        lhs_action = action_literal(e.left, self.schema)
        if lhs_action is not None:
            rhs_one = action_literal(e.right, self.schema)
            rhs_set = action_set_literal(e.right, self.schema)
            if rhs_one is not None:
                rhs_set = [rhs_one]
            if rhs_set is not None:
                hit = any(self.schema.action_in(lhs_action, r) for r in rhs_set)
                return TSome(TBoolLit(hit))
        left = self.compile(e.left)
        right = self.compile(e.right)
        v1, v2 = mk_val(left), mk_val(right)
        e1 = self.senv.entity_of_name[v1.sort.name]
        # The right operand is an entity or a set of entities.
        one = isinstance(v2.sort, SData)
        rhs_sort = v2.sort if one else v2.sort.elem
        e2 = self.senv.entity_of_name[rhs_sort.name]
        if e1 != e2:
            b1: Term = TBoolLit(False)
        else:
            b1 = mk_eq(v1, v2) if one else TSetMember(v1, v2)
        if e2 in self._parents(e1):
            anc = TApp(self.senv.ensure_anc_fn(e1, e2), (v1,), SSet(rhs_sort))
            b2 = TSetMember(v2, anc) if one else mk_not(mk_eq(TSetInter(v2, anc), TSetEmpty(rhs_sort)))
        else:
            b2 = TBoolLit(False)
        return mk_ifok(left, mk_ifok(right, TSome(mk_or2(b1, b2))))


def compile_expr(
    expr: Expr,
    env: RequestEnv,
    schema: Schema,
    senv: SymbolicEnv,
    footprint: Optional[list] = None,
) -> Term:
    """Compile a well-typed expression to an Option-sorted term.

    The `action` variable is replaced by the environment's action first, so
    no compile rule sees it.  When ``footprint`` is a list, every compiled entity-typed subexpression is
    appended to it as a (term, entity type) pair, first occurrence order,
    deduplicated.
    """
    expr = substitute_action(expr, env.action)
    return _Compiler(env, schema, senv, footprint).compile(expr)


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


def wf_from_footprint(footprint: list, schema: Schema, senv: SymbolicEnv) -> list:
    """Acyclicity and transitivity instances grounded over the footprint."""
    entries = []
    seen = set()
    for term, entity_type in footprint:
        if (term, entity_type) in seen:
            continue  # footprints collected across several policies may repeat
        seen.add((term, entity_type))
        decl = schema.entity(entity_type)
        parents = decl.parents if decl is not None else frozenset()
        entries.append((term, entity_type, parents))
    out = []
    for t1, e1, p1 in entries:
        if e1 in p1:
            out.append(_wfa(senv, t1, e1))
    for i, (t1, e1, p1) in enumerate(entries):
        for j, (t2, e2, p2) in enumerate(entries):
            if i == j or e2 not in p1:
                continue
            for e3 in sorted(p1 & p2):
                out.append(_wft(senv, t1, t2, e1, e2, e3))
    return [c for c in out if c != TRUE_TERM]


def wf_constraints(expr: Expr, env: RequestEnv, schema: Schema, senv: SymbolicEnv) -> list:
    """Footprint-grounded well-formedness constraints for one expression."""
    fp: list = []
    compile_expr(expr, env, schema, senv, footprint=fp)
    return wf_from_footprint(fp, schema, senv)


# ---------------------------------------------------------------------------
# Policy-set equivalence
# ---------------------------------------------------------------------------


def is_true_term(t: Term) -> Term:
    """(= (some true) t), partially evaluated."""
    return mk_eq(TSome(TRUE_TERM), t)


def allowed_term(policies: PolicySet, env: RequestEnv, schema: Schema, senv: SymbolicEnv, footprint: list) -> Term:
    """No satisfied forbid and at least one satisfied permit, symbolically."""
    permits = []
    forbids = []
    for p in policies.closed_policies:
        # Validation makes each policy Bool-typed: `is_true_term` checks it.
        flag = is_true_term(compile_expr(toexp(p), env, schema, senv, footprint=footprint))
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


def reconstruct_counterexample(
    model,
    senv: SymbolicEnv,
    env: RequestEnv,
    schema: Schema,
    footprint: list,
) -> tuple:
    """Concrete (request, store) from a model: read entity ids at footprint
    points, apply attribute/ancestor functions there, close transitively."""
    from .sexpr import Sharer
    from .smt_backend import ModelEvaluator, selector_table

    ev = ModelEvaluator(model, selector_table(senv))

    def var_value(var: str):
        return ev.eval(senv.var_consts[(env, var)][0], {})

    def as_ref(v) -> EntityRef:
        decoded = _decode_value(senv, v)
        if not isinstance(decoded, VEntity):
            raise AnalysisError(f"expected an entity value, got {decoded!r}")
        return decoded.ref

    refs: dict = {}
    sharer, trees = Sharer(), {}
    for t, _ in footprint:
        v = ev.eval(term_tree(t, sharer, trees), {})
        if isinstance(v, tuple) and v[0] == "none":
            continue
        if isinstance(v, tuple) and v[0] == "some":
            v = v[1]
        ref = as_ref(v)
        refs[ref] = v
    principal = as_ref(var_value("principal"))
    resource = as_ref(var_value("resource"))
    context = _decode_value(senv, var_value("context"))
    if not isinstance(context, VRecord):
        raise AnalysisError("context did not decode to a record")

    triples = []
    # The footprint holds only schema entity types, each of which has an
    # attribute function and an ancestor function per allowed parent type.
    for ref, value in refs.items():
        decl = schema.entity_types[ref.entity_type]
        rec = _decode_value(senv, ev.apply(senv.attr_fn[ref.entity_type], [value]))
        direct = set()
        for ancestor_type in sorted(decl.parents):
            fn = senv.anc_fn[(ref.entity_type, ancestor_type)]
            got = _decode_value(senv, ev.apply(fn, [value]))
            assert isinstance(got, VSet)
            for elem in got.elems:
                if isinstance(elem, VEntity):
                    direct.add(elem.ref)
        triples.append((ref, rec, direct))
    store = build_store(triples)
    request = Request(principal=principal, action=env.action, resource=resource, context=context)
    return request, store


def analyze_equivalence(
    set_a: PolicySet,
    set_b: PolicySet,
    schema: Schema,
    config=None,
    emit_dir: Optional[str] = None,
) -> list:
    """Per-environment equivalence of two policy sets, with concrete witnesses.

    The assertion set is wf(phi) plus (not phi) where phi equates the two
    sets' allow conditions: unsat means the sets agree everywhere in that
    environment.  Sat models are reconstructed into a request and store and
    re-verified against the concrete authorizer before being reported.
    """
    from .smt_backend import SolverConfig, print_script, run_solver, script_commands

    if config is None:
        config = SolverConfig.default()
    verdicts = []
    for env in environments(schema):
        senv = encode_types(schema, [env])
        footprint: list = []
        allow_a = allowed_term(set_a, env, schema, senv, footprint)
        allow_b = allowed_term(set_b, env, schema, senv, footprint)
        phi = mk_eq(allow_a, allow_b)
        if phi == TRUE_TERM:
            verdicts.append(EnvVerdict(env, "equivalent", detail="statically identical"))
            continue
        assertions = wf_from_footprint(footprint, schema, senv) + [mk_not(phi)]
        text = print_script(senv, assertions) if emit_dir is not None or not config.in_process else None
        if emit_dir is not None:
            import os

            os.makedirs(emit_dir, exist_ok=True)
            fname = _sanitize(
                f"{env.action.entity_id}_{env.principal_type}_{env.resource_type}"
            ) + ".smt2"
            with open(os.path.join(emit_dir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        # The bundled solver takes the script as trees; text is for the others.
        outcome = run_solver(config, script_commands(senv, assertions) if config.in_process else text)
        if outcome.kind == "unsat":
            verdicts.append(EnvVerdict(env, "equivalent"))
        elif outcome.kind == "sat":
            request, store = reconstruct_counterexample(
                outcome.model, senv, env, schema, footprint
            )
            full_store = merge_action_hierarchy(store, schema)
            decision_a = authorize(set_a, full_store, request, use_slicing=False)
            decision_b = authorize(set_b, full_store, request, use_slicing=False)
            if decision_a.verdict == decision_b.verdict:
                raise AnalysisError(
                    f"counterexample failed concrete re-verification in {env.describe()}"
                )
            cex = Counterexample(request, store, decision_a, decision_b)
            verdicts.append(EnvVerdict(env, "differs", counterexample=cex))
        elif outcome.kind == "timeout":
            verdicts.append(EnvVerdict(env, "timeout", detail=outcome.detail))
        else:
            verdicts.append(EnvVerdict(env, "unknown", detail=outcome.detail))
    return verdicts
