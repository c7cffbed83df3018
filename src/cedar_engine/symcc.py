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
    substitute_action,
    toexp,
)
from .authorizer import Decision, PolicySet, authorize
from .entities import EntityStore, Request, build_store, merge_action_hierarchy
from .validator import RequestEnv, Schema, environments, join
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
    mk_not,
    mk_or,
    mk_or2,
    mk_set_literal,
    mk_val,
    term_sexpr,
)


class UnsupportedConstruct(CedarError):
    """The expression reached a corner the compiler does not encode."""


class AnalysisError(CedarError):
    """Internal analysis failure (for example a counterexample that fails

    concrete re-verification)."""


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
        if isinstance(s, SData):
            if s.name in self.entity_of_name:
                return TEntity(self.entity_of_name[s.name])
            if s.name in self.record_of_name:
                return self.record_of_name[s.name]
        raise UnsupportedConstruct(f"sort {s!r} has no source type")

    # -- functions and constants --------------------------------------------

    def _declare_fn(self, name: str, args: tuple, ret: Sort) -> str:
        self.fn_sigs[name] = (args, ret)
        self.fn_order.append(name)
        return name

    def ensure_attr_fn(self, entity_type: str) -> str:
        name = self.attr_fn.get(entity_type)
        if name is None:
            decl = self.schema.entity(entity_type)
            if decl is None:
                raise UnsupportedConstruct(f"entity type {entity_type} has no schema entry")
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

    def _static_action(self, e: Expr) -> Optional[EntityRef]:
        if isinstance(e, EVar) and e.name == "action":
            return self.env.action
        if isinstance(e, ELit) and isinstance(e.value, VEntity):
            ref = e.value.ref
            if ref.is_action() or ref in self.schema.actions:
                return ref
        return None

    def _static_action_set(self, e: Expr) -> Optional[list]:
        refs = []
        elems: Iterable
        if isinstance(e, ESet):
            elems = e.elems
        elif isinstance(e, ELit) and isinstance(e.value, VSet):
            elems = [ELit(v) for v in sorted(e.value.elems, key=repr)]
        else:
            return None
        for elem in elems:
            ref = self._static_action(elem)
            if ref is None:
                return None
            refs.append(ref)
        return refs

    def _entity_type_of(self, payload_sort: Sort, where: str) -> str:
        if isinstance(payload_sort, SData):
            name = self.senv.entity_of_name.get(payload_sort.name)
            if name is not None:
                return name
        raise UnsupportedConstruct(f"{where}: expected an entity, got {payload_sort!r}")

    def _parents(self, entity_type: str) -> frozenset:
        decl = self.schema.entity(entity_type)
        return decl.parents if decl is not None else frozenset()

    def _value_term(self, v: Value) -> Term:
        if isinstance(v, VBool):
            return TBoolLit(v.b)
        if isinstance(v, VLong):
            return TBVLit(v.i)
        if isinstance(v, VString):
            return TStrLit(v.s)
        if isinstance(v, VEntity):
            es = self.senv.ensure_entity(v.ref.entity_type)
            return TApp(es.name, (TStrLit(v.ref.entity_id),), es)
        if isinstance(v, VSet):
            elems = [self._value_term(x) for x in v.elems]
            if not elems:
                raise UnsupportedConstruct("empty set literal cannot be encoded")
            sorts = {t.sort for t in elems}
            if len(sorts) != 1:
                raise UnsupportedConstruct("heterogeneous set literal cannot be encoded")
            elems.sort(key=term_sexpr)
            return mk_set_literal(elems, sorts.pop())
        if isinstance(v, VRecord):
            rec = TRecord(
                tuple(
                    TRecordAttr(k, True, self.senv.cedar_of_sort(self._value_term(x).sort))
                    for k, x in v.fields
                )
            )
            rs = self.senv.ensure_record(rec)
            args = tuple(self._value_term(x) for _, x in v.fields)
            return TApp(rs.name, args, rs)
        raise TypeError(f"not a value: {v!r}")

    def _field(self, attr: str, v: Term):
        """Resolve an attribute on a record or entity payload term.

        Returns (required, field term) or None when statically absent.
        """
        s = v.sort
        if not isinstance(s, SData):
            raise UnsupportedConstruct(f"attribute {attr} on sort {s!r}")
        if s.name in self.senv.record_of_name:
            rec = self.senv.record_of_name[s.name]
            a = rec.attr(attr)
            if a is None:
                return None
            sel = self.senv.selector(s.name, attr)
            inner = self.senv.encode_type(a.type)
            fsort = inner if a.required else SOption(inner)
            return (a.required, TApp(sel, (v,), fsort))
        if s.name in self.senv.entity_of_name:
            entity_type = self.senv.entity_of_name[s.name]
            if self.schema.entity(entity_type) is None:
                return None
            fn = self.senv.ensure_attr_fn(entity_type)
            _, rs = self.senv.fn_sigs[fn]
            return self._field(attr, TApp(fn, (v,), rs))
        raise UnsupportedConstruct(f"attribute {attr} on unknown datatype {s.name}")

    def _coerce(self, opt_term: Term, target: CedarType) -> Term:
        """Coerce an Option-wrapped term to the encoding of a supertype."""
        source = self.senv.cedar_of_sort(opt_term.sort.elem)
        if self.senv.encode_type(source) == self.senv.encode_type(target):
            return opt_term
        v = mk_val(opt_term)
        return mk_ifok(opt_term, TSome(self._coerce_value(v, source, target)))

    def _coerce_value(self, v: Term, source: CedarType, target: CedarType) -> Term:
        if self.senv.encode_type(source) == self.senv.encode_type(target):
            return v
        if isinstance(source, TRecord) and isinstance(target, TRecord):
            src_sort = self.senv.ensure_record(source)
            dst_sort = self.senv.ensure_record(target)
            args = []
            for sa, da in zip(source.attrs, target.attrs):
                sel = self.senv.selector(src_sort.name, sa.name)
                inner = self.senv.encode_type(sa.type)
                fsort = inner if sa.required else SOption(inner)
                raw = TApp(sel, (v,), fsort)
                if sa.required:
                    coerced = self._coerce_value(raw, sa.type, da.type)
                    args.append(coerced if da.required else TSome(coerced))
                else:
                    if self.senv.encode_type(sa.type) != self.senv.encode_type(da.type):
                        raise UnsupportedConstruct(
                            "optional attribute coercion across distinct encodings"
                        )
                    args.append(raw)
            return TApp(dst_sort.name, tuple(args), dst_sort)
        raise UnsupportedConstruct(
            f"no encoding-level coercion from {source!r} to {target!r}"
        )

    def _join_branches(self, a: Term, b: Term):
        sa, sb = a.sort.elem, b.sort.elem
        if sa == sb:
            return a, b
        ca, cb = self.senv.cedar_of_sort(sa), self.senv.cedar_of_sort(sb)
        j = join(ca, cb)
        if j is None:
            raise UnsupportedConstruct("branches have incompatible encodings")
        return self._coerce(a, j), self._coerce(b, j)

    # -- the rules ------------------------------------------------------------

    def _go(self, e: Expr) -> Term:
        if isinstance(e, ELit):
            return TSome(self._value_term(e.value))
        if isinstance(e, EVar):
            if e.name == "action":
                return TSome(self._value_term(VEntity(self.env.action)))
            return TSome(self.senv.var_const(self.env, e.name))
        if isinstance(e, ESlot):
            raise UnsupportedConstruct("template slots cannot be compiled; link the template first")
        if isinstance(e, ESet):
            elems = [self.compile(x) for x in e.elems]
            if not elems:
                raise UnsupportedConstruct("empty set literal cannot be encoded")
            sorts = {t.sort.elem for t in elems}
            if len(sorts) != 1:
                raise UnsupportedConstruct("set literal without a common element encoding")
            vals = sorted((mk_val(t) for t in elems), key=term_sexpr)
            out: Term = TSome(mk_set_literal(vals, sorts.pop()))
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
            found = self._field(e.attr, mk_val(obj))
            if found is None:
                raise UnsupportedConstruct(f"projection of absent attribute {e.attr}")
            required, f_term = found
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
            a = self._static_action(e.obj)
            if a is not None:
                return TSome(TBoolLit(a.entity_type == e.entity_type))
            obj = self.compile(e.obj)
            entity_type = self._entity_type_of(obj.sort.elem, "is")
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
            then = self.compile(e.then)
            els = self.compile(e.els)
            then, els = self._join_branches(then, els)
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
        if op == "contains":
            left = self.compile(e.left)
            right = self.compile(e.right)
            set_sort = left.sort.elem
            if not isinstance(set_sort, SSet):
                raise UnsupportedConstruct("contains on a non-set encoding")
            if right.sort.elem != set_sort.elem:
                body: Term = TSome(TBoolLit(False))
            else:
                body = TSome(TSetMember(mk_val(right), mk_val(left)))
            return mk_ifok(left, mk_ifok(right, body))
        if op in ("containsAny", "containsAll"):
            left = self.compile(e.left)
            right = self.compile(e.right)
            sl, sr = left.sort.elem, right.sort.elem
            if not (isinstance(sl, SSet) and isinstance(sr, SSet)):
                raise UnsupportedConstruct(f"{op} on a non-set encoding")
            if sl != sr:
                if op == "containsAny":
                    body = TSome(TBoolLit(False))
                else:
                    body = TSome(mk_eq(mk_val(right), TSetEmpty(sr.elem)))
            elif op == "containsAny":
                inter = TSetInter(mk_val(left), mk_val(right))
                body = TSome(mk_not(mk_eq(inter, TSetEmpty(sl.elem))))
            else:
                body = TSome(TSetSubset(mk_val(right), mk_val(left)))
            return mk_ifok(left, mk_ifok(right, body))
        raise TypeError(f"unknown operator {op}")

    def _eq(self, e: EBinop) -> Term:
        a1 = self._static_action(e.left)
        a2 = self._static_action(e.right)
        if a1 is not None and a2 is not None:
            return TSome(TBoolLit(a1 == a2))
        left = self.compile(e.left)
        right = self.compile(e.right)
        sl, sr = left.sort.elem, right.sort.elem
        if sl != sr:
            ca, cb = None, None
            try:
                ca = self.senv.cedar_of_sort(sl)
                cb = self.senv.cedar_of_sort(sr)
            except UnsupportedConstruct:
                pass
            j = join(ca, cb) if ca is not None and cb is not None else None
            if j is not None:
                left_c = self._coerce(left, j)
                right_c = self._coerce(right, j)
                body = TSome(mk_eq(mk_val(left_c), mk_val(right_c)))
                return mk_ifok(left, mk_ifok(right, body))
            body = TSome(TBoolLit(False))
            return mk_ifok(left, mk_ifok(right, body))
        body = TSome(mk_eq(mk_val(left), mk_val(right)))
        return mk_ifok(left, mk_ifok(right, body))

    def _in(self, e: EBinop) -> Term:
        lhs_action = self._static_action(e.left)
        if lhs_action is not None:
            rhs_one = self._static_action(e.right)
            rhs_set = self._static_action_set(e.right)
            if rhs_one is not None:
                rhs_set = [rhs_one]
            if rhs_set is not None:
                hit = any(self.schema.action_in(lhs_action, r) for r in rhs_set)
                return TSome(TBoolLit(hit))
        left = self.compile(e.left)
        right = self.compile(e.right)
        e1 = self._entity_type_of(left.sort.elem, "in")
        v1, v2 = mk_val(left), mk_val(right)
        rhs_sort = right.sort.elem
        parents = self._parents(e1)
        if isinstance(rhs_sort, SData):
            e2 = self._entity_type_of(rhs_sort, "in")
            b1 = mk_eq(v1, v2) if e1 == e2 else TBoolLit(False)
            if e2 in parents:
                fn = self.senv.ensure_anc_fn(e1, e2)
                b2: Term = TSetMember(v2, TApp(fn, (v1,), SSet(rhs_sort)))
            else:
                b2 = TBoolLit(False)
            body = TSome(mk_or2(b1, b2))
            return mk_ifok(left, mk_ifok(right, body))
        if isinstance(rhs_sort, SSet) and isinstance(rhs_sort.elem, SData):
            e2 = self._entity_type_of(rhs_sort.elem, "in")
            b1 = TSetMember(v1, v2) if e1 == e2 else TBoolLit(False)
            if e2 in parents:
                fn = self.senv.ensure_anc_fn(e1, e2)
                anc = TApp(fn, (v1,), SSet(rhs_sort.elem))
                b2 = mk_not(mk_eq(TSetInter(v2, anc), TSetEmpty(rhs_sort.elem)))
            else:
                b2 = TBoolLit(False)
            body = TSome(mk_or2(b1, b2))
            return mk_ifok(left, mk_ifok(right, body))
        raise UnsupportedConstruct("in with a non-entity right operand encoding")


def compile_expr(
    expr: Expr,
    env: RequestEnv,
    schema: Schema,
    senv: SymbolicEnv,
    footprint: Optional[list] = None,
) -> Term:
    """Compile a well-typed expression to an Option-sorted term.

    When ``footprint`` is a list, every compiled entity-typed subexpression is
    appended to it as a (term, entity type) pair, first occurrence order,
    deduplicated.
    """
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
        expr = substitute_action(toexp(p), env.action)
        compiled = compile_expr(expr, env, schema, senv, footprint=footprint)
        if compiled.sort != SOption(BOOL_S):
            raise AnalysisError(f"policy {p.id} compiled to a non-boolean term")
        flag = is_true_term(compiled)
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
    from .sexpr import read_sexprs
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
    # The footprint terms' values, from one read of all their text.
    for sexp in read_sexprs("\n".join(term_sexpr(t) for t, _ in footprint)):
        v = ev.eval(sexp, {})
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
    for ref, value in refs.items():
        decl = schema.entity(ref.entity_type)
        if decl is None:
            continue
        rec = _decode_value(senv, ev.apply(senv.attr_fn[ref.entity_type], [value]))
        direct = set()
        for ancestor_type in sorted(decl.parents):
            fn = senv.anc_fn.get((ref.entity_type, ancestor_type))
            if fn is None:
                continue
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
    from .smt_backend import SolverConfig, SolverOutcome, print_script, run_solver

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
        script = print_script(senv, assertions)
        if emit_dir is not None:
            import os

            os.makedirs(emit_dir, exist_ok=True)
            fname = _sanitize(
                f"{env.action.entity_id}_{env.principal_type}_{env.resource_type}"
            ) + ".smt2"
            with open(os.path.join(emit_dir, fname), "w", encoding="utf-8") as fh:
                fh.write(script)
        outcome = run_solver(config, script)
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
