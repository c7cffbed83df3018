"""A small finite-model SMT checker for the engine's own script dialect.

This is the fallback solver used when no external SMT solver is installed.
It decides quantifier-free problems over booleans, strings compared by
equality, single-string-field datatypes ("entities"), record datatypes, the
parametric Option datatype, uninterpreted functions over those, and finite
sets of entities or strings: exactly the fragment the symbolic compiler
emits for hierarchy-and-membership policies.

Method: bounded model finding.  Every entity/string sort gets a finite
domain (the literals in the script, plus one fresh element per distinct term
of that sort, plus slack for set witnesses), values become one-hot vectors or
membership bit-vectors, uninterpreted functions become lazily-materialized
tables, and the whole assertion set is Tseitin-translated to CNF and handed
to a DPLL loop.  The domain bound makes this decision procedure complete for
the fragment: any model can be collapsed onto term-denoted elements plus the
slack elements.  Scripts that use bit-vector arithmetic or regular-expression
membership answer `unknown`.

Models print in the same define-fun shape cvc5 uses, so one model grammar
serves both solvers.
"""

from __future__ import annotations

import sys
from typing import Optional

from .sexpr import SexprError, is_string_literal, read_sexprs


class Unsupported(Exception):
    pass


def intern_node(node, table: dict):
    """Share structurally equal subterms so id()-keyed memo tables deduplicate."""
    if isinstance(node, tuple) and not is_string_literal(node):
        node = tuple(intern_node(x, table) for x in node)
    got = table.get(node)
    if got is None:
        table[node] = node
        got = node
    return got


# ---------------------------------------------------------------------------
# CNF and DPLL
# ---------------------------------------------------------------------------


class CNF:
    def __init__(self):
        self.nvars = 1  # variable 1 is fixed true
        self.clauses: list = [(1,)]
        self._and_cache: dict = {}
        self._or_cache: dict = {}

    TRUE = 1
    FALSE = -1

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def add(self, *lits) -> None:
        self.clauses.append(tuple(lits))

    def mk_and(self, lits) -> int:
        out = []
        for l in lits:
            if l == self.FALSE:
                return self.FALSE
            if l == self.TRUE:
                continue
            out.append(l)
        if not out:
            return self.TRUE
        if len(out) == 1:
            return out[0]
        key = frozenset(out)
        hit = self._and_cache.get(key)
        if hit is not None:
            return hit
        t = self.new_var()
        for l in out:
            self.add(-t, l)
        self.add(t, *[-l for l in out])
        self._and_cache[key] = t
        return t

    def mk_or(self, lits) -> int:
        out = []
        for l in lits:
            if l == self.TRUE:
                return self.TRUE
            if l == self.FALSE:
                continue
            out.append(l)
        if not out:
            return self.FALSE
        if len(out) == 1:
            return out[0]
        key = frozenset(out)
        hit = self._or_cache.get(key)
        if hit is not None:
            return hit
        t = self.new_var()
        for l in out:
            self.add(t, -l)
        self.add(-t, *out)
        self._or_cache[key] = t
        return t

    def mk_not(self, lit: int) -> int:
        return -lit

    def mk_eq(self, a: int, b: int) -> int:
        if a == b:
            return self.TRUE
        if a == -b:
            return self.FALSE
        if a == self.TRUE:
            return b
        if a == self.FALSE:
            return -b
        if b == self.TRUE:
            return a
        if b == self.FALSE:
            return -a
        return self.mk_or([self.mk_and([a, b]), self.mk_and([-a, -b])])

    def mk_ite(self, c: int, a: int, b: int) -> int:
        if c == self.TRUE:
            return a
        if c == self.FALSE:
            return b
        if a == b:
            return a
        return self.mk_or([self.mk_and([c, a]), self.mk_and([-c, b])])

    def exactly_one(self, lits) -> None:
        self.add(*lits)
        for i in range(len(lits)):
            for j in range(i + 1, len(lits)):
                self.add(-lits[i], -lits[j])


def dpll(nvars: int, clauses: list) -> Optional[list]:
    """Conflict-driven clause learning over the translated CNF.

    Returns an assignment list indexed by variable (entry 0 unused) or None.
    Chronological backtracking degenerates on the one-hot vectors this
    translation produces, so this is a small CDCL: 1UIP learning, backjumping,
    activity-ordered decisions with phase saving, and geometric restarts.
    """
    cls: list = []
    units: list = []
    for clause in clauses:
        c = list(dict.fromkeys(clause))
        if not c:
            return None
        if any(-lit in c for lit in c):
            continue  # tautology
        if len(c) == 1:
            units.append(c[0])
        else:
            cls.append(c)

    assign = [0] * (nvars + 1)  # 0 unknown, 1 true, -1 false
    level = [0] * (nvars + 1)
    reason: list = [None] * (nvars + 1)  # clause index or None
    activity = [0.0] * (nvars + 1)
    phase = [False] * (nvars + 1)
    var_inc = 1.0

    def widx(lit: int) -> int:
        return 2 * abs(lit) + (1 if lit < 0 else 0)

    watches: list = [[] for _ in range(2 * nvars + 2)]
    for ci, c in enumerate(cls):
        watches[widx(c[0])].append(ci)
        watches[widx(c[1])].append(ci)
        for lit in c:
            activity[abs(lit)] += 1.0

    trail: list = []
    trail_lim: list = []
    qhead = 0

    def value(lit: int) -> int:
        v = assign[abs(lit)]
        if v == 0:
            return 0
        return 1 if (v > 0) == (lit > 0) else -1

    def enqueue(lit: int, why) -> bool:
        v = value(lit)
        if v == 1:
            return True
        if v == -1:
            return False
        var = abs(lit)
        assign[var] = 1 if lit > 0 else -1
        level[var] = len(trail_lim)
        reason[var] = why
        trail.append(lit)
        return True

    def propagate():
        nonlocal qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            neg = -lit
            wl = watches[widx(neg)]
            new_wl: list = []
            j = 0
            while j < len(wl):
                ci = wl[j]
                j += 1
                c = cls[ci]
                if c[0] == neg:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                if value(first) == 1:
                    new_wl.append(ci)
                    continue
                moved = False
                for k in range(2, len(c)):
                    if value(c[k]) != -1:
                        c[1], c[k] = c[k], c[1]
                        watches[widx(c[1])].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                new_wl.append(ci)
                if not enqueue(first, ci):
                    while j < len(wl):
                        new_wl.append(wl[j])
                        j += 1
                    watches[widx(neg)] = new_wl
                    return ci
            watches[widx(neg)] = new_wl
        return None

    def bump(var: int) -> None:
        nonlocal var_inc
        activity[var] += var_inc
        if activity[var] > 1e100:
            for v in range(1, nvars + 1):
                activity[v] *= 1e-100
            var_inc *= 1e-100

    def analyze(confl_ci: int):
        learnt = [0]
        seen = [False] * (nvars + 1)
        counter = 0
        p = 0
        index = len(trail)
        current = len(trail_lim)
        c = cls[confl_ci]
        while True:
            for q in (c if p == 0 else c[1:]):
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    bump(v)
                    if level[v] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[index - 1])]:
                index -= 1
            index -= 1
            p = trail[index]
            v = abs(p)
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            c = cls[reason[v]]
        learnt[0] = -p
        if len(learnt) == 1:
            bj = 0
        else:
            # Move a max-level literal to the second watch position.
            mi = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
            bj = level[abs(learnt[1])]
        return learnt, bj

    def cancel_until(bj: int) -> None:
        nonlocal qhead
        if len(trail_lim) <= bj:
            return
        mark = trail_lim[bj]
        for lit in reversed(trail[mark:]):
            var = abs(lit)
            phase[var] = lit > 0
            assign[var] = 0
            reason[var] = None
        del trail[mark:]
        del trail_lim[bj:]
        qhead = len(trail)

    for u in units:
        if not enqueue(u, None):
            return None
    if propagate() is not None:
        return None

    order = sorted(range(2, nvars + 1), key=lambda v: -activity[v])
    conflicts = 0
    restart_limit = 120
    var_decay = 1.0 / 0.95
    while True:
        confl = propagate()
        if confl is not None:
            conflicts += 1
            if not trail_lim:
                return None
            learnt, bj = analyze(confl)
            cancel_until(bj)
            var_inc *= var_decay
            if len(learnt) == 1:
                if not enqueue(learnt[0], None):
                    return None
            else:
                ci = len(cls)
                cls.append(learnt)
                watches[widx(learnt[0])].append(ci)
                watches[widx(learnt[1])].append(ci)
                enqueue(learnt[0], ci)
            if conflicts >= restart_limit:
                restart_limit = int(restart_limit * 1.5) + conflicts
                cancel_until(0)
                order = sorted(range(2, nvars + 1), key=lambda v: -activity[v])
            continue
        var = 0
        best = -1.0
        for v in order:
            if assign[v] == 0 and activity[v] > best:
                var = v
                best = activity[v]
        if var == 0:
            if assign[1] == 0:
                assign[1] = 1
            return assign
        trail_lim.append(len(trail))
        enqueue(var if phase[var] else -var, None)


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

BOOL = ("Bool",)
STRING = ("String",)
BV = ("BV", 64)


def parse_sort(sexp):
    if sexp == "Bool":
        return BOOL
    if sexp == "String":
        return STRING
    if isinstance(sexp, tuple):
        if sexp[0] == "_" and sexp[1] == "BitVec":
            return BV
        if sexp[0] == "Set":
            return ("Set", parse_sort(sexp[1]))
        if sexp[0] == "Option":
            return ("Option", parse_sort(sexp[1]))
        raise Unsupported(f"sort {sexp!r}")
    return ("DT", sexp)


def sort_text(sort) -> str:
    if sort == BOOL:
        return "Bool"
    if sort == STRING:
        return "String"
    if sort == BV:
        return "(_ BitVec 64)"
    if sort[0] == "Set":
        return f"(Set {sort_text(sort[1])})"
    if sort[0] == "Option":
        return f"(Option {sort_text(sort[1])})"
    return sort[1]


# ---------------------------------------------------------------------------
# Symbolic values
# ---------------------------------------------------------------------------


class Lazy:
    __slots__ = ("_fn", "_value", "_done")

    def __init__(self, fn):
        self._fn = fn
        self._value = None
        self._done = False

    def get(self):
        if not self._done:
            self._value = self._fn()
            self._done = True
        return self._value


class BoolV:
    __slots__ = ("lit",)
    sort = BOOL

    def __init__(self, lit):
        self.lit = lit


class EnumV:
    """One-hot vector over a pool (entity datatype values and strings)."""

    __slots__ = ("bits", "pool", "sort")

    def __init__(self, bits, pool, sort):
        self.bits = bits
        self.pool = pool
        self.sort = sort


class SetV:
    __slots__ = ("bits", "pool", "sort")

    def __init__(self, bits, pool, sort):
        self.bits = bits
        self.pool = pool
        self.sort = sort


class OptV:
    __slots__ = ("flag", "payload", "sort")

    def __init__(self, flag, payload: Lazy, sort):
        self.flag = flag
        self.payload = payload
        self.sort = sort


class RecV:
    __slots__ = ("fields", "sort")

    def __init__(self, fields, sort):
        self.fields = fields  # list of Lazy
        self.sort = sort


class BVV:
    __slots__ = ("value", "sort")

    def __init__(self, value):
        self.value = value  # int or None for a free value
        self.sort = BV


class Pool:
    __slots__ = ("name", "elems", "entity_dt")

    def __init__(self, name, entity_dt):
        self.name = name
        self.elems: list = []  # concrete strings or ("fresh", k)
        self.entity_dt = entity_dt  # datatype name or None for raw strings

    def index_of(self, s: str) -> int:
        return self.elems.index(s)


# ---------------------------------------------------------------------------
# The solver session
# ---------------------------------------------------------------------------


class Session:
    def __init__(self):
        self.datatypes: dict = {}  # name -> ((selector, sort), ...)
        self.selectors: dict = {}  # selector -> (dt, index, sort)
        self.funs: dict = {}  # name -> (arg sorts, ret sort)
        self.consts: dict = {}  # name -> sort
        self.asserts: list = []
        self.result: Optional[str] = None
        self.model_lines: Optional[list] = None
        self._intern: dict = {}

    # -- command loop -------------------------------------------------------

    def run(self, text: str, out) -> None:
        try:
            commands = read_sexprs(text)
        except SexprError as err:
            print(f'(error "{err}")', file=sys.stderr)
            print("unknown", file=out)
            return
        poisoned: Optional[str] = None
        for cmd in commands:
            if not isinstance(cmd, tuple) or not cmd:
                continue
            head = cmd[0]
            try:
                if head in ("set-logic", "set-option", "set-info"):
                    continue
                if head == "declare-datatypes":
                    continue  # the parametric Option family is built in
                if head == "declare-datatype":
                    self._declare_datatype(cmd)
                elif head == "declare-fun":
                    name, args, ret = cmd[1], cmd[2], cmd[3]
                    self.funs[name] = (tuple(parse_sort(a) for a in args), parse_sort(ret))
                elif head == "declare-const":
                    self.consts[cmd[1]] = parse_sort(cmd[2])
                elif head == "assert":
                    self.asserts.append(intern_node(cmd[1], self._intern))
                elif head == "check-sat":
                    if poisoned is not None:
                        print(f'(error "unsupported: {poisoned}")', file=sys.stderr)
                        print("unknown", file=out)
                        self.result = "unknown"
                    else:
                        try:
                            self._check(out)
                        except Unsupported as err:
                            print(f'(error "unsupported: {err}")', file=sys.stderr)
                            print("unknown", file=out)
                            self.result = "unknown"
                elif head == "get-model":
                    if self.result == "sat" and self.model_lines is not None:
                        print("(", file=out)
                        for line in self.model_lines:
                            print(line, file=out)
                        print(")", file=out)
                    else:
                        print('(error "no model available")', file=sys.stderr)
                elif head == "exit":
                    return
            except Unsupported as err:
                poisoned = str(err)

    def _declare_datatype(self, cmd) -> None:
        name = cmd[1]
        ctors = cmd[2]
        if len(ctors) != 1:
            raise Unsupported("multi-constructor datatypes")
        ctor = ctors[0]
        if ctor[0] != name:
            raise Unsupported("constructor name differing from datatype name")
        fields = []
        for idx, fdecl in enumerate(ctor[1:]):
            sel, sort_sexp = fdecl[0], fdecl[1]
            sort = parse_sort(sort_sexp)
            fields.append((sel, sort))
            self.selectors[sel] = (name, idx, sort)
        self.datatypes[name] = tuple(fields)

    def _entity_like(self, dt_name: str) -> bool:
        fields = self.datatypes.get(dt_name)
        return fields is not None and len(fields) == 1 and fields[0][1] == STRING

    # -- sort inference -----------------------------------------------------

    def infer(self, node, memo: dict):
        key = id(node)
        hit = memo.get(key)
        if hit is not None:
            return hit
        sort = self._infer(node, memo)
        memo[key] = sort
        return sort

    def _infer(self, node, memo):
        if node == "true" or node == "false":
            return BOOL
        if is_string_literal(node):
            return STRING
        if isinstance(node, str):
            if node in self.consts:
                return self.consts[node]
            if node in self.datatypes and not self.datatypes[node]:
                return ("DT", node)
            raise Unsupported(f"unknown symbol {node}")
        if isinstance(node, int):
            raise Unsupported("bare numeral")
        head = node[0]
        if head == "_":
            if isinstance(node[1], str) and node[1].startswith("bv"):
                return BV
            raise Unsupported(f"indexed {node!r}")
        if head == "as":
            if node[1] == "none":
                return parse_sort(node[2])
            if node[1] == "set.empty":
                return parse_sort(node[2])
            raise Unsupported(f"as-expression {node!r}")
        if head in ("=", "distinct", "not", "and", "or", "=>", "set.member", "set.subset", "str.in_re", "bvslt", "bvsle"):
            for a in node[1:]:
                self.infer(a, memo)
            return BOOL
        if isinstance(head, tuple) and head[:2] == ("_", "is"):
            self.infer(node[1], memo)
            return BOOL
        if head == "ite":
            self.infer(node[1], memo)
            s = self.infer(node[2], memo)
            self.infer(node[3], memo)
            return s
        if head == "some":
            return ("Option", self.infer(node[1], memo))
        if head == "val":
            s = self.infer(node[1], memo)
            if s[0] != "Option":
                raise Unsupported("val on a non-Option")
            return s[1]
        if head in ("set.union", "set.inter", "set.minus"):
            s = self.infer(node[1], memo)
            self.infer(node[2], memo)
            return s
        if head == "set.singleton":
            return ("Set", self.infer(node[1], memo))
        if head in ("bvadd", "bvsub", "bvneg", "bvmul", "bvsdiv"):
            for a in node[1:]:
                self.infer(a, memo)
            return BV
        if isinstance(head, str):
            for a in node[1:]:
                self.infer(a, memo)
            if head in self.funs:
                return self.funs[head][1]
            if head in self.datatypes:
                return ("DT", head)
            if head in self.selectors:
                return self.selectors[head][2]
            raise Unsupported(f"unknown application head {head}")
        raise Unsupported(f"term {node!r}")

    # -- pools ---------------------------------------------------------------

    def _build_pools(self, memo: dict) -> dict:
        pools: dict = {}
        lits: dict = {}
        node_count: dict = {}
        witness_atoms = 0
        seen: set = set()

        def pool_key(sort):
            if sort == STRING:
                return "String"
            if sort[0] == "DT" and self._entity_like(sort[1]):
                return sort[1]
            return None

        def is_set_sorted(node) -> bool:
            s = memo.get(id(node))
            return s is not None and s not in (BOOL, STRING, BV) and s[0] == "Set"

        def walk(node, pol):
            # A fresh "witness" element is needed only where a collapsed model
            # could flip an atom the formula relies on: a subset or set
            # equality in non-positive position (dropping elements can only
            # make those atoms more true).  Count each such occurrence; each
            # needs at most one extra domain element.
            nonlocal witness_atoms
            key = (id(node), pol)
            if key in seen:
                return
            seen.add(key)
            sort = memo.get(id(node))
            pk = pool_key(sort) if sort is not None else None
            if pk is not None and id(node) not in node_count.setdefault("__ids__", set()):
                node_count["__ids__"].add(id(node))
                node_count[pk] = node_count.get(pk, 0) + 1
            if not isinstance(node, tuple):
                return
            if is_string_literal(node):
                lits.setdefault("String", set()).add(node[1])
                return
            head = node[0]
            if (
                isinstance(head, str)
                and head in self.datatypes
                and self._entity_like(head)
                and len(node) == 2
                and is_string_literal(node[1])
            ):
                lits.setdefault(head, set()).add(node[1][1])
            if head == "set.subset" and pol != 1:
                witness_atoms += 1
            if head in ("=", "distinct") and len(node) >= 3 and is_set_sorted(node[1]):
                if head == "distinct" or pol != 1:
                    witness_atoms += 1
            # Polarity propagation.
            if head == "not":
                walk(node[1], -pol)
                return
            if head in ("and", "or"):
                for child in node[1:]:
                    walk(child, pol)
                return
            if head == "=>":
                walk(node[1], -pol)
                walk(node[2], pol)
                return
            if head == "ite":
                walk(node[1], 0)
                walk(node[2], pol)
                walk(node[3], pol)
                return
            if head in ("=", "distinct") and memo.get(id(node[1])) == BOOL:
                walk(node[1], 0)
                walk(node[2], 0)
                return
            for child in node:
                walk(child, 0)

        for a in self.asserts:
            walk(a, 1)
        node_count.pop("__ids__", None)

        keys = set(lits) | set(node_count)
        for key in keys:
            dt = None if key == "String" else key
            pool = Pool(key, dt)
            for lit in sorted(lits.get(key, ())):
                pool.elems.append(lit)
            slack = node_count.get(key, 0) + witness_atoms + 1
            for k in range(slack):
                pool.elems.append(("fresh", k))
            pools[key] = pool
        return pools

    def _pool_for(self, sort, pools: dict) -> Pool:
        if sort == STRING:
            key = "String"
        elif sort[0] == "DT" and self._entity_like(sort[1]):
            key = sort[1]
        else:
            raise Unsupported(f"no finite domain for sort {sort_text(sort)}")
        pool = pools.get(key)
        if pool is None:
            pool = Pool(key, None if key == "String" else key)
            pool.elems.append(("fresh", 0))
            pools[key] = pool
        return pool

    # -- translation ----------------------------------------------------------

    def _check(self, out) -> None:
        memo_sorts: dict = {}
        for a in self.asserts:
            if self.infer(a, memo_sorts) != BOOL:
                raise Unsupported("assertion is not Bool")
        pools = self._build_pools(memo_sorts)
        cnf = CNF()
        const_vals: dict = {}
        fn_tables: dict = {}
        trans_memo: dict = {}

        def fresh(sort):
            if sort == BOOL:
                return BoolV(cnf.new_var())
            if sort == BV:
                return BVV(None)
            if sort == STRING or (sort[0] == "DT" and self._entity_like(sort[1])):
                pool = self._pool_for(sort, pools)
                bits = [cnf.new_var() for _ in pool.elems]
                cnf.exactly_one(bits)
                return EnumV(bits, pool, sort)
            if sort[0] == "Set":
                pool = self._pool_for(sort[1], pools)
                bits = [cnf.new_var() for _ in pool.elems]
                return SetV(bits, pool, sort)
            if sort[0] == "Option":
                inner = sort[1]
                return OptV(cnf.new_var(), Lazy(lambda: fresh(inner)), sort)
            if sort[0] == "DT":
                fields = self.datatypes.get(sort[1])
                if fields is None:
                    raise Unsupported(f"unknown datatype {sort[1]}")
                lazies = [Lazy(lambda s=fs: fresh(s)) for _, fs in fields]
                return RecV(lazies, sort)
            raise Unsupported(f"cannot build values of sort {sort_text(sort)}")

        def fn_value(fn: str, index: int):
            table = fn_tables.setdefault(fn, {})
            got = table.get(index)
            if got is None:
                got = fresh(self.funs[fn][1])
                table[index] = got
            return got

        def mux2(cond_lit: int, a, b):
            if cond_lit == CNF.TRUE:
                return a
            if cond_lit == CNF.FALSE:
                return b
            return mux_list([cond_lit, -cond_lit], [a, b], a.sort)

        def mux_list(sels, values, sort):
            if sort == BOOL:
                return BoolV(cnf.mk_or([cnf.mk_and([s, v.lit]) for s, v in zip(sels, values)]))
            if sort == BV:
                concrete = {v.value for v in values}
                if len(concrete) == 1 and None not in concrete:
                    return BVV(concrete.pop())
                return BVV(None)
            if isinstance(values[0], EnumV):
                pool = values[0].pool
                bits = [
                    cnf.mk_or([cnf.mk_and([s, v.bits[i]]) for s, v in zip(sels, values)])
                    for i in range(len(pool.elems))
                ]
                return EnumV(bits, pool, sort)
            if isinstance(values[0], SetV):
                pool = values[0].pool
                bits = [
                    cnf.mk_or([cnf.mk_and([s, v.bits[i]]) for s, v in zip(sels, values)])
                    for i in range(len(pool.elems))
                ]
                return SetV(bits, pool, sort)
            if isinstance(values[0], OptV):
                flag = cnf.mk_or([cnf.mk_and([s, v.flag]) for s, v in zip(sels, values)])
                payload = Lazy(lambda: mux_list(sels, [v.payload.get() for v in values], sort[1]))
                return OptV(flag, payload, sort)
            if isinstance(values[0], RecV):
                fields = []
                for i in range(len(values[0].fields)):
                    fields.append(
                        Lazy(
                            lambda i=i: mux_list(
                                sels, [v.fields[i].get() for v in values], values[0].fields[i].get().sort
                            )
                        )
                    )
                return RecV(fields, sort)
            raise Unsupported("mux over unsupported values")

        def val_eq(a, b) -> int:
            if isinstance(a, BoolV) and isinstance(b, BoolV):
                return cnf.mk_eq(a.lit, b.lit)
            if isinstance(a, EnumV) and isinstance(b, EnumV):
                if a.pool is not b.pool:
                    return CNF.FALSE
                return cnf.mk_or([cnf.mk_and([x, y]) for x, y in zip(a.bits, b.bits)])
            if isinstance(a, SetV) and isinstance(b, SetV):
                if a.pool is not b.pool:
                    return CNF.FALSE
                return cnf.mk_and([cnf.mk_eq(x, y) for x, y in zip(a.bits, b.bits)])
            if isinstance(a, OptV) and isinstance(b, OptV):
                if a.flag == CNF.FALSE or b.flag == CNF.FALSE:
                    return cnf.mk_and([-a.flag, -b.flag])
                both_none = cnf.mk_and([-a.flag, -b.flag])
                both_some = cnf.mk_and([a.flag, b.flag, val_eq(a.payload.get(), b.payload.get())])
                return cnf.mk_or([both_none, both_some])
            if isinstance(a, RecV) and isinstance(b, RecV):
                return cnf.mk_and(
                    [val_eq(x.get(), y.get()) for x, y in zip(a.fields, b.fields)]
                )
            if isinstance(a, BVV) and isinstance(b, BVV):
                if a.value is not None and b.value is not None:
                    return CNF.TRUE if a.value == b.value else CNF.FALSE
                raise Unsupported("equality over symbolic bit-vectors")
            raise Unsupported("equality over mixed values")

        def bool_lit(node) -> int:
            v = trans(node)
            if not isinstance(v, BoolV):
                raise Unsupported("expected a boolean")
            return v.lit

        def trans(node):
            key = id(node)
            hit = trans_memo.get(key)
            if hit is not None:
                return hit
            out = self._trans(node, trans_memo, pools, cnf, const_vals, fresh, fn_value, mux2, mux_list, val_eq, bool_lit, trans)
            trans_memo[key] = out
            return out

        roots = []
        try:
            for a in self.asserts:
                roots.append(bool_lit(a))
        except Unsupported:
            raise
        for lit in roots:
            cnf.add(lit)
        if cnf.nvars > 400000 or len(cnf.clauses) > 2000000:
            raise Unsupported("problem too large for the bundled solver")
        assignment = dpll(cnf.nvars, cnf.clauses)
        if assignment is None:
            self.result = "unsat"
            print("unsat", file=out)
            return
        self.result = "sat"
        self.model_lines = self._render_model(assignment, pools, const_vals, fn_tables)
        print("sat", file=out)

    def _trans(self, node, memo, pools, cnf, const_vals, fresh, fn_value, mux2, mux_list, val_eq, bool_lit, trans):
        if node == "true":
            return BoolV(CNF.TRUE)
        if node == "false":
            return BoolV(CNF.FALSE)
        if is_string_literal(node):
            pool = self._pool_for(STRING, pools)
            idx = pool.index_of(node[1])
            bits = [CNF.TRUE if i == idx else CNF.FALSE for i in range(len(pool.elems))]
            return EnumV(bits, pool, STRING)
        if isinstance(node, str):
            if node in self.consts:
                got = const_vals.get(node)
                if got is None:
                    got = fresh(self.consts[node])
                    const_vals[node] = got
                return got
            if node in self.datatypes and not self.datatypes[node]:
                return RecV([], ("DT", node))
            raise Unsupported(f"unknown symbol {node}")
        head = node[0]
        if head == "_":
            if isinstance(node[1], str) and node[1].startswith("bv"):
                raw = int(node[1][2:]) % (1 << 64)
                return BVV(raw)
            raise Unsupported(f"indexed {node!r}")
        if head == "as":
            if node[1] == "none":
                sort = parse_sort(node[2])
                return OptV(CNF.FALSE, Lazy(lambda: fresh(sort[1])), sort)
            if node[1] == "set.empty":
                sort = parse_sort(node[2])
                pool = self._pool_for(sort[1], pools)
                return SetV([CNF.FALSE] * len(pool.elems), pool, sort)
            raise Unsupported(f"as-expression {node!r}")
        if head == "ite":
            c = bool_lit(node[1])
            a = trans(node[2])
            b = trans(node[3])
            return mux2(c, a, b)
        if head == "=":
            return BoolV(val_eq(trans(node[1]), trans(node[2])))
        if head == "distinct":
            return BoolV(-val_eq(trans(node[1]), trans(node[2])))
        if head == "not":
            return BoolV(-bool_lit(node[1]))
        if head == "and":
            return BoolV(cnf.mk_and([bool_lit(x) for x in node[1:]]))
        if head == "or":
            return BoolV(cnf.mk_or([bool_lit(x) for x in node[1:]]))
        if head == "=>":
            return BoolV(cnf.mk_or([-bool_lit(node[1]), bool_lit(node[2])]))
        if head == "some":
            inner = trans(node[1])
            return OptV(CNF.TRUE, Lazy(lambda: inner), ("Option", inner.sort))
        if head == "val":
            opt = trans(node[1])
            if not isinstance(opt, OptV):
                raise Unsupported("val on a non-Option value")
            return opt.payload.get()
        if isinstance(head, tuple) and head[:2] == ("_", "is"):
            opt = trans(node[1])
            if not isinstance(opt, OptV):
                raise Unsupported("tester on a non-Option value")
            return BoolV(opt.flag if head[2] == "some" else -opt.flag)
        if head == "set.singleton":
            elem = trans(node[1])
            if not isinstance(elem, EnumV):
                raise Unsupported("set of unsupported elements")
            return SetV(list(elem.bits), elem.pool, ("Set", elem.sort))
        if head == "set.union":
            a, b = trans(node[1]), trans(node[2])
            return SetV([cnf.mk_or([x, y]) for x, y in zip(a.bits, b.bits)], a.pool, a.sort)
        if head == "set.inter":
            a, b = trans(node[1]), trans(node[2])
            return SetV([cnf.mk_and([x, y]) for x, y in zip(a.bits, b.bits)], a.pool, a.sort)
        if head == "set.minus":
            a, b = trans(node[1]), trans(node[2])
            return SetV([cnf.mk_and([x, -y]) for x, y in zip(a.bits, b.bits)], a.pool, a.sort)
        if head == "set.member":
            elem, st = trans(node[1]), trans(node[2])
            if not isinstance(elem, EnumV) or not isinstance(st, SetV):
                raise Unsupported("set.member over unsupported values")
            if elem.pool is not st.pool:
                return BoolV(CNF.FALSE)
            return BoolV(cnf.mk_or([cnf.mk_and([x, y]) for x, y in zip(elem.bits, st.bits)]))
        if head == "set.subset":
            a, b = trans(node[1]), trans(node[2])
            return BoolV(cnf.mk_and([cnf.mk_or([-x, y]) for x, y in zip(a.bits, b.bits)]))
        if head in ("bvadd", "bvsub", "bvneg", "bvmul", "bvsdiv", "bvslt", "bvsle", "str.in_re"):
            raise Unsupported(f"{head} (bit-vector/regex theory)")
        if isinstance(head, str):
            if head in self.datatypes:
                fields = self.datatypes[head]
                if self._entity_like(head) and is_string_literal(node[1]):
                    pool = self._pool_for(("DT", head), pools)
                    idx = pool.index_of(node[1][1])
                    bits = [CNF.TRUE if i == idx else CNF.FALSE for i in range(len(pool.elems))]
                    return EnumV(bits, pool, ("DT", head))
                args = [trans(x) for x in node[1:]]
                lazies = [Lazy(lambda v=v: v) for v in args]
                return RecV(lazies, ("DT", head))
            if head in self.selectors:
                dt, index, _ = self.selectors[head]
                arg = trans(node[1])
                if isinstance(arg, RecV):
                    return arg.fields[index].get()
                raise Unsupported(f"selector {head} on a non-record value")
            if head in self.funs:
                arg_sorts, ret = self.funs[head]
                if len(arg_sorts) != 1:
                    raise Unsupported("multi-argument uninterpreted functions")
                arg = trans(node[1])
                if not isinstance(arg, EnumV):
                    raise Unsupported("function argument without a finite domain")
                values = [fn_value(head, i) for i in range(len(arg.pool.elems))]
                return mux_list(arg.bits, values, ret)
        raise Unsupported(f"term {node!r}")

    # -- model rendering -------------------------------------------------------

    def _render_model(self, assignment, pools, const_vals, fn_tables) -> list:
        fresh_names: dict = {}

        def lit_true(lit: int) -> bool:
            if lit == CNF.TRUE:
                return True
            if lit == CNF.FALSE:
                return False
            v = assignment[abs(lit)]
            return (v == 1) == (lit > 0)

        def elem_string(pool: Pool, index: int) -> str:
            elem = pool.elems[index]
            if isinstance(elem, tuple):
                key = (pool.name, elem[1])
                name = fresh_names.get(key)
                if name is None:
                    base = f"{pool.name.lower()}_{elem[1]}"
                    taken = {e for e in pool.elems if isinstance(e, str)} | set(fresh_names.values())
                    name = base
                    n = 0
                    while name in taken:
                        n += 1
                        name = f"{base}_{n}"
                    fresh_names[key] = name
                return name
            return elem

        def elem_text(pool: Pool, index: int) -> str:
            s = '"' + elem_string(pool, index).replace('"', '""') + '"'
            if pool.entity_dt is not None:
                return f"({pool.entity_dt} {s})"
            return s

        def default_text(sort) -> str:
            if sort == BOOL:
                return "false"
            if sort == STRING:
                return '""'
            if sort == BV:
                return "(_ bv0 64)"
            if sort[0] == "Set":
                return f"(as set.empty {sort_text(sort)})"
            if sort[0] == "Option":
                return f"(as none {sort_text(sort)})"
            if sort[0] == "DT":
                if self._entity_like(sort[1]):
                    return f'({sort[1]} "default")'
                fields = self.datatypes.get(sort[1], ())
                if not fields:
                    return sort[1]
                inner = " ".join(default_text(fs) for _, fs in fields)
                return f"({sort[1]} {inner})"
            return "false"

        def render(v) -> str:
            if isinstance(v, BoolV):
                return "true" if lit_true(v.lit) else "false"
            if isinstance(v, EnumV):
                for i, bit in enumerate(v.bits):
                    if lit_true(bit):
                        return elem_text(v.pool, i)
                return default_text(v.sort)
            if isinstance(v, SetV):
                members = [elem_text(v.pool, i) for i, bit in enumerate(v.bits) if lit_true(bit)]
                if not members:
                    return f"(as set.empty {sort_text(v.sort)})"
                out = f"(set.singleton {members[0]})"
                for m in members[1:]:
                    out = f"(set.union {out} (set.singleton {m}))"
                return out
            if isinstance(v, OptV):
                if lit_true(v.flag):
                    # Payloads never forced during solving are unconstrained.
                    if v.payload._done:
                        return f"(some {render(v.payload.get())})"
                    return f"(some {default_text(v.sort[1])})"
                return f"(as none {sort_text(v.sort)})"
            if isinstance(v, RecV):
                fields = self.datatypes[v.sort[1]]
                if not fields:
                    return v.sort[1]
                parts = []
                for lazy, (_, fsort) in zip(v.fields, fields):
                    if not lazy._done:
                        parts.append(default_text(fsort))
                        continue
                    try:
                        parts.append(render(lazy.get()))
                    except Unsupported:
                        parts.append(default_text(fsort))
                return f"({v.sort[1]} " + " ".join(parts) + ")"
            if isinstance(v, BVV):
                return f"(_ bv{(v.value or 0) % (1 << 64)} 64)"
            raise Unsupported("cannot render model value")

        lines = []
        for name, sort in self.consts.items():
            v = const_vals.get(name)
            body = render(v) if v is not None else default_text(sort)
            lines.append(f"(define-fun {name} () {sort_text(sort)} {body})")
        for fn, (arg_sorts, ret) in self.funs.items():
            table = fn_tables.get(fn, {})
            arg_sort = arg_sorts[0] if arg_sorts else None
            if arg_sort is None:
                continue
            try:
                pool = self._pool_for(arg_sort, pools)
            except Unsupported:
                lines.append(
                    f"(define-fun {fn} ((x!0 {sort_text(arg_sort)})) {sort_text(ret)} {default_text(ret)})"
                )
                continue
            body = default_text(ret)
            for index in sorted(table, reverse=True):
                try:
                    value_text = render(table[index])
                except Unsupported:
                    value_text = default_text(ret)
                body = f"(ite (= x!0 {elem_text(pool, index)}) {value_text} {body})"
            lines.append(
                f"(define-fun {fn} ((x!0 {sort_text(arg_sort)})) {sort_text(ret)} {body})"
            )
        return lines


def main() -> int:
    text = sys.stdin.read()
    session = Session()
    session.run(text, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
