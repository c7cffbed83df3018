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
to the CDCL loop in `sat.py`.  The domain bound makes this decision procedure
complete for the fragment: any model can be collapsed onto term-denoted
elements plus the slack elements.  Scripts that use bit-vector arithmetic or
regular-expression membership answer `unknown`.

The session takes command trees (`run_commands`) and answers with the model
as define-fun trees, in the shape cvc5 prints, so one model grammar serves
both solvers.  Text is read and written only at the standalone command's
edge (`run`, `main`).
"""

from __future__ import annotations

import sys
from typing import Optional

from .sat import CNF, dpll
from .sexpr import SexprError, is_string_literal, read_sexprs, write_sexpr


class Unsupported(Exception):
    pass


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

# A sort is its tree in the script: a name (Bool, String or a datatype),
# (_ BitVec 64), or (Set s) and (Option s).
BOOL = "Bool"
STRING = "String"
BV = ("_", "BitVec", 64)


def check_sort(sort):
    """`sort`, if the solver supports it."""
    if type(sort) is tuple and len(sort) == 2 and sort[0] in ("Set", "Option"):
        check_sort(sort[1])
    elif type(sort) is not str and sort != BV:
        raise Unsupported(f"sort {sort!r}")
    return sort


# ---------------------------------------------------------------------------
# Symbolic values
# ---------------------------------------------------------------------------


class Lazy:
    """A value made on first use, by ``make(check, *args)``.

    It holds its maker and arguments, not a closure over the check, so no
    value refers back to the `_Check` that made it.
    """

    __slots__ = ("make", "args", "value")

    def __init__(self, make, *args, value=None):
        self.make = make  # None once the value is made
        self.args = args
        self.value = value

    def get(self, check):
        if self.make is not None:
            self.value = self.make(check, *self.args)
            self.make = self.args = None
        return self.value


class BoolV:
    __slots__ = ("lit",)
    sort = BOOL

    def __init__(self, lit):
        self.lit = lit


class _PoolBits:
    __slots__ = ("bits", "pool", "sort")

    def __init__(self, bits, pool, sort):
        self.bits = bits
        self.pool = pool
        self.sort = sort


class EnumV(_PoolBits):
    """One-hot vector over a pool (entity datatype values and strings)."""

    __slots__ = ()


class SetV(_PoolBits):
    """Membership vector over a pool."""

    __slots__ = ()


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
    __slots__ = ("name", "elems")

    def __init__(self, name):
        self.name = name
        self.elems: list = []  # concrete strings or ("fresh", k)


_BOOL_HEADS = frozenset(("=", "distinct", "not", "and", "or", "=>", "set.member", "set.subset", "str.in_re", "bvslt", "bvsle"))


# ---------------------------------------------------------------------------
# The solver session
# ---------------------------------------------------------------------------


class Session:
    """One script: declarations, assertions, and the answer to its check-sat.

    Past `deadline`, a `time.monotonic()` value, `run` and `run_commands`
    raise `sat.Timeout`.
    """

    def __init__(self, deadline: Optional[float] = None):
        self.datatypes: dict = {}  # name -> ((selector, sort), ...)
        self.selectors: dict = {}  # selector -> (dt, index, sort)
        self.funs: dict = {}  # name -> (arg sorts, ret sort)
        self.consts: dict = {}  # name -> sort
        self.asserts: list = []
        self.deadline = deadline

    # -- command loop -------------------------------------------------------

    def run(self, text: str, out, err=None) -> list:
        """Answer the script on `out`, and return the replies as
        `run_commands` does; `(error "...")` notes go to `err`, by default
        the `sys.stderr` of the moment."""
        err = sys.stderr if err is None else err
        try:
            replies = self.run_commands(read_sexprs(text), err)
        except SexprError as exc:
            print(f'(error "{exc}")', file=err)
            replies = ["unknown"]
        for reply in replies:
            print(reply if type(reply) is str else "\n".join(["(", *map(write_sexpr, reply), ")"]), file=out)
        return replies

    def run_commands(self, commands, err) -> list:
        """The replies to the commands, trees as `read_sexprs` reads them:
        "sat", "unsat" or "unknown" for each check-sat, and the list of
        define-fun trees of the model for a get-model after `sat`.  Notes
        `(error "...")` go to `err`."""
        replies: list = []
        poisoned: Optional[str] = None
        model: Optional[list] = None  # after a check-sat that answered sat
        for cmd in commands:
            if not isinstance(cmd, tuple) or not cmd:
                continue
            head = cmd[0]
            try:
                if head in ("set-logic", "set-option", "set-info", "declare-datatypes"):
                    continue  # the parametric Option family is built in
                if head == "declare-datatype":
                    self._declare_datatype(cmd)
                elif head == "declare-fun":
                    name, args, ret = cmd[1], cmd[2], cmd[3]
                    self.funs[name] = (tuple(map(check_sort, args)), check_sort(ret))
                elif head == "declare-const":
                    self.consts[cmd[1]] = check_sort(cmd[2])
                elif head == "assert":
                    self.asserts.append(cmd[1])
                elif head == "check-sat":
                    model = None
                    try:
                        if poisoned is not None:
                            raise Unsupported(poisoned)
                        model = self._check()
                        replies.append("unsat" if model is None else "sat")
                    except Unsupported as exc:
                        print(f'(error "unsupported: {exc}")', file=err)
                        replies.append("unknown")
                elif head == "get-model":
                    if model is not None:
                        replies.append(model)
                    else:
                        print('(error "no model available")', file=err)
                elif head == "exit":
                    break
            except Unsupported as exc:
                poisoned = str(exc)
        return replies

    def _declare_datatype(self, cmd) -> None:
        name, ctors = cmd[1], cmd[2]
        if len(ctors) != 1:
            raise Unsupported("multi-constructor datatypes")
        ctor = ctors[0]
        if ctor[0] != name:
            raise Unsupported("constructor name differing from datatype name")
        fields = tuple((sel, check_sort(sort)) for sel, sort in ctor[1:])
        for idx, (sel, sort) in enumerate(fields):
            self.selectors[sel] = (name, idx, sort)
        self.datatypes[name] = fields

    def _check(self) -> Optional[list]:
        """The model's define-fun trees, or None when unsat."""
        check = _Check(self)
        assignment = check.solve(self.deadline)
        return None if assignment is None else check.render_model(assignment)


class _Check:
    """One check-sat: sorts, finite domains, the CNF translation and the model.

    Nothing it makes refers back to it (a lazy holds a function of the
    class, not a bound method, and no method makes a closure), so when the
    check returns, reference counting frees it, its CNF included, without
    waiting for the cycle collector.
    """

    def __init__(self, session: Session):
        self.datatypes = session.datatypes
        self.selectors = session.selectors
        self.funs = session.funs
        self.consts = session.consts
        self.asserts = session.asserts
        self.sorts: dict = {}  # id(node) -> sort
        self.selected: set = set()  # one-String-field datatypes whose field is read or built
        self.pools: dict = {}
        self.cnf = CNF()
        self.const_vals: dict = {}
        self.fn_tables: dict = {}
        self.memo: dict = {}  # id(node) -> value

    def solve(self, deadline: Optional[float]) -> Optional[list]:
        for a in self.asserts:
            if self.infer(a) != BOOL:
                raise Unsupported("assertion is not Bool")
        self.pools = self._build_pools()
        cnf = self.cnf
        roots = [self.bool_lit(a) for a in self.asserts]
        for lit in roots:
            cnf.add(lit)
        if cnf.nvars > 400000 or len(cnf.clauses) > 2000000:
            raise Unsupported("problem too large for the bundled solver")
        return dpll(cnf.nvars, cnf.clauses, deadline)

    def _entity_like(self, dt_name: str) -> bool:
        fields = self.datatypes.get(dt_name)
        return fields is not None and len(fields) == 1 and fields[0][1] == STRING

    def _pool_key(self, sort) -> Optional[str]:
        """The finite domain of a sort, or None.  A datatype with one String
        field is isomorphic to String.  It gets a domain of its own, or, when
        the script reads or builds its field, shares the String domain so
        that its selector and its constructor are the identity."""
        if sort == STRING:
            return "String"
        if type(sort) is str and self._entity_like(sort):
            return "String" if sort in self.selected else sort
        return None

    # -- sort inference -----------------------------------------------------

    def infer(self, node):
        key = id(node)
        hit = self.sorts.get(key)
        if hit is not None:
            return hit
        sort = self._infer(node)
        self.sorts[key] = sort
        return sort

    def _infer(self, node):
        if node == "true" or node == "false":
            return BOOL
        if is_string_literal(node):
            return STRING
        if isinstance(node, str):
            if node in self.consts:
                return self.consts[node]
            if node in self.datatypes and not self.datatypes[node]:
                return node
            raise Unsupported(f"unknown symbol {node}")
        if isinstance(node, int):
            raise Unsupported("bare numeral")
        head = node[0]
        if head == "_":
            if isinstance(node[1], str) and node[1].startswith("bv"):
                return BV
            raise Unsupported(f"indexed {node!r}")
        if head == "as":
            if node[1] in ("none", "set.empty"):
                return check_sort(node[2])
            raise Unsupported(f"as-expression {node!r}")
        args = [self.infer(a) for a in node[1:]]
        if head in _BOOL_HEADS or (isinstance(head, tuple) and head[:2] == ("_", "is")):
            return BOOL
        if head == "ite":
            return args[1]
        if head == "some":
            return ("Option", args[0])
        if head == "val":
            if args[0][0] != "Option":
                raise Unsupported("val on a non-Option")
            return args[0][1]
        if head in ("set.union", "set.inter", "set.minus"):
            return args[0]
        if head == "set.singleton":
            return ("Set", args[0])
        if head in ("bvadd", "bvsub", "bvneg", "bvmul"):
            return BV
        if isinstance(head, str):
            if head in self.funs:
                return self.funs[head][1]
            if head in self.datatypes:
                if self._entity_like(head) and not is_string_literal(node[1]):
                    self.selected.add(head)
                return head
            if head in self.selectors:
                dt = self.selectors[head][0]
                if self._entity_like(dt):
                    self.selected.add(dt)
                return self.selectors[head][2]
            raise Unsupported(f"unknown application head {head}")
        raise Unsupported(f"term {node!r}")

    # -- pools ---------------------------------------------------------------

    def _build_pools(self) -> dict:
        # A fresh "witness" element is needed only where a collapsed model
        # could flip an atom the formula relies on: a subset or set equality
        # in non-positive position (dropping elements can only make those
        # atoms more true).  Count each such occurrence; each needs at most
        # one extra domain element.
        sorts = self.sorts
        lits: dict = {}
        node_count: dict = {}
        counted: set = set()
        witness_atoms = 0
        seen: set = set()
        todo = [(a, 1) for a in self.asserts]
        while todo:
            node, pol = todo.pop()
            key = (id(node), pol)
            if key in seen:
                continue
            seen.add(key)
            sort = sorts.get(id(node))
            pk = self._pool_key(sort) if sort is not None else None
            if pk is not None and id(node) not in counted:
                counted.add(id(node))
                node_count[pk] = node_count.get(pk, 0) + 1
            if not isinstance(node, tuple):
                continue
            if is_string_literal(node):
                lits.setdefault("String", set()).add(node[1])
                continue
            head = node[0]
            if head in self.datatypes and self._entity_like(head) and len(node) == 2 and is_string_literal(node[1]):
                lits.setdefault(self._pool_key(head), set()).add(node[1][1])
            if head == "set.subset" and pol != 1:
                witness_atoms += 1
            if head in ("=", "distinct") and len(node) >= 3:
                s = sorts.get(id(node[1]))
                if s is not None and s[0] == "Set" and (head == "distinct" or pol != 1):
                    witness_atoms += 1
            # Polarity propagation.
            if head == "not":
                todo.append((node[1], -pol))
            elif head in ("and", "or"):
                todo.extend((child, pol) for child in node[1:])
            elif head == "=>":
                todo += [(node[1], -pol), (node[2], pol)]
            elif head == "ite":
                todo += [(node[1], 0), (node[2], pol), (node[3], pol)]
            elif head in ("=", "distinct") and sorts.get(id(node[1])) == BOOL:
                todo += [(node[1], 0), (node[2], 0)]
            else:
                todo.extend((child, 0) for child in node)

        pools: dict = {}
        for key in set(lits) | set(node_count):
            pool = Pool(key)
            pool.elems.extend(sorted(lits.get(key, ())))
            slack = node_count.get(key, 0) + witness_atoms + 1
            pool.elems.extend(("fresh", k) for k in range(slack))
            pools[key] = pool
        return pools

    def _pool_for(self, sort) -> Pool:
        key = self._pool_key(sort)
        if key is None:
            raise Unsupported(f"no finite domain for sort {write_sexpr(sort)}")
        pool = self.pools.get(key)
        if pool is None:
            pool = Pool(key)
            pool.elems.append(("fresh", 0))
            self.pools[key] = pool
        return pool

    # -- translation ----------------------------------------------------------

    def fresh(self, sort):
        cnf = self.cnf
        if sort == BOOL:
            return BoolV(cnf.new_var())
        if sort == BV:
            return BVV(None)
        if self._pool_key(sort) is not None:
            pool = self._pool_for(sort)
            bits = [cnf.new_var() for _ in pool.elems]
            cnf.exactly_one(bits)
            return EnumV(bits, pool, sort)
        if type(sort) is str:
            fields = self.datatypes.get(sort)
            if fields is None:
                raise Unsupported(f"unknown datatype {sort}")
            return RecV([Lazy(_Check.fresh, fs) for _, fs in fields], sort)
        if sort[0] == "Set":
            pool = self._pool_for(sort[1])
            bits = [cnf.new_var() for _ in pool.elems]
            return SetV(bits, pool, sort)
        return OptV(cnf.new_var(), Lazy(_Check.fresh, sort[1]), sort)

    def fn_value(self, fn: str, index: int):
        table = self.fn_tables.setdefault(fn, {})
        got = table.get(index)
        if got is None:
            got = self.fresh(self.funs[fn][1])
            table[index] = got
        return got

    def mux2(self, cond_lit: int, a, b):
        if cond_lit == CNF.TRUE:
            return a
        if cond_lit == CNF.FALSE:
            return b
        return self.mux_list([cond_lit, -cond_lit], [a, b], a.sort)

    def mux_list(self, sels, values, sort):
        cnf = self.cnf
        if sort == BOOL:
            return BoolV(cnf.mk_or([cnf.mk_and([s, v.lit]) for s, v in zip(sels, values)]))
        if sort == BV:
            concrete = {v.value for v in values}
            if len(concrete) == 1 and None not in concrete:
                return BVV(concrete.pop())
            return BVV(None)
        if isinstance(values[0], _PoolBits):
            pool = values[0].pool
            bits = [
                cnf.mk_or([cnf.mk_and([s, v.bits[i]]) for s, v in zip(sels, values)])
                for i in range(len(pool.elems))
            ]
            return type(values[0])(bits, pool, sort)
        if isinstance(values[0], OptV):
            flag = cnf.mk_or([cnf.mk_and([s, v.flag]) for s, v in zip(sels, values)])
            return OptV(flag, Lazy(_Check._mux_payloads, sels, values, sort[1]), sort)
        if isinstance(values[0], RecV):
            fields = [Lazy(_Check._mux_fields, sels, values, i) for i in range(len(values[0].fields))]
            return RecV(fields, sort)
        raise Unsupported("mux over unsupported values")

    def _mux_payloads(self, sels, values, sort):
        return self.mux_list(sels, [v.payload.get(self) for v in values], sort)

    def _mux_fields(self, sels, values, i):
        chosen = [v.fields[i].get(self) for v in values]
        return self.mux_list(sels, chosen, chosen[0].sort)

    def val_eq(self, a, b) -> int:
        cnf = self.cnf
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
            both_some = cnf.mk_and([a.flag, b.flag, self.val_eq(a.payload.get(self), b.payload.get(self))])
            return cnf.mk_or([both_none, both_some])
        if isinstance(a, RecV) and isinstance(b, RecV):
            return cnf.mk_and([self.val_eq(x.get(self), y.get(self)) for x, y in zip(a.fields, b.fields)])
        if isinstance(a, BVV) and isinstance(b, BVV):
            if a.value is not None and b.value is not None:
                return CNF.TRUE if a.value == b.value else CNF.FALSE
            raise Unsupported("equality over symbolic bit-vectors")
        raise Unsupported("equality over mixed values")

    def bool_lit(self, node) -> int:
        v = self.trans(node)
        if not isinstance(v, BoolV):
            raise Unsupported("expected a boolean")
        return v.lit

    def trans(self, node):
        key = id(node)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        out = self._trans(node)
        self.memo[key] = out
        return out

    def _trans(self, node):
        cnf, trans, bool_lit = self.cnf, self.trans, self.bool_lit
        if node == "true":
            return BoolV(CNF.TRUE)
        if node == "false":
            return BoolV(CNF.FALSE)
        if is_string_literal(node):
            return self._literal(node[1], STRING)
        if isinstance(node, str):
            if node in self.consts:
                got = self.const_vals.get(node)
                if got is None:
                    got = self.fresh(self.consts[node])
                    self.const_vals[node] = got
                return got
            if node in self.datatypes and not self.datatypes[node]:
                return RecV([], node)
            raise Unsupported(f"unknown symbol {node}")
        head = node[0]
        if head == "_":
            if isinstance(node[1], str) and node[1].startswith("bv"):
                raw = int(node[1][2:]) % (1 << 64)
                return BVV(raw)
            raise Unsupported(f"indexed {node!r}")
        if head == "as":  # (as none (Option s)) or (as set.empty (Set s)), as `infer` checked
            sort = node[2]
            if node[1] == "none":
                return OptV(CNF.FALSE, Lazy(_Check.fresh, sort[1]), sort)
            pool = self._pool_for(sort[1])
            return SetV([CNF.FALSE] * len(pool.elems), pool, sort)
        if head == "ite":
            return self.mux2(bool_lit(node[1]), trans(node[2]), trans(node[3]))
        if head == "=":
            return BoolV(self.val_eq(trans(node[1]), trans(node[2])))
        if head == "distinct":
            return BoolV(-self.val_eq(trans(node[1]), trans(node[2])))
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
            return OptV(CNF.TRUE, Lazy(None, value=inner), ("Option", inner.sort))
        if head == "val":
            opt = trans(node[1])
            if not isinstance(opt, OptV):
                raise Unsupported("val on a non-Option value")
            return opt.payload.get(self)
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
        if head in ("set.union", "set.inter", "set.minus"):
            a, b = trans(node[1]), trans(node[2])
            if head == "set.union":
                bits = [cnf.mk_or([x, y]) for x, y in zip(a.bits, b.bits)]
            else:
                bits = [cnf.mk_and([x, y if head == "set.inter" else -y]) for x, y in zip(a.bits, b.bits)]
            return SetV(bits, a.pool, a.sort)
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
        if head in ("bvadd", "bvsub", "bvneg", "bvmul", "bvslt", "bvsle", "str.in_re"):
            raise Unsupported(f"{head} (bit-vector/regex theory)")
        if isinstance(head, str):
            if head in self.datatypes:
                if self._entity_like(head):
                    if is_string_literal(node[1]):
                        return self._literal(node[1][1], head)
                    field = trans(node[1])  # shares the String domain: the constructor is the identity
                    return EnumV(field.bits, field.pool, head)
                return RecV([Lazy(None, value=trans(x)) for x in node[1:]], head)
            if head in self.selectors:
                dt, index, sort = self.selectors[head]
                arg = trans(node[1])
                if isinstance(arg, RecV):
                    return arg.fields[index].get(self)
                if isinstance(arg, EnumV) and dt in self.selected:
                    return EnumV(arg.bits, arg.pool, sort)  # the identity, as for the constructor
                raise Unsupported(f"selector {head} on a non-record value")
            if head in self.funs:
                arg_sorts, ret = self.funs[head]
                if len(arg_sorts) != 1:
                    raise Unsupported("multi-argument uninterpreted functions")
                arg = trans(node[1])
                if not isinstance(arg, EnumV):
                    raise Unsupported("function argument without a finite domain")
                values = [self.fn_value(head, i) for i in range(len(arg.pool.elems))]
                return self.mux_list(arg.bits, values, ret)
        raise Unsupported(f"term {node!r}")

    def _literal(self, text: str, sort) -> EnumV:
        pool = self._pool_for(sort)
        idx = pool.elems.index(text)
        return EnumV([CNF.TRUE if i == idx else CNF.FALSE for i in range(len(pool.elems))], pool, sort)

    # -- model rendering -------------------------------------------------------

    def render_model(self, assignment) -> list:
        """The model, one define-fun tree per constant and function."""
        self.assignment = assignment
        self.fresh_names: dict = {}
        defs = []
        for name, sort in self.consts.items():
            v = self.const_vals.get(name)
            body = self.render(v) if v is not None else self.default_tree(sort)
            defs.append(("define-fun", name, (), sort, body))
        for fn, (arg_sorts, ret) in self.funs.items():
            if not arg_sorts:
                continue
            table, arg_sort = self.fn_tables.get(fn, {}), arg_sorts[0]
            try:
                pool = self._pool_for(arg_sort)
            except Unsupported:
                table = {}  # no finite domain, so never applied
            body = self.default_tree(ret)
            for index in sorted(table, reverse=True):
                try:
                    value = self.render(table[index])
                except Unsupported:
                    value = self.default_tree(ret)
                body = ("ite", ("=", "x!0", self.elem_tree(pool, index, arg_sort)), value, body)
            defs.append(("define-fun", fn, (("x!0", arg_sort),), ret, body))
        return defs

    def lit_true(self, lit: int) -> bool:
        if lit == CNF.TRUE:
            return True
        if lit == CNF.FALSE:
            return False
        v = self.assignment[abs(lit)]
        return (v == 1) == (lit > 0)

    def elem_string(self, pool: Pool, index: int) -> str:
        elem = pool.elems[index]
        if isinstance(elem, tuple):
            key = (pool.name, elem[1])
            name = self.fresh_names.get(key)
            if name is None:
                base = f"{pool.name.lower()}_{elem[1]}"
                taken = {e for e in pool.elems if isinstance(e, str)} | set(self.fresh_names.values())
                name = base
                n = 0
                while name in taken:
                    n += 1
                    name = f"{base}_{n}"
                self.fresh_names[key] = name
            return name
        return elem

    def elem_tree(self, pool: Pool, index: int, sort):
        s = ("string", self.elem_string(pool, index))
        return s if sort == STRING else (sort, s)

    def default_tree(self, sort):
        if sort == BOOL:
            return "false"
        if sort == STRING:
            return ("string", "")
        if sort == BV:
            return ("_", "bv0", 64)
        if type(sort) is str:
            if self._entity_like(sort):
                return (sort, ("string", "default"))
            fields = self.datatypes.get(sort, ())
            return (sort, *(self.default_tree(fs) for _, fs in fields)) if fields else sort
        return ("as", "set.empty" if sort[0] == "Set" else "none", sort)

    def render(self, v):
        if isinstance(v, BoolV):
            return "true" if self.lit_true(v.lit) else "false"
        if isinstance(v, EnumV):
            for i, bit in enumerate(v.bits):
                if self.lit_true(bit):
                    return self.elem_tree(v.pool, i, v.sort)
            return self.default_tree(v.sort)
        if isinstance(v, SetV):
            members = [self.elem_tree(v.pool, i, v.sort[1]) for i, bit in enumerate(v.bits) if self.lit_true(bit)]
            if not members:
                return ("as", "set.empty", v.sort)
            out = ("set.singleton", members[0])
            for m in members[1:]:
                out = ("set.union", out, ("set.singleton", m))
            return out
        if isinstance(v, OptV):
            if self.lit_true(v.flag):
                # Payloads never forced during solving are unconstrained.
                if v.payload.make is None:
                    return ("some", self.render(v.payload.value))
                return ("some", self.default_tree(v.sort[1]))
            return ("as", "none", v.sort)
        if isinstance(v, RecV):
            fields = self.datatypes[v.sort]
            if not fields:
                return v.sort
            parts = []
            for lazy, (_, fsort) in zip(v.fields, fields):
                if lazy.make is not None:
                    parts.append(self.default_tree(fsort))
                    continue
                try:
                    parts.append(self.render(lazy.value))
                except Unsupported:
                    parts.append(self.default_tree(fsort))
            return (v.sort, *parts)
        if isinstance(v, BVV):
            return ("_", f"bv{(v.value or 0) % (1 << 64)}", 64)
        raise Unsupported("cannot render model value")


def main() -> int:
    Session().run(sys.stdin.read(), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
