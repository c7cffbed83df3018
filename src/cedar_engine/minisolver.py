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
elements plus the slack elements.

The solver translates `terms.Term`s, which carry their sorts: each was
sort-checked when it was built.  The session takes commands
(`run_commands`): declarations as trees, and assertions as terms (the
symbolic compiler's, checked against the same declarations when its script
was made) or as trees read from text.  When check-sat runs, the session
reads each asserted tree into a term, checking it against `sexpr.RANKS`,
which states a built-in head's argument and result sorts, and against the
declarations.  An ill-sorted script answers `unknown`, as does one that
declares a built-in name or one declared already, nests terms deeper than
Python recurses, or uses bit-vector arithmetic or regular-expression
membership; the first fault is noted as `(error "unsupported: ...")`.

The answer's model is a list of define-fun trees, in the shape cvc5 prints,
so one model grammar serves both solvers.  Text is read and written only at
the standalone command's edge (`run`, `main`).
"""

from __future__ import annotations

import sys
from typing import Optional

from .sat import CNF, dpll
from .sexpr import (
    BOOL,
    BUILT_IN_LEAVES,
    BV,
    RANKS,
    STRING,
    SexprError,
    is_string_literal,
    rank_arguments,
    ranked_sort,
    read_sexprs,
    write_sexpr,
)
from .terms import IS_SOME, TBoolLit, TConst, TReAll, TStrLit, Term


class Unsupported(Exception):
    pass


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

def check_sort(sort, datatypes: dict):
    """`sort`, if the solver supports it: Bool, String, 64-bit vectors, one
    of the `datatypes` declared so far, or a Set or Option of those."""
    if type(sort) is tuple and len(sort) == 2 and sort[0] in ("Set", "Option"):
        check_sort(sort[1], datatypes)
    elif sort not in (BOOL, STRING, BV) and not (type(sort) is str and sort in datatypes):
        raise Unsupported(f"sort {write_sexpr(sort)}")
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


# The number of arguments each command, `_` and `as` take.  A term head takes
# those its rank or its declaration says.
_ARITY = {"declare-datatype": 2, "declare-fun": 3, "declare-const": 2, "assert": 1, "_": 2, "as": 2}


def check_arity(node, want: Optional[int] = None) -> tuple:
    """`node`, a command or an application, if it has the `want` arguments
    its head takes (by default its head's in `_ARITY`, if any)."""
    if type(node) is not tuple or not node:
        raise Unsupported(f"expected an application, got {write_sexpr(node)}")
    if want is None:
        want = _ARITY.get(node[0])
    if want is not None and len(node) - 1 != want:
        raise Unsupported(f"{write_sexpr(node[0])} applied to {len(node) - 1} arguments, expected {want}")
    return node


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
        self.asserts: list = []  # terms, or trees read from text
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
        """The replies to the commands, trees as `read_sexprs` reads them,
        except that an assert may hold a `Term`: "sat", "unsat" or
        "unknown" for each check-sat, and the list of define-fun trees of
        the model for a get-model after `sat`.  Notes `(error "...")` go to
        `err`."""
        replies: list = []
        poisoned: Optional[str] = None
        model: Optional[list] = None  # after a check-sat that answered sat
        for cmd in commands:
            if not isinstance(cmd, tuple) or not cmd:
                continue
            head = cmd[0]
            try:
                check_arity(cmd)
                if head in ("set-logic", "set-option", "set-info", "declare-datatypes"):
                    continue  # the parametric Option family is built in
                if head == "declare-datatype":
                    self._declare_datatype(cmd)
                elif head == "declare-fun":
                    name, args, ret = self._new_name(cmd[1]), cmd[2], cmd[3]
                    if type(args) is not tuple:
                        raise Unsupported(f"argument sorts {write_sexpr(args)}")
                    sorts = tuple(check_sort(sort, self.datatypes) for sort in args)
                    self.funs[name] = (sorts, check_sort(ret, self.datatypes))
                elif head == "declare-const":
                    self.consts[self._new_name(cmd[1])] = check_sort(cmd[2], self.datatypes)
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
                poisoned = poisoned or str(exc)  # the first fault
        return replies

    def _new_name(self, name):
        """`name`, which a declaration gives a constant, function, datatype,
        constructor or selector, if it is neither built in nor declared
        already."""
        if name in _BUILT_IN_NAMES:
            raise Unsupported(f"declaration of the built-in {write_sexpr(name)}")
        if name in self.consts or name in self.funs or name in self.datatypes or name in self.selectors:
            raise Unsupported(f"redeclaration of {write_sexpr(name)}")
        return name

    def _declare_datatype(self, cmd) -> None:
        name, ctors = self._new_name(cmd[1]), cmd[2]
        if type(ctors) is not tuple or len(ctors) != 1:
            raise Unsupported("multi-constructor datatypes")
        ctor = ctors[0]
        if type(ctor) is not tuple or ctor[:1] != (name,):
            raise Unsupported("constructor name differing from datatype name")
        fields = tuple(
            (self._new_name(sel), check_sort(sort, self.datatypes))
            for sel, sort in (check_arity(field, 1) for field in ctor[1:])
        )
        names = {name, *(sel for sel, _ in fields)}  # the constructor is named as the datatype
        if len(names) <= len(fields):
            raise Unsupported(f"a name declared twice in datatype {write_sexpr(name)}")
        for idx, (sel, sort) in enumerate(fields):
            self.selectors[sel] = (name, idx, sort)
        self.datatypes[name] = fields

    def assertions(self) -> list:
        """The asserted terms, in order.  A term is taken as it is; a tree
        is read here, against the declarations made so far.  Raises
        Unsupported at the first fault."""
        memo: dict = {}
        out = []
        for a in self.asserts:
            term = a if type(a) is Term else self._read(a, memo)
            if term.sort != BOOL:
                raise Unsupported("assertion is not Bool")
            out.append(term)
        return out

    def _check(self) -> Optional[list]:
        """The model's define-fun trees, or None when unsat."""
        try:
            check = _Check(self, self.assertions())
            assignment = check.solve(self.deadline)
        except RecursionError:  # reading or translating a term
            raise Unsupported("terms nested too deeply") from None
        return None if assignment is None else check.render_model(assignment)

    # -- reading trees into terms ----------------------------------------------

    def _read(self, node, memo: dict) -> Term:
        """The term the tree `node` denotes.  `memo` holds the term of each
        node read so far, by the node's id: a tree read from a `let` shares
        the bound subtree wherever the name occurs, so each is read once."""
        got = memo.get(id(node))
        if got is None:
            got = memo[id(node)] = self._read_node(node, memo)
        return got

    def _read_node(self, node, memo: dict) -> Term:
        if node == "true" or node == "false":
            return TBoolLit(node == "true")
        if is_string_literal(node):
            return TStrLit(node[1])
        if isinstance(node, str):
            sort = self.consts.get(node)
            if sort is not None:
                return TConst(node, sort)
            if node in self.datatypes and not self.datatypes[node]:
                return Term(node, (), node)
            if node == "re.all":
                return TReAll()
            raise Unsupported(f"unknown symbol {node}")
        if isinstance(node, int):
            raise Unsupported("bare numeral")
        head = check_arity(node)[0]
        if head == "_":
            if isinstance(node[1], str) and node[1].startswith("bv") and node[1][2:].isdecimal() and node[2] == 64:
                return Term(node, (), BV)
            raise Unsupported(f"indexed {write_sexpr(node)}")
        if head == "as":
            sort = check_sort(node[2], self.datatypes)
            if type(sort) is tuple and (node[1], sort[0]) in (("none", "Option"), ("set.empty", "Set")):
                return Term(node, (), sort)
            raise Unsupported(f"as-expression {write_sexpr(node)}")
        # The head's rank: built in, or declared, looked up in the order
        # `_Check._trans` dispatches on it.
        rank = RANKS.get(head)
        if rank is not None:
            wants, result = rank_arguments(rank, len(node) - 1), rank[1]
            check_arity(node, len(wants))
        elif head in self.datatypes:
            wants, result = tuple(sort for _, sort in self.datatypes[head]), head
        elif head in self.selectors:
            dt, _, result = self.selectors[head]
            wants = (dt,)
        elif head in self.funs:
            wants, result = self.funs[head]
        else:
            raise Unsupported(f"unknown application head {write_sexpr(head)}")
        args = tuple([self._read(a, memo) for a in node[1:]])
        sort = ranked_sort(wants, result, [a.sort for a in args])
        if sort is None:
            raise Unsupported(f"{write_sexpr(head)} takes arguments of sorts {write_sexpr(wants)}")
        return Term(head, args, sort)


# A name a script may not declare: a built-in head or leaf.  A term of a
# built-in head is interned without its sort, so a declared one would take
# the built-in's.
_BUILT_IN_NAMES = frozenset({*RANKS, *BUILT_IN_LEAVES})


def _string_of(t: Term) -> Optional[str]:
    """The text of a string literal; None for any other term."""
    head = t.head
    return head[1] if type(head) is tuple and head[0] == "string" else None


class _Check:
    """One check-sat: finite domains, the CNF translation and the model.

    Nothing it makes refers back to it (a lazy holds a function of the
    class, not a bound method, and no method makes a closure), so when the
    check returns, reference counting frees it, its CNF included, without
    waiting for the cycle collector.
    """

    def __init__(self, session: Session, asserts: list):
        self.datatypes = session.datatypes
        self.selectors = session.selectors
        self.funs = session.funs
        self.consts = session.consts
        self.asserts = asserts
        self.selected: set = set()  # one-String-field datatypes whose field is read or built
        self.pools: dict = {}
        self.cnf = CNF()
        self.const_vals: dict = {}
        self.fn_tables: dict = {}
        self.memo: dict = {}  # term -> value

    def solve(self, deadline: Optional[float]) -> Optional[list]:
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

    # -- pools ---------------------------------------------------------------

    def _build_pools(self) -> dict:
        # A fresh "witness" element is needed only where a collapsed model
        # could flip an atom the formula relies on: a subset or set equality
        # in non-positive position (dropping elements can only make those
        # atoms more true).  Count each such occurrence; each needs at most
        # one extra domain element.  The walk also fills `selected`, which
        # decides the pool of each sort, so pools are keyed once it is done.
        lits: dict = {}  # sort -> the strings of its literals
        witness_atoms = 0
        seen: set = set()
        todo = [(a, 1) for a in self.asserts]
        while todo:
            t, pol = todo.pop()
            if (t, pol) in seen:
                continue
            seen.add((t, pol))
            head, args = t.head, t.args
            if not args:
                text = _string_of(t)
                if text is not None:
                    lits.setdefault(STRING, set()).add(text)
                continue
            if head in self.datatypes and self._entity_like(head):
                text = _string_of(args[0])
                if text is None:
                    self.selected.add(head)  # its field is built
                else:
                    lits.setdefault(head, set()).add(text)
            elif head in self.selectors and self._entity_like(self.selectors[head][0]):
                self.selected.add(self.selectors[head][0])
            elif head == "set.subset" and pol != 1:
                witness_atoms += 1
            elif head in ("=", "distinct") and args[0].sort[0] == "Set" and (head == "distinct" or pol != 1):
                witness_atoms += 1
            # Polarity propagation.
            if head == "not":
                todo.append((args[0], -pol))
            elif head in ("and", "or"):
                todo.extend((child, pol) for child in args)
            elif head == "=>":
                todo += [(args[0], -pol), (args[1], pol)]
            elif head == "ite":
                todo += [(args[0], 0), (args[1], pol), (args[2], pol)]
            else:
                todo.extend((child, 0) for child in args)

        node_count: dict = {}
        for t in {t for t, _ in seen}:
            key = self._pool_key(t.sort)
            if key is not None:
                node_count[key] = node_count.get(key, 0) + 1
        pool_lits: dict = {}
        for sort, texts in lits.items():
            pool_lits.setdefault(self._pool_key(sort), set()).update(texts)
        pools: dict = {}
        for key in set(pool_lits) | set(node_count):
            pool = Pool(key)
            pool.elems.extend(sorted(pool_lits.get(key, ())))
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
        if type(sort) is str:  # a datatype: `check_sort` admits no other name here
            return RecV([Lazy(_Check.fresh, fs) for _, fs in self.datatypes[sort]], sort)
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
        fields = [Lazy(_Check._mux_fields, sels, values, i) for i in range(len(values[0].fields))]
        return RecV(fields, sort)

    def _mux_payloads(self, sels, values, sort):
        return self.mux_list(sels, [v.payload.get(self) for v in values], sort)

    def _mux_fields(self, sels, values, i):
        chosen = [v.fields[i].get(self) for v in values]
        return self.mux_list(sels, chosen, chosen[0].sort)

    def val_eq(self, a, b) -> int:
        """`a` = `b`, two values of one sort, so of one class and one pool."""
        cnf = self.cnf
        if isinstance(a, BoolV):
            return cnf.mk_eq(a.lit, b.lit)
        if isinstance(a, EnumV):
            return cnf.mk_or([cnf.mk_and([x, y]) for x, y in zip(a.bits, b.bits)])
        if isinstance(a, SetV):
            return cnf.mk_and([cnf.mk_eq(x, y) for x, y in zip(a.bits, b.bits)])
        if isinstance(a, OptV):
            if a.flag == CNF.FALSE or b.flag == CNF.FALSE:
                return cnf.mk_and([-a.flag, -b.flag])
            both_none = cnf.mk_and([-a.flag, -b.flag])
            both_some = cnf.mk_and([a.flag, b.flag, self.val_eq(a.payload.get(self), b.payload.get(self))])
            return cnf.mk_or([both_none, both_some])
        if isinstance(a, RecV):
            return cnf.mk_and([self.val_eq(x.get(self), y.get(self)) for x, y in zip(a.fields, b.fields)])
        if a.value is not None and b.value is not None:
            return CNF.TRUE if a.value == b.value else CNF.FALSE
        raise Unsupported("equality over symbolic bit-vectors")

    def bool_lit(self, t: Term) -> int:
        return self.trans(t).lit

    def trans(self, t: Term):
        got = self.memo.get(t)
        if got is None:
            got = self.memo[t] = self._trans(t)
        return got

    def _trans(self, t: Term):
        cnf, trans, bool_lit = self.cnf, self.trans, self.bool_lit
        head, args = t.head, t.args
        if type(head) is tuple:  # a literal, (as ...), or the tester
            if head == IS_SOME:
                return BoolV(trans(args[0]).flag)
            if head[0] == "string":
                return self._literal(head[1], STRING)
            if head[0] == "_":  # (_ bvN 64)
                return BVV(int(head[1][2:]) % (1 << 64))
            # (as none (Option s)) or (as set.empty (Set s))
            if head[1] == "none":
                return OptV(CNF.FALSE, Lazy(_Check.fresh, t.sort[1]), t.sort)
            pool = self._pool_for(t.sort[1])
            return SetV([CNF.FALSE] * len(pool.elems), pool, t.sort)
        if head == "true":
            return BoolV(CNF.TRUE)
        if head == "false":
            return BoolV(CNF.FALSE)
        if head == "ite":
            return self.mux2(bool_lit(args[0]), trans(args[1]), trans(args[2]))
        if head == "=":
            return BoolV(self.val_eq(trans(args[0]), trans(args[1])))
        if head == "distinct":
            return BoolV(-self.val_eq(trans(args[0]), trans(args[1])))
        if head == "not":
            return BoolV(-bool_lit(args[0]))
        if head == "and":
            return BoolV(cnf.mk_and([bool_lit(x) for x in args]))
        if head == "or":
            return BoolV(cnf.mk_or([bool_lit(x) for x in args]))
        if head == "=>":
            return BoolV(cnf.mk_or([-bool_lit(args[0]), bool_lit(args[1])]))
        if head == "some":
            return OptV(CNF.TRUE, Lazy(None, value=trans(args[0])), t.sort)
        if head == "val":
            return trans(args[0]).payload.get(self)
        if head == "set.singleton":
            elem = trans(args[0])
            if not isinstance(elem, EnumV):
                raise Unsupported("set of unsupported elements")
            return SetV(list(elem.bits), elem.pool, t.sort)
        if head in ("set.union", "set.inter", "set.minus"):
            a, b = trans(args[0]), trans(args[1])
            if head == "set.union":
                bits = [cnf.mk_or([x, y]) for x, y in zip(a.bits, b.bits)]
            else:
                bits = [cnf.mk_and([x, y if head == "set.inter" else -y]) for x, y in zip(a.bits, b.bits)]
            return SetV(bits, a.pool, a.sort)
        if head == "set.member":
            elem, st = trans(args[0]), trans(args[1])
            return BoolV(cnf.mk_or([cnf.mk_and([x, y]) for x, y in zip(elem.bits, st.bits)]))
        if head == "set.subset":
            a, b = trans(args[0]), trans(args[1])
            return BoolV(cnf.mk_and([cnf.mk_or([-x, y]) for x, y in zip(a.bits, b.bits)]))
        if head in _BUILT_IN_NAMES:  # the built-in heads left, and re.all, are sort-checked, not translated
            raise Unsupported(f"{head} (bit-vector/regex theory)")
        if not args and self.consts.get(head) == t.sort:  # else a zero-argument function, applied
            got = self.const_vals.get(head)
            if got is None:
                got = self.const_vals[head] = self.fresh(t.sort)
            return got
        if head in self.datatypes:
            if self._entity_like(head):
                text = _string_of(args[0])
                if text is not None:
                    return self._literal(text, head)
                field = trans(args[0])  # shares the String domain: the constructor is the identity
                return EnumV(field.bits, field.pool, head)
            return RecV([Lazy(None, value=trans(x)) for x in args], head)
        if head in self.selectors:
            index = self.selectors[head][1]
            arg = trans(args[0])
            if isinstance(arg, RecV):
                return arg.fields[index].get(self)
            return EnumV(arg.bits, arg.pool, t.sort)  # an entity read as its field: the identity
        arg_sorts, ret = self.funs[head]  # a declared function, as read
        if len(arg_sorts) != 1:
            raise Unsupported("multi-argument uninterpreted functions")
        arg = trans(args[0])
        if not isinstance(arg, EnumV):
            raise Unsupported("function argument without a finite domain")
        values = [self.fn_value(head, i) for i in range(len(arg.pool.elems))]
        return self.mux_list(arg.bits, values, ret)

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
            if len(arg_sorts) != 1:
                continue  # never applied: a script that applies one is unsupported
            table, arg_sort = self.fn_tables.get(fn, {}), arg_sorts[0]
            try:
                pool = self._pool_for(arg_sort)
            except Unsupported:
                table = {}  # no finite domain, so never applied
            body = self.default_tree(ret)
            for index in sorted(table, reverse=True):
                body = ("ite", ("=", "x!0", self.elem_tree(pool, index, arg_sort)), self.render(table[index]), body)
            defs.append(("define-fun", fn, (("x!0", arg_sort),), ret, body))
        return defs

    def lit_true(self, lit: int) -> bool:
        return (self.assignment[abs(lit)] == 1) == (lit > 0)

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
        """The tree of `v`, a value `fresh` made, under the assignment: each
        of its bits is a variable, and one of an EnumV's is set."""
        if isinstance(v, BoolV):
            return "true" if self.lit_true(v.lit) else "false"
        if isinstance(v, EnumV):
            index = next(i for i, bit in enumerate(v.bits) if self.lit_true(bit))
            return self.elem_tree(v.pool, index, v.sort)
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
            # A field never forced during solving is unconstrained.
            parts = (self.default_tree(fs) if lazy.make is not None else self.render(lazy.value)
                     for lazy, (_, fs) in zip(v.fields, fields))
            return (v.sort, *parts)
        return self.default_tree(BV)  # a BVV: `fresh` makes only free ones


def main() -> int:
    Session().run(sys.stdin.read(), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
