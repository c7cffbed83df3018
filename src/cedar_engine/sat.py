"""The bundled solver's SAT core: Tseitin gates over CNF, and a CDCL loop.

Kept apart from the SMT-LIB layer in `minisolver.py`: where no bytecode is
cached, compiling one large module raises the peak memory of the process
that first imports the solver more than compiling two halves does.
"""

from __future__ import annotations

import time
from typing import Optional


class Timeout(Exception):
    """The deadline passed before the CDCL loop reached an answer."""


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

    def _gate(self, lits, absorbing: int, cache: dict, sign: int) -> int:
        """A variable for AND (sign 1, absorbing FALSE) or OR (sign -1,
        absorbing TRUE) of `lits`, with its Tseitin clauses, shared by
        equal operand sets."""
        out = []
        for l in lits:
            if l == absorbing:
                return absorbing
            if l != -absorbing:
                out.append(l)
        if not out:
            return -absorbing
        if len(out) == 1:
            return out[0]
        key = frozenset(out)
        hit = cache.get(key)
        if hit is not None:
            return hit
        t = self.new_var()
        for l in out:
            self.add(-sign * t, sign * l)
        self.add(sign * t, *[-sign * l for l in out])
        cache[key] = t
        return t

    def mk_and(self, lits) -> int:
        return self._gate(lits, self.FALSE, self._and_cache, 1)

    def mk_or(self, lits) -> int:
        return self._gate(lits, self.TRUE, self._or_cache, -1)

    def mk_eq(self, a: int, b: int) -> int:
        if a == b:
            return self.TRUE
        if a == -b:
            return self.FALSE
        if abs(a) == 1:  # a constant: b itself when TRUE, negated when FALSE
            return b * a
        if abs(b) == 1:
            return a * b
        return self.mk_or([self.mk_and([a, b]), self.mk_and([-a, -b])])

    def exactly_one(self, lits) -> None:
        self.add(*lits)
        for i in range(len(lits)):
            for j in range(i + 1, len(lits)):
                self.add(-lits[i], -lits[j])


def dpll(nvars: int, clauses: list, deadline: Optional[float] = None) -> Optional[list]:
    """Conflict-driven clause learning over the translated CNF.

    Returns an assignment list indexed by variable (entry 0 unused) or None.
    Chronological backtracking degenerates on the one-hot vectors this
    translation produces, so this is a small CDCL: 1UIP learning, backjumping,
    activity-ordered decisions with phase saving, and geometric restarts.
    Raises Timeout once `time.monotonic()` passes `deadline`, checked on
    entry and before each conflict analysis or decision.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise Timeout
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
        if deadline is not None and time.monotonic() > deadline:
            raise Timeout
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
