"""Operation times at a fixed reference speed.

The benchmark runs on a shared machine whose CPU speed wanders: the same
decision can take 0.07 ms for half a minute and 0.12 ms the next, so raw
wall times of two runs of the same code differ by more than any bound a
regression check could use.  A small reference loop that never changes and
never calls the engine is therefore run between the measured operations,
taking about a third of the run, and every operation's time is divided by
the median reference time of the same half-second bin:

    time at reference speed = measured time * REF_SECONDS / reference median

``REF_SECONDS`` is a fixed constant, about the reference loop's time on the
2-vCPU Xeon VM the benchmark was tuned on, so that the values keep the size
of that machine's milliseconds; they compare across runs and commits, not
with a stopwatch.  A change to the engine changes the measured time and
leaves the reference loop alone, so it shows in full; a change of machine
speed moves both and cancels.

``collecting`` is the time the operation spent in full garbage collections
(``gc.callbacks``, generation 2), which is kept as measured: a full
collection walks the whole heap, is bound by memory rather than by the
interpreter, and was seen not to follow the reference loop's changes of
speed, so scaling it would add noise instead of removing it.  Collections of
the young generations stay in cache and are scaled with the rest.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

REF_SECONDS = 300e-6  # what one reference loop counts for
SHARE = 0.25  # timed reference loops per second of measured operations
BIN_SECONDS = 0.5  # operations in one bin share one reference median


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b


class _Record:
    __slots__ = ("key", "group")

    def __init__(self, key, group):
        self.key, self.group = key, group


_collecting = [0.0, 0.0]  # seconds spent in full collections so far; start of the current one


def _on_collection(phase, info):
    if info["generation"] != 2:
        return
    if phase == "start":
        _collecting[1] = time.perf_counter()
    else:
        _collecting[0] += time.perf_counter() - _collecting[1]


gc.callbacks.append(_on_collection)


def gc_seconds() -> float:
    """Wall time spent in full garbage collections since this module was loaded."""
    return _collecting[0]


def _tree(rng, depth):
    if depth == 0:
        return rng.choice(("x", "y", "z", 1, 2, 3))
    return _Node(rng.randrange(4), _tree(rng, depth - 1), _tree(rng, depth - 1))


_rng = random.Random(0x5EED)
_TREES = tuple(_tree(_rng, 5) for _ in range(4))
_ENVS = tuple({"x": i, "y": 3 * i + 1, "z": 7 - i} for i in range(4))
_RECORDS = [_Record(("User", str(i)), i % 97) for i in range(40_000)]
_rng.shuffle(_RECORDS)
_PICKS = tuple(range(0, len(_RECORDS), 37))


def _eval(n, env):
    if type(n) is str:
        return env[n]
    if type(n) is int:
        return n
    a, b, op = _eval(n.a, env), _eval(n.b, env), n.op
    if op == 0:
        return (a + b) & 255
    if op == 1:
        return (a - b) & 255
    if op == 2:
        return (a * b) & 255
    return 1 if a < b else 0


def _loop() -> int:
    total = 0
    for tree in _TREES:
        for env in _ENVS:
            total += _eval(tree, env)
    groups: dict = {}
    for j in _PICKS:
        r = _RECORDS[j]
        groups.setdefault(r.group, []).append(r.key)
    return total + len(groups)


def reference() -> float:
    """Wall time of one reference loop, in seconds.

    The loop runs once untimed first, so that it is timed with its data in
    cache whatever the operation before it evicted: the engine's own memory
    use must not change the reference it is measured against.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _loop()
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(elapsed: float, collecting: float, ref: float) -> float:
    """A measured time at reference speed, given the reference loop's time."""
    return (elapsed - collecting) * REF_SECONDS / ref + collecting


class Meter:
    """Interleaves the reference loop with the measured operations.

    ``add`` takes each operation's measured time and the part of it spent
    in full garbage collections; once a bin of BIN_SECONDS is full,
    ``sink(at_reference_speed, measured)`` is called for each of its
    operations.  ``flush`` closes the last bin.
    """

    def __init__(self, sink, probe=reference, clock=time.perf_counter, bin_seconds: float = BIN_SECONDS):
        self.sink = sink
        self.probe = probe
        self.clock = clock
        self.bin_seconds = bin_seconds
        self.bin_end = clock() + bin_seconds
        self.pending: list = []
        self.refs: list = []
        self.debt = 0.0
        self.medians: list = []  # each bin's reference median, for the report

    def add(self, elapsed: float, collecting: float = 0.0) -> None:
        self.pending.append((elapsed, collecting))
        self.debt += elapsed * SHARE
        while self.debt > 0 or not self.refs:
            r = self.probe()
            self.refs.append(r)
            self.debt -= r
        if self.clock() >= self.bin_end:
            self.flush()
            self.bin_end = self.clock() + self.bin_seconds

    def flush(self) -> None:
        if self.pending:
            ref = statistics.median(self.refs)
            self.medians.append(ref)
            for elapsed, collecting in self.pending:
                self.sink(scaled(elapsed, collecting, ref), elapsed)
        self.pending, self.refs = [], []
