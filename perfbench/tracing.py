"""Spans recorded from outside the engine.

A traced run replaces module-level names the engine itself calls (for
example ``cedar_engine.authorizer.build_index``) with wrappers that record a
span around each call, and restores them afterwards.  Spans are kept in
memory as ``(name, start, end, parent, request, info)`` tuples, where
``parent`` is the index of the enclosing span (or -1) and ``info`` a small
per-call payload, and are written out once the run ends.

A name that no longer exists is reported as absent instead of failing, so
that a refactor of the engine leaves the benchmark runnable.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

# (module, attribute, span name, what the span's info field holds)
WRAPPED = (
    ("cedar_engine.authorizer", "build_index", "authorizer.build_index", None),
    ("cedar_engine.authorizer", "slice_policies", "authorizer.slice", "size"),
    ("cedar_engine.authorizer", "evaluate_policy", "evaluator.evaluate_policy", "status"),
    ("cedar_engine.evaluator", "toexp", "ast.toexp", None),
    ("cedar_engine.symcc", "encode_types", "symcc.encode", None),
    ("cedar_engine.symcc", "allowed_term", "symcc.compile", None),
    ("cedar_engine.symcc", "wf_from_footprint", "symcc.ground", "footprint"),
    ("cedar_engine.symcc", "reconstruct_counterexample", "symcc.reconstruct", None),
    ("cedar_engine.symcc", "authorize", "symcc.reverify", None),
    ("cedar_engine.smt_backend", "print_script", "smt_backend.print", "script"),
    ("cedar_engine.smt_backend", "run_solver", "smt_backend.run_solver", "solver"),
    ("cedar_engine.smt_backend", "Model.parse", "smt_backend.model_parse", None),
)


def _info(kind, args, result):
    """The span's payload, or None where a refactored signature no longer
    provides it."""
    try:
        if kind == "size":
            return len(result)
        if kind == "status":
            return result.status.value
        if kind == "footprint":
            return len(set(args[0]))
        if kind == "script":
            return [len(args[1]), len(result)]
    except (AttributeError, IndexError, TypeError):
        pass
    return None


class Tracer:
    """Collects spans; ``install`` swaps the wrappers in, ``uninstall`` undoes it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.request = -1
        self.absent: list = []
        self.scripts: list = []  # scripts handed to run_solver, for replay
        self.counters: dict = {}
        self._stack: list = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self.clock(), None, parent, self.request, None))
        self._stack.append(index)
        return index

    def end(self, index: int, info=None) -> None:
        self._stack.pop()
        name, start, _, parent, request, _ = self.spans[index]
        self.spans[index] = (name, start, self.clock(), parent, request, info)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- wrapping the engine -----------------------------------------------

    def _wrapper(self, fn, name, kind):
        tracer = self

        def wrapped(*args, **kwargs):
            if kind == "solver" and len(args) > 1 and isinstance(args[1], str):
                tracer.scripts.append(args[1])
            index = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(index, _info(kind, args, result) if result is not None else None)

        return wrapped

    def install(self, wrapped=WRAPPED) -> None:
        for module_name, attr, name, kind in wrapped:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, leaf, None) if owner is not None else None
            if raw is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            if isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrapper(raw.__func__, name, kind))
            else:
                replacement = self._wrapper(raw, name, kind)
            self._saved.append((owner, leaf, raw))
            setattr(owner, leaf, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, raw = self._saved.pop()
            setattr(owner, leaf, raw)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict = {}
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


class LayerTotals:
    """Per-name count, inclusive time, self time and info values of a span list."""

    def __init__(self, spans: list):
        selfs = self_times(spans)
        self.count: dict = {}
        self.total: dict = {}
        self.self: dict = {}
        self.infos: dict = {}
        for (name, start, end, _, _, info), own in zip(spans, selfs):
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            self.self[name] = self.self.get(name, 0.0) + own
            if info is not None:
                self.infos.setdefault(name, []).append(info)
