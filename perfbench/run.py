"""cedar-engine benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): ``authz-fixture``, ``authz-linked`` and
``analyze-mix``.  Every input is generated from ``--seed``,
every answer is checked against an oracle outside the timed spans, and the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the same
numbers under the workload's own names (``decision_p50_us``,
``analyze_p50_ms``, ...) with their sample counts.

With ``--trace 0`` the run measures for ``--seconds`` and reports the
end-to-end metrics.  An operation is a decision or a policy-set pair,
depending on the workload.  The gated times are at reference speed
(refspeed.py): each operation's and each set-up's measured time is scaled by
how fast a fixed reference loop ran at the same moment, so that the shared
machine's changes of speed cancel.  This holds for ``setup_s`` too.
``norm_latency_p50_ms`` and ``norm_latency_tail_ms`` (at the workload's fixed
percentile, ``Workload.tail_pct``) are percentiles of all the run's operations
so scaled, and ``norm_ops_per_s`` is operations per second of scaled time.
The lines above the JSON also give every time as measured.

With ``--trace 1`` the run takes each operation twice, once untraced and
once with spans recorded around the engine's layers (tracing.py), and
reports the per-layer metrics and the tracing overhead (the median of the
traced-minus-untraced differences).
Spans are written to ``.perfbench/spans-<workload>.jsonl``.  Per-layer times
are self times per decision on ``authz-*``, inclusive times per analysed pair
(or per solver call, per reconstruction) on ``analyze-mix``; a layer a
workload does not reach reports 0.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import refspeed

END_TO_END = {
    "setup_s": "s",
    "norm_latency_p50_ms": "ms",
    "norm_latency_tail_ms": "ms",
    "norm_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ast.toexp.calls_per_decision": "count",
    "ast.toexp.us_per_decision": "us",
    "evaluator.evaluate_policy.calls_per_decision": "count",
    "evaluator.evaluate_policy.us_per_decision": "us",
    "evaluator.errored_ratio": "ratio",
    "authorizer.build_index.calls_per_decision": "count",
    "authorizer.build_index.us_per_decision": "us",
    "authorizer.build_index.share": "ratio",
    "authorizer.slice.us_per_decision": "us",
    "authorizer.slice_ratio": "ratio",
    "authorizer.authorize.self_us": "us",
    "parser.parse_policies_s": "s",
    "parser.policies_per_s": "1/s",
    "entities.load_entities_s": "s",
    "entities.entities_per_s": "1/s",
    "entities.ancestor_pairs": "count",
    "authorizer.from_policies_s": "s",
    "validator.validate_ms": "ms",
    "validator.envs_checked": "count",
    "symcc.encode_ms": "ms",
    "symcc.compile_ms": "ms",
    "symcc.ground_ms": "ms",
    "symcc.footprint_terms": "count",
    "symcc.assertions": "count",
    "symcc.static_ratio": "ratio",
    "symcc.decided_ratio": "ratio",
    "symcc.reconstruct_ms": "ms",
    "symcc.reverify_ms": "ms",
    "smt_backend.print_ms": "ms",
    "smt_backend.script_bytes": "bytes",
    "smt_backend.run_solver_ms": "ms",
    "smt_backend.run_solver_share": "ratio",
    "smt_backend.solver_calls": "count",
    "smt_backend.model_parse_ms": "ms",
    "smt_backend.spawn_overhead_ms": "ms",
    "minisolver.solve_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.absent_layers": "count",
}

MAX_SPANS = 250_000  # bounds the traced phase's memory on the fast workloads
SETUP_PROBES = 25  # reference loops run before and after each timed set-up


class Histogram:
    """Latencies counted in buckets 0.1 % wide.

    Memory stays flat however many operations a run completes; a list of
    samples would make peak_rss_mb grow with throughput.
    """

    STEP = math.log1p(0.001)

    def __init__(self):
        self.counts: dict = {}
        self.n = 0
        self.total = 0.0

    def add(self, seconds: float) -> None:
        k = math.floor(math.log(max(seconds, 1e-9)) / self.STEP)
        self.counts[k] = self.counts.get(k, 0) + 1
        self.n += 1
        self.total += seconds

    def percentile(self, pct: float) -> tuple:
        """(value, samples beyond it) for the bucket holding the sample of
        rank pct/100 * (n - 1)."""
        rank = pct / 100.0 * (self.n - 1)
        seen = 0
        for k in sorted(self.counts):
            seen += self.counts[k]
            if seen > rank:
                return math.exp((k + 0.5) * self.STEP), self.n - seen
        raise ValueError("no samples")


class NullTracer:
    """Stands in for the tracer in the untraced phase of a traced run."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n):
        pass


class Loop:
    """A closed loop over the schedule: one operation at a time.

    ``setup`` is called ``setups`` times between operations, evenly spread
    over the measured time, so that the median set-up time is taken across
    the whole run as the latencies are.
    """

    def __init__(self, workload, schedule, setup=lambda: None):
        self.w = workload
        self.schedule = schedule
        self.setup = setup
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.collecting = 0.0  # of the last timed operation, in seconds

    def take(self):
        item = self.schedule[self.next % len(self.schedule)]
        self.next += 1
        return item

    def timed(self, op, item) -> float:
        """Run one operation, check its answer after the clock stops."""
        error = None
        g0 = refspeed.gc_seconds()
        t0 = time.perf_counter()
        try:
            result = op(item)
        except Exception:  # an operation that raises is a failed operation
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        self.collecting = refspeed.gc_seconds() - g0
        self.attempted += 1
        if error is not None or not self.w.check(item, result):
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: {self.w.name} operation {item!r} failed\n{error or 'wrong answer'}", file=sys.stderr)
        return elapsed

    def _setup_due(self, due: list) -> bool:
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            self.setup()
            return True
        return False

    def _schedule_setups(self, seconds: float, setups: int) -> tuple:
        start = time.perf_counter()
        return start + seconds, [start + seconds * (k + 0.5) / setups for k in range(setups)]

    def run(self, seconds: float, op, setups: int = 0) -> tuple:
        """Latency histograms at reference speed and as measured, the
        reference medians of the run's bins, and the amount of work done
        (Workload.work)."""
        norm, raw = Histogram(), Histogram()

        def sink(at_reference, measured):
            norm.add(at_reference)
            raw.add(measured)

        meter = refspeed.Meter(sink)
        work = 0
        deadline, due = self._schedule_setups(seconds, setups)
        while time.perf_counter() < deadline:
            if self._setup_due(due):
                continue
            item = self.take()
            elapsed = self.timed(op, item)
            meter.add(elapsed, self.collecting)
            work += self.w.work(item)
        meter.flush()
        for _ in due:
            self.setup()
        return norm, raw, meter.medians, work

    def run_paired(self, seconds: float, tracer, setups: int = 0) -> tuple:
        """Each operation twice, untraced and traced, alternating which goes
        first; the wrappers are swapped in and out outside the timed spans."""
        null = NullTracer()
        untraced, traced, items = [], [], []
        deadline, due = self._schedule_setups(seconds, setups)
        while time.perf_counter() < deadline and len(tracer.spans) < MAX_SPANS:
            if self._setup_due(due):
                continue
            item = self.take()
            for with_trace in (False, True) if len(items) % 2 == 0 else (True, False):
                if with_trace:
                    tracer.request = len(items)
                    tracer.install()
                    try:
                        traced.append(self.timed(lambda x: self.w.traced_run(tracer, x), item))
                    finally:
                        tracer.uninstall()
                else:
                    untraced.append(self.timed(lambda x: self.w.traced_run(null, x), item))
            items.append(item)
        for _ in due:
            self.setup()
        return untraced, traced, items


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_setup(w, steps) -> tuple:
    """One set-up, timed: (seconds at reference speed, seconds as measured).
    The previous set-up's objects are dropped first so that only one copy is
    ever alive."""
    for name in w.built:
        setattr(w, name, None)
    gc.collect()
    before = [refspeed.reference() for _ in range(SETUP_PROBES)]
    g0 = refspeed.gc_seconds()
    t0 = time.perf_counter()
    w.setup(steps)
    elapsed = time.perf_counter() - t0
    collecting = refspeed.gc_seconds() - g0
    ref = statistics.median(before + [refspeed.reference() for _ in range(SETUP_PROBES)])
    return refspeed.scaled(elapsed, collecting, ref), elapsed


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")


def top_tail(h: Histogram):
    """The highest of the usual percentiles with at least ten samples beyond it."""
    return next((p for p in (99.9, 99, 95, 90, 75) if h.n * (1 - p / 100) >= 10), None)


def end_to_end(w, setups, h, raw, refs, work, rss_mb) -> dict:
    setup_s = statistics.median(s for s, _ in setups)
    p50 = h.percentile(50)[0]
    tail, beyond = h.percentile(w.tail_pct)
    metrics = {
        "setup_s": setup_s,
        "norm_latency_p50_ms": p50 * 1e3,
        "norm_latency_tail_ms": tail * 1e3,
        "norm_ops_per_s": h.n / h.total,
        "peak_rss_mb": rss_mb,
    }
    q = statistics.quantiles(refs, n=4) if len(refs) > 1 else refs * 3
    print(f"{w.name}: {h.n} {w.op}s in {raw.total:.2f} s, one client, closed loop")
    print(f"  reference loop: median {statistics.median(refs) * 1e6:.1f} us, quartiles {q[0] * 1e6:.1f}"
          f"-{q[2] * 1e6:.1f} us over {len(refs)} bins; counted as {refspeed.REF_SECONDS * 1e6:g} us")
    print("at reference speed:")
    report("setup_s", setup_s, "s", f"median of {len(setups)} set-ups")
    report("norm_latency_p50_ms", p50 * 1e3, "ms", f"n={h.n}")
    report("norm_latency_tail_ms", tail * 1e3, "ms", f"p{w.tail_pct:g}, n={h.n}, {beyond} beyond")
    report("norm_ops_per_s", metrics["norm_ops_per_s"], "1/s", f"n={h.n}")
    report("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    # As measured, under the workload's own names; these tails take the
    # highest percentile the sample count supports.
    print("as measured:")
    report("setup_s", statistics.median(r for _, r in setups), "s", f"median of {len(setups)} set-ups")
    label, scale, unit = ("decision", 1e6, "us") if w.op == "decision" else ("analyze", 1e3, "ms")
    report(f"{label}_p50_{unit}", raw.percentile(50)[0] * scale, unit, f"n={raw.n}")
    top = top_tail(raw)
    if top is not None:
        v, b = raw.percentile(top)
        report(f"{label}_p{top:g}_{unit}", v * scale, unit, f"n={raw.n}, {b} beyond")
    if w.op == "pair":
        report("envs_per_s", work / raw.total, "1/s", f"n={work} environments")
        report("decided_ratio", w.decided / max(1, w.envs), "ratio", f"{w.decided}/{w.envs} environments")
    report(f"{w.op}s_per_s", raw.n / raw.total, "1/s", f"n={raw.n}")
    return metrics


def _median_of(steps: list, name: str) -> float:
    got = [s.seconds[name] for s in steps if name in s.seconds]
    return statistics.median(got) if got else 0.0


def _child_ms(argv: list, reps: int = 5) -> float:
    """Median wall time of a fresh process (PYTHONPATH already holds src)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def replay_solve_ms(scripts: list, absent: list) -> float:
    """Mean time to solve each captured script with the bundled solver
    in-process; 0 with the layer reported absent if that API has changed."""
    times = []
    try:
        from cedar_engine.minisolver import Session

        with contextlib.redirect_stderr(io.StringIO()):  # "unsupported" notes for unknown answers
            for script in scripts:
                t0 = time.perf_counter()
                Session().run(script + "(get-model)\n", io.StringIO())
                times.append(time.perf_counter() - t0)
    except Exception:  # a later refactor of the solver must not stop the run
        absent.append("minisolver.Session")
        return 0.0
    return statistics.mean(times) * 1e3 if times else 0.0


def per_layer(w, tracer, steps, lat_a, lat_b, items_b) -> dict:
    from tracing import LayerTotals

    t = LayerTotals(tracer.spans)
    count, total, own, infos = t.count, t.total, t.self, t.infos

    def ratio(a, b):
        return a / b if b else 0.0

    def mean(xs):
        return statistics.mean(xs) if xs else 0.0

    m = dict.fromkeys(PER_LAYER, 0.0)
    decisions = count.get("authorizer.authorize", 0)
    for span, key in (("ast.toexp", "ast.toexp"), ("evaluator.evaluate_policy", "evaluator.evaluate_policy"),
                      ("authorizer.build_index", "authorizer.build_index")):
        m[key + ".calls_per_decision"] = ratio(count.get(span, 0), decisions)
        m[key + ".us_per_decision"] = ratio(own.get(span, 0.0), decisions) * 1e6
    m["evaluator.errored_ratio"] = ratio(infos.get("evaluator.evaluate_policy", []).count("errored"),
                                         count.get("evaluator.evaluate_policy", 0))
    m["authorizer.build_index.share"] = ratio(total.get("authorizer.build_index", 0.0), total.get("authorizer.authorize", 0.0))
    m["authorizer.slice.us_per_decision"] = ratio(own.get("authorizer.slice", 0.0), decisions) * 1e6
    closed = len(getattr(getattr(w, "pset", None), "closed_policies", ()))
    m["authorizer.slice_ratio"] = ratio(mean(infos.get("authorizer.slice", [])), closed)
    m["authorizer.authorize.self_us"] = ratio(own.get("authorizer.authorize", 0.0), decisions) * 1e6

    m["parser.parse_policies_s"] = _median_of(steps, "parse_policies")
    m["parser.policies_per_s"] = ratio(steps[-1].sizes.get("parse_policies", 0), m["parser.parse_policies_s"])
    m["entities.load_entities_s"] = _median_of(steps, "load_entities")
    m["entities.entities_per_s"] = ratio(steps[-1].sizes.get("load_entities", 0), m["entities.load_entities_s"])
    store = getattr(w, "store", None)
    m["entities.ancestor_pairs"] = sum(len(d.ancestors) for d in store.entries.values()) if store else 0
    m["authorizer.from_policies_s"] = _median_of(steps, "from_policies")

    analyses = len(lat_b) if w.op == "pair" else 0
    analysis_time = sum(lat_b) if w.op == "pair" else 0.0
    calls = count.get("smt_backend.run_solver", 0)
    m["validator.validate_ms"] = ratio(total.get("validator.validate", 0.0), analyses) * 1e3
    m["validator.envs_checked"] = ratio(tracer.counters.get("validator.envs_checked", 0), analyses)
    m["symcc.encode_ms"] = ratio(total.get("symcc.encode", 0.0), analyses) * 1e3
    m["symcc.compile_ms"] = ratio(total.get("symcc.compile", 0.0), analyses) * 1e3
    m["symcc.ground_ms"] = ratio(total.get("symcc.ground", 0.0), analyses) * 1e3
    m["symcc.footprint_terms"] = mean(infos.get("symcc.ground", []))
    m["symcc.assertions"] = mean([i[0] for i in infos.get("smt_backend.print", [])])
    m["symcc.static_ratio"] = ratio(count.get("symcc.encode", 0) - count.get("smt_backend.print", 0), count.get("symcc.encode", 0))
    m["symcc.decided_ratio"] = ratio(getattr(w, "decided", 0), getattr(w, "envs", 0))
    m["symcc.reconstruct_ms"] = ratio(total.get("symcc.reconstruct", 0.0), count.get("symcc.reconstruct", 0)) * 1e3
    m["symcc.reverify_ms"] = ratio(total.get("symcc.reverify", 0.0), count.get("symcc.reconstruct", 0)) * 1e3
    m["smt_backend.print_ms"] = ratio(total.get("smt_backend.print", 0.0), analyses) * 1e3
    m["smt_backend.script_bytes"] = mean([i[1] for i in infos.get("smt_backend.print", [])])
    m["smt_backend.run_solver_ms"] = ratio(total.get("smt_backend.run_solver", 0.0), calls) * 1e3
    m["smt_backend.run_solver_share"] = ratio(total.get("smt_backend.run_solver", 0.0), analysis_time)
    m["smt_backend.solver_calls"] = ratio(calls, analyses)
    m["smt_backend.model_parse_ms"] = ratio(total.get("smt_backend.model_parse", 0.0), count.get("smt_backend.model_parse", 0)) * 1e3
    if tracer.scripts:
        m["minisolver.solve_ms"] = replay_solve_ms(tracer.scripts, tracer.absent)
        m["smt_backend.spawn_overhead_ms"] = m["smt_backend.run_solver_ms"] - m["minisolver.solve_ms"]

    if w.op == "pair":
        # What every solver spawn and every `cedar-engine` command pays
        # before any work: interpreter start, then the package import.
        m["cli.interpreter_ms"] = _child_ms([sys.executable, "-c", "pass"])
        m["cli.import_ms"] = _child_ms([sys.executable, "-c", "import cedar_engine"]) - m["cli.interpreter_ms"]

    # lat_a[i] and lat_b[i] time the same operation, untraced and traced.
    overhead = statistics.median(b - a for a, b in zip(lat_a, lat_b))
    m["trace.overhead_ms"] = overhead * 1e3
    m["trace.overhead_ratio"] = ratio(overhead, statistics.median(lat_a))
    m["trace.absent_layers"] = len(tracer.absent)

    print(f"{w.name}: traced {len(lat_b)} {w.op}s ({len(tracer.spans)} spans), untraced {len(lat_a)}")
    if tracer.absent:
        print(f"  absent layers: {', '.join(tracer.absent)}")
    for name, value in m.items():
        report(name, value, PER_LAYER[name])
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cedar_engine", "__init__.py")) or not os.path.isdir(
        os.path.join(root, "fixtures")
    ):
        print("perfbench: run from the root of a cedar-engine checkout (src/cedar_engine and fixtures/ are missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # The bundled solver runs as `python -m cedar_engine.minisolver`; the
    # child finds the package through PYTHONPATH, as the tier-1 command does.
    os.environ["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    from cedar_engine import SolverConfig

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"solver argv {list(SolverConfig.bundled().argv)}")

    w = workloads.WORKLOADS[args.workload](root, args.seed)
    setups, steps = [], []

    def one_setup():
        steps.append(workloads.Steps())
        setups.append(run_setup(w, steps[-1]))

    one_setup()
    loop = Loop(w, w.prepare(), one_setup)
    for _ in range(w.warmup):  # caches and lazy imports, untimed
        loop.timed(w.run, loop.take())
    gc.collect()

    if not args.trace:
        hist, raw, refs, work = loop.run(args.seconds, w.run, setups=w.setup_reps - 1)
    else:
        tracer = tracing.Tracer()
        lat_a, lat_b, items_b = loop.run_paired(args.seconds, tracer, setups=w.setup_reps - 1)
    rss_mb = peak_rss_mb()  # before the deferred checks build the oracle's data
    loop.failed += w.late_failures()

    if not args.trace:
        metrics = end_to_end(w, setups, hist, raw, refs, work, rss_mb)
        units = END_TO_END
    else:
        metrics = per_layer(w, tracer, steps, lat_a, lat_b, items_b)
        os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
        tracer.write(os.path.join(root, ".perfbench", f"spans-{w.name}.jsonl"))
        units = PER_LAYER

    report("failed_ratio", loop.failed / max(1, loop.attempted), "ratio", f"{loop.failed}/{loop.attempted} operations")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
