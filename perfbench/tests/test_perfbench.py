"""Tests of the benchmark itself.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]
os.environ["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")

import generators  # noqa: E402
import pytest  # noqa: E402
import refspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _ready(cls, seed=3):
    w = cls(ROOT, seed)
    w.setup(workloads.Steps())
    return w, w.prepare()


# -- generators ---------------------------------------------------------------


def test_generators_are_deterministic_for_a_seed():
    def outputs(seed):
        linked = generators.LinkedInputs(seed, groups=40, users=300, docs=100, links=200)
        return (
            generators.fixture_store_json(seed),
            generators.fixture_requests(seed, [("GetList", "List"), ("CreateList", "Application")], 50),
            linked.entities_json,
            linked.links,
            linked.requests(50),
            generators.random_pairs(seed, 5),
            generators.arith_pairs(seed),
        )

    assert outputs(7) == outputs(7)
    assert all(a != b for a, b in zip(outputs(7), outputs(8)))


def test_workload_schedules_are_deterministic_for_a_seed():
    for cls in (workloads.AuthzFixture, workloads.AnalyzeMix):
        (w1, s1), (w2, s2) = _ready(cls, 5), _ready(cls, 5)
        assert s1 == s2 and w1.expected == w2.expected, cls.name


# -- answer checking ----------------------------------------------------------


def test_flipped_authorization_answer_is_a_failure():
    w, schedule = _ready(workloads.AuthzFixture)
    loop = run.Loop(w, schedule)
    loop.timed(w.run, loop.take())
    loop.timed(w.run, loop.take())
    assert (loop.attempted, loop.failed, w.late_failures()) == (2, 0, 0)  # the README example too
    oracle = w.oracle

    def flipped(seen):
        out = oracle(seen)
        verdict, determining, errored = out[schedule[1]]
        out[schedule[1]] = ("ALLOW" if verdict == "DENY" else "DENY", determining, errored)
        return out

    w.oracle = flipped
    assert w.late_failures() == 1


def test_a_decision_that_changes_between_calls_is_a_failure():
    w, schedule = _ready(workloads.AuthzFixture)
    first, other = w.run(schedule[0]), w.run(schedule[1])
    assert w.check(schedule[0], first)
    assert first == other or not w.check(schedule[0], other)
    assert not w.check(schedule[0], None)


def test_flipped_analysis_answer_is_a_failure():
    w, _ = _ready(workloads.AnalyzeMix)
    i = [p.name for p in w.pairs].index("tinytodo-refactor")  # statically identical: no solver call
    loop = run.Loop(w, [i])
    loop.timed(w.run, loop.take())
    assert loop.failed == 0
    w.expected[i]["GetList"] = "differs"
    loop.timed(w.run, loop.take())
    assert loop.failed == 1


def test_an_operation_that_raises_is_a_failure():
    w, schedule = _ready(workloads.AuthzFixture)
    loop = run.Loop(w, schedule)

    def boom(item):
        raise ValueError("boom")

    loop.timed(boom, loop.take())
    assert (loop.attempted, loop.failed) == (1, 1)


# -- tracing ------------------------------------------------------------------


def test_self_time_subtracts_the_children_it_covers():
    spans = [
        ("root", 0.0, 10.0, -1, 0, None),
        ("a", 1.0, 3.0, 0, 0, None),
        ("b", 2.5, 4.0, 0, 0, None),  # overlaps a: only 3.0-4.0 is new
        ("c", 6.0, 12.0, 0, 0, None),  # runs past the parent: 6.0-10.0 counts
        ("a.child", 1.5, 2.0, 1, 0, None),
    ]
    assert tracing.self_times(spans) == [10.0 - (3.0 + 4.0), 1.5, 1.5, 6.0, 0.5]
    totals = tracing.LayerTotals(spans)
    assert totals.count["a"] == 1 and totals.self["root"] == 3.0


def test_a_missing_name_is_reported_absent():
    tracer = tracing.Tracer()
    tracer.install(
        (
            ("cedar_engine.authorizer", "no_such_function", "authorizer.gone", None),
            ("cedar_engine.no_such_module", "run", "gone.module", None),
        )
    )
    tracer.uninstall()
    assert tracer.absent == ["authorizer.gone", "gone.module"]


def test_analyze_mix_reaches_the_solver():
    w, _ = _ready(workloads.AnalyzeMix)
    i = [p.name for p in w.pairs].index("guardrail")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = w.traced_run(tracer, i)
    finally:
        tracer.uninstall()
    assert w.check(i, result)
    totals = tracing.LayerTotals(tracer.spans)
    assert totals.count.get("smt_backend.run_solver", 0) >= 1
    assert totals.count.get("symcc.reconstruct", 0) == 1  # GetOwnedLists differs
    assert tracer.scripts


# -- reference speed ----------------------------------------------------------


def test_reference_speed_cancels_a_change_of_machine_speed():
    now, ref, got = [0.0], [0.0], []
    meter = refspeed.Meter(lambda scaled, measured: got.append((scaled, measured)),
                           probe=lambda: ref[0], clock=lambda: now[0], bin_seconds=1.0)
    for slowdown in (1.0, 2.0):  # the machine runs at half speed in the second bin
        ref[0] = refspeed.REF_SECONDS * slowdown
        for _ in range(3):
            now[0] += 0.4
            meter.add(0.010 * slowdown)
    meter.flush()
    assert [m for _, m in got] == pytest.approx([0.010] * 3 + [0.020] * 3)
    assert [s for s, _ in got] == pytest.approx([0.010] * 6)
    assert meter.medians == pytest.approx([refspeed.REF_SECONDS, 2 * refspeed.REF_SECONDS])


def test_full_collections_are_not_scaled():
    # 6 ms of work at half speed counts as 3 ms; 4 ms of collection stays 4 ms.
    assert refspeed.scaled(0.010, 0.004, 2 * refspeed.REF_SECONDS) == pytest.approx(0.007)


# -- the contract -------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "authz-fixture", "--seed", "1", "--seconds", "1"]) != 0
