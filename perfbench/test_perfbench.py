"""Tests of the benchmark's own helpers (not of the program).

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import daemon, harness, metrics, stats, tracer
from perfbench.run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# percentiles and the ten-samples-beyond rule
# ---------------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([7.0], 0.99) == 7.0
    # 0.99 * 1000 is 990 exactly, not 991 by float drift
    assert stats.percentile(list(range(1, 1001)), 0.99) == 990


@pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
def test_percentile_rejects_bad_quantiles(q):
    with pytest.raises(ValueError):
        stats.percentile([1.0, 2.0], q)


def test_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


@pytest.mark.parametrize(
    "n, q, supported",
    [
        (999, 0.99, False),
        (1000, 0.99, True),
        (9999, 0.999, False),
        (10_000, 0.999, True),
    ],
)
def test_tail_needs_ten_samples_beyond(n, q, supported):
    assert stats.supports_tail(n, q) is supported


def test_latency_summary_reports_only_supported_tails():
    assert "p99_ms" not in stats.latency_summary([0.001] * 999)
    summary = stats.latency_summary([0.001] * 999 + [0.5])
    assert summary["n"] == 1000
    assert summary["p50_ms"] == pytest.approx(1.0)
    assert summary["p99_ms"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# seeded request generators
# ---------------------------------------------------------------------------


def test_zipf_draws_repeat_for_a_seed():
    names = [f"vmi-{i:05d}" for i in range(200)]
    first = stats.ZipfNames(names, "s1")
    again = stats.ZipfNames(list(reversed(names)), "s1")
    other = stats.ZipfNames(names, "s2")
    a = [first.draw() for _ in range(500)]
    assert a == [again.draw() for _ in range(500)]
    assert a != [other.draw() for _ in range(500)]


def test_zipf_is_skewed_toward_its_top_rank():
    names = [f"n{i}" for i in range(100)]
    zipf = stats.ZipfNames(names, "skew")
    draws = [zipf.draw() for _ in range(5000)]
    top = zipf.names[0]
    assert draws.count(top) > 5000 / 10
    assert draws.count(top) > 5 * draws.count(zipf.names[50])


def test_traffic_order_repeats_for_a_seed():
    from repro.workloads.traffic import traffic_schedule

    first = traffic_schedule(daemon.traffic_config(7))
    assert first == traffic_schedule(daemon.traffic_config(7))
    assert first != traffic_schedule(daemon.traffic_config(8))
    assert {ev.tenant for ev in first} == {"tenant-0", "tenant-1"}


def test_live_set_follows_acknowledged_prefixes():
    from repro.workloads.traffic import traffic_schedule

    events = traffic_schedule(daemon.traffic_config(7))[:200]
    acked = {"tenant-0": 30, "tenant-1": 0}
    live = daemon._live_set(events, acked)
    assert {tenant for tenant, _ in live.values()} <= {"tenant-0"}
    published = [
        ev for ev in events if ev.tenant == "tenant-0"
    ][:30]
    expected = set()
    for ev in published:
        if ev.op == "publish":
            expected.add(f"tenant-0/vmi-{ev.item:05d}")
        elif ev.op == "delete":
            expected.discard(f"tenant-0/{ev.name}")
    assert set(live) == expected


# ---------------------------------------------------------------------------
# the wrappers
# ---------------------------------------------------------------------------


def test_wrappers_install_and_uninstall_cleanly():
    from repro.core.system import Expelliarmus
    from repro.workloads.scale import scale_corpus

    t = tracer.Tracer()
    tracer.install(t)
    try:
        patched = list(t._patches)
        for owner, attribute, original in patched:
            assert vars(owner).get(attribute) is not original
        system = Expelliarmus()
        t.attach_database(system.repo.db)
        corpus = scale_corpus(6, n_families=2, seed="wrappers")
        for index in range(len(corpus)):
            system.publish(corpus.build(index))
        system.retrieve("vmi-00000")
        spans = t.snapshot()["spans"]
        counters = t.snapshot()["counters"]
    finally:
        t.uninstall()
    assert not t._patches
    for owner, attribute, original in patched:
        if original is tracer._MISSING:
            assert attribute not in vars(owner)
        else:
            assert vars(owner)[attribute] is original
    for span in ("core.publisher", "core.base_selection", "core.assembler"):
        assert spans[span][0] > 0
    assert counters["repository.database.statements"] > 0
    assert counters["sim.handle_s"] > 0


def test_function_patched_where_its_caller_looks_it_up():
    from repro.core import base_selection, publisher

    original = publisher.select_base_image
    t = tracer.install(tracer.Tracer())
    try:
        assert publisher.select_base_image is base_selection.select_base_image
        assert publisher.select_base_image is not original
    finally:
        t.uninstall()
    assert publisher.select_base_image is original
    assert base_selection.select_base_image is original


def test_untraced_round_installs_nothing():
    from repro.core.publisher import VMIPublisher

    before = dict(vars(VMIPublisher))
    with harness.TracedRound(False) as t:
        assert t is None
        assert dict(vars(VMIPublisher)) == before


def test_self_time_excludes_traced_children():
    t = tracer.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            sum(range(20_000))
        sum(range(20_000))
    spans = t.snapshot()["spans"]
    calls, total, self_ns = spans["outer"]
    assert calls == 1
    assert self_ns == total - spans["inner"][1]
    assert spans["inner"][1] == spans["inner"][2]


def test_coverage_counts_the_op_span_self_time_as_unattributed():
    # 100 ns per op, 70 of them inside layer spans
    loop = {
        "spans": {
            harness.OP_SPAN: [4, 400, 120],
            "core.assembler": [4, 250, 200],
            "model.graph": [8, 80, 80],
        },
        "counters": {},
    }
    assert harness.layer_coverage(loop) == pytest.approx(0.7)
    # no layer fired: nothing covered, whatever the op span's total
    bare = {"spans": {harness.OP_SPAN: [4, 400, 400]}, "counters": {}}
    assert harness.layer_coverage(bare) == 0.0


def test_phase_takes_each_call_at_its_median_over_rounds():
    phase = harness.Phase()
    # two lanes of two calls; the third round is slowed on one call
    rounds = [
        {("a", 0): 1.0, ("a", 1): 2.0, ("b", 0): 1.0, ("b", 1): 1.0},
        {("a", 0): 1.2, ("a", 1): 2.2, ("b", 0): 1.1, ("b", 1): 0.9},
        {("a", 0): 9.0, ("a", 1): 2.1, ("b", 0): 1.2, ("b", 1): 1.1},
    ]
    for times, cpu in zip(rounds, (0.4, 0.8, 0.6), strict=True):
        phase.add_round(4, sum(times.values()), cpu, times, [("a", 1)])
    assert phase.typical()[("a", 0)] == pytest.approx(1.2)
    # the busier lane, a, takes 1.2 + 2.1 per round at the medians
    assert phase.ops_per_s == pytest.approx(4 / 3.3)
    assert phase.cpu_ms_per_op == pytest.approx(0.6 / 4 * 1e3)
    assert phase.latency()["n"] == 1
    assert phase.latency()["p50_ms"] == pytest.approx(2.1e3)


def test_snapshots_merge_by_addition():
    a = {"spans": {"x": [1, 10, 5]}, "counters": {"c": 2}}
    b = {"spans": {"x": [2, 20, 10], "y": [1, 1, 1]}, "counters": {"c": 3}}
    merged = tracer.merge(tracer.merge({}, a), b)
    assert merged == {
        "spans": {"x": [3, 30, 15], "y": [1, 1, 1]},
        "counters": {"c": 5},
    }


# ---------------------------------------------------------------------------
# the declared contract
# ---------------------------------------------------------------------------


def test_benchmark_json_declares_what_the_runs_print():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
        metrics.PER_LAYER
    )
    assert set(metrics.EXPECTED_SPANS) == set(WORKLOADS)
