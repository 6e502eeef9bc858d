"""Perf-regression gate: diff fresh BENCH_*.json against baselines.

The perf-trajectory CI job runs every benchmark's smoke sweep and
writes machine-readable ``BENCH_<name>.json`` summaries (see
``write_bench_json`` in ``benchmarks/conftest.py``).  This script
compares those fresh summaries against the *committed* reference copies
in ``benchmarks/baselines/`` and fails (exit 1) when any tracked metric
regressed by more than the threshold — so a PR that quietly makes
publishing scan more bases, retrieval derive more plans, GC rescan the
world or the federation's overlap collapse is caught by CI instead of by
the next reader of the trajectory artifacts.

The gate has two tiers (``--tier``), each with its own registry,
default threshold and failure semantics:

* ``simulated`` (the default): *algorithmic* series only.  They are
  pure functions of the corpus and the algorithms, bit-stable across
  machines and Python versions, so the margin is tight (25%) and any
  drift means the algorithms changed.
* ``wallclock``: real-seconds series (``wall-*``) from the same smoke
  runs.  Wall clock is machine- and load-dependent, so this tier only
  gates on a *pinned* runner, takes the per-series median over N fresh
  run directories (pass ``--current`` several times or list several
  dirs), and uses generous margins: a regression needs to exceed the
  relative threshold (75%) *and* an absolute floor (``--floor``,
  default 0.05 s) before the gate trips — sub-floor jitter on
  near-zero timings can never fail the build.

In both tiers a tracked metric that cannot be compared fails loudly:
a baseline whose fresh BENCH_*.json was never written (the smoke job
silently skipped or crashed), a fresh file with no committed baseline
(a new bench that nobody anchored), or a tracked series missing from
either side all exit non-zero with a message naming the file.

Refreshing baselines after an *intentional* perf change (the seven
tracked bench files are named explicitly — pytest's default collection
skips ``bench_*.py`` when handed a bare directory)::

    BENCH_JSON_DIR=benchmarks/baselines PYTHONPATH=src \
        python -m pytest -q benchmarks/bench_{scale,retrieval,churn,persistence,server,federation,mining}.py -k smoke

then commit the updated JSON together with the change that explains it
(README "Perf-regression gate" documents the workflow; wall-clock
baselines only carry meaning for the runner class they were recorded
on, see DESIGN.md §15).

Usage::

    python benchmarks/compare_bench.py \
        --baseline benchmarks/baselines --current bench-out \
        [--tier simulated|wallclock] [--threshold 0.25] [--floor 0.05]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Sequence

#: tracked series per experiment id: (series label, better direction).
#: "lower" fails when current > baseline * (1 + threshold);
#: "higher" fails when current < baseline * (1 - threshold).
#: This is the *simulated* tier: bit-stable algorithmic quantities only.
TRACKED_METRICS: dict[str, tuple[tuple[str, str], ...]] = {
    "bench-scale": (
        ("indexed-work-per-publish", "lower"),
        ("scan-work-per-publish", "lower"),
        ("stored-bases", "lower"),
    ),
    "bench-retrieval": (
        ("cold-base-copy-seconds", "lower"),
        ("warm-base-copy-seconds", "lower"),
        ("plans-derived-per-request", "lower"),
    ),
    "bench-churn": (
        ("inc-graph-rebuilds", "lower"),
        ("inc-records-scanned", "lower"),
    ),
    "bench-persistence": (
        # the only machine-independent persistence series: the replay
        # work a crash reopen pays (wall-clock reopen timings are not
        # comparable across runners and stay untracked)
        ("ops-since-checkpoint", "lower"),
    ),
    "bench-federation": (
        # critical-path scaling of the sharded federation under the
        # same traffic generator (the final series point is the widest
        # shard level of the sweep); stored-bytes-ratio guards the
        # global base-image index: scale-out must stay at exactly 1.0x
        # the single-shard repository
        ("critical-path-s", "lower"),
        ("throughput-rps", "higher"),
        ("federation-speedup", "higher"),
        ("stored-bytes-ratio", "lower"),
    ),
    "bench-mining": (
        # the storage payoff of mine+re-base on the churned split
        # corpus: bases removed / bytes reclaimed must not shrink,
        # the post-re-base footprint and warm critical path must not
        # grow — all bit-stable functions of the corpus
        ("mining-bases-removed", "higher"),
        ("mining-migrated-vmis", "higher"),
        ("mining-reclaimed-gb", "higher"),
        ("stored-bytes-after-gb", "lower"),
        ("warm-after-s", "lower"),
    ),
    "bench-server": (
        # simulated-time service quality of the image server under
        # the deterministic open-loop traffic schedule (the final
        # series point is the widest worker level of the sweep)
        ("throughput-rps", "higher"),
        ("p50-latency-s", "lower"),
        ("p95-latency-s", "lower"),
        ("p99-latency-s", "lower"),
    ),
}

#: the wallclock tier: real-seconds series per experiment, gated only
#: on pinned runners with generous noise margins.  Every entry is
#: "lower is better" by construction.
WALLCLOCK_METRICS: dict[str, tuple[tuple[str, str], ...]] = {
    "bench-scale": (("wall-publish-s", "lower"),),
    "bench-retrieval": (("wall-warm-batch-s", "lower"),),
    "bench-churn": (("wall-inc-gc-s", "lower"),),
    "bench-mining": (("wall-rebase-s", "lower"),),
}

#: per-tier registry, default relative threshold, default absolute
#: floor (seconds of regression a wall series must exceed on top of
#: the relative margin before the gate trips; 0 disables the floor)
TIERS: dict[str, tuple[dict, float, float]] = {
    "simulated": (TRACKED_METRICS, 0.25, 0.0),
    "wallclock": (WALLCLOCK_METRICS, 0.75, 0.05),
}


def compare_payloads(
    baseline: dict,
    current: dict,
    threshold: float,
    *,
    metrics: dict | None = None,
    floor: float = 0.0,
) -> list[str]:
    """Regression messages for one experiment pair (empty = pass).

    A tracked series missing from either side is itself a failure —
    silently dropping a metric must not green the gate.  ``metrics``
    selects the tier registry (default: simulated); ``floor`` is the
    absolute regression a "lower" metric must additionally exceed.
    """
    if metrics is None:
        metrics = TRACKED_METRICS
    experiment = baseline.get("experiment", "?")
    tracked = metrics.get(experiment)
    if tracked is None:
        return [f"{experiment}: no tracked metrics registered"]
    problems: list[str] = []
    for label, direction in tracked:
        base_series = baseline.get("series", {}).get(label)
        cur_series = current.get("series", {}).get(label)
        if not base_series or not cur_series:
            problems.append(
                f"{experiment}/{label}: series missing "
                f"(baseline={bool(base_series)}, "
                f"current={bool(cur_series)})"
            )
            continue
        base = float(base_series[-1])
        cur = float(cur_series[-1])
        if direction == "lower":
            limit = base * (1.0 + threshold)
            regressed = (cur > limit if base else cur > floor) and (
                cur > base + floor
            )
        else:
            limit = base * (1.0 - threshold)
            regressed = cur < limit
        if regressed:
            problems.append(
                f"{experiment}/{label}: {cur:g} vs baseline {base:g} "
                f"(allowed {'<=' if direction == 'lower' else '>='} "
                f"{limit:g}, {direction} is better)"
            )
    return problems


def median_payload(payloads: Sequence[dict]) -> dict:
    """Element-wise median of N runs of the same experiment.

    Only series present in *every* run survive — a run that failed to
    produce a tracked series must surface as the missing-series failure,
    not be papered over by the runs that did.  Median-of-N is the
    wallclock tier's noise suppressor; with one run it is the identity.
    """
    if len(payloads) == 1:
        return payloads[0]
    shared = set(payloads[0].get("series", {}))
    for p in payloads[1:]:
        shared &= set(p.get("series", {}))
    series = {}
    for label in shared:
        runs = [p["series"][label] for p in payloads]
        length = min(len(r) for r in runs)
        series[label] = [
            statistics.median(float(r[i]) for r in runs)
            for i in range(length)
        ]
    merged = dict(payloads[0])
    merged["series"] = series
    return merged


def compare_dirs(
    baseline_dir: Path,
    current_dirs: Path | Sequence[Path],
    threshold: float,
    *,
    metrics: dict | None = None,
    floor: float = 0.0,
) -> tuple[list[str], list[str]]:
    """Compare every tier-relevant baseline BENCH_*.json.

    Returns ``(passes, problems)``.  ``current_dirs`` may be one
    directory or several — with several, each fresh file must exist in
    every directory and the per-series median is compared.  Strictness
    runs both ways: a baseline without a fresh counterpart fails, and a
    fresh file whose experiment the tier tracks but that has no
    committed baseline fails too.
    """
    if metrics is None:
        metrics = TRACKED_METRICS
    if isinstance(current_dirs, Path):
        current_dirs = [current_dirs]
    current_dirs = list(current_dirs)
    passes: list[str] = []
    problems: list[str] = []
    compared: set[str] = set()
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        problems.append(f"no BENCH_*.json baselines in {baseline_dir}")
    for baseline_path in baselines:
        baseline = json.loads(baseline_path.read_text())
        if baseline.get("experiment", "?") not in metrics:
            # outside this tier's registry (e.g. BENCH_persistence has
            # no wall series) — the other tier gates it
            continue
        compared.add(baseline_path.name)
        current_paths = [d / baseline_path.name for d in current_dirs]
        missing = [
            str(d)
            for d, p in zip(current_dirs, current_paths, strict=True)
            if not p.exists()
        ]
        if missing:
            problems.append(
                f"{baseline_path.name}: no fresh run found in "
                f"{', '.join(missing)} (did the smoke job write it?)"
            )
            continue
        current = median_payload(
            [json.loads(p.read_text()) for p in current_paths]
        )
        found = compare_payloads(
            baseline, current, threshold, metrics=metrics, floor=floor
        )
        if found:
            problems.extend(found)
        else:
            tracked = metrics.get(baseline.get("experiment", "?"), ())
            passes.append(
                f"{baseline_path.name}: {len(tracked)} tracked "
                f"metric(s) within {threshold:.0%}"
                + (
                    f" (median of {len(current_dirs)} runs)"
                    if len(current_dirs) > 1
                    else ""
                )
            )
    # the other direction: fresh tier-relevant results nobody anchored
    fresh_only: set[str] = set()
    for directory in current_dirs:
        for current_path in sorted(directory.glob("BENCH_*.json")):
            if current_path.name in compared:
                continue
            if current_path.name in fresh_only:
                continue
            data = json.loads(current_path.read_text())
            if data.get("experiment", "?") not in metrics:
                continue
            fresh_only.add(current_path.name)
            problems.append(
                f"{current_path.name}: fresh result has no committed "
                f"baseline in {baseline_dir} — refresh the baselines "
                "to anchor it, or the gate cannot track it"
            )
    return passes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Fail when fresh BENCH_*.json summaries regress >threshold "
            "against the committed baselines"
        )
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/baselines"),
        help="directory of committed reference BENCH_*.json files",
    )
    parser.add_argument(
        "--current",
        type=Path,
        nargs="+",
        default=[Path("bench-out")],
        help=(
            "directory(ies) of freshly produced BENCH_*.json files; "
            "several directories gate on the per-series median"
        ),
    )
    parser.add_argument(
        "--tier",
        choices=sorted(TIERS),
        default="simulated",
        help=(
            "metric registry to gate: 'simulated' (bit-stable "
            "algorithmic series, tight margin) or 'wallclock' "
            "(real seconds on a pinned runner, generous margin)"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help=(
            "allowed relative regression per metric "
            "(default: 0.25 simulated, 0.75 wallclock)"
        ),
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=None,
        help=(
            "absolute seconds a 'lower' metric must regress beyond "
            "the relative margin (default: 0 simulated, "
            "0.05 wallclock)"
        ),
    )
    args = parser.parse_args(argv)

    metrics, tier_threshold, tier_floor = TIERS[args.tier]
    threshold = (
        tier_threshold if args.threshold is None else args.threshold
    )
    floor = tier_floor if args.floor is None else args.floor

    passes, problems = compare_dirs(
        args.baseline,
        args.current,
        threshold,
        metrics=metrics,
        floor=floor,
    )
    for line in passes:
        print(f"ok: {line}")
    if problems:
        print(
            f"\n{len(problems)} perf-gate failure(s) "
            f"({args.tier} tier, threshold {threshold:.0%}):",
            file=sys.stderr,
        )
        for line in problems:
            print(f"  REGRESSION {line}", file=sys.stderr)
        print(
            "\nIf this change is intentional, refresh the baselines:\n"
            "  BENCH_JSON_DIR=benchmarks/baselines PYTHONPATH=src "
            "python -m pytest -q "
            "benchmarks/bench_{scale,retrieval,churn,persistence,"
            "server,federation,mining}.py -k smoke\n"
            "and commit the updated JSON with an explanation.",
            file=sys.stderr,
        )
        return 1
    print(
        f"perf gate passed ({args.tier} tier): "
        f"{len(passes)} benchmark(s) compared"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
