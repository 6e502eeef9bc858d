"""The perf-regression gate's comparison logic, pinned in isolation.

The CI ``perf-gate`` and ``wallclock-gate`` jobs run
``benchmarks/compare_bench.py`` against the committed baselines; these
tests prove the gate's core properties without running any benchmark:
equal runs pass, improvements pass, a >threshold degradation fails (in
the right direction per metric), missing files or series fail loudly in
*both* directions instead of greening the gate, and the wallclock tier
applies its generous margin, absolute floor and median-of-N semantics.
"""

import json

import pytest

from benchmarks.compare_bench import (
    TIERS,
    TRACKED_METRICS,
    WALLCLOCK_METRICS,
    compare_dirs,
    compare_payloads,
    main,
    median_payload,
)


def payload(experiment: str, **series) -> dict:
    return {
        "experiment": experiment,
        "series": {label: list(vals) for label, vals in series.items()},
    }


def federation_payload(speedup=4.0, critical=300.0) -> dict:
    return payload(
        "bench-federation",
        **{
            "critical-path-s": [1200.0, critical],
            "throughput-rps": [0.1, 0.1 * speedup],
            "federation-speedup": [1.0, speedup],
            "stored-bytes-ratio": [1.0, 1.0],
        },
    )


class TestComparePayloads:
    def test_identical_runs_pass(self):
        base = federation_payload()
        assert compare_payloads(base, federation_payload(), 0.25) == []

    def test_improvement_passes(self):
        problems = compare_payloads(
            federation_payload(),
            federation_payload(speedup=6.0, critical=200.0),
            0.25,
        )
        assert problems == []

    def test_lower_is_better_fails_on_26_percent_increase(self):
        problems = compare_payloads(
            federation_payload(critical=100.0),
            federation_payload(critical=126.0),
            0.25,
        )
        assert any("critical-path" in p for p in problems)

    def test_higher_is_better_fails_on_26_percent_drop(self):
        problems = compare_payloads(
            federation_payload(speedup=4.0),
            federation_payload(speedup=4.0 * 0.74),
            0.25,
        )
        assert any("speedup" in p for p in problems)

    def test_within_threshold_drift_passes(self):
        problems = compare_payloads(
            federation_payload(speedup=4.0, critical=100.0),
            federation_payload(speedup=4.0 * 0.8, critical=120.0),
            0.25,
        )
        assert problems == []

    def test_missing_series_fails_loudly(self):
        broken = federation_payload()
        del broken["series"]["federation-speedup"]
        problems = compare_payloads(federation_payload(), broken, 0.25)
        assert any("missing" in p for p in problems)

    def test_unregistered_experiment_fails(self):
        unknown = payload("bench-mystery", whatever=[1.0])
        problems = compare_payloads(unknown, unknown, 0.25)
        assert any("no tracked metrics" in p for p in problems)

    def test_zero_baseline_tolerates_zero_but_not_growth(self):
        base = payload("bench-churn", **{
            "inc-graph-rebuilds": [0.0],
            "inc-records-scanned": [0.0],
        })
        same = payload("bench-churn", **{
            "inc-graph-rebuilds": [0.0],
            "inc-records-scanned": [0.0],
        })
        worse = payload("bench-churn", **{
            "inc-graph-rebuilds": [3.0],
            "inc-records-scanned": [0.0],
        })
        assert compare_payloads(base, same, 0.25) == []
        assert compare_payloads(base, worse, 0.25)

    def test_every_committed_baseline_is_registered(self):
        from pathlib import Path

        for path in Path("benchmarks/baselines").glob("BENCH_*.json"):
            data = json.loads(path.read_text())
            assert data["experiment"] in TRACKED_METRICS, path.name
            for label, direction in TRACKED_METRICS[data["experiment"]]:
                assert label in data["series"], (path.name, label)
                assert direction in ("lower", "higher")

    def test_committed_baselines_carry_wallclock_series(self):
        """Every wallclock-gated experiment's committed baseline holds
        the wall series, so the wallclock tier has an anchor."""
        from pathlib import Path

        seen = set()
        for path in Path("benchmarks/baselines").glob("BENCH_*.json"):
            data = json.loads(path.read_text())
            tracked = WALLCLOCK_METRICS.get(data["experiment"])
            if tracked is None:
                continue
            seen.add(data["experiment"])
            for label, direction in tracked:
                assert label in data["series"], (path.name, label)
                assert direction == "lower"
        assert seen == set(WALLCLOCK_METRICS)


def wall_payload(final=1.0, experiment="bench-scale") -> dict:
    (label, _direction), = WALLCLOCK_METRICS[experiment]
    return payload(experiment, **{label: [final * 2.0, final]})


class TestWallclockTier:
    """The noise-tolerant second tier: generous margin + absolute floor."""

    THRESHOLD, FLOOR = TIERS["wallclock"][1:]

    def _compare(self, base, cur):
        return compare_payloads(
            wall_payload(base),
            wall_payload(cur),
            self.THRESHOLD,
            metrics=WALLCLOCK_METRICS,
            floor=self.FLOOR,
        )

    def test_identical_runs_pass(self):
        assert self._compare(1.0, 1.0) == []

    def test_improvement_passes(self):
        assert self._compare(1.0, 0.3) == []

    def test_seventy_percent_slower_is_tolerated_noise(self):
        # within the 75% margin: same-machine run-to-run spread on
        # loaded CI runners routinely hits tens of percent
        assert self._compare(1.0, 1.7) == []

    def test_beyond_margin_fails(self):
        problems = self._compare(1.0, 1.8)
        assert any("wall-publish-s" in p for p in problems)

    def test_sub_floor_jitter_never_fails(self):
        # 4x slower relatively, but the absolute movement is under the
        # 50 ms floor — near-zero timings cannot trip the gate
        assert self._compare(0.01, 0.04) == []

    def test_zero_baseline_tolerates_only_sub_floor_growth(self):
        assert self._compare(0.0, 0.04) == []
        assert self._compare(0.0, 0.2)

    def test_simulated_experiments_not_in_wallclock_registry(self):
        problems = compare_payloads(
            payload("bench-server", **{"throughput-rps": [5.0]}),
            payload("bench-server", **{"throughput-rps": [5.0]}),
            self.THRESHOLD,
            metrics=WALLCLOCK_METRICS,
        )
        assert any("no tracked metrics" in p for p in problems)


class TestMedianPayload:
    def test_single_run_is_identity(self):
        run = wall_payload(1.0)
        assert median_payload([run]) is run

    def test_elementwise_median_suppresses_one_outlier(self):
        runs = [wall_payload(v) for v in (1.0, 1.1, 9.0)]
        merged = median_payload(runs)
        assert merged["series"]["wall-publish-s"] == [2.2, 1.1]

    def test_series_missing_from_one_run_is_dropped(self):
        # the missing-series failure must surface downstream instead of
        # the healthy runs papering over the broken one
        broken = {"experiment": "bench-scale", "series": {}}
        merged = median_payload([wall_payload(1.0), broken])
        assert "wall-publish-s" not in merged["series"]


class TestWallclockDirs:
    def _write(self, directory, name, data):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(json.dumps(data))

    def _gate(self, baseline_dir, current_dirs):
        threshold, floor = TIERS["wallclock"][1:]
        return compare_dirs(
            baseline_dir,
            current_dirs,
            threshold,
            metrics=WALLCLOCK_METRICS,
            floor=floor,
        )

    def test_median_of_three_runs_absorbs_one_slow_run(self, tmp_path):
        self._write(tmp_path / "base", "BENCH_scale.json", wall_payload(1.0))
        for i, final in enumerate((1.0, 1.2, 9.0)):
            self._write(
                tmp_path / f"run{i}",
                "BENCH_scale.json",
                wall_payload(final),
            )
        passes, problems = self._gate(
            tmp_path / "base",
            [tmp_path / f"run{i}" for i in range(3)],
        )
        assert problems == []
        assert any("median of 3 runs" in p for p in passes)

    def test_majority_slow_runs_fail(self, tmp_path):
        self._write(tmp_path / "base", "BENCH_scale.json", wall_payload(1.0))
        for i, final in enumerate((1.0, 9.0, 9.0)):
            self._write(
                tmp_path / f"run{i}",
                "BENCH_scale.json",
                wall_payload(final),
            )
        _, problems = self._gate(
            tmp_path / "base",
            [tmp_path / f"run{i}" for i in range(3)],
        )
        assert any("wall-publish-s" in p for p in problems)

    def test_file_missing_from_one_run_dir_fails(self, tmp_path):
        self._write(tmp_path / "base", "BENCH_scale.json", wall_payload(1.0))
        self._write(tmp_path / "run0", "BENCH_scale.json", wall_payload(1.0))
        (tmp_path / "run1").mkdir()
        _, problems = self._gate(
            tmp_path / "base", [tmp_path / "run0", tmp_path / "run1"]
        )
        assert any("no fresh run" in p for p in problems)
        assert any("run1" in p for p in problems)

    def test_fresh_result_without_baseline_fails(self, tmp_path):
        # strictness in the other direction: a new wall-gated bench
        # nobody anchored must not silently pass
        self._write(tmp_path / "base", "BENCH_scale.json", wall_payload(1.0))
        self._write(tmp_path / "cur", "BENCH_scale.json", wall_payload(1.0))
        self._write(
            tmp_path / "cur",
            "BENCH_gc.json",
            wall_payload(1.0, experiment="bench-churn"),
        )
        _, problems = self._gate(tmp_path / "base", tmp_path / "cur")
        assert any("no committed baseline" in p for p in problems)

    def test_non_tier_files_are_the_other_tiers_business(self, tmp_path):
        # BENCH_persistence has no wall series; the wallclock tier must
        # neither gate nor fail on it, in either direction
        persistence = payload(
            "bench-persistence", **{"ops-since-checkpoint": [3.0]}
        )
        self._write(tmp_path / "base", "BENCH_scale.json", wall_payload(1.0))
        self._write(tmp_path / "base", "BENCH_persistence.json", persistence)
        self._write(tmp_path / "cur", "BENCH_scale.json", wall_payload(1.0))
        self._write(tmp_path / "cur", "BENCH_persistence.json", persistence)
        passes, problems = self._gate(tmp_path / "base", tmp_path / "cur")
        assert problems == []
        assert len(passes) == 1

    def test_baseline_refresh_round_trip(self, tmp_path):
        """The refresh workflow: copy fresh results in as baselines,
        and the very next gate run passes on both tiers."""
        fresh = {
            "BENCH_scale.json": wall_payload(0.9),
            "BENCH_gc.json": wall_payload(0.4, experiment="bench-churn"),
        }
        for name, data in fresh.items():
            self._write(tmp_path / "cur", name, data)
            self._write(tmp_path / "base", name, data)  # the refresh
        passes, problems = self._gate(tmp_path / "base", tmp_path / "cur")
        assert problems == []
        assert len(passes) == len(fresh)

    def test_main_wallclock_tier_exit_codes(self, tmp_path, capsys):
        self._write(tmp_path / "base", "BENCH_scale.json", wall_payload(1.0))
        self._write(tmp_path / "cur", "BENCH_scale.json", wall_payload(1.2))
        code = main(
            [
                "--baseline", str(tmp_path / "base"),
                "--current", str(tmp_path / "cur"),
                "--tier", "wallclock",
            ]
        )
        assert code == 0
        assert "wallclock tier" in capsys.readouterr().out
        self._write(tmp_path / "cur", "BENCH_scale.json", wall_payload(5.0))
        assert (
            main(
                [
                    "--baseline", str(tmp_path / "base"),
                    "--current", str(tmp_path / "cur"),
                    "--tier", "wallclock",
                ]
            )
            == 1
        )
        assert "REGRESSION" in capsys.readouterr().err


class TestCompareDirs:
    def _write(self, directory, name, data):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(json.dumps(data))

    def test_matching_dirs_pass(self, tmp_path):
        self._write(
            tmp_path / "base", "BENCH_federation.json", federation_payload()
        )
        self._write(
            tmp_path / "cur", "BENCH_federation.json", federation_payload()
        )
        passes, problems = compare_dirs(
            tmp_path / "base", tmp_path / "cur", 0.25
        )
        assert problems == []
        assert len(passes) == 1

    def test_missing_current_file_fails(self, tmp_path):
        self._write(
            tmp_path / "base", "BENCH_federation.json", federation_payload()
        )
        (tmp_path / "cur").mkdir()
        _, problems = compare_dirs(
            tmp_path / "base", tmp_path / "cur", 0.25
        )
        assert any("no fresh run" in p for p in problems)

    def test_empty_baseline_dir_fails(self, tmp_path):
        (tmp_path / "base").mkdir()
        (tmp_path / "cur").mkdir()
        _, problems = compare_dirs(
            tmp_path / "base", tmp_path / "cur", 0.25
        )
        assert any("no BENCH_" in p for p in problems)

    @pytest.mark.parametrize(
        "degrade,expected_exit", [(1.0, 0), (1.4, 1)]
    )
    def test_main_exit_codes(
        self, tmp_path, capsys, degrade, expected_exit
    ):
        """The acceptance demonstration: a hand-degraded baseline
        metric (+40% demanded speedup) flips the gate to failure."""
        base = federation_payload(speedup=4.0 * degrade)
        self._write(tmp_path / "base", "BENCH_federation.json", base)
        self._write(
            tmp_path / "cur", "BENCH_federation.json", federation_payload()
        )
        code = main(
            [
                "--baseline", str(tmp_path / "base"),
                "--current", str(tmp_path / "cur"),
                "--threshold", "0.25",
            ]
        )
        assert code == expected_exit
        out = capsys.readouterr()
        if expected_exit:
            assert "REGRESSION" in out.err
        else:
            assert "perf gate passed" in out.out
