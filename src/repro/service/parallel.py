"""Sharded batch execution and its overlap model (DESIGN.md §12, §14).

The federation (:class:`~repro.repository.federation.FederatedRepository`)
is the one caller: it routes a batch onto its shards and hands the
per-shard batches to :func:`run_shards`.

:func:`run_shards` runs the shards one after another, each through the
ordinary batch pipeline (:mod:`repro.service.batch`,
:mod:`repro.service.retrieval`), and remaps every result to its caller
position.  Every publish serialises on a write lock, so worker threads
would buy no wall time.

Overlap is a *model* result.  A shard's simulated seconds are the sum of
its items' charges, and ``critical_path_seconds`` is the maximum over
shards: the simulated elapsed time of running the shards side by side.
:class:`ParallelPublishReport` / :class:`ParallelRetrieveReport` add
these per-shard accounts to the sequential batch reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.service.batch import BatchPublishReport
from repro.service.retrieval import BatchRetrieveReport

__all__ = [
    "ParallelPublishReport",
    "ParallelRetrieveReport",
    "ShardAccount",
    "ShardedRun",
    "run_shards",
]


@dataclass(frozen=True)
class ShardAccount:
    """What one shard of a sharded batch did and charged."""

    shard: int
    n_items: int
    n_failed: int
    #: simulated seconds this shard's items charged (its sequential
    #: span inside the overlapped schedule)
    simulated_seconds: float


@dataclass(frozen=True)
class _OverlapAccounting:
    """Per-shard overlap accounting shared by both sharded reports.

    Mixed in ahead of a batch report (which supplies
    ``simulated_seconds`` — the summed work — and the base
    ``render``); ``results`` on the combined report are ordered by the
    caller's positions.
    """

    shards: tuple[ShardAccount, ...] = ()

    @property
    def parallelism(self) -> int:
        return len(self.shards)

    @property
    def critical_path_seconds(self) -> float:
        """Simulated elapsed time of the overlapped schedule (the
        slowest shard's span) — a model result, not a wall clock."""
        return max(
            (s.simulated_seconds for s in self.shards), default=0.0
        )

    @property
    def overlap_speedup(self) -> float:
        """Summed work over critical path: the modelled parallel gain."""
        critical = self.critical_path_seconds
        return self.simulated_seconds / critical if critical else 1.0

    def render(self) -> str:
        loads = ", ".join(
            f"s{s.shard}:{s.n_items}x/{s.simulated_seconds:.0f}s"
            for s in self.shards
        )
        return "\n".join(
            [
                super().render(),
                f"  parallel: {len(self.shards)} shard(s) [{loads}] — "
                f"critical path {self.critical_path_seconds:.1f}s of "
                f"{self.simulated_seconds:.1f}s total work "
                f"({self.overlap_speedup:.2f}x overlap)",
            ]
        )


# ---------------------------------------------------------------------------
# sharded execution: run each shard -> merge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardedRun:
    """Every shard's batch report, and all results at caller positions."""

    #: one batch report per shard; None where the shard was empty
    reports: tuple[Any, ...]
    #: every shard's item results, remapped to caller positions
    results: tuple[Any, ...]

    def accounts(self) -> tuple[ShardAccount, ...]:
        """One :class:`ShardAccount` per shard, read off its report."""
        return tuple(
            ShardAccount(index, 0, 0, 0.0)
            if r is None
            else ShardAccount(index, r.n_items, r.n_failed, r.simulated_seconds)
            for index, r in enumerate(self.reports)
        )

    def merged(self, earlier: Sequence[Any] = ()) -> tuple[Any, ...]:
        """``earlier`` results (failures recorded while routing) plus
        every shard's results, in caller order."""
        return tuple(
            sorted([*earlier, *self.results], key=lambda r: r.position)
        )


def run_shards(
    shards: Sequence[Sequence[tuple[int, Any]]],
    run: Callable[[int, list, Any], Any],
    *,
    progress=None,
    total: int = 0,
    done: int = 0,
) -> ShardedRun:
    """Run routed shards one after another, in shard order.

    Each shard holds ``(caller position, item)`` pairs.
    ``run(index, items, progress)`` executes one non-empty shard through
    a batch pipeline and returns that pipeline's report, whose
    ``results`` carry positions into ``items``; empty shards are not
    run.  ``progress`` (the pipelines' ``(done, total, item)``
    callback) sees one batch-wide done count — continuing from the
    ``done`` items the caller already reported out of ``total`` — and
    items at their caller positions.
    """
    reports = []
    results = []
    for index, shard in enumerate(shards):
        if not shard:
            reports.append(None)
            continue
        positions = [pos for pos, _ in shard]
        report = run(
            index,
            [item for _, item in shard],
            _relay(progress, positions, done, total),
        )
        done += len(report.results)
        reports.append(report)
        results.extend(
            replace(r, position=positions[r.position])
            for r in report.results
        )
    return ShardedRun(reports=tuple(reports), results=tuple(results))


def _relay(progress, positions: list[int], done: int, total: int):
    """A shard pipeline's progress callback, re-expressed batch-wide."""
    if progress is None:
        return None

    def relay(shard_done: int, _shard_total: int, item) -> None:
        progress(
            done + shard_done,
            total,
            replace(item, position=positions[item.position]),
        )

    return relay


# ---------------------------------------------------------------------------
# sharded reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelPublishReport(_OverlapAccounting, BatchPublishReport):
    """A batch-publish report plus its per-shard overlap accounting."""


@dataclass(frozen=True)
class ParallelRetrieveReport(_OverlapAccounting, BatchRetrieveReport):
    """A batch-retrieve report plus its per-shard overlap accounting."""
