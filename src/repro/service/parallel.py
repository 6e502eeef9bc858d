"""Sharded batch execution and its overlap model (DESIGN.md §12).

:func:`plan_shards` splits a batch into *base/family-affine* shards: it
groups items by an affinity key (the base-attribute quadruple for
publishes, the stored base blob for retrievals) and packs whole groups
onto the least-loaded shard, so shards touch disjoint master graphs,
warm-base copies and plan-cache keys.

:func:`run_shards` runs the shards one after another, each through the
ordinary batch pipeline (:mod:`repro.service.batch`,
:mod:`repro.service.retrieval`).  Every publish serialises on the
repository write lock, so worker threads would buy no wall time.
Sharded execution is a reordering of the sequential schedule, and
``tests/property/test_parallel_props.py`` pins that it is invisible.

Overlap is a *model* result.  A shard's simulated seconds are the sum of
its items' charges, and ``critical_path_seconds`` is the maximum over
shards: the simulated elapsed time of running the shards side by side.
:class:`ParallelPublishReport` / :class:`ParallelRetrieveReport` add
these per-shard accounts to the sequential batch reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Sequence, TypeVar

from repro.core.assembly_plan import AssemblyPlanner, RetrievalRequest
from repro.core.publisher import VMIPublisher
from repro.model.vmi import VirtualMachineImage
from repro.service.batch import BatchPublisher, BatchPublishReport
from repro.service.retrieval import (
    BatchRetrieveReport,
    BatchRetriever,
    resolve_requests,
)

__all__ = [
    "ParallelPublisher",
    "ParallelPublishReport",
    "ParallelRetriever",
    "ParallelRetrieveReport",
    "ShardAccount",
    "ShardedRun",
    "plan_shards",
    "run_shards",
]

T = TypeVar("T")


# ---------------------------------------------------------------------------
# shard planning
# ---------------------------------------------------------------------------


def plan_shards(
    items: Sequence[T],
    n_shards: int,
    affinity: Callable[[T], Hashable],
) -> list[list[T]]:
    """Partition a batch into affinity-aligned, load-balanced shards.

    Items are grouped by ``affinity(item)`` (group-internal order
    preserved), then whole groups are packed largest-first onto the
    least-loaded shard.  Guarantees: every item is assigned to exactly
    one shard, and two items with equal affinity keys always share a
    shard.  Deterministic — ties break on the group's first appearance
    in the batch and the shard index — so a batch plans identically on
    every run even when affinity keys have unstable (``id()``-based)
    reprs.

    Shards may come back empty when the batch has fewer affinity
    groups than ``n_shards``.

    Raises:
        ValueError: non-positive ``n_shards``.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    groups: dict[Hashable, list[T]] = {}
    arrival: dict[Hashable, int] = {}
    for item in items:
        key = affinity(item)
        if key not in groups:
            groups[key] = []
            arrival[key] = len(arrival)
        groups[key].append(item)
    order = sorted(groups, key=lambda k: (-len(groups[k]), arrival[k]))
    shards: list[list[T]] = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    for key in order:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        shards[target].extend(groups[key])
        loads[target] += len(groups[key])
    return shards


@dataclass(frozen=True)
class ShardAccount:
    """What one shard of a parallel batch did and charged."""

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
# sharded execution: plan -> execute -> merge
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
        """``earlier`` results (failures recorded while planning) plus
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
    """Run planned shards one after another, in shard order.

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
# sharded publishing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelPublishReport(_OverlapAccounting, BatchPublishReport):
    """A batch-publish report plus its per-shard overlap accounting."""


class ParallelPublisher:
    """Drives one :class:`VMIPublisher` over family-affine shards."""

    def __init__(
        self, publisher: VMIPublisher, *, parallelism: int
    ) -> None:
        if parallelism < 1:
            raise ValueError(
                f"parallelism must be positive, got {parallelism}"
            )
        self.publisher = publisher
        self.parallelism = parallelism

    def publish_many(
        self,
        vmis: Sequence[VirtualMachineImage],
        *,
        order: str = "dedup",
        progress=None,
        on_error: str = "continue",
    ) -> ParallelPublishReport:
        """Publish a batch shard by shard; returns the merged report.

        Mirrors :meth:`~repro.service.batch.BatchPublisher.
        publish_many` (same ``order``/``progress``/``on_error``
        contract); ``order="dedup"`` applies the dedup-aware ordering
        *within* each shard — the affinity plan already keeps each
        quadruple family whole, so ordering across shards is
        irrelevant to dedup.

        Raises:
            ValueError: unknown ``order`` / ``on_error`` value.
            ReproError: a failing publish, when ``on_error="raise"``.
        """
        if order not in ("dedup", "given"):
            raise ValueError(f"unknown batch order {order!r}")
        if on_error not in ("continue", "raise"):
            raise ValueError(f"unknown error policy {on_error!r}")

        # items travel as (caller position, vmi) pairs, so duplicate
        # objects in one batch keep distinct result positions
        items = list(enumerate(vmis))
        shards = plan_shards(
            items, self.parallelism, lambda pv: pv[1].base.attrs.key()
        )

        repo = self.publisher.repo
        bytes_before = repo.total_bytes()
        stats_before = self.publisher.selection_memo.stats.snapshot()
        pipeline = BatchPublisher(self.publisher)
        run = run_shards(
            shards,
            lambda _, batch, relay: pipeline.publish_many(
                batch, order=order, progress=relay, on_error=on_error
            ),
            progress=progress,
            total=len(items),
        )
        stats_after = self.publisher.selection_memo.stats
        return ParallelPublishReport(
            results=run.merged(),
            repo_bytes_before=bytes_before,
            repo_bytes_after=repo.total_bytes(),
            selection_stats=stats_after.since(stats_before),
            shards=run.accounts(),
        )


# ---------------------------------------------------------------------------
# sharded retrieval
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelRetrieveReport(_OverlapAccounting, BatchRetrieveReport):
    """A batch-retrieve report plus its per-shard overlap accounting."""


class ParallelRetriever:
    """Drives one :class:`AssemblyPlanner` over base-affine shards."""

    def __init__(
        self, planner: AssemblyPlanner, *, parallelism: int
    ) -> None:
        if parallelism < 1:
            raise ValueError(
                f"parallelism must be positive, got {parallelism}"
            )
        self.planner = planner
        self.parallelism = parallelism

    def retrieve_many(
        self,
        requests: Sequence[RetrievalRequest | str],
        *,
        order: str = "affine",
        progress=None,
        on_error: str = "continue",
    ) -> ParallelRetrieveReport:
        """Retrieve a batch shard by shard; returns the merged report.

        Mirrors :meth:`~repro.service.retrieval.BatchRetriever.
        retrieve_many` (names or request objects; same ``order``/
        ``progress``/``on_error`` contract); ``order="affine"``
        applies the base-affine ordering within each shard, where all
        of a base's requests live anyway.

        Raises:
            ValueError: unknown ``order`` / ``on_error`` value.
            ReproError: a failing retrieval, when ``on_error="raise"``
                (including unresolvable names).
        """
        if order not in ("affine", "given"):
            raise ValueError(f"unknown batch order {order!r}")
        if on_error not in ("continue", "raise"):
            raise ValueError(f"unknown error policy {on_error!r}")

        resolved, unresolved = resolve_requests(
            self.planner.repo, requests, on_error=on_error
        )
        if progress is not None:
            for done, failure in enumerate(unresolved, start=1):
                progress(done, len(requests), failure)

        shards = plan_shards(
            resolved, self.parallelism, lambda pr: pr[1].base_key
        )

        stats_before = self.planner.stats.snapshot()
        pipeline = BatchRetriever(self.planner)
        run = run_shards(
            shards,
            lambda _, batch, relay: pipeline.retrieve_many(
                batch, order=order, progress=relay, on_error=on_error
            ),
            progress=progress,
            total=len(requests),
            done=len(unresolved),
        )
        return ParallelRetrieveReport(
            results=run.merged(unresolved),
            planner_stats=self.planner.stats.since(stats_before),
            shards=run.accounts(),
        )
