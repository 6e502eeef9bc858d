"""Regression: shared planner/memo caches under thread pressure.

The image server's worker threads share one :class:`~repro.core.
assembly_plan.AssemblyPlanner` (and one :class:`~repro.core.
base_selection.SelectionMemo`).  Before the caches were guarded, two
threads could interleave a lookup with a derivation and serve a torn
entry or double-derive into inconsistent stats.  These
tests hammer the shared instances from 8 threads and assert that every
answer equals the single-threaded reference.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.assembly_plan import RetrievalRequest
from repro.core.system import Expelliarmus

N_THREADS = 8
ROUNDS = 25


def _published_system(scale_corpus_factory, n=12, families=3):
    corpus = scale_corpus_factory(n, n_families=families)
    system = Expelliarmus()
    report = system.publish_many([corpus.build(i) for i in range(n)])
    assert report.n_failed == 0
    names = [corpus.spec(i).name for i in range(n)]
    return system, names


def test_shared_planner_serves_no_torn_or_stale_plan(
    scale_corpus_factory,
):
    system, names = _published_system(scale_corpus_factory)
    requests = [
        RetrievalRequest.for_record(system.repo.get_vmi_record(name))
        for name in names
    ]
    # the single-threaded reference: derive every plan once, cold
    reference = {
        r.plan_key(): system.planner.plan_for(r)[0] for r in requests
    }
    system.planner.clear()
    stats_before = system.planner.stats.snapshot()

    start = threading.Barrier(N_THREADS)
    failures = []

    def hammer(worker: int):
        start.wait()
        for round_ in range(ROUNDS):
            # each worker walks the requests at its own offset, so
            # lookups and derivations of every key interleave freely
            for i in range(len(requests)):
                request = requests[(i + worker + round_) % len(requests)]
                plan, _ = system.planner.plan_for(request)
                expected = reference[request.plan_key()]
                if (
                    plan.installs != expected.installs
                    or plan.base_key != expected.base_key
                    or plan.base_bytes != expected.base_bytes
                ):  # pragma: no cover - the regression being pinned
                    failures.append((worker, request.name))

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(hammer, range(N_THREADS)))

    assert not failures
    # the cache converged to one entry per distinct plan key, and the
    # counters balance: every request was either a derivation or a hit
    stats = system.planner.stats.since(stats_before)
    distinct = len({r.plan_key() for r in requests})
    assert len(system.planner) == distinct
    total_lookups = N_THREADS * ROUNDS * len(requests)
    assert stats.plan_hits + stats.plans_derived == total_lookups
    assert stats.plan_invalidations == 0
    # no torn double-inserts: at most one derivation per key per racer
    assert stats.plans_derived >= distinct


def test_shared_planner_assemble_is_observationally_stable(
    scale_corpus_factory,
):
    system, names = _published_system(scale_corpus_factory)
    reference = {
        name: system.retrieve(name).vmi.full_manifest()
        for name in names
    }
    mismatches = []

    def worker(name: str):
        for _ in range(6):
            request = RetrievalRequest.for_record(
                system.repo.get_vmi_record(name)
            )
            planned = system.planner.assemble(request)
            if (
                planned.report.vmi.full_manifest() != reference[name]
            ):  # pragma: no cover - the regression being pinned
                mismatches.append(name)

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(worker, names * 2))
    assert not mismatches


def test_shared_selection_memo_survives_concurrent_publish_shards(
    scale_corpus_factory,
):
    """Two publish batches driven from two threads over one memo leave
    it consistent: publishes interleave across the threads, each under
    the repository write lock as the image server's workers take it,
    and the repository still converges (no duplicate base blobs, clean
    fsck)."""
    corpus = scale_corpus_factory(18, n_families=3, seed="memo-hammer")
    system = Expelliarmus()
    batches = [
        [corpus.build(i) for i in range(12)],
        [corpus.build(i) for i in range(12, 18)],
    ]
    start = threading.Barrier(len(batches))
    failures = []

    def publish_batch(batch):
        start.wait()
        for vmi in batch:
            try:
                with system.repo.lock.write():
                    system.publish(vmi)
            except Exception as exc:  # pragma: no cover - the regression
                failures.append((vmi.name, exc))

    threads = [
        threading.Thread(target=publish_batch, args=(batch,))
        for batch in batches
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not failures
    assert len(system.published_names()) == 18
    assert system.fsck().clean
    # content-addressed convergence: one stored base per distinct blob
    keys = [b.blob_key() for b in system.repo.base_images()]
    assert len(keys) == len(set(keys))
