"""The in-process workload ``retrieve-hot``.

It drives one :class:`~repro.core.system.Expelliarmus` through its
public facade in this process.  Set-up (corpus build and publishes) is
timed as ``setup_s``; only the program's calls inside the timed loop
count toward ``ops_per_s`` and the latency sample — the benchmark's own
output checks run in the loop but outside those timers and outside the
per-op span.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import random
import statistics
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter, thread_time

from perfbench import harness, stats
from perfbench.harness import Outcome, TracedRound, op_span
from repro.core.system import Expelliarmus
from repro.errors import ReproError
from repro.image.qcow2 import Qcow2Image
from repro.service.protocol import manifest_digest
from repro.workloads.scale import scale_corpus

RETRIEVE_VMIS, RETRIEVE_FAMILIES = 1000, 40
FAT_BASE_PCT = 20
#: the generated OS-family catalog is fixed; a run's seed picks which
#: of this many images are uploaded and in what order, so seeds vary
#: the requests over one catalog instead of redrawing the catalog
CATALOG_SEED = "perfbench-catalog"
POOL_VMIS = 100_000
#: Zipf-drawn single retrievals per retrieve-hot round
SINGLES = 8000
#: whole-set retrieve_many passes per round: the first derives plans,
#: the rest hit the planner cache
PASSES = 10
#: the one lane of a retrieve-hot round, and its latency sample: the
#: single retrievals, not the batch passes
LOOP = "loop"
SINGLE_CALLS = [(LOOP, position) for position in range(SINGLES)]


def request_seed(seed: int) -> str:
    return f"perfbench-{seed}"


def uploads(seed: int, n_vmis: int, n_families: int):
    """The catalog's corpus and the seeded upload indices, in arrival
    order."""
    corpus = scale_corpus(
        POOL_VMIS, n_families=n_families, seed=CATALOG_SEED,
        fat_base_pct=FAT_BASE_PCT,
    )
    rng = random.Random(request_seed(seed))
    return corpus, rng.sample(range(POOL_VMIS), n_vmis)


def raw_qcow2_bytes(vmis) -> int:
    """Raw-qcow2 bytes of the uploads (the paper's Fig. 3 reference);
    taken before publishing, which strips the images."""
    return sum(
        Qcow2Image(name=v.name, manifest=v.full_manifest()).size for v in vmis
    )


def _reference_digests(seed: int) -> dict[str, str]:
    """Manifest digests from an independent repository: the same
    corpus published in reverse order, each image retrieved once
    through the sequential assembler."""
    corpus, indices = uploads(seed, RETRIEVE_VMIS, RETRIEVE_FAMILIES)
    system = Expelliarmus()
    for index in reversed(indices):
        system.publish(corpus.build(index))
    return {
        name: manifest_digest(system.retrieve(name).vmi.full_manifest())
        for name in system.published_names()
    }


def reference_in_child(seed: int) -> dict[str, str]:
    """:func:`_reference_digests` in a forked child process.

    The reference repository then never adds to this process's peak
    RSS, so ``peak_rss_mb`` covers only the rounds.  A forked child
    shares this interpreter's string-hash seed, so its digests are
    comparable with the ones taken here (an assembled manifest lists
    its files in string-hash order).
    """
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(_reference_digests, seed).result()


def retrieve_hot(seed: int, seconds: float, trace: bool) -> Outcome:
    """Zipf-skewed single retrievals, then whole-set batch passes."""
    out = Outcome("retrieve-hot", trace)
    reference = reference_in_child(seed)
    observed: dict[str, set[str]] = {}
    per_round = []  # (stored bytes, first-pass sim seconds)
    batch_vmis = 0

    def seen(name: str, vmi) -> None:
        observed.setdefault(name, set()).add(
            manifest_digest(vmi.full_manifest())
        )

    system = None
    for traced in harness.rounds(out, seconds):
        system = None  # drop the last round's repository before building
        t0 = perf_counter()
        corpus, indices = uploads(seed, RETRIEVE_VMIS, RETRIEVE_FAMILIES)
        vmis = [corpus.build(i) for i in indices]
        raw = raw_qcow2_bytes(vmis)
        system = Expelliarmus()
        for vmi in vmis:
            system.publish(vmi)
        names = system.published_names()
        zipf = stats.ZipfNames(names, request_seed(seed))
        out.setups.append(perf_counter() - t0)
        del vmis
        gc.collect()

        first_pass_sim = None
        ops, busy, cpu, times = 0, 0.0, 0.0, {}
        with TracedRound(traced) as tracer:
            if tracer is not None:
                tracer.attach_database(system.repo.db)
            for position in range(SINGLES):
                name = zipf.draw()
                out.attempted += 1
                with op_span(tracer):
                    c, t = thread_time(), perf_counter()
                    try:
                        report = system.retrieve(name)
                    except ReproError:
                        out.failed += 1
                        continue
                    elapsed = perf_counter() - t
                    cpu += thread_time() - c
                seen(name, report.vmi)
                times[LOOP, position] = elapsed
                busy += elapsed
                ops += 1
            for position in range(SINGLES, SINGLES + PASSES):
                with op_span(tracer):
                    c, t = thread_time(), perf_counter()
                    batch = system.retrieve_many(names)
                    elapsed = perf_counter() - t
                    cpu += thread_time() - c
                for item in batch.results:
                    if item.report is not None:
                        seen(item.name, item.report.vmi)
                out.attempted += batch.n_items
                out.failed += batch.n_failed
                ops += batch.n_retrieved
                busy += elapsed
                times[LOOP, position] = elapsed
                batch_vmis = batch.n_retrieved
                if first_pass_sim is None:
                    # fsum: the batch's order follows string hashing,
                    # and a plain sum would round differently per order
                    first_pass_sim = math.fsum(
                        r.retrieval_time for r in batch.reports()
                    ) / max(batch.n_retrieved, 1)
            phase = out.phase(traced)
            phase.add_round(ops, busy, cpu, times, SINGLE_CALLS)
            if tracer is not None:
                harness.add_traced(phase, tracer.snapshot())
        per_round.append((system.repository_size, first_pass_sim))

    mismatched = sorted(
        name for name, digests in observed.items()
        if digests != {reference.get(name)}
    )
    out.check(
        "retrieved manifests match the reference retrieval", not mismatched,
        f"{len(observed)} names checked, {len(mismatched)} differ",
    )
    out.check("fsck clean", system.fsck().clean, "after the last round")
    out.check(
        "stored bytes and simulated seconds repeat across rounds",
        len(set(per_round)) == 1,
        f"{len(per_round)} rounds: {per_round[0][0]} B, "
        f"{per_round[0][1]!r} sim s",
    )
    ratio = per_round[0][0] / raw
    sim_retrieve = per_round[0][1]
    base = out.untraced
    typical = base.typical()
    latency = base.latency()
    note = f"{SINGLES} calls, each at its median of {len(base.round_ops)} rounds"
    out.line("retrieve_p50_ms", latency.get("p50_ms", 0.0), "ms", note)
    out.line("retrieve_p99_ms", latency.get("p99_ms", 0.0), "ms", note)
    batch_seconds = sum(
        typical[LOOP, p] for p in range(SINGLES, SINGLES + PASSES)
    )
    out.line(
        "batch_retrieve_vmis_per_s",
        PASSES * batch_vmis / batch_seconds if batch_seconds else 0.0, "1/s",
        f"{PASSES} passes of {batch_vmis} VMIs, each at its median",
    )
    out.line("ops_per_s", base.ops_per_s, "1/s",
             "single retrievals + batch VMIs over their median times")
    out.line("cpu_ms_per_op", base.cpu_ms_per_op, "ms",
             "this thread's CPU time in the calls, median over rounds")
    out.line("error_ratio", out.failed / max(out.attempted, 1), "ratio")
    out.line("stored_bytes_ratio", ratio, "ratio", "repository / raw qcow2")
    out.line("sim_retrieve_s", sim_retrieve, "sim_s",
             "mean per VMI of the first batch pass")
    out.line("setup_s", statistics.median(out.setups), "s",
             f"median of {len(out.setups)}")
    harness.finish(out, ratio, sim_retrieve, harness.peak_rss_mb())
    return out
