"""The ``daemon-churn`` workload: the CLI daemon under closed-loop churn.

Each round starts ``expelliarmus --workspace WS serve`` in a fresh
workspace as a subprocess (through :mod:`perfbench.traced_server` in a
traced round), with the daemon's default checkpoint policy, then one
client thread per tenant replays that tenant's share of
:func:`~repro.workloads.traffic.traffic_schedule` in order — publish,
retrieve, delete — waiting for each reply before sending the next.
Every few deletes a tenant asks for a GC.  Halfway through, the
clients fall quiet until the daemon's own idle checkpoint has replaced
the snapshot (the gap is timed, outside the timed phase); then they
replay the second half.  The server is then SIGKILLed and the
workspace reopened in this process, which replays the ops journaled
since that checkpoint.

Checks: fsck through the wire and after the reopen; the reopen
replays exactly the ops the daemon had journaled since its last
checkpoint, as its ``stats`` reported just before the kill; every live
image retrieved through the wire equals the same image retrieved from
the reopened workspace; that workspace holds exactly the acknowledged
live set and its ownership journal names the right tenants; after a
full GC there, the stored bytes per kind and every live image equal
those of an in-process replay of the same namespaced ops.  Nothing is written
between the last acknowledged request and the SIGKILL, so an op the
server acknowledged but had not handed to the OS would be missing.

Two limits shape these checks.  Retrievals *during* the churn are
checked for success only: which of two concurrent requests the server
applied first is not observable from the clients, and a retrieved
manifest depends on that history (a base replaced by a superset base
adds files), while the state after a full GC does not.  And a wire
reply's ``manifest_digest`` is compared with nothing from another
process: an assembled manifest lists its files in an order that
follows the interpreter's string hashing, so the same image digests
differently in two processes — and a workspace reopened here keeps
the order the server pickled.  So wire replies are compared by their
order-free fields, reopened images by their sorted file contents.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

import numpy

from perfbench import harness, stats
from perfbench.harness import Outcome, TracedRound, op_span
from perfbench.inprocess import CATALOG_SEED, raw_qcow2_bytes
from perfbench.tracer import merge
from repro.core.system import Expelliarmus
from repro.errors import AdmissionRejectedError, ReproError
from repro.repository.workspace import Workspace
from repro.service.client import RemoteClient
from repro.service.protocol import scale_source
from repro.service.server import OWNERS_FILE
from repro.service.tenancy import namespaced
from repro.workloads.scale import scale_corpus
from repro.workloads.traffic import TrafficConfig, traffic_schedule

ROOT = Path(__file__).resolve().parent.parent
#: closed-loop connections, one tenant each: one per core of the
#: 2-vCPU machine the workload was sized on
TENANTS = 2
SOURCE_VMIS = 600
#: schedule length, enough for each tenant's share of a round
SCHEDULE_REQUESTS = 2000
#: schedule events each client replays per round (plus its GC
#: requests), half before the quiet gap and half after it
EVENTS_PER_TENANT = 700
GC_EVERY_DELETES = 5
#: seconds allowed for the daemon to come up, answer a signal or
#: write its idle checkpoint
STARTUP_TIMEOUT_S = 60.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def traffic_config(seed: int) -> TrafficConfig:
    return TrafficConfig(
        n_tenants=TENANTS,
        n_requests=SCHEDULE_REQUESTS,
        n_vmis=SOURCE_VMIS,
        seed=f"perfbench-traffic-{seed}",
    )


@dataclass
class TenantLog:
    """What one client thread saw."""

    #: schedule events acknowledged, a prefix of the tenant's stream
    acked: int = 0
    #: deletes acknowledged, which pace the GC requests
    deletes: int = 0
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    error: str = ""
    #: (op, wall seconds, simulated seconds) per completed request
    requests: list[tuple[str, float, float]] = field(default_factory=list)


def _replay(client, source, events, tracer, log: TenantLog) -> None:
    """Replay one tenant's events in order, each after the last reply;
    stops at the first failure, since later events may depend on it."""
    if log.error:
        return

    def call(op: str, fn, *args) -> dict | None:
        log.attempted += 1
        with op_span(tracer):
            t = perf_counter()
            try:
                reply = fn(*args)
            # typed errors (a rejection among them) and a dropped connection
            except (ReproError, OSError) as exc:
                log.failed += 1
                log.rejected += isinstance(exc, AdmissionRejectedError)
                log.error = f"{op}: {exc}"
                return None
            elapsed = perf_counter() - t
        log.requests.append((op, elapsed, reply.get("simulated_seconds", 0.0)))
        return reply

    for ev in events:
        if ev.op == "publish":
            reply = call("publish", client.publish, source, ev.item)
        elif ev.op == "retrieve":
            reply = call("retrieve", client.retrieve, ev.name)
        else:
            reply = call("delete", client.delete, ev.name)
        if reply is None:
            return  # later events may depend on this one
        log.acked += 1
        if ev.op == "delete":
            log.deletes += 1
            if log.deletes % GC_EVERY_DELETES == 0:
                if call("gc", client.gc) is None:
                    return


class Daemon:
    """One ``serve`` subprocess on a fresh workspace."""

    def __init__(self, where: Path, traced: bool) -> None:
        where.mkdir(parents=True)
        self.workspace = where / "ws"
        self.port_file = where / "port.txt"
        self.spans_file = where / "spans.json"
        self.log_path = where / "serve.log"
        serve = [
            "--workspace", str(self.workspace), "serve",
            "--workers", str(TENANTS),
            "--port-file", str(self.port_file),
        ]
        if traced:
            launcher = ROOT / "perfbench" / "traced_server.py"
            argv = [str(launcher), str(self.spans_file), "--", *serve]
        else:
            argv = ["-m", "repro", *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, *argv], cwd=where, env=env,
                stdout=log, stderr=subprocess.STDOUT,
            )

    def endpoint(self) -> str:
        deadline = perf_counter() + STARTUP_TIMEOUT_S
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_tail()}")
            if self.port_file.exists():
                text = self.port_file.read_text()
                if text.endswith("\n"):
                    return text.strip()
            sleep(0.005)
        raise RuntimeError("server did not come up in time")

    def collect_spans(self) -> dict:
        """Spans since the last call (SIGUSR1 to the traced launcher)."""
        self.spans_file.unlink(missing_ok=True)
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = perf_counter() + STARTUP_TIMEOUT_S
        while not self.spans_file.exists():
            if perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"no spans written: {self.log_tail()}")
            sleep(0.005)
        return json.loads(self.spans_file.read_text())

    def cpu_seconds(self) -> float:
        """User + system CPU seconds the daemon has used so far, from
        ``/proc/<pid>/stat`` (clock-tick resolution)."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def snapshot_id(self) -> tuple | None:
        """Identity of the workspace's snapshot file, which every
        checkpoint replaces; None before the first."""
        try:
            st = os.stat(Workspace(self.workspace).snapshot_path)
        except FileNotFoundError:
            return None
        return (st.st_ino, st.st_mtime_ns, st.st_size)

    def await_checkpoint(self, since: tuple | None) -> float:
        """Wait, sending nothing, until the daemon's idle checkpoint
        has replaced the snapshot identified by ``since``; returns the
        seconds waited."""
        start = perf_counter()
        while self.snapshot_id() == since:
            if perf_counter() - start > STARTUP_TIMEOUT_S:
                raise RuntimeError("no idle checkpoint in time")
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_tail()}")
            sleep(0.005)
        return perf_counter() - start

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=STARTUP_TIMEOUT_S)

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text()[-500:]
        except OSError:
            return "(no log)"


def _summary(n_files: int, mounted_size: int, imported) -> tuple:
    """The order-free part of a retrieval, comparable across processes."""
    return (n_files, mounted_size, tuple(sorted(imported)))


def content_digest(manifest) -> str:
    """Digest of a manifest's (content id, size) pairs, sorted — the
    files, whatever order the manifest lists them in."""
    order = numpy.lexsort((manifest.sizes, manifest.content_ids))
    h = hashlib.blake2b(digest_size=16)
    h.update(manifest.content_ids[order].tobytes())
    h.update(manifest.sizes[order].tobytes())
    return h.hexdigest()


def _retrievals(system) -> dict[str, tuple[str, tuple]]:
    """stored name -> (content digest, summary) for every live image."""
    out = {}
    for name in system.published_names():
        report = system.retrieve(name)
        vmi = report.vmi
        out[name] = (
            content_digest(vmi.full_manifest()),
            _summary(vmi.n_files, vmi.mounted_size, report.imported_packages),
        )
    return out


def _acked_events(events, acked: dict[str, int]):
    """Each tenant's first ``acked[tenant]`` events, in schedule order."""
    seen = dict.fromkeys(acked, 0)
    for ev in events:
        if seen[ev.tenant] < acked[ev.tenant]:
            seen[ev.tenant] += 1
            yield ev


def _reference_replay(corpus, events, acked: dict[str, int]):
    """Apply each tenant's acknowledged prefix in schedule order to an
    in-process repository, then a full GC; returns (bytes per kind,
    :func:`_retrievals`, mean simulated seconds per op)."""
    system = Expelliarmus()
    simulated = []
    for ev in _acked_events(events, acked):
        name = namespaced(ev.tenant, ev.name or f"vmi-{ev.item:05d}")
        if ev.op == "publish":
            vmi = corpus.build(ev.item)
            vmi.name = name
            simulated.append(system.publish(vmi).publish_time)
        elif ev.op == "retrieve":
            simulated.append(system.retrieve(name).retrieval_time)
        else:
            with system.clock.measure() as window:
                system.delete(name)
            simulated.append(window.total)
    system.garbage_collect(full=True)
    return (
        system.repository_breakdown(),
        _retrievals(system),
        statistics.mean(simulated),
    )


def _served_summaries(clients) -> dict[str, tuple]:
    """Summary per live stored name, every tenant's images retrieved
    through the wire (read-only)."""
    summaries = {}
    for client in clients:
        for item in client.retrieve_many()["results"]:
            summaries[item["stored_name"]] = _summary(
                item["n_files"], item["mounted_size"], item["imported_packages"]
            )
    return summaries


def _live_set(events, acked: dict[str, int]) -> dict[str, tuple[str, int]]:
    """stored name -> (tenant, corpus item) after the acknowledged ops."""
    live: dict[str, tuple[str, int]] = {}
    for ev in _acked_events(events, acked):
        if ev.op == "publish":
            name = f"vmi-{ev.item:05d}"
            live[namespaced(ev.tenant, name)] = (ev.tenant, ev.item)
        elif ev.op == "delete":
            live.pop(namespaced(ev.tenant, ev.name), None)
    return live


def _churn(clients, streams, source, tracer, logs) -> float:
    """Every tenant replays its events at once; returns the wall
    clock until the last one finished."""
    threads = [
        threading.Thread(
            target=_replay,
            args=(c, source, streams[c.tenant], tracer, logs[c.tenant]),
        )
        for c in clients
    ]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return perf_counter() - start


def _round(traced, where, streams, source, out):
    """One daemon round: start, churn, fall quiet until the idle
    checkpoint, churn, check through the wire, kill, reopen.  Returns
    what the caller compares and reports."""
    t0 = perf_counter()
    daemon = Daemon(where, traced)
    clients = []
    halves = [
        {t: events[:len(events) // 2] for t, events in streams.items()},
        {t: events[len(events) // 2:] for t, events in streams.items()},
    ]
    try:
        endpoint = daemon.endpoint()
        for tenant in streams:
            clients.append(RemoteClient.connect(endpoint, tenant=tenant))
            clients[-1].ping()
        out.setups.append(perf_counter() - t0)
        if traced:
            daemon.collect_spans()  # drop set-up
        logs = {tenant: TenantLog() for tenant in streams}
        with TracedRound(traced) as tracer:
            before = daemon.snapshot_id()
            cpu = -daemon.cpu_seconds()
            wall = _churn(clients, halves[0], source, tracer, logs)
            cpu += daemon.cpu_seconds()
            quiet_s = daemon.await_checkpoint(before)
            cpu -= daemon.cpu_seconds()
            wall += _churn(clients, halves[1], source, tracer, logs)
            cpu += daemon.cpu_seconds()
            loop_spans = tracer.snapshot() if tracer is not None else None
        server_spans = daemon.collect_spans() if traced else None
        fsck = clients[0].fsck()
        served = _served_summaries(clients)
        # the last request before the kill: what a reopen must replay
        journaled = clients[0].stats()["workspace"]["ops_since_checkpoint"]
    finally:
        for client in clients:
            client.close()
        daemon.kill()

    with TracedRound(traced) as tracer:
        t = perf_counter()
        reopened = Expelliarmus.open(daemon.workspace)
        reopen_s = perf_counter() - t
        if tracer is not None:
            merge(out.reopen_spans, tracer.snapshot())
            out.reopens += 1
    try:
        replayed = reopened.workspace.replayed_ops
        recovered_clean = reopened.fsck().clean
        before_gc = {n: v[1] for n, v in _retrievals(reopened).items()}
        reopened.garbage_collect(full=True)
        recovered = _retrievals(reopened)
        recovered_kinds = reopened.repository_breakdown()
        recovered_bytes = reopened.repository_size
    finally:
        reopened.close()
    owners = json.loads((daemon.workspace / OWNERS_FILE).read_text())

    phase = out.phase(traced)
    times = {
        (tenant, position): elapsed
        for tenant, log in logs.items()
        for position, (_op, elapsed, _sim) in enumerate(log.requests)
    }
    phase.add_round(len(times), wall, cpu, times)
    if traced:
        rejections = sum(log.rejected for log in logs.values())
        harness.add_traced(phase, loop_spans, server_spans)
        merge(phase.all_spans, {
            "counters": {"service.admission.rejections": rejections}
        })
    return {
        "logs": logs, "fsck": fsck, "served": served, "owners": owners,
        "before_gc": before_gc, "recovered": recovered,
        "recovered_kinds": recovered_kinds, "recovered_bytes": recovered_bytes,
        "recovered_clean": recovered_clean, "reopen_s": reopen_s,
        "journaled": journaled, "replayed": replayed, "quiet_s": quiet_s,
    }


def daemon_churn(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome("daemon-churn", trace)
    events = traffic_schedule(traffic_config(seed))
    tenants = sorted({ev.tenant for ev in events})
    streams = {
        t: [ev for ev in events if ev.tenant == t][:EVENTS_PER_TENANT]
        for t in tenants
    }
    source = scale_source(SOURCE_VMIS, seed=CATALOG_SEED)
    corpus = scale_corpus(SOURCE_VMIS, seed=CATALOG_SEED)
    work = ROOT / ".bench_work" / f"daemon-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    references: dict[tuple, tuple] = {}
    raw_by_item: dict[int, int] = {}
    requests: list[tuple[str, float, float]] = []
    #: (tenant, position) -> the request's op, as in Phase's keys
    kinds: dict[tuple[str, int], str] = {}
    reopen_s: list[float] = []
    replayed: list[int] = []
    quiet_s: list[float] = []
    ratios: list[float] = []
    problems: dict[str, list[str]] = {}

    def problem(label: str, detail: str) -> None:
        problems.setdefault(label, []).append(detail)

    try:
        for k, traced in enumerate(harness.rounds(out, seconds)):
            r = _round(traced, work / f"round-{k}", streams, source, out)
            shutil.rmtree(work / f"round-{k}", ignore_errors=True)
            logs = r["logs"]
            acked = {t: logs[t].acked for t in tenants}
            key = tuple(sorted(acked.items()))
            if key not in references:
                references[key] = _reference_replay(corpus, events, acked)
            reference_kinds, reference, sim_op_s = references[key]
            live = _live_set(events, acked)

            if not r["fsck"]["clean"]:
                problem("fsck clean through the wire", str(r["fsck"]["findings"]))
            if not r["recovered_clean"]:
                problem("fsck clean after the reopen", f"round {k}")
            if r["replayed"] != r["journaled"] or not r["journaled"]:
                problem("reopen replays the ops journaled since the checkpoint",
                        f"round {k}: replayed {r['replayed']}, "
                        f"daemon journaled {r['journaled']}")
            if set(r["before_gc"]) != set(live):
                problem("reopened workspace holds the acknowledged live set",
                        f"round {k}")
            if r["owners"] != {name: t for name, (t, _) in live.items()}:
                problem("ownership journal names the live set's tenants",
                        f"round {k}")
            if r["served"] != r["before_gc"]:
                problem("wire retrievals match the reopened workspace",
                        f"round {k}: {len(r['served'])} live images")
            if r["recovered"] != reference:
                problem("reopened retrievals match the in-process replay",
                        f"round {k}: {len(r['recovered'])} live images")
            if r["recovered_kinds"] != reference_kinds:
                problem("stored bytes match the in-process replay",
                        f"round {k}: {r['recovered_kinds']} != {reference_kinds}")
            for log in logs.values():
                out.attempted += log.attempted
                out.failed += log.failed
                if log.error:
                    problem("no request failed", log.error)
            if traced:
                continue
            for item in {i for _, i in live.values()} - raw_by_item.keys():
                raw_by_item[item] = raw_qcow2_bytes([corpus.build(item)])
            raw = sum(raw_by_item[item] for _, item in live.values())
            ratios.append(r["recovered_bytes"] / raw)
            for tenant, log in logs.items():
                requests += log.requests
                for position, (op, _elapsed, _sim) in enumerate(log.requests):
                    kinds[tenant, position] = op
            reopen_s.append(r["reopen_s"])
            replayed.append(r["replayed"])
            quiet_s.append(r["quiet_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every known check is reported, and any label a problem was filed
    # under, so a mistyped label cannot hide a failure
    known = (
        "fsck clean through the wire",
        "fsck clean after the reopen",
        "reopen replays the ops journaled since the checkpoint",
        "reopened workspace holds the acknowledged live set",
        "ownership journal names the live set's tenants",
        "wire retrievals match the reopened workspace",
        "reopened retrievals match the in-process replay",
        "stored bytes match the in-process replay",
        "no request failed",
    )
    for label in dict.fromkeys(known + tuple(problems)):
        details = problems.get(label, [])
        out.check(label, not details,
                  "; ".join(details) or f"{len(out.setups)} rounds")
    out.check("stored bytes repeat across rounds", len(set(ratios)) <= 1,
              f"{len(set(ratios))} distinct ratios")

    typical = out.untraced.typical()

    def sample(op: str) -> list[float]:
        return [w for key, w in typical.items() if kinds.get(key) == op]

    rounds = len(out.untraced.round_ops)
    for op in ("publish", "retrieve", "delete"):
        lat = stats.latency_summary(sample(op))
        note = f"{lat['n']} requests, each at its median of {rounds} rounds"
        if lat["n"]:
            out.line(f"{op}_p50_ms", lat["p50_ms"], "ms", note)
        if "p99_ms" in lat and op != "delete":
            out.line(f"{op}_p99_ms", lat["p99_ms"], "ms", note)
    out.line("ops_per_s", out.untraced.ops_per_s, "1/s",
             f"requests of a round over its busier client's median times "
             f"({TENANTS} closed-loop clients)")
    out.line("cpu_ms_per_op", out.untraced.cpu_ms_per_op, "ms",
             "the daemon's CPU time in the timed phase, median over rounds")
    out.line("error_ratio", out.failed / max(out.attempted, 1), "ratio")
    if typical:
        out.line("gc_s", sum(sample("gc")), "s",
                 "per round, in GC requests, each at its median")
    if reopen_s:
        out.line("reopen_s", statistics.median(reopen_s), "s",
                 f"median of {len(reopen_s)}, replaying "
                 f"{statistics.median(replayed):g} ops")
        out.line("idle_checkpoint_wait_s", statistics.median(quiet_s), "s",
                 "quiet gap until the daemon's idle checkpoint, median")
    ratio = ratios[0] if ratios else 0.0
    out.line("stored_bytes_ratio", ratio, "ratio", "after full GC")
    for op in ("publish", "retrieve"):
        sims = [s for o, _, s in requests if o == op]
        if sims:
            out.line(f"sim_{op}_s", statistics.mean(sims), "sim_s",
                     "mean per reply; varies with the interleaving")
    out.line("sim_op_s", sim_op_s, "sim_s",
             "mean per op of the in-process replay")
    rss = harness.peak_rss_mb(children=True)
    out.line("peak_rss_mb", rss, "MiB", "the daemon")
    out.line("setup_s", statistics.median(out.setups), "s",
             f"median of {len(out.setups)}")
    harness.finish(out, ratio, sim_op_s, rss)
    return out
