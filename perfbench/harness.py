"""What every workload shares: rounds, checks and the result line."""

from __future__ import annotations

import json
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field

from perfbench import metrics, stats
from perfbench.tracer import Tracer, install, merge

#: least untraced rounds of a plain run; each one sets up afresh, so
#: ``setup_s`` is a median of at least this many set-ups
ROUNDS = 3
#: a traced run alternates untraced and traced rounds, at least this
#: many of each
TRACE_ROUNDS = 2
#: :func:`layer_coverage` of a traced run must be within this of 1
COVERAGE_TOLERANCE = 0.10


def rounds(out: "Outcome", seconds: float):
    """Yield, per round, whether it is traced.

    Every round does the same fixed work on the same inputs, so the
    deterministic outputs must repeat exactly.  Rounds continue until
    the timed phases add up to ``seconds``.  In a traced run every
    second round is traced, so untraced and traced rounds see the same
    machine state and their ``ops_per_s`` give the tracing overhead.
    """
    least = 2 * TRACE_ROUNDS if out.trace else ROUNDS
    k = 0
    while (
        k < least
        or out.untraced.seconds + out.traced.seconds < seconds
        or (out.trace and k % 2)
    ):
        yield out.trace and k % 2 == 1
        k += 1


@dataclass
class Phase:
    """Timed-phase results of one kind of round (traced or not).

    Every round makes the same calls on the same inputs, so a call is
    identified by its place in the round: ``(lane, position)``, where a
    lane is one loop whose calls run one after another.  Each call is
    taken at its median time over the rounds, and rates and percentiles
    are computed from those medians, so a stretch of one round that the
    host slowed down moves no figure.
    """

    ops: int = 0
    #: time the ops took: the program's calls in-process, the loop's
    #: wall clock for a closed loop over the wire
    seconds: float = 0.0
    #: ops each round completed
    round_ops: list[int] = field(default_factory=list)
    #: CPU seconds the process holding the repository spent per round
    round_cpu: list[float] = field(default_factory=list)
    #: per call, its wall seconds in every round so far
    times: dict[tuple[str, int], list[float]] = field(default_factory=dict)
    #: the calls in the latency sample (all of them when None)
    sample: list[tuple[str, int]] | None = None
    #: spans of the process running the timed loop (traced rounds)
    loop_spans: dict = field(default_factory=dict)
    #: spans of every process, merged (traced rounds)
    all_spans: dict = field(default_factory=dict)

    def add_round(
        self, ops: int, seconds: float, cpu: float,
        times: dict[tuple[str, int], float],
        sample: list[tuple[str, int]] | None = None,
    ) -> None:
        """Record one round: ops completed, the time they took, the CPU
        seconds the repository's process spent on them, each timed
        call's wall seconds by ``(lane, position)``, and which of those
        calls the latency percentiles cover."""
        self.ops += ops
        self.seconds += seconds
        self.round_ops.append(ops)
        self.round_cpu.append(cpu)
        for key, elapsed in times.items():
            self.times.setdefault(key, []).append(elapsed)
        if self.sample is None:
            self.sample = sample

    def typical(self) -> dict[tuple[str, int], float]:
        """Each call's median wall seconds over the rounds; only calls
        every round made."""
        rounds = len(self.round_ops)
        return {
            key: statistics.median(values)
            for key, values in self.times.items() if len(values) == rounds
        }

    @property
    def ops_per_s(self) -> float:
        """Ops of a round over the time its busiest lane takes at the
        calls' median times."""
        lanes: dict[str, float] = {}
        for (lane, _position), seconds in self.typical().items():
            lanes[lane] = lanes.get(lane, 0.0) + seconds
        if not lanes or not max(lanes.values()):
            return 0.0
        return statistics.median(self.round_ops) / max(lanes.values())

    @property
    def cpu_ms_per_op(self) -> float:
        """Median over rounds of the repository process's CPU ms per
        op."""
        per_op = [
            cpu / ops * 1e3
            for cpu, ops in zip(self.round_cpu, self.round_ops, strict=True)
            if ops
        ]
        return statistics.median(per_op) if per_op else 0.0

    def latency(self) -> dict:
        """:func:`stats.latency_summary` of the sampled calls' median
        times."""
        typical = self.typical()
        keys = typical if self.sample is None else self.sample
        return stats.latency_summary([typical[k] for k in keys if k in typical])


@dataclass
class Outcome:
    """Everything one run reports."""

    workload: str
    trace: bool
    attempted: int = 0
    failed: int = 0
    setups: list[float] = field(default_factory=list)
    untraced: Phase = field(default_factory=Phase)
    traced: Phase = field(default_factory=Phase)
    #: (label, passed, detail)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: human-readable metric lines: (name, value, unit, note)
    lines: list[tuple[str, float, str, str]] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    reopen_spans: dict = field(default_factory=dict)
    reopens: int = 0

    def check(self, label: str, passed: bool, detail: str = "") -> bool:
        self.checks.append((label, bool(passed), detail))
        return bool(passed)

    def line(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.lines.append((name, value, unit, note))

    def phase(self, traced: bool) -> Phase:
        return self.traced if traced else self.untraced

    @property
    def correct(self) -> bool:
        return all(passed for _label, passed, _detail in self.checks)


class TracedRound:
    """Installs the layer wrappers for one traced round's timed phase.

    Used as ``with TracedRound(active) as tracer:``; ``tracer`` is None
    in an untraced round, where nothing is installed.
    """

    def __init__(self, active: bool) -> None:
        self.tracer = Tracer() if active else None

    def __enter__(self) -> Tracer | None:
        if self.tracer is not None:
            install(self.tracer)
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()


#: the benchmark's own span around each timed operation
OP_SPAN = "bench.op"


def op_span(tracer: Tracer | None):
    """The benchmark's own span around one timed operation: the
    program's call and the harness code timing it, nothing else."""
    return tracer.span(OP_SPAN) if tracer is not None else nullcontext()


def layer_coverage(loop: dict) -> float:
    """Share of the timed operations' wall time that layer spans cover.

    Every timed operation runs inside :data:`OP_SPAN`, and self times
    telescope, so the self times of *all* spans add up to the time of
    the operations whatever wrappers fire.  What the layer wrappers do
    not cover is exactly the self time of :data:`OP_SPAN`: program code
    outside every wrapped layer, plus the harness's timer calls.  So
    coverage is 1 - self(OP_SPAN) / total(OP_SPAN).
    """
    _calls, total_ns, self_ns = loop["spans"].get(OP_SPAN, (0, 0, 0))
    return 1.0 - self_ns / total_ns if total_ns else 0.0


def add_traced(phase: Phase, loop: dict, other: dict | None = None) -> None:
    """Fold one traced round's snapshots into the phase totals."""
    merge(phase.loop_spans, loop)
    merge(phase.all_spans, loop)
    if other:
        merge(phase.all_spans, other)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def finish(out: Outcome, stored_bytes_ratio: float, sim_op_s: float,
           rss_mb: float) -> None:
    """Derive the reported metrics and the sample-size checks."""
    base = out.untraced
    out.check("completed ops", base.ops > 0, f"{base.ops} ops")
    if not out.trace:
        latency = base.latency()
        out.check(
            "p99 sample size", "p99_ms" in latency,
            f"{latency['n']} calls (>= 1000 needed)",
        )
        out.values = {
            "setup_s": statistics.median(out.setups),
            "cpu_ms_per_op": base.cpu_ms_per_op,
            "peak_rss_mb": rss_mb,
            "stored_bytes_ratio": stored_bytes_ratio,
            "sim_op_s": sim_op_s,
        }
        return
    traced = out.traced
    values = metrics.layer_metrics(
        traced.all_spans, max(traced.ops, 1), out.reopen_spans, out.reopens
    )
    values["trace.overhead_ratio"] = (
        base.ops_per_s / traced.ops_per_s - 1.0 if traced.ops_per_s else 0.0
    )
    coverage = layer_coverage(traced.loop_spans)
    values["trace.coverage_error"] = abs(coverage - 1.0)
    out.check(
        "layer self times cover the timed phase",
        abs(coverage - 1.0) <= COVERAGE_TOLERANCE,
        f"coverage {coverage:.3f}",
    )
    fired = merge(merge({}, traced.all_spans), out.reopen_spans)
    missing = metrics.missing_spans(out.workload, fired)
    out.check(
        "expected spans fired", not missing,
        "missing: " + ", ".join(missing) if missing else "all fired",
    )
    out.values = values


def render(out: Outcome) -> list[str]:
    """The run's report: human lines, then the one JSON result line."""
    text = [f"workload {out.workload} ({'traced' if out.trace else 'untraced'})"]
    for name, value, unit, note in out.lines:
        suffix = f"  ({note})" if note else ""
        text.append(f"  {name} = {value:.6g} {unit}{suffix}")
    for label, passed, detail in out.checks:
        text.append(f"  check {'ok  ' if passed else 'FAIL'} {label}: {detail}")
    units = dict(metrics.PER_LAYER if out.trace else metrics.END_TO_END)
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    text.append(json.dumps(result))
    return text
