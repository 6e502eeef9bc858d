"""The benchmark's metric definitions.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
declares (a test keeps the two in step).  Every workload reports every
metric of the list its mode asks for.
"""

from __future__ import annotations

#: (name, unit) printed by every untraced run
END_TO_END = (
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_ratio", "ratio"),
    ("sim_op_s", "sim_s"),
)

#: simulated-cost labels charged by publish, retrieve, delete and GC
SIM_LABELS = (
    "export", "import", "remove", "select-base", "store-base",
    "base-copy", "reset", "handle", "similarity", "metadata",
    "delete", "gc",
)


def _calls(span):
    return lambda snap: snap["spans"].get(span, (0, 0, 0))[0]


def _total_ms(span):
    return lambda snap: snap["spans"].get(span, (0, 0, 0))[1] / 1e6


def _self_ms(*spans):
    return lambda snap: sum(
        snap["spans"].get(span, (0, 0, 0))[2] for span in spans
    ) / 1e6


def _counter(name, scale=1.0):
    return lambda snap: snap["counters"].get(name, 0) * scale


def _plan_hit_ratio(snap):
    calls = snap["spans"].get("core.assembly_plan", (0, 0, 0))[0]
    hits = snap["counters"].get("core.assembly_plan.plan_hits", 0)
    return hits / calls if calls else 0.0


def _wire_ms(snap):
    spans = snap["spans"]
    call = spans.get("service.protocol.call", (0, 0, 0))[1]
    server = spans.get("service.server", (0, 0, 0))[1]
    return max(call - server, 0) / 1e6


#: (name, unit, value from a snapshot of the traced timed phase);
#: every ``/op`` value is divided by the ops the traced rounds completed
_PER_OP = (
    ("core.analyzer.calls", "count/op", _calls("core.analyzer")),
    ("core.analyzer.self_ms", "ms/op", _self_ms("core.analyzer")),
    ("core.base_selection.self_ms", "ms/op", _self_ms("core.base_selection")),
    (
        "core.base_selection.bases_considered", "count/op",
        _counter("core.base_selection.bases_considered"),
    ),
    ("core.publisher.self_ms", "ms/op", _self_ms("core.publisher")),
    (
        "repository.blobstore.total_bytes.calls", "count/op",
        _calls("repository.blobstore.total_bytes"),
    ),
    (
        "repository.blobstore.total_bytes.ms", "ms/op",
        _total_ms("repository.blobstore.total_bytes"),
    ),
    (
        "repository.database.statements", "count/op",
        _counter("repository.database.statements"),
    ),
    ("repository.database.self_ms", "ms/op", _self_ms("repository.database")),
    (
        "repository.master_graphs.add_ms", "ms/op",
        _total_ms("repository.master_graphs.add"),
    ),
    (
        "repository.master_graphs.extract_ms", "ms/op",
        _total_ms("repository.master_graphs.extract"),
    ),
    ("model.versions.compare.calls", "count/op", _calls("model.versions.compare")),
    ("model.graph.self_ms", "ms/op", _self_ms("model.graph")),
    ("core.assembler.self_ms", "ms/op", _self_ms("core.assembler")),
    (
        "core.assembly_plan.plans_derived", "count/op",
        _counter("core.assembly_plan.plans_derived"),
    ),
    (
        "core.assembly_plan.self_ms", "ms/op",
        _self_ms("core.assembly_plan", "core.assembly_plan.assemble"),
    ),
    (
        "repository.locking.write_wait_ms", "ms/op",
        _total_ms("repository.locking.write_wait"),
    ),
    (
        "repository.locking.write_hold_ms", "ms/op",
        _counter("repository.locking.write_hold_ns", 1e-6),
    ),
    (
        "repository.locking.read_wait_ms", "ms/op",
        _total_ms("repository.locking.read_wait"),
    ),
    ("repository.oplog.appends", "count/op", _calls("repository.oplog.append")),
    ("repository.oplog.append_ms", "ms/op", _total_ms("repository.oplog.append")),
    ("repository.oplog.bytes", "B/op", _counter("repository.oplog.bytes")),
    (
        "repository.workspace.checkpoints", "count/op",
        _calls("repository.workspace.checkpoint"),
    ),
    (
        "repository.workspace.checkpoint_ms", "ms/op",
        _total_ms("repository.workspace.checkpoint"),
    ),
    ("repository.gc.ms", "ms/op", _total_ms("repository.gc")),
    (
        "repository.gc.records_scanned", "count/op",
        _counter("repository.gc.records_scanned"),
    ),
    (
        "repository.gc.graph_rebuilds", "count/op",
        _counter("repository.gc.graph_rebuilds"),
    ),
    ("service.server.self_ms", "ms/op", _self_ms("service.server")),
    ("workloads.build_ms", "ms/op", _total_ms("workloads.build")),
    ("service.protocol.wire_ms", "ms/op", _wire_ms),
    (
        "service.tenancy.slot_wait_ms", "ms/op",
        _total_ms("service.tenancy.slot_wait"),
    ),
) + tuple(
    (f"sim.{label}_s", "sim_s/op", _counter(f"sim.{label}_s"))
    for label in SIM_LABELS
)

#: (name, unit, value) not divided by the op count
_WHOLE = (
    ("core.assembly_plan.plan_hit_ratio", "ratio", _plan_hit_ratio),
    (
        "service.admission.rejections", "count",
        _counter("service.admission.rejections"),
    ),
)

#: read from the snapshot of the reopens, divided by their number
_PER_REOPEN = (
    (
        "repository.workspace.replayed_ops", "count/reopen",
        _counter("repository.workspace.replayed_ops"),
    ),
    (
        "repository.workspace.load_ms", "ms/reopen",
        _total_ms("repository.workspace.load"),
    ),
)

_TRACE = (
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_error", "ratio"),
)

#: (name, unit) printed by every traced run
PER_LAYER = tuple(
    (name, unit) for name, unit, _ in _PER_OP + _WHOLE + _PER_REOPEN
) + _TRACE

#: spans that must fire in the traced rounds of each workload: the
#: layers the prediction table says move that workload's metrics
EXPECTED_SPANS = {
    "retrieve-hot": (
        "repository.master_graphs.extract", "model.versions.compare",
        "model.graph", "core.assembler", "core.assembly_plan",
        "core.assembly_plan.assemble",
    ),
    # the table predicts the publish-path layers on publish-grow, a
    # workload this benchmark does not run; daemon-churn is the one
    # that publishes, so it carries those predictions
    "daemon-churn": (
        "core.analyzer", "core.base_selection", "core.publisher",
        "repository.blobstore.total_bytes", "repository.database",
        "repository.master_graphs.add", "repository.master_graphs.extract",
        "model.versions.compare", "model.graph",
        "core.assembler", "repository.locking.write_wait",
        "repository.locking.read_wait", "repository.oplog.append",
        "repository.workspace.checkpoint", "repository.workspace.load",
        "repository.gc", "service.server", "workloads.build",
        "service.protocol.call", "service.tenancy.slot_wait",
    ),
}


def layer_metrics(
    phase: dict, n_ops: int, reopen: dict | None = None, n_reopens: int = 0
) -> dict[str, float]:
    """Per-layer values from traced snapshots.

    ``phase`` covers the traced timed phases (every process merged),
    ``reopen`` the timed reopens after a kill (daemon-churn only).
    """
    values = {name: fn(phase) / n_ops for name, _unit, fn in _PER_OP}
    values.update({name: fn(phase) for name, _unit, fn in _WHOLE})
    for name, _unit, fn in _PER_REOPEN:
        values[name] = fn(reopen) / n_reopens if n_reopens else 0.0
    return values


def missing_spans(workload: str, snapshot: dict) -> list[str]:
    """Spans of :data:`EXPECTED_SPANS` that never fired."""
    fired = snapshot["spans"]
    return [
        span
        for span in EXPECTED_SPANS[workload]
        if fired.get(span, (0,))[0] == 0
    ]
