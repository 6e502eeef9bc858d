"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public calls into each layer (the table in
:func:`install`) and aggregates, per span name, the call count, the
total wall time and the *self* time — total minus the time of the
traced calls it made on the same thread.  Counters read the layers'
own public work counters before and after a call.  Nothing under
``src/`` is edited: every wrapper is a ``setattr`` that
:meth:`Tracer.uninstall` undoes, and the untraced benchmark runs never
install one.

Aggregation happens at record time, per thread, so memory stays flat
however long the run; :meth:`Tracer.snapshot` merges the threads into
a JSON-able dict that another process can write out and this one can
:func:`merge`.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
from contextlib import contextmanager
from time import perf_counter_ns

_MISSING = object()


class _ThreadState:
    __slots__ = ("spans", "counters", "stack", "holds")

    def __init__(self) -> None:
        #: span name -> [calls, total_ns, self_ns]
        self.spans: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        #: child time accumulated by each open span, innermost last
        self.stack: list[int] = []
        #: RepositoryLock id -> [write depth, hold start ns]
        self.holds: dict[int, list[int]] = {}


class Tracer:
    """Span and counter aggregation plus the patches that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        #: (owner, attribute, original or _MISSING), in install order
        self._patches: list[tuple[object, str, object]] = []
        self._databases: list[object] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _close_span(self, state: _ThreadState, name: str, t0: int) -> None:
        elapsed = perf_counter_ns() - t0
        child = state.stack.pop()
        if state.stack:
            state.stack[-1] += elapsed
        record = state.spans.get(name)
        if record is None:
            record = state.spans[name] = [0, 0, 0]
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - child

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one call of span ``name``."""
        state = self._state()
        state.stack.append(0)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._close_span(state, name, t0)

    def count(self, name: str, amount: float = 1) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + amount

    def snapshot(self) -> dict:
        """Every thread's spans and counters, merged."""
        with self._states_lock:
            states = list(self._states)
        merged = {"spans": {}, "counters": {}}
        for state in states:
            merge(merged, {"spans": state.spans, "counters": state.counters})
        return merged

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def traced(self, name: str, fn, before=None, after=None):
        """``fn`` recorded as span ``name``.

        ``before(args, kwargs)`` runs first and its value is handed to
        ``after(token, result, args, kwargs)`` once ``fn`` returned.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            state = tracer._state()
            state.stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close_span(state, name, t0)
            if after is not None:
                after(token, result, args, kwargs)
            return result

        return wrapper

    def patch(self, owner, attribute: str, replacement) -> None:
        """Replace ``owner.attribute`` until :meth:`uninstall`."""
        original = vars(owner).get(attribute, _MISSING)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def wrap(self, owner, attribute: str, name: str, **hooks) -> None:
        """Trace ``owner.attribute`` as span ``name``."""
        fn = getattr(owner, attribute)
        self.patch(owner, attribute, self.traced(name, fn, **hooks))

    def attach_database(self, db) -> None:
        """Count the SQL statements of one ``MetadataDatabase``.

        The statement callback needs the connection, which the class
        keeps private; this is the one private attribute the benchmark
        reads.
        """
        db._conn.set_trace_callback(
            lambda _sql: self.count("repository.database.statements")
        )
        self._databases.append(db)

    def reset(self) -> None:
        """Forget everything recorded so far (patches stay)."""
        with self._states_lock:
            for state in self._states:
                state.spans.clear()
                state.counters.clear()

    def uninstall(self) -> None:
        """Undo every patch, newest first; detach statement counting."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        for db in self._databases:
            db._conn.set_trace_callback(None)
        self._databases.clear()


def merge(into: dict, other: dict) -> dict:
    """Add snapshot ``other`` into snapshot ``into`` (in place)."""
    spans = into.setdefault("spans", {})
    for name, record in other.get("spans", {}).items():
        mine = spans.setdefault(name, [0, 0, 0])
        for i in range(3):
            mine[i] += record[i]
    counters = into.setdefault("counters", {})
    for name, value in other.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + value
    return into


# ---------------------------------------------------------------------------
# the layer table
# ---------------------------------------------------------------------------


def _delta_hook(tracer: Tracer, stats_of, fields: dict[str, str]):
    """before/after hooks that add a stats-object delta to counters."""

    def before(args, kwargs):
        stats = stats_of(args, kwargs)
        return None if stats is None else (stats, stats.snapshot())

    def after(token, result, args, kwargs):
        if token is None:
            return
        stats, snap = token
        delta = stats.since(snap)
        for field, counter in fields.items():
            tracer.count(counter, getattr(delta, field))

    return {"before": before, "after": after}


def _wrap_public_methods(tracer: Tracer, cls, name: str, skip=()) -> None:
    """Trace every public plain method of ``cls`` as span ``name``.

    Generator methods are left alone: a wrapper would time only the
    creation of the generator, not the iteration.
    """
    for attribute, value in list(vars(cls).items()):
        if (
            attribute.startswith("_")
            or attribute in skip
            or not inspect.isfunction(value)
            or inspect.isgeneratorfunction(value)
        ):
            continue
        tracer.wrap(cls, attribute, name)


def _trace_lock(tracer: Tracer, lock_cls) -> None:
    """Wait spans for both lock modes plus the outermost write hold."""

    def write_acquired(token, result, args, kwargs):
        hold = tracer._state().holds.setdefault(id(args[0]), [0, 0])
        if hold[0] == 0:
            hold[1] = perf_counter_ns()
        hold[0] += 1

    def write_released(token, result, args, kwargs):
        hold = tracer._state().holds.get(id(args[0]))
        if hold is None:  # acquired before the tracer was installed
            return
        hold[0] -= 1
        if hold[0] == 0:
            tracer.count(
                "repository.locking.write_hold_ns",
                perf_counter_ns() - hold[1],
            )

    tracer.wrap(
        lock_cls, "acquire_write", "repository.locking.write_wait",
        after=write_acquired,
    )
    tracer.patch(
        lock_cls,
        "release_write",
        _after_only(lock_cls.release_write, write_released),
    )
    tracer.wrap(lock_cls, "acquire_read", "repository.locking.read_wait")


def _after_only(fn, after):
    """``fn`` followed by ``after`` — a counter hook without a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(None, result, args, kwargs)
        return result

    return wrapper


class _TimedEnter:
    """A context manager whose ``__enter__`` is recorded as a span."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __enter__(self):
        with self._tracer.span(self._name):
            return self._inner.__enter__()

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on.

    Each module-level function is patched where its caller looks it
    up, not only where it is defined.
    """
    from repro.core import base_selection, publisher
    from repro.core.analyzer import SemanticAnalyzer
    from repro.core.assembler import VMIAssembler
    from repro.core.assembly_plan import AssemblyPlanner
    from repro.model.graph import SemanticGraph
    from repro.model.versions import Version
    from repro.repository.blobstore import BlobStore
    from repro.repository.database import MetadataDatabase
    from repro.repository.gc import GarbageCollector
    from repro.repository.locking import RepositoryLock
    from repro.repository.master_graphs import MasterGraph
    from repro.repository.oplog import OpLog
    from repro.repository.workspace import Workspace
    from repro.service.client import RemoteClient
    from repro.service.server import ImageServer
    from repro.service.tenancy import TenantRegistry
    from repro.sim.clock import SimulatedClock
    from repro.workloads.scale import ScaleCorpus

    t = tracer
    t.wrap(SemanticAnalyzer, "analyze", "core.analyzer")
    selection_hooks = _delta_hook(
        t,
        lambda args, kwargs: (
            kwargs["memo"].stats if kwargs.get("memo") is not None else None
        ),
        {
            "bases_considered": "core.base_selection.bases_considered",
        },
    )
    select = base_selection.select_base_image
    traced_select = t.traced("core.base_selection", select, **selection_hooks)
    t.patch(publisher, "select_base_image", traced_select)
    t.patch(base_selection, "select_base_image", traced_select)
    t.wrap(publisher.VMIPublisher, "publish", "core.publisher")
    t.wrap(VMIAssembler, "retrieve", "core.assembler")
    t.wrap(
        AssemblyPlanner, "plan_for", "core.assembly_plan",
        **_delta_hook(
            t,
            lambda args, kwargs: args[0].stats,
            {
                "plans_derived": "core.assembly_plan.plans_derived",
                "plan_hits": "core.assembly_plan.plan_hits",
            },
        ),
    )
    # the batch path executes plans here, outside VMIAssembler.retrieve
    t.wrap(AssemblyPlanner, "assemble", "core.assembly_plan.assemble")
    t.wrap(BlobStore, "total_bytes", "repository.blobstore.total_bytes")
    _wrap_public_methods(
        t, MetadataDatabase, "repository.database", skip=("batch", "close")
    )
    init = MetadataDatabase.__init__
    t.patch(
        MetadataDatabase,
        "__init__",
        _after_only(
            init, lambda token, result, args, kwargs: t.attach_database(args[0])
        ),
    )
    t.wrap(MasterGraph, "add_primary_subgraph", "repository.master_graphs.add")
    t.wrap(
        MasterGraph, "extract_primary_subgraph",
        "repository.master_graphs.extract",
    )
    t.wrap(Version, "compare", "model.versions.compare")
    _wrap_public_methods(t, SemanticGraph, "model.graph")
    _trace_lock(t, RepositoryLock)
    t.wrap(
        OpLog, "append", "repository.oplog.append",
        before=lambda args, kwargs: os.path.getsize(args[0].path),
        after=lambda size, result, args, kwargs: t.count(
            "repository.oplog.bytes", os.path.getsize(args[0].path) - size
        ),
    )
    t.wrap(Workspace, "checkpoint", "repository.workspace.checkpoint")
    t.wrap(
        Workspace, "load", "repository.workspace.load",
        after=lambda token, result, args, kwargs: t.count(
            "repository.workspace.replayed_ops", args[0].replayed_ops
        ),
    )

    def gc_after(token, report, args, kwargs):
        t.count("repository.gc.records_scanned", report.records_scanned)
        t.count("repository.gc.graph_rebuilds", report.graph_rebuilds)

    t.wrap(GarbageCollector, "collect", "repository.gc", after=gc_after)
    t.wrap(ImageServer, "handle_message", "service.server")
    t.wrap(ScaleCorpus, "build", "workloads.build")
    t.wrap(RemoteClient, "call", "service.protocol.call")
    slot = TenantRegistry.slot
    t.patch(
        TenantRegistry,
        "slot",
        functools.wraps(slot)(
            lambda self, tenant: _TimedEnter(
                t, "service.tenancy.slot_wait", slot(self, tenant)
            )
        ),
    )
    advance = SimulatedClock.advance

    @functools.wraps(advance)
    def traced_advance(self, seconds, label="other"):
        advance(self, seconds, label)
        t.count(f"sim.{label}_s", seconds)

    t.patch(SimulatedClock, "advance", traced_advance)
    return tracer
