"""Unit tests for durable workspaces (snapshot + op-log pairing)."""

import copyreg
import io
import pickle
import sys

import pytest

from repro.core.system import Expelliarmus
from repro.errors import WorkspaceError
from repro.image.builder import BuildRecipe
from repro.model.graph import NodeKind, SemanticGraph
from repro.repository.oplog import OpLog
from repro.repository.workspace import Workspace


def _publish(system, mini_builder, name, primaries=("redis-server",)):
    return system.publish(
        mini_builder.build(
            BuildRecipe(
                name=name,
                primaries=primaries,
                user_data_size=10_000,
                user_data_files=1,
            )
        )
    )


class TestLifecycle:
    def test_fresh_directory_comes_up_empty(self, tmp_path):
        workspace = Workspace(tmp_path / "store")
        repo = workspace.load()
        assert repo.vmi_records() == []
        assert workspace.ops_since_checkpoint == 0
        assert workspace.is_initialized()  # the op-log now exists
        workspace.close()

    def test_repo_property_requires_load(self, tmp_path):
        with pytest.raises(WorkspaceError):
            Workspace(tmp_path / "store").repo

    def test_reopen_replays_journal(self, mini_builder, tmp_path):
        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        mutations = system.repo.mutations
        revisions = {
            m.base_key: m.revision
            for m in system.repo.master_graphs()
        }
        system.close()  # crash-like: no checkpoint was ever written

        reopened = Expelliarmus.open(tmp_path / "store")
        assert reopened.workspace.replayed_ops > 0
        assert reopened.published_names() == ["redis-vm"]
        assert reopened.repo.mutations == mutations
        assert {
            m.base_key: m.revision
            for m in reopened.repo.master_graphs()
        } == revisions
        assert reopened.retrieve("redis-vm").vmi.has_package(
            "redis-server"
        )
        reopened.close()

    def test_checkpoint_truncates_journal(
        self, mini_builder, tmp_path
    ):
        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        assert system.workspace.ops_since_checkpoint > 0
        size = system.save()
        assert size > 0
        assert system.workspace.ops_since_checkpoint == 0
        # post-checkpoint ops journal into the fresh log
        _publish(system, mini_builder, "nginx-vm", ("nginx",))
        assert system.workspace.ops_since_checkpoint > 0
        system.close()

        reopened = Expelliarmus.open(tmp_path / "store")
        assert sorted(reopened.published_names()) == [
            "nginx-vm",
            "redis-vm",
        ]
        reopened.close()

    def test_checkpoint_if_due_policy(self, mini_builder, tmp_path):
        system = Expelliarmus.open(tmp_path / "store")
        assert not system.checkpoint_if_due(None)
        assert not system.checkpoint_if_due(10_000)
        _publish(system, mini_builder, "redis-vm")
        assert system.checkpoint_if_due(1)
        assert system.workspace.ops_since_checkpoint == 0
        system.close()

    def test_in_memory_system_has_no_workspace(self):
        system = Expelliarmus()
        with pytest.raises(WorkspaceError):
            system.save()
        assert not system.checkpoint_if_due(1)
        system.close()  # no-op


class TestAdopt:
    def test_save_path_makes_system_durable(
        self, mini_builder, tmp_path
    ):
        system = Expelliarmus()
        _publish(system, mini_builder, "redis-vm")
        assert system.save(tmp_path / "store") > 0
        assert system.workspace is not None
        # later operations journal to the adopted workspace
        _publish(system, mini_builder, "nginx-vm", ("nginx",))
        system.close()

        reopened = Expelliarmus.open(tmp_path / "store")
        assert sorted(reopened.published_names()) == [
            "nginx-vm",
            "redis-vm",
        ]
        assert reopened.fsck().clean
        reopened.close()

    def test_adopt_refuses_initialized_directory(
        self, mini_builder, tmp_path
    ):
        first = Expelliarmus.open(tmp_path / "store")
        first.close()
        other = Expelliarmus()
        with pytest.raises(WorkspaceError):
            other.save(tmp_path / "store")

    def test_save_same_path_checkpoints(self, tmp_path):
        system = Expelliarmus.open(tmp_path / "store")
        assert system.save(tmp_path / "store") > 0
        assert system.workspace.checkpoints_written == 1
        system.close()

    def test_save_same_path_spelled_differently(self, tmp_path):
        system = Expelliarmus.open(tmp_path / "store")
        # an unnormalised spelling of the backing path must
        # checkpoint, not attempt (and refuse) an adopt
        alias = tmp_path / "sub" / ".." / "store"
        assert system.save(alias) > 0
        assert system.workspace.checkpoints_written == 1
        system.close()


class TestPairing:
    def test_mismatched_pair_rejected(self, mini_builder, tmp_path):
        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        system.save()
        system.close()
        # an op-log claiming to continue a *newer* snapshot than stored
        workspace = Workspace(tmp_path / "store")
        with open(workspace.oplog_path, "wb") as f:
            pickle.dump({"oplog": 1, "snapshot_mutations": 10_000}, f)
        with pytest.raises(WorkspaceError):
            workspace.load()

    def test_stale_log_after_checkpoint_crash_is_discarded(
        self, mini_builder, tmp_path
    ):
        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        stale_log = Workspace(
            tmp_path / "store"
        ).oplog_path.read_bytes()
        system.save()
        system.close()
        # simulate a crash inside checkpoint(): the snapshot reached
        # disk but the op-log reset did not
        workspace = Workspace(tmp_path / "store")
        workspace.oplog_path.write_bytes(stale_log)

        repo = workspace.load()
        assert workspace.replayed_ops == 0  # log discarded, not replayed
        assert [r.name for r in repo.vmi_records()] == ["redis-vm"]
        workspace.close()

    def test_log_reset_never_leaves_headerless_file(
        self, mini_builder, tmp_path
    ):
        """Log creation is atomic: at no point does oplog.bin exist
        without a readable header, so a crash during checkpoint's log
        reset can never brick the workspace."""
        from repro.repository.oplog import OpLog

        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        system.save()
        workspace_dir = tmp_path / "store"
        assert not list(workspace_dir.glob("*.tmp"))
        assert OpLog.read(workspace_dir / "oplog.bin").n_ops == 0
        system.close()

    def test_stray_tmp_files_ignored(self, mini_builder, tmp_path):
        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        system.save()
        system.close()
        # a crash can leave the rename sources behind; reopen ignores
        (tmp_path / "store" / "oplog.tmp").write_bytes(b"partial")
        (tmp_path / "store" / "snapshot.tmp").write_bytes(b"partial")
        reopened = Expelliarmus.open(tmp_path / "store")
        assert reopened.published_names() == ["redis-vm"]
        reopened.close()

    def test_unreadable_snapshot_version(self, tmp_path):
        workspace = Workspace(tmp_path / "store")
        workspace.path.mkdir(parents=True)
        workspace.snapshot_path.write_bytes(
            pickle.dumps({"version": 99})
        )
        with pytest.raises(WorkspaceError):
            workspace.load()


class _NetworkxLayoutPickler(pickle.Pickler):
    """Pickles every SemanticGraph as it pickled when it wrapped a
    ``networkx.DiGraph``: the class, then ``{"_g", "_base_node"}`` as
    state, with the node views networkx caches on first use."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)

    def reducer_override(self, obj):
        if not isinstance(obj, SemanticGraph):
            return NotImplemented
        import networkx as nx

        legacy = nx.DiGraph()
        if obj.base_node is not None:
            legacy.add_node(
                obj.base_node, kind=NodeKind.BASE_IMAGE, attrs=obj.base_attrs
            )
        for key, pkg, role in obj.package_nodes():
            legacy.add_node(key, kind=NodeKind.PACKAGE, package=pkg, role=role)
        for src, targets in obj.__getstate__()["succ"].items():
            legacy.add_edges_from((src, dst) for dst in targets)
        legacy.nodes, legacy.adj  # noqa: B018 - cache the views
        state = {"_g": legacy, "_base_node": obj.base_node}
        return (copyreg.__newobj__, (SemanticGraph,), state)


def _dump_networkx_layout(obj) -> bytes:
    buffer = io.BytesIO()
    _NetworkxLayoutPickler(buffer).dump(obj)
    return buffer.getvalue()


def _rewrite_in_networkx_layout(workspace: Workspace) -> int:
    """Re-pickle a closed workspace's snapshot and op-log records in
    the networkx graph layout; returns the op-log's record count."""
    snapshot = pickle.loads(workspace.snapshot_path.read_bytes())
    workspace.snapshot_path.write_bytes(_dump_networkx_layout(snapshot))
    with open(workspace.oplog_path, "rb") as file:
        header = pickle.load(file)
        records = []
        while file.tell() < workspace.oplog_path.stat().st_size:
            records.append(pickle.load(file))
    with open(workspace.oplog_path, "wb") as file:
        pickle.dump(header, file, protocol=pickle.HIGHEST_PROTOCOL)
        for record in records:
            file.write(_dump_networkx_layout(record))
    return len(records)


class TestNetworkxLayout:
    """Workspaces whose graphs were pickled as ``networkx.DiGraph``s
    open, replay and retrieve without networkx installed."""

    def test_opens_without_networkx(
        self, mini_builder, tmp_path, monkeypatch
    ):
        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        system.save()
        # master-graph records land in the op-log after the checkpoint
        _publish(system, mini_builder, "nginx-vm", ("nginx",))
        names = sorted(system.published_names())
        expected = {
            name: system.retrieve(name).vmi.full_manifest()
            for name in names
        }
        system.close()
        workspace = Workspace(tmp_path / "store")
        n_records = _rewrite_in_networkx_layout(workspace)
        assert OpLog.read(workspace.oplog_path).n_ops == n_records
        for path in (workspace.snapshot_path, workspace.oplog_path):
            assert b"networkx.classes.digraph" in path.read_bytes()
            assert b"networkx.classes.reportviews" in path.read_bytes()
        log_size = workspace.oplog_path.stat().st_size

        monkeypatch.setitem(sys.modules, "networkx", None)
        for checkpointed in (False, True):
            reopened = Expelliarmus.open(tmp_path / "store")
            if not checkpointed:
                # every record replayed, none taken for a torn tail
                assert reopened.workspace.replayed_ops == n_records
                assert workspace.oplog_path.stat().st_size == log_size
            assert reopened.fsck().findings == ()
            assert sorted(reopened.published_names()) == names
            for name in names:
                manifest = reopened.retrieve(name).vmi.full_manifest()
                assert manifest == expected[name]
            reopened.save()
            reopened.close()
        assert OpLog.read(workspace.oplog_path).n_ops == 0
        assert b"networkx" not in workspace.snapshot_path.read_bytes()
