"""Unit tests for the write-ahead op-log."""

import pickle
import sys
import types

import pytest

from repro.core.system import Expelliarmus
from repro.errors import WorkspaceError
from repro.image.builder import BuildRecipe
from repro.repository.oplog import OpLog, OpLogRecord, apply_op, replay_ops
from repro.repository.repo import Repository


def _journaled_publish(mini_builder, tmp_path):
    """A system journaling to a fresh log, with two published VMIs."""
    log = OpLog.create(tmp_path / "oplog.bin", snapshot_mutations=0)
    system = Expelliarmus()
    system.repo.attach_journal(log)
    for name, primaries in (
        ("redis-vm", ("redis-server",)),
        ("nginx-vm", ("nginx",)),
    ):
        system.publish(
            mini_builder.build(
                BuildRecipe(
                    name=name,
                    primaries=primaries,
                    user_data_size=10_000,
                    user_data_files=1,
                )
            )
        )
    return system, log


class TestAppendRead:
    def test_roundtrip_preserves_order_and_count(
        self, mini_builder, tmp_path
    ):
        system, log = _journaled_publish(mini_builder, tmp_path)
        scan = OpLog.read(tmp_path / "oplog.bin")
        assert scan.snapshot_mutations == 0
        assert scan.n_ops == log.op_count > 0
        assert scan.torn_bytes == 0
        # the publish sequence ends with master-put + record ops
        ops = [r.op for r in scan.ops]
        assert ops[-1] == "record_vmi"
        assert "put_master_graph" in ops

    def test_replay_reproduces_repository(
        self, mini_builder, tmp_path
    ):
        system, log = _journaled_publish(mini_builder, tmp_path)
        system.delete("redis-vm")
        system.garbage_collect()
        scan = OpLog.read(tmp_path / "oplog.bin")

        replayed = Repository()
        assert replay_ops(replayed, scan.ops) == scan.n_ops
        assert replayed.mutations == system.repo.mutations
        assert replayed.refcounts() == system.repo.refcounts()
        assert replayed.bytes_by_kind() == system.repo.bytes_by_kind()
        assert {m.base_key: m.revision for m in replayed.master_graphs()} == {
            m.base_key: m.revision
            for m in system.repo.master_graphs()
        }

    def test_header_versioned(self, tmp_path):
        path = tmp_path / "bad.bin"
        with open(path, "wb") as f:
            pickle.dump({"oplog": 99, "snapshot_mutations": 0}, f)
        with pytest.raises(WorkspaceError):
            OpLog.read(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\x01not a pickle")
        with pytest.raises(WorkspaceError):
            OpLog.read(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            OpLog.read(tmp_path / "nope.bin")


class TestTornTail:
    def test_torn_tail_detected_and_prior_ops_survive(
        self, mini_builder, tmp_path
    ):
        _journaled_publish(mini_builder, tmp_path)
        path = tmp_path / "oplog.bin"
        clean = OpLog.read(path)
        # crash mid-append: only half of the last record reaches disk
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        torn = OpLog.read(path)
        assert torn.torn_bytes > 0
        assert torn.n_ops == clean.n_ops - 1
        assert [r.op for r in torn.ops] == [
            r.op for r in clean.ops[:-1]
        ]

    def test_open_truncates_torn_tail_and_appends(self, tmp_path):
        log = OpLog.create(tmp_path / "log.bin", snapshot_mutations=3)
        log.append("mark_base_dirty", (1,))
        log.append("mark_base_dirty", (2,))
        log.close()
        path = tmp_path / "log.bin"
        path.write_bytes(path.read_bytes()[:-3])

        reopened, scan = OpLog.open(path)
        assert scan.snapshot_mutations == 3
        assert [r.args for r in scan.ops] == [(1,)]
        reopened.append("mark_base_dirty", (9,))
        reopened.close()

        final = OpLog.read(path)
        assert final.torn_bytes == 0
        assert [r.args for r in final.ops] == [(1,), (9,)]

    @pytest.mark.parametrize("gone", ["module", "class"])
    def test_record_naming_missing_code_is_not_a_torn_tail(
        self, tmp_path, monkeypatch, gone
    ):
        module = types.ModuleType("oplog_test_payloads")
        module.Payload = type("Payload", (), {"__module__": module.__name__})
        monkeypatch.setitem(sys.modules, module.__name__, module)
        log = OpLog.create(tmp_path / "log.bin", snapshot_mutations=0)
        log.append("mark_base_dirty", (module.Payload(),))
        log.append("mark_base_dirty", (2,))
        log.close()
        path = tmp_path / "log.bin"
        blob = path.read_bytes()

        if gone == "module":
            monkeypatch.delitem(sys.modules, module.__name__)
        else:
            monkeypatch.delattr(module, "Payload")
        with pytest.raises(WorkspaceError, match="cannot be decoded"):
            OpLog.open(path)
        assert path.read_bytes() == blob

    def test_append_after_close_raises(self, tmp_path):
        log = OpLog.create(tmp_path / "log.bin", snapshot_mutations=0)
        log.close()
        with pytest.raises(WorkspaceError):
            log.append("mark_base_dirty", (1,))


class TestApply:
    def test_unknown_op_rejected(self):
        with pytest.raises(WorkspaceError):
            apply_op(
                Repository(), OpLogRecord(op="rm_rf", args=("/",))
            )

    def test_dirty_marks_replay(self):
        repo = Repository()
        apply_op(repo, OpLogRecord("mark_base_dirty", (42,)))
        assert repo.dirty_bases() == frozenset({42})
        apply_op(repo, OpLogRecord("clear_base_dirty", (42,)))
        assert repo.dirty_bases() == frozenset()
