"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_accepts_known_ids(self):
        args = build_parser().parse_args(["experiments", "fig3a"])
        assert args.ids == ["fig3a"]

    def test_experiments_rejects_unknown_ids(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "fig9z"])


class TestCommands:
    def test_corpus_lists_19_images(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "Elastic Stack" in out
        assert len(out.strip().splitlines()) == 20  # header + 19

    def test_publish_reports(self, capsys):
        assert main(["publish", "Mini", "Redis"]) == 0
        out = capsys.readouterr().out
        assert "Mini: published" in out
        assert "Redis: published" in out
        assert "repository now" in out

    def test_experiments_runs_selected(self, capsys):
        assert main(["experiments", "fig4a"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4a" in out
        assert "Expelliarmus" in out

    def test_experiments_figures_flag(self, capsys):
        assert main(["experiments", "fig4a", "--figures"]) == 0
        out = capsys.readouterr().out
        # the ASCII chart legend appears alongside the table
        assert "*=Expelliarmus" in out

    def test_related_work_experiment_registered(self, capsys):
        assert main(["experiments", "related"]) == 0
        out = capsys.readouterr().out
        assert "Block (fixed)" in out

    def test_stats_command(self, capsys):
        assert main(["stats", "Mini", "Tomcat", "Jenkins"]) == 0
        out = capsys.readouterr().out
        assert "sharing factor" in out
        # openjdk is shared between Tomcat and Jenkins
        assert "openjdk-8-jre-headless" in out
        assert "x2" in out


class TestPublishMany:
    def test_table_corpus_batch(self, capsys):
        assert main(["publish-many", "Mini", "Redis", "Base"]) == 0
        out = capsys.readouterr().out
        assert "published 3/3 VMIs" in out
        assert "base selection:" in out

    def test_scale_corpus_batch(self, capsys):
        assert main(
            ["publish-many", "--scale", "12", "--families", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "published 12/12 VMIs" in out

    def test_progress_lines(self, capsys):
        assert main(
            ["publish-many", "Mini", "Redis", "--progress"]
        ) == 0
        out = capsys.readouterr().out
        assert "[   1/2]" in out
        assert "[   2/2]" in out

    def test_scan_flag_matches_indexed_totals(self, capsys):
        assert main(["publish-many", "Mini", "Redis"]) == 0
        indexed_out = capsys.readouterr().out
        assert main(["publish-many", "Mini", "Redis", "--scan"]) == 0
        scan_out = capsys.readouterr().out
        # identical repositories either way (the index is pure speedup)
        assert indexed_out.splitlines()[1] == scan_out.splitlines()[1]

    def test_order_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["publish-many", "--order", "shuffled"]
            )

    def test_unknown_image_clean_error(self, capsys):
        assert main(["publish-many", "Mini", "Bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown corpus image(s): Bogus" in err

    def test_bad_scale_clean_error(self, capsys):
        assert main(["publish-many", "--scale", "0"]) == 2
        assert "n_vmis must be positive" in capsys.readouterr().err


class TestRetrieveMany:
    def test_table_corpus_roundtrip(self, capsys):
        assert main(["retrieve-many", "Mini", "Redis"]) == 0
        out = capsys.readouterr().out
        assert "published 2 VMIs" in out
        assert "retrieved 2/2 VMIs" in out
        assert "plans: 2 derived" in out

    def test_scale_corpus_with_repeat(self, capsys):
        assert main(
            ["retrieve-many", "--scale", "8", "--families", "2",
             "--repeat", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "retrieved 16/16 VMIs" in out
        assert "8 replayed from cache" in out

    def test_cold_path_reports_components(self, capsys):
        assert main(["retrieve-many", "Mini", "--cold"]) == 0
        out = capsys.readouterr().out
        assert "cold, sequential" in out
        assert "base-copy" in out

    def test_progress_marks_cache_outcomes(self, capsys):
        assert main(
            ["retrieve-many", "--scale", "6", "--families", "1",
             "--repeat", "2", "--progress"]
        ) == 0
        out = capsys.readouterr().out
        assert "[   1/12]" in out
        assert " warm" in out
        assert " plan-hit" in out

    def test_order_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["retrieve-many", "--order", "shuffled"]
            )

    def test_unknown_image_clean_error(self, capsys):
        assert main(["retrieve-many", "Mini", "Bogus"]) == 2
        assert "unknown corpus image(s): Bogus" in capsys.readouterr().err

    def test_bad_repeat_clean_error(self, capsys):
        assert main(["retrieve-many", "Mini", "--repeat", "0"]) == 2
        assert "--repeat must be positive" in capsys.readouterr().err

    def test_bad_scale_clean_error(self, capsys):
        assert main(["retrieve-many", "--scale", "0"]) == 2
        assert "n_vmis must be positive" in capsys.readouterr().err


class TestLifecycleCommands:
    def test_delete_reports_maintenance(self, capsys):
        assert main(
            ["delete", "--scale", "20", "--families", "2",
             "--churn", "20", "--progress"]
        ) == 0
        out = capsys.readouterr().out
        assert "deleting 4" in out
        assert "deleted 4/4 VMIs" in out
        assert "awaiting GC" in out

    def test_delete_with_threshold_runs_gc(self, capsys):
        assert main(
            ["delete", "--scale", "20", "--families", "2",
             "--churn", "20", "--gc-threshold-gb", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "gc pass 1 (incremental)" in out

    def test_delete_rejects_bad_churn(self, capsys):
        assert main(["delete", "--churn", "0"]) == 2
        assert "--churn" in capsys.readouterr().err

    def test_gc_incremental_default(self, capsys):
        assert main(
            ["gc", "--scale", "20", "--families", "2", "--churn", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "gc (incremental): reclaimed" in out
        assert "master graphs rebuilt" in out

    def test_gc_full_flag(self, capsys):
        assert main(["gc", "Mini", "Redis", "--churn", "50", "--full"])\
            == 0
        out = capsys.readouterr().out
        assert "gc (full): reclaimed" in out

    def test_fsck_clean_exits_zero(self, capsys):
        assert main(["fsck", "Mini", "Redis"]) == 0
        out = capsys.readouterr().out
        assert "repository clean" in out

    def test_fsck_churn_lifecycle_clean(self, capsys):
        assert main(
            ["fsck", "--scale", "20", "--families", "2",
             "--churn", "25"]
        ) == 0
        assert "repository clean" in capsys.readouterr().out

    def test_fsck_findings_exit_nonzero(self, capsys, monkeypatch):
        from repro.core.system import Expelliarmus
        from repro.repository.fsck import FsckReport, Inconsistency

        finding = Inconsistency("missing-blob", "ghost", "gone")
        monkeypatch.setattr(
            Expelliarmus,
            "fsck",
            lambda self: FsckReport(
                findings=(finding,), checked_blobs=1, checked_vmis=1
            ),
        )
        assert main(["fsck", "Mini"]) == 1
        err = capsys.readouterr().err
        assert "1 inconsistencies found" in err
        assert "missing-blob" in err

    @pytest.mark.parametrize(
        "argv",
        [["gc", "NoSuchImage"], ["publish", "Bogus"], ["stats", "Bogus"]],
        ids=["gc", "publish", "stats"],
    )
    def test_unknown_corpus_name_rejected(self, capsys, argv):
        assert main(argv) == 2
        assert "unknown corpus image" in capsys.readouterr().err


class TestMaintenanceVerbs:
    """The mine/rebase pair over fresh corpora and workspaces."""

    SPLIT = ["--scale", "40", "--families", "2", "--split-pct", "50"]

    def test_mine_fresh_split_corpus(self, capsys):
        assert main(["mine", *self.SPLIT]) == 0
        out = capsys.readouterr().out
        # fresh split mode deletes the legacy builds first — the
        # churn that makes the generation pairs mergeable
        assert "legacy build(s)" in out
        assert "merge candidate(s)" in out
        assert "0 merge candidate(s)" not in out

    def test_mine_keep_legacy_finds_nothing(self, capsys):
        assert main(
            ["mine", *self.SPLIT, "--seed", "pins", "--keep-legacy"]
        ) == 0
        out = capsys.readouterr().out
        assert "legacy build(s)" not in out
        assert "0 merge candidate(s)" in out

    def test_rebase_fresh_corpus_reclaims(self, capsys):
        assert main(
            ["rebase", "--scale", "60", "--families", "3",
             "--split-pct", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "candidate(s) applied" in out
        assert "rebase: 0 candidate(s)" not in out
        assert "GB freed" in out

    def test_legacy_delete_requires_split_corpus(self, capsys):
        assert main(["delete", "--legacy", "--scale", "40"]) == 2
        assert "--split-pct" in capsys.readouterr().err

    def test_workspace_mine_rebase_lifecycle(self, capsys, tmp_path):
        """Each step is its own invocation — its own process."""
        ws = str(tmp_path / "store")
        assert main(["publish-many", "--workspace", ws, *self.SPLIT]) == 0
        assert main(
            ["delete", "--workspace", ws, "--legacy", *self.SPLIT]
        ) == 0
        capsys.readouterr()
        assert main(["mine", "--workspace", ws]) == 0
        assert "merge candidate(s)" in capsys.readouterr().out
        assert main(["rebase", "--workspace", ws]) == 0
        out = capsys.readouterr().out
        assert "candidate(s) applied" in out
        assert "rebase: 0 candidate(s)" not in out
        assert main(["fsck", "--workspace", ws]) == 0
        capsys.readouterr()
        # idempotent: the follow-up invocation finds nothing left
        assert main(["rebase", "--workspace", ws]) == 0
        assert "rebase: 0 candidate(s) applied" in capsys.readouterr().out


class TestWorkspace:
    """Cross-invocation durability through the --workspace flag.

    Each ``main([...])`` call builds its world from scratch, so two
    calls sharing only the workspace directory model two processes.
    """

    def _ws(self, tmp_path):
        return str(tmp_path / "store")

    def test_publish_then_fsck_in_second_invocation(
        self, capsys, tmp_path
    ):
        ws = self._ws(tmp_path)
        assert main(
            ["publish-many", "--workspace", ws, "Mini", "Redis"]
        ) == 0
        assert "published 2/2 VMIs" in capsys.readouterr().out
        assert main(["fsck", "--workspace", ws]) == 0
        out = capsys.readouterr().out
        assert "repository clean" in out
        assert "2 VMIs checked" in out

    def test_global_flag_position(self, capsys, tmp_path):
        ws = self._ws(tmp_path)
        assert main(["--workspace", ws, "publish-many", "Mini"]) == 0
        capsys.readouterr()
        assert main(["--workspace", ws, "stats"]) == 0
        assert "1 published VMIs" in capsys.readouterr().out

    def test_retrieve_from_earlier_invocation(self, capsys, tmp_path):
        ws = self._ws(tmp_path)
        assert main(
            ["publish-many", "--workspace", ws, "Mini", "Redis"]
        ) == 0
        capsys.readouterr()
        assert main(["retrieve-many", "--workspace", ws]) == 0
        out = capsys.readouterr().out
        assert "workspace holds 2 VMIs" in out
        assert "retrieved" not in out or "2/2" in out

    def test_retrieve_unknown_name_rejected(self, capsys, tmp_path):
        ws = self._ws(tmp_path)
        assert main(["publish-many", "--workspace", ws, "Mini"]) == 0
        capsys.readouterr()
        assert main(
            ["retrieve-many", "--workspace", ws, "Ghost"]
        ) == 2
        assert "not published" in capsys.readouterr().err

    def test_retrieve_empty_workspace_rejected(self, capsys, tmp_path):
        assert main(
            ["retrieve-many", "--workspace", self._ws(tmp_path)]
        ) == 2
        assert "no published VMIs" in capsys.readouterr().err

    def test_delete_named_then_gc(self, capsys, tmp_path):
        ws = self._ws(tmp_path)
        assert main(
            ["publish-many", "--workspace", ws, "Mini", "Redis"]
        ) == 0
        capsys.readouterr()
        assert main(["delete", "--workspace", ws, "Redis"]) == 0
        out = capsys.readouterr().out
        assert "deleting 1" in out
        assert main(["gc", "--workspace", ws]) == 0
        assert "gc (incremental)" in capsys.readouterr().out
        assert main(["fsck", "--workspace", ws]) == 0

    def test_republish_into_workspace_fails_cleanly(
        self, capsys, tmp_path
    ):
        ws = self._ws(tmp_path)
        assert main(["publish", "--workspace", ws, "Mini"]) == 0
        capsys.readouterr()
        assert main(["publish", "--workspace", ws, "Mini"]) == 1
        assert "already published" in capsys.readouterr().err

    def test_snapshot_and_compact(self, capsys, tmp_path):
        ws = self._ws(tmp_path)
        assert main(["publish-many", "--workspace", ws, "Mini"]) == 0
        capsys.readouterr()
        assert main(["snapshot", "--workspace", ws]) == 0
        assert "checkpoint written" in capsys.readouterr().out
        assert main(["compact", "--workspace", ws]) == 0
        out = capsys.readouterr().out
        assert "gc (" in out
        assert "op-log truncated" in out

    def test_snapshot_requires_workspace(self, capsys):
        assert main(["snapshot"]) == 2
        assert "requires --workspace" in capsys.readouterr().err
        assert main(["compact"]) == 2

    def test_checkpoint_every_bounds_replay(self, capsys, tmp_path):
        ws = self._ws(tmp_path)
        assert main(
            ["publish-many", "--workspace", ws,
             "--checkpoint-every", "1", "Mini"]
        ) == 0
        capsys.readouterr()
        # the post-batch checkpoint left nothing to fold in
        assert main(["snapshot", "--workspace", ws]) == 0
        assert "0 journaled op(s)" in capsys.readouterr().out

    def test_broken_workspace_clean_error(self, capsys, tmp_path):
        ws = tmp_path / "store"
        ws.mkdir()
        (ws / "oplog.bin").write_bytes(b"garbage not a pickle")
        assert main(["fsck", "--workspace", str(ws)]) == 1
        assert "error:" in capsys.readouterr().err


class TestShards:
    """``--shards`` against fresh stores, federation roots and plain
    workspaces: PATH says what it holds, a mismatch is one error line."""

    SCALE = ["--scale", "24", "--families", "4"]

    def _federation(self, capsys, tmp_path):
        root = str(tmp_path / "fed")
        assert main(
            ["--workspace", root, "--shards", "2", "publish-many",
             *self.SCALE]
        ) == 0
        assert "published 24/24 VMIs" in capsys.readouterr().out
        return root

    def test_federation_root_reopens_without_the_flag(
        self, capsys, tmp_path
    ):
        root = self._federation(capsys, tmp_path)
        assert main(["retrieve-many", "--workspace", root]) == 0
        out = capsys.readouterr().out
        assert "workspace holds 24 VMIs" in out
        assert "retrieved 24/24 VMIs" in out

    def test_mismatched_shard_count_is_one_line(self, capsys, tmp_path):
        root = self._federation(capsys, tmp_path)
        assert main(["--shards", "3", "stats", "--workspace", root]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "2 shard(s)" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_federation_root_fscks_clean(self, capsys, tmp_path):
        root = self._federation(capsys, tmp_path)
        assert main(["fsck", "--workspace", root]) == 0
        assert "24 VMIs checked" in capsys.readouterr().out

    def test_fresh_mode_honours_shards(self, capsys, monkeypatch):
        from repro.repository.federation import FederatedRepository

        checked = []
        fsck = FederatedRepository.fsck

        def spy(self):
            checked.append(self.n_shards)
            return fsck(self)

        monkeypatch.setattr(FederatedRepository, "fsck", spy)
        assert main(
            ["--shards", "2", "fsck", *self.SCALE, "--churn", "20"]
        ) == 0
        assert checked == [2]
        assert "repository clean" in capsys.readouterr().out

    @pytest.mark.parametrize("opener", ["cli", "library"])
    def test_plain_workspace_refuses_a_shard_count(
        self, capsys, tmp_path, opener
    ):
        from repro.errors import WorkspaceError
        from repro.repository.federation import FederatedRepository

        ws = tmp_path / "store"
        assert main(
            ["publish-many", "--workspace", str(ws), "--scale", "12",
             "--families", "3"]
        ) == 0
        capsys.readouterr()
        listing = sorted(p.name for p in ws.iterdir())
        if opener == "cli":
            assert main(
                ["--workspace", str(ws), "--shards", "2", "stats"]
            ) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert len(err.splitlines()) == 1
            assert "Traceback" not in err
        else:
            with pytest.raises(WorkspaceError, match="plain workspace"):
                FederatedRepository.open(ws, shards=2)
        assert sorted(p.name for p in ws.iterdir()) == listing
        assert main(["stats", "--workspace", str(ws)]) == 0
        assert "across 12 published VMIs" in capsys.readouterr().out
