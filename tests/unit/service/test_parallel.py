"""Unit coverage of the sharded-batch layer (:mod:`repro.service.parallel`):
the reports, progress relay, caller-position remap, failure isolation
and overlap accounting of :func:`~repro.service.parallel.run_shards`,
exercised through its one caller, the federation."""

import pytest

from repro.core.system import Expelliarmus
from repro.errors import ReproError
from repro.repository.federation import FederatedRepository


def _corpus_vmis(scale_corpus_factory, n=16, families=4):
    corpus = scale_corpus_factory(n, n_families=families)
    return corpus, [corpus.build(i) for i in range(n)]


def _published(scale_corpus_factory, shards=3):
    corpus, vmis = _corpus_vmis(scale_corpus_factory)
    fed = FederatedRepository(shards=shards)
    assert fed.publish_many(vmis).n_failed == 0
    return corpus, fed


# ---------------------------------------------------------------------------
# sharded publishing -> ParallelPublishReport
# ---------------------------------------------------------------------------


class TestParallelPublisher:
    def test_rejects_unknown_order_and_policy(self, redis_vmi):
        fed = FederatedRepository(shards=2)
        with pytest.raises(ValueError):
            fed.publish_many([redis_vmi], order="wat")
        with pytest.raises(ValueError):
            fed.publish_many([redis_vmi], on_error="wat")

    def test_report_matches_sequential_end_state(
        self, scale_corpus_factory
    ):
        corpus, vmis = _corpus_vmis(scale_corpus_factory)
        sequential = Expelliarmus()
        sequential.publish_many([corpus.build(i) for i in range(16)])

        fed = FederatedRepository(shards=3)
        report = fed.publish_many(vmis)
        assert report.n_failed == 0
        assert report.parallelism == 3
        assert report.repo_bytes_after == sequential.repository_size
        assert fed.refcounts() == sequential.repo.refcounts()

    def test_results_come_back_in_caller_order(
        self, scale_corpus_factory
    ):
        _, vmis = _corpus_vmis(scale_corpus_factory)
        report = FederatedRepository(shards=4).publish_many(vmis)
        assert [r.position for r in report.results] == list(range(16))
        assert [r.name for r in report.results] == [
            v.name for v in vmis
        ]

    def test_critical_path_is_max_shard_and_below_total(
        self, scale_corpus_factory
    ):
        _, vmis = _corpus_vmis(scale_corpus_factory)
        report = FederatedRepository(shards=3).publish_many(vmis)
        spans = [s.simulated_seconds for s in report.shards]
        assert report.critical_path_seconds == pytest.approx(max(spans))
        assert sum(spans) == pytest.approx(report.simulated_seconds)
        assert report.overlap_speedup > 1.0
        assert "critical path" in report.render()

    def test_shard_accounts_cover_the_batch(self, scale_corpus_factory):
        _, vmis = _corpus_vmis(scale_corpus_factory)
        report = FederatedRepository(shards=4).publish_many(vmis)
        assert len(report.shards) == 4
        assert sum(s.n_items for s in report.shards) == 16
        assert all(s.n_failed == 0 for s in report.shards)

    def test_progress_counts_monotonically(self, scale_corpus_factory):
        _, vmis = _corpus_vmis(scale_corpus_factory)
        seen = []

        def progress(done, total, item):
            seen.append((done, total, item))

        report = FederatedRepository(shards=4).publish_many(
            vmis, progress=progress
        )
        assert report.n_published == 16
        # one batch-wide count across the shard pipelines, items at
        # their caller positions
        assert [done for done, _, _ in seen] == list(range(1, 17))
        assert all(total == 16 for _, total, _ in seen)
        assert all(vmis[r.position].name == r.name for _, _, r in seen)

    def test_failures_are_isolated_per_item(self, scale_corpus_factory):
        corpus, vmis = _corpus_vmis(scale_corpus_factory)
        fed = FederatedRepository(shards=4)
        fed.publish(corpus.build(3))  # duplicate-name collision
        report = fed.publish_many(vmis)
        assert report.n_failed == 1
        assert report.n_published == 15
        (failure,) = report.failures()
        assert failure.name == corpus.spec(3).name
        assert failure.position == 3
        assert "already published" in failure.error
        # the router refuses it before any shard runs
        assert sum(s.n_items for s in report.shards) == 15
        assert sum(s.n_failed for s in report.shards) == 0

    def test_duplicate_objects_keep_distinct_positions(
        self, mini_builder, redis_recipe
    ):
        """The same VMI object twice in one batch: both land on one
        shard, one occurrence publishes, the other fails inside that
        shard's pipeline, and the two results carry the two distinct
        caller positions."""
        vmi = mini_builder.build(redis_recipe)
        report = FederatedRepository(shards=2).publish_many(
            [vmi, vmi], order="given"
        )
        assert [r.position for r in report.results] == [0, 1]
        assert report.n_published == 1
        assert report.n_failed == 1
        assert sum(s.n_items for s in report.shards) == 2
        assert sum(s.n_failed for s in report.shards) == 1


# ---------------------------------------------------------------------------
# sharded retrieval -> ParallelRetrieveReport
# ---------------------------------------------------------------------------


class TestParallelRetriever:
    def test_rejects_unknown_order_and_policy(self):
        fed = FederatedRepository(shards=2)
        with pytest.raises(ValueError):
            fed.retrieve_many(["x"], order="wat")
        with pytest.raises(ValueError):
            fed.retrieve_many(["x"], on_error="wat")

    def test_parallel_matches_sequential_retrievals(
        self, scale_corpus_factory
    ):
        corpus, fed = _published(scale_corpus_factory, shards=4)
        names = [corpus.spec(i).name for i in range(16)]
        reference = {n: fed.retrieve(n) for n in names}

        report = fed.retrieve_many(names)
        assert report.n_failed == 0
        assert report.parallelism == 4
        assert [r.name for r in report.results] == names
        for item in report.results:
            expected = reference[item.name]
            assert (
                item.report.imported_packages
                == expected.imported_packages
            )
            assert (
                item.report.vmi.full_manifest()
                == expected.vmi.full_manifest()
            )

    def test_results_in_caller_order_with_failures_inline(
        self, scale_corpus_factory
    ):
        corpus, fed = _published(scale_corpus_factory)
        batch = [corpus.spec(0).name, "nope", corpus.spec(1).name]
        report = fed.retrieve_many(batch)
        assert [r.position for r in report.results] == [0, 1, 2]
        assert [r.ok for r in report.results] == [True, False, True]
        assert report.n_failed == 1

    def test_unresolvable_name_raises_under_raise_policy(
        self, scale_corpus_factory
    ):
        corpus, fed = _published(scale_corpus_factory)
        with pytest.raises(ReproError):
            fed.retrieve_many(["nope"], on_error="raise")
        with pytest.raises(ReproError):
            fed.retrieve_many(
                [corpus.spec(0).name, "nope"], on_error="raise"
            )

    def test_critical_path_accounting(self, scale_corpus_factory):
        corpus, fed = _published(scale_corpus_factory)
        names = [corpus.spec(i).name for i in range(16)]
        report = fed.retrieve_many(names)
        spans = [s.simulated_seconds for s in report.shards]
        assert report.critical_path_seconds == pytest.approx(max(spans))
        assert sum(spans) == pytest.approx(report.simulated_seconds)
        assert report.overlap_speedup > 1.0
        assert "critical path" in report.render()

    def test_same_base_requests_share_a_shard_and_its_caches(
        self, scale_corpus_factory
    ):
        corpus, fed = _published(scale_corpus_factory, shards=4)
        names = [corpus.spec(i).name for i in range(16)]
        report = fed.retrieve_many(names)
        # family routing: each stored base's requests run on one
        # shard, so at most one cold copy is charged per stored base
        assert report.planner_stats.base_copies <= len(fed.base_images())
