"""Property: sharded execution ≡ sequential, under any shard plan.

The sharded executors (:mod:`repro.service.parallel`) are pure
*schedulers*: for any corpus, any shard count and any hypothesis-drawn
input permutation, the repository they leave behind — the shards run
one after another, reordering the batch — must be indistinguishable
from the sequential pipeline's:

* every published VMI retrieves to a **byte-identical manifest**;
* the liveness **refcounts are identical**, before and after GC;
* a delete + GC round lands on the **identical post-GC state**
  (blobs, bytes by kind, refcounts);
* **fsck is clean** at every step.

The CI ``concurrency-stress`` job re-runs this suite with a higher
example budget (``PARALLEL_PROP_EXAMPLES``) to widen the space of
shard plans explored per run.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import Expelliarmus
from repro.ids import content_id

#: per-test example budget; the CI concurrency-stress job raises it
_EXAMPLES = int(os.environ.get("PARALLEL_PROP_EXAMPLES", "6"))


def _publish(corpus, indices, *, parallelism=None, order="dedup"):
    system = Expelliarmus()
    report = system.publish_many(
        [corpus.build(i) for i in indices],
        order=order,
        parallelism=parallelism,
    )
    assert report.n_failed == 0, report.render()
    return system


def _state_fingerprint(system) -> dict:
    """Everything 'parallel ≡ sequential' must preserve exactly.

    Master revisions and mutation counts are deliberately absent: they
    encode the *schedule* (global counters drawn in execution order),
    not the state.
    """
    repo = system.repo
    return {
        "blobs": {
            (r.key, r.kind.value, r.size) for r in repo.blobs.records()
        },
        "bytes": repo.bytes_by_kind(),
        "records": {r.name for r in repo.vmi_records()},
        "refcounts": repo.refcounts(),
        "contributions": {
            r.name: sorted(repo.vmi_contribution(r.name))
            for r in repo.vmi_records()
        },
    }


def _manifests(system, names) -> dict:
    return {
        name: system.retrieve(name).vmi.full_manifest()
        for name in names
    }


class TestParallelPublishEquivalence:
    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_parallel_publish_equals_sequential(
        self, scale_corpus_factory, data
    ):
        n_families = data.draw(st.integers(1, 4), label="n_families")
        corpus = scale_corpus_factory(14, n_families=n_families)
        published = data.draw(
            st.lists(
                st.integers(0, 13), min_size=2, max_size=14, unique=True
            ),
            label="published",
        )
        shuffled = data.draw(st.permutations(published), label="input")
        parallelism = data.draw(st.integers(1, 6), label="parallelism")

        sequential = _publish(corpus, published)
        parallel = _publish(corpus, shuffled, parallelism=parallelism)

        assert _state_fingerprint(parallel) == _state_fingerprint(
            sequential
        )
        names = [corpus.spec(i).name for i in published]
        assert _manifests(parallel, names) == _manifests(
            sequential, names
        )
        assert parallel.fsck().clean

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_parallel_retrieve_equals_sequential(
        self, scale_corpus_factory, data
    ):
        corpus = scale_corpus_factory(12, n_families=3)
        published = data.draw(
            st.lists(
                st.integers(0, 11), min_size=1, max_size=12, unique=True
            ),
            label="published",
        )
        system = _publish(corpus, published)
        names = [corpus.spec(i).name for i in published]
        reference = _manifests(system, names)
        reference_imports = {
            name: system.retrieve(name).imported_packages
            for name in names
        }

        batch = data.draw(
            st.lists(
                st.sampled_from(names),
                min_size=1,
                max_size=2 * len(names),
            ),
            label="batch",
        )
        parallelism = data.draw(st.integers(1, 8), label="parallelism")
        order = data.draw(
            st.sampled_from(["affine", "given"]), label="order"
        )
        report = system.retrieve_many(
            batch, parallelism=parallelism, order=order
        )

        assert report.n_failed == 0
        assert report.n_items == len(batch)
        for item in report.results:
            assert (
                item.report.vmi.full_manifest() == reference[item.name]
            )
            assert (
                item.report.imported_packages
                == reference_imports[item.name]
            )

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_churn_after_parallel_publish_converges(
        self, scale_corpus_factory, data
    ):
        """Publish (parallel vs sequential), delete a subset, GC: both
        repositories land on the identical post-GC state."""
        corpus = scale_corpus_factory(12, n_families=3)
        published = data.draw(
            st.lists(
                st.integers(0, 11), min_size=3, max_size=12, unique=True
            ),
            label="published",
        )
        parallelism = data.draw(st.integers(2, 6), label="parallelism")
        full_gc = data.draw(st.booleans(), label="full_gc")

        sequential = _publish(corpus, published)
        parallel = _publish(corpus, published, parallelism=parallelism)

        names = sorted(
            (corpus.spec(i).name for i in published),
            key=lambda n: content_id(f"parallel-churn/{n}"),
        )
        victims = names[: max(1, len(names) // 3)]
        for system in (sequential, parallel):
            report = system.delete_many(victims)
            assert report.n_failed == 0
            system.garbage_collect(full=full_gc)

        assert _state_fingerprint(parallel) == _state_fingerprint(
            sequential
        )
        survivors = [n for n in names if n not in victims]
        assert _manifests(parallel, survivors) == _manifests(
            sequential, survivors
        )
        assert parallel.fsck().clean
        assert sequential.fsck().clean
