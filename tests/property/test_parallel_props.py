"""Property: sharded execution ≡ sequential, under any shard plan.

:func:`~repro.service.parallel.run_shards` is a pure *scheduler*: for
any corpus, any hypothesis-drawn input permutation and any shard plan
that keeps each OS family on one shard (the placement rule its caller,
the federation, guarantees), running the shards one after another
through one repository's batch pipeline must leave a repository
indistinguishable from the plain sequential pipeline's:

* every published VMI retrieves to a **byte-identical manifest**;
* the liveness **refcounts are identical**, before and after GC;
* a delete + GC round lands on the **identical post-GC state**
  (blobs, bytes by kind, refcounts);
* **fsck is clean** at every step.

Retrieval is read-only, so any split of a retrieval batch must return
the sequential manifests at the caller's positions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import Expelliarmus
from repro.ids import content_id
from repro.repository.federation import family_of
from repro.service.parallel import run_shards

_EXAMPLES = 6


def _publish(corpus, indices):
    system = Expelliarmus()
    report = system.publish_many([corpus.build(i) for i in indices])
    assert report.n_failed == 0, report.render()
    return system


def _draw_family_plan(data, n_shards):
    """A shard for each OS family, drawn the first time it is seen."""
    homes = {}

    def shard_of(vmi):
        family = family_of(vmi.base.attrs)
        if family not in homes:
            homes[family] = data.draw(
                st.integers(0, n_shards - 1), label=f"home {family}"
            )
        return homes[family]

    return shard_of


def _split(items, n_shards, shard_of):
    shards = [[] for _ in range(n_shards)]
    for pos, item in enumerate(items):
        shards[shard_of(item)].append((pos, item))
    return shards


def _publish_sharded(corpus, indices, n_shards, shard_of):
    system = Expelliarmus()
    vmis = [corpus.build(i) for i in indices]
    run = run_shards(
        _split(vmis, n_shards, shard_of),
        lambda _index, batch, relay: system.publish_many(
            batch, progress=relay
        ),
    )
    results = run.merged()
    assert all(r.ok for r in results)
    assert [r.position for r in results] == list(range(len(vmis)))
    assert [r.name for r in results] == [v.name for v in vmis]
    return system


def _state_fingerprint(system) -> dict:
    """Everything 'sharded ≡ sequential' must preserve exactly.

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
        n_shards = data.draw(st.integers(1, 6), label="n_shards")

        sequential = _publish(corpus, published)
        sharded = _publish_sharded(
            corpus, shuffled, n_shards, _draw_family_plan(data, n_shards)
        )

        assert _state_fingerprint(sharded) == _state_fingerprint(
            sequential
        )
        names = [corpus.spec(i).name for i in published]
        assert _manifests(sharded, names) == _manifests(
            sequential, names
        )
        assert sharded.fsck().clean

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
        n_shards = data.draw(st.integers(1, 8), label="n_shards")
        homes = data.draw(
            st.lists(
                st.integers(0, n_shards - 1),
                min_size=len(batch),
                max_size=len(batch),
            ),
            label="homes",
        )
        order = data.draw(
            st.sampled_from(["affine", "given"]), label="order"
        )
        shards = [[] for _ in range(n_shards)]
        for pos, (name, home) in enumerate(zip(batch, homes)):
            shards[home].append((pos, name))
        run = run_shards(
            shards,
            lambda _index, items, relay: system.retrieve_many(
                items, order=order, progress=relay
            ),
        )
        results = run.merged()

        assert [r.position for r in results] == list(range(len(batch)))
        assert [r.name for r in results] == batch
        assert sum(a.n_items for a in run.accounts()) == len(batch)
        for item in results:
            assert item.ok
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
        """Publish (sharded vs sequential), delete a subset, GC: both
        repositories land on the identical post-GC state."""
        corpus = scale_corpus_factory(12, n_families=3)
        published = data.draw(
            st.lists(
                st.integers(0, 11), min_size=3, max_size=12, unique=True
            ),
            label="published",
        )
        n_shards = data.draw(st.integers(2, 6), label="n_shards")
        full_gc = data.draw(st.booleans(), label="full_gc")

        sequential = _publish(corpus, published)
        sharded = _publish_sharded(
            corpus, published, n_shards, _draw_family_plan(data, n_shards)
        )

        names = sorted(
            (corpus.spec(i).name for i in published),
            key=lambda n: content_id(f"parallel-churn/{n}"),
        )
        victims = names[: max(1, len(names) // 3)]
        for system in (sequential, sharded):
            report = system.delete_many(victims)
            assert report.n_failed == 0
            system.garbage_collect(full=full_gc)

        assert _state_fingerprint(sharded) == _state_fingerprint(
            sequential
        )
        survivors = [n for n in names if n not in victims]
        assert _manifests(sharded, survivors) == _manifests(
            sequential, survivors
        )
        assert sharded.fsck().clean
        assert sequential.fsck().clean
