"""Repository snapshots: save/close/reopen the whole store.

The paper's repository survives process restarts (SQLite on an external
SSD).  The reproduction keeps payload *accounting* in memory, so this
module provides the equivalent durability: a snapshot captures every
stored object (packages, base images, user data, master graphs, VMI
records) and restores a fully functional repository — publish, retrieve
and GC all work on the reloaded instance.

Format v2 makes the round-trip *exact*, not merely functional: master
graphs carry their membership ``revision`` and the repository carries
its ``mutations`` counter, so derived-state caches persisted across
sessions (assembly plans validate on ``(mutations, base revision)``)
can never falsely validate against a reloaded repository.  Dirty-base
state rides along as in v1; the liveness refcounts and zero-reference
sets are reconstructed through the same store/record primitives that
maintain them online, which reproduces them exactly (fsck's
``refcount-drift`` check pins the equivalence down).

Snapshots use pickle over the repository's plain-data state, read and
written **only through the repository's public iteration API**
(:meth:`~repro.repository.repo.Repository.packages`,
:meth:`~repro.repository.repo.Repository.stored_user_data`,
:meth:`~repro.repository.repo.Repository.vmi_contribution`, ...), so
snapshot code cannot desynchronise from internal refactors.  Pickle is
appropriate here because snapshots are produced and consumed by the
same trusted application (never load snapshots from untrusted sources);
the SQLite metadata is regenerated on load rather than serialised, so a
snapshot cannot desynchronise the two views.

Older snapshots and op-log records pickled each graph as a
``networkx.DiGraph``; :class:`StateUnpickler` reads them without
networkx, and the next checkpoint rewrites them in the current layout.
"""

from __future__ import annotations

import pickle
import types
from pathlib import Path
from typing import Any

from repro.repository.master_graphs import master_from_state, master_state
from repro.repository.repo import Repository

__all__ = [
    "save_repository",
    "load_repository",
    "restore_into",
    "repository_state",
    "StateUnpickler",
]

_FORMAT_VERSION = 2
#: versions load_repository still understands (v1: no revisions, no
#: mutation counter — restored masters start at revision 0)
_READABLE_VERSIONS = (1, 2)


class StateUnpickler(pickle.Unpickler):
    """Reads snapshots and op-log records without needing networkx: a
    networkx class (the older graph layout) loads as a namespace that
    pickle's default restore fills with the instance's attributes."""

    def find_class(self, module: str, name: str) -> Any:
        if module.split(".")[0] == "networkx":
            return types.SimpleNamespace
        return super().find_class(module, name)


def repository_state(repo: Repository) -> dict:
    """The repository's full durable state as a plain-data dict.

    Built exclusively from the public iteration API.  The returned
    structure references live objects (package graphs are mutable) —
    serialise eagerly, as :func:`save_repository` does.
    """
    return {
        "version": _FORMAT_VERSION,
        "packages": repo.packages(),
        "bases": repo.base_images(),
        "data": repo.stored_user_data(),
        "masters": [master_state(m) for m in repo.master_graphs()],
        "records": [
            (rec, repo.vmi_contribution(rec.name))
            for rec in repo.vmi_records()
        ],
        # deletions not yet swept: the reloaded repository's next
        # incremental GC pass must still re-derive these bases
        "dirty_bases": sorted(repo.dirty_bases()),
        # derived-cache freshness token — must survive exactly
        "mutations": repo.mutations,
    }


def save_repository(repo: Repository, path: str | Path) -> int:
    """Write a snapshot; returns the snapshot size in bytes."""
    blob = pickle.dumps(
        repository_state(repo), protocol=pickle.HIGHEST_PROTOCOL
    )
    Path(path).write_bytes(blob)
    return len(blob)


def restore_into(repo: Repository, state: dict) -> Repository:
    """Apply a snapshot state dict to an (empty) repository.

    Raises:
        ValueError: unknown snapshot format version.
    """
    if state.get("version") not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported snapshot version {state.get('version')!r}"
        )
    for base in state["bases"]:
        repo.store_base_image(base)
    for pkg in state["packages"]:
        repo.store_package(pkg)
    for data in state["data"]:
        repo.store_user_data(data)
    for m in state["masters"]:
        base = repo.get_base_image(m["base_key"])
        repo.put_master_graph(master_from_state(base, m))
    for record, package_keys in state["records"]:
        repo.record_vmi(record, package_keys=package_keys)
    for base_key in state.get("dirty_bases", ()):
        repo.mark_base_dirty(base_key)
    if "mutations" in state:
        repo.restore_mutations(state["mutations"])
    return repo


def load_repository(path: str | Path) -> Repository:
    """Rebuild a repository from a snapshot.

    Raises:
        ValueError: unknown snapshot format version.
        FileNotFoundError: missing snapshot file.
    """
    with open(path, "rb") as file:
        return restore_into(Repository(), StateUnpickler(file).load())
