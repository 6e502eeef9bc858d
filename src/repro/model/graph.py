"""The VMI semantic graph of Section III-B.

A :class:`SemanticGraph` is a directed graph (cycles allowed — libc6,
perl-base and dpkg depend on each other in Figure 1a) whose vertices are
the base image plus all primary and dependency packages of a VMI, and
whose edges express "depends on".

Three induced subgraphs matter to the algorithms:

* ``GI[BI]`` — the *base-image subgraph*: the base-image vertex plus every
  package that belongs to the guest OS itself (role ``BASE_MEMBER``);
* ``GI[PS]`` — the *primary-package subgraph*: the primary packages plus
  their transitive dependency closure.  Dependencies satisfied by base
  packages appear here with the base's version, which is exactly what the
  semantic-compatibility check of Section III-G compares;
* ``GI[P]`` for a single primary ``P`` — ``P`` plus its closure, used when
  master graphs are merged (Algorithm 1 line 25, Algorithm 2 line 9).

The graph is stored as two insertion-ordered dicts: package vertices
(key -> payload and role) and successors (key -> ordered set of
dependency keys).  Vertex, edge and successor iteration follow insertion
order, and that order is part of the contract: it feeds manifests,
master-graph unions and the simulated series.
"""

from __future__ import annotations

import enum
from collections.abc import Collection, Iterable, Iterator, Mapping
from typing import Any

from repro.errors import GraphModelError
from repro.model.attributes import BaseImageAttrs
from repro.model.package import Package

__all__ = [
    "NodeKind",
    "PackageRole",
    "SemanticGraph",
    "strongly_connected_components",
]


class NodeKind(enum.Enum):
    """What a graph vertex represents (graphs pickled in the older
    networkx layout name it in their vertex data)."""

    BASE_IMAGE = "base-image"
    PACKAGE = "package"


class PackageRole(enum.Enum):
    """Why a package vertex is part of the VMI (Section III-A)."""

    #: Member of the primary package set ``PS`` (user-requested).
    PRIMARY = "primary"
    #: Member of the dependency package set ``DS``.
    DEPENDENCY = "dependency"
    #: Ships with the base OS itself.
    BASE_MEMBER = "base-member"


def _base_key(attrs: BaseImageAttrs) -> str:
    return f"base!{attrs.os_type}/{attrs.distro}-{attrs.version}-{attrs.arch}"


def _pkg_key(pkg: Package) -> str:
    # cached per (frozen) instance: the same payload is added to many
    # graphs — every publish builds the VMI graph, two subgraphs and a
    # master union from the same Package objects — and str formatting a
    # Version dominates the add path otherwise.  Python strings cache
    # their own hash, so repeated node lookups hash once.
    key: str | None = pkg.__dict__.get("_node_key")
    if key is None:
        key = f"pkg!{pkg.name}={pkg.version}:{pkg.arch}"
        object.__setattr__(pkg, "_node_key", key)
    return key


class SemanticGraph:
    """Directed, possibly cyclic VMI semantic graph.

    Vertices are keyed by stable strings so that unioning two graphs
    (master-graph construction, Section III-H) deduplicates identical
    packages automatically.
    """

    def __init__(self) -> None:
        #: every vertex key -> its successor keys (a dict used as an
        #: ordered set); the key order is the graph's vertex order
        self._succ: dict[str, dict[str, None]] = {}
        #: package vertex key -> (payload, role), in vertex order
        self._packages: dict[str, tuple[Package, PackageRole]] = {}
        self._base_node: str | None = None
        self._base_attrs: BaseImageAttrs | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_base_image(self, attrs: BaseImageAttrs) -> str:
        """Add (or assert) the unique base-image vertex.

        Raises:
            GraphModelError: if a *different* base image is already present.
        """
        key = _base_key(attrs)
        if self._base_node is not None and self._base_node != key:
            raise GraphModelError(
                f"graph already has base image {self._base_node!r}; "
                f"cannot add {key!r}"
            )
        self._succ.setdefault(key, {})
        self._base_node = key
        self._base_attrs = attrs
        return key

    def add_package(self, pkg: Package, role: PackageRole) -> str:
        """Add a package vertex; re-adding may only *strengthen* the role.

        Role precedence is ``PRIMARY > BASE_MEMBER > DEPENDENCY`` so that a
        package first seen as a dependency and later requested as primary
        keeps the stronger classification.
        """
        key = _pkg_key(pkg)
        existing = self._packages.get(key)
        if existing is None:
            self._packages[key] = (pkg, role)
            self._succ[key] = {}
        elif _ROLE_RANK[role] > _ROLE_RANK[existing[1]]:
            self._packages[key] = (existing[0], role)
        return key

    def add_dependency_edge(self, src_key: str, dst_key: str) -> None:
        """Record that ``src`` depends on ``dst`` (both must exist)."""
        if src_key not in self._succ or dst_key not in self._succ:
            raise GraphModelError(
                f"dependency edge references unknown node(s): "
                f"{src_key!r} -> {dst_key!r}"
            )
        self._succ[src_key][dst_key] = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def base_attrs(self) -> BaseImageAttrs | None:
        """Attributes of the base-image vertex, if present."""
        return self._base_attrs

    @property
    def base_node(self) -> str | None:
        return self._base_node

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, key: str) -> bool:
        return key in self._succ

    def n_edges(self) -> int:
        return sum(len(targets) for targets in self._succ.values())

    def has_package(self, name: str) -> bool:
        """Is any version of package ``name`` a vertex of this graph?"""
        return any(p.name == name for p in self.packages())

    def packages(self) -> Iterator[Package]:
        """All package payloads, in insertion order."""
        for pkg, _ in self._packages.values():
            yield pkg

    def package_nodes(self) -> Iterator[tuple[str, Package, PackageRole]]:
        """(key, package, role) triples for every package vertex."""
        for key, (pkg, role) in self._packages.items():
            yield key, pkg, role

    def packages_with_role(self, role: PackageRole) -> list[Package]:
        return [p for p, r in self._packages.values() if r is role]

    def primary_packages(self) -> list[Package]:
        """The primary package set ``PS`` as payloads."""
        return self.packages_with_role(PackageRole.PRIMARY)

    def find_package(self, name: str) -> Package | None:
        """The (unique) vertex payload named ``name``, else ``None``."""
        for p in self.packages():
            if p.name == name:
                return p
        return None

    def package_key(self, pkg: Package) -> str:
        return _pkg_key(pkg)

    def total_package_size(self) -> int:
        """Sum of installed sizes over all package vertices."""
        return sum(p.installed_size for p in self.packages())

    def has_cycle(self) -> bool:
        """Does the dependency relation contain a cycle (Figure 1a)?"""
        return any(
            key in targets for key, targets in self._succ.items()
        ) or any(
            len(members) > 1
            for members in strongly_connected_components(self._succ)
        )

    # ------------------------------------------------------------------
    # induced subgraphs (Section III-B / IV-C)
    # ------------------------------------------------------------------

    def dependency_closure(self, roots: Iterable[str]) -> set[str]:
        """All package nodes reachable from ``roots`` along Depends edges.

        The base-image vertex is never part of a closure: the algorithms
        treat the base as the substrate packages sit on, not as a
        dependency target.
        """
        seen: set[str] = set()
        stack = [r for r in roots if r in self._succ]
        while stack:
            node = stack.pop()
            if node in seen or node == self._base_node:
                continue
            seen.add(node)
            stack.extend(self._succ[node])
        return seen

    def extract_primary_subgraph(self) -> "SemanticGraph":
        """``GI[PS]``: primaries plus their dependency closure."""
        roots = [
            key
            for key, _, role in self.package_nodes()
            if role is PackageRole.PRIMARY
        ]
        return self._induced(self.dependency_closure(roots), with_base=False)

    def extract_base_subgraph(self) -> "SemanticGraph":
        """``GI[BI]``: the base vertex plus all BASE_MEMBER packages."""
        members = {
            key
            for key, _, role in self.package_nodes()
            if role is PackageRole.BASE_MEMBER
        }
        return self._induced(members, with_base=True)

    def extract_package_subgraph(
        self, name: str, version: str | None = None
    ) -> "SemanticGraph":
        """``GI[P]`` for one primary package: ``P`` plus its closure.

        When the graph holds several versions of ``name`` (a master
        graph after successive uploads across archive updates), pass
        ``version`` to disambiguate; without it the newest version is
        chosen.

        Raises:
            GraphModelError: if no matching vertex exists.
        """
        candidates = [
            (key, pkg)
            for key, pkg, _ in self.package_nodes()
            if pkg.name == name
            and (version is None or str(pkg.version) == version)
        ]
        if not candidates:
            raise GraphModelError(
                f"package {name!r}"
                + (f" version {version}" if version else "")
                + " is not a graph vertex"
            )
        root, _ = max(candidates, key=lambda kv: kv[1].version)
        return self._induced(self.dependency_closure([root]), with_base=False)

    def _induced(self, nodes: set[str], *, with_base: bool) -> "SemanticGraph":
        sub = SemanticGraph()
        if with_base and self._base_attrs is not None:
            sub.add_base_image(self._base_attrs)
        for key in nodes:
            entry = self._packages.get(key)
            if entry is not None:
                sub.add_package(*entry)
        # walk only the kept nodes' out-edges instead of every edge of
        # the host graph: extraction from a large master graph is
        # O(edges touching the closure), not O(all master edges)
        kept = sub._succ
        for src, targets in kept.items():
            targets.update(
                (dst, None) for dst in self._succ[src] if dst in kept
            )
        return sub

    # ------------------------------------------------------------------
    # union (master-graph construction, Section III-H)
    # ------------------------------------------------------------------

    def union_update(self, other: "SemanticGraph") -> None:
        """In-place union; identical packages merge into one vertex.

        Raises:
            GraphModelError: when the two graphs carry different base
                images — master graphs only union VMIs with identical
                base-image attributes.
        """
        if (
            other._base_node is not None
            and self._base_node is not None
            and other._base_node != self._base_node
        ):
            raise GraphModelError(
                "cannot union graphs with different base images: "
                f"{self._base_node!r} vs {other._base_node!r}"
            )
        if other._base_attrs is not None and self._base_node is None:
            self.add_base_image(other._base_attrs)
        for pkg, role in other._packages.values():
            self.add_package(pkg, role)
        succ = self._succ
        for src, targets in other._succ.items():
            if src in succ:
                succ[src].update(
                    (dst, None) for dst in targets if dst in succ
                )

    def copy(self) -> "SemanticGraph":
        """Deep-enough copy (payloads are immutable)."""
        dup = SemanticGraph()
        dup._succ = {key: dict(targets) for key, targets in self._succ.items()}
        dup._packages = dict(self._packages)
        dup._base_node = self._base_node
        dup._base_attrs = self._base_attrs
        return dup

    # ------------------------------------------------------------------
    # persistence (workspace snapshots and op-log records pickle graphs)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        """Builtin containers only, so on-disk state names no
        third-party class: the successor dict (vertex order and edges),
        the package vertices and the base vertex."""
        return {
            "succ": self._succ,
            "packages": self._packages,
            "base": (self._base_node, self._base_attrs),
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        """Restore :meth:`__getstate__`'s layout, or the older one that
        pickled a ``networkx.DiGraph`` as ``_g``, read through its
        ``_node`` and ``_succ`` dicts only (so that
        :class:`~repro.repository.persistence.StateUnpickler` can load
        it without networkx)."""
        if "_g" not in state:
            self._succ, self._packages = state["succ"], state["packages"]
            self._base_node, self._base_attrs = state["base"]
            return
        nodes, succ = state["_g"]._node, state["_g"]._succ
        self._succ = {key: dict.fromkeys(succ[key]) for key in nodes}
        self._packages = {
            key: (data["package"], data["role"])
            for key, data in nodes.items()
            if "package" in data
        }
        base = self._base_node = state["_base_node"]
        self._base_attrs = None if base is None else nodes[base]["attrs"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SemanticGraph base={self.base_attrs} "
            f"packages={len(self._packages)} edges={self.n_edges()}>"
        )


def strongly_connected_components(
    succ: Mapping[str, Collection[str]],
) -> list[set[str]]:
    """Strongly connected components, in the order they complete.

    Iterative Tarjan in Nuutila's variant (only non-root vertices wait
    on the pending stack), so deep dependency chains cannot blow the
    recursion limit.  Sources are tried in ``succ`` order and each
    vertex's successors in their own order, so the result is
    deterministic.
    """
    preorder: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    found: set[str] = set()
    pending: list[str] = []
    components: list[set[str]] = []
    unexplored = {v: iter(targets) for v, targets in succ.items()}
    for source in succ:
        if source in found:
            continue
        path = [source]
        while path:
            v = path[-1]
            if v not in preorder:
                preorder[v] = len(preorder) + 1
            for w in unexplored[v]:
                if w not in preorder:
                    path.append(w)
                    break
            else:
                path.pop()
                low = preorder[v]
                for w in succ[v]:
                    if w not in found:
                        low = min(
                            low,
                            lowlink[w] if preorder[w] > preorder[v]
                            else preorder[w],
                        )
                lowlink[v] = low
                if low != preorder[v]:
                    pending.append(v)
                    continue
                members = {v}
                while pending and preorder[pending[-1]] > preorder[v]:
                    members.add(pending.pop())
                found.update(members)
                components.append(members)
    return components


#: role precedence for :meth:`SemanticGraph.add_package`
_ROLE_RANK = {
    PackageRole.DEPENDENCY: 0,
    PackageRole.BASE_MEMBER: 1,
    PackageRole.PRIMARY: 2,
}
