"""Property: SemanticGraph ≡ the networkx DiGraph it replaced.

The semantic graph is backed by insertion-ordered dicts.  Its vertex,
edge and successor order feeds manifests, master-graph unions and the
simulated series, so it must match what ``networkx.DiGraph`` produced
exactly.  :class:`NxSemanticGraph` below is the networkx-backed
implementation, kept as the reference: both are fed the same drawn
operations and must agree on vertex order, edge order, dependency
closures, every induced subgraph, union, copy and cycle detection.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphModelError
from repro.model.attributes import BaseImageAttrs
from repro.model.graph import (
    NodeKind,
    PackageRole,
    SemanticGraph,
    _base_key,
    _pkg_key,
)
from repro.model.package import make_package

ATTRS = (
    BaseImageAttrs("linux", "ubuntu", "16.04", "amd64"),
    BaseImageAttrs("linux", "debian", "8", "amd64"),
)
PACKAGES = tuple(
    make_package(f"p{i}", version, installed_size=i + 1)
    for i in range(6)
    for version in ("1.0", "2.0")
)
ROLES = tuple(PackageRole)

_RANK = {
    PackageRole.DEPENDENCY: 0,
    PackageRole.BASE_MEMBER: 1,
    PackageRole.PRIMARY: 2,
}


class NxSemanticGraph:
    """The networkx-backed semantic graph, as the reference."""

    def __init__(self):
        self._g = nx.DiGraph()
        self._base_node = None

    def add_base_image(self, attrs):
        key = _base_key(attrs)
        if self._base_node is not None and self._base_node != key:
            raise GraphModelError("different base image")
        self._g.add_node(key, kind=NodeKind.BASE_IMAGE, attrs=attrs)
        self._base_node = key
        return key

    def add_package(self, pkg, role):
        key = _pkg_key(pkg)
        if key in self._g:
            existing = self._g.nodes[key]["role"]
            if _RANK[role] > _RANK[existing]:
                self._g.nodes[key]["role"] = role
        else:
            self._g.add_node(key, kind=NodeKind.PACKAGE, package=pkg, role=role)
        return key

    def add_dependency_edge(self, src_key, dst_key):
        if src_key not in self._g or dst_key not in self._g:
            raise GraphModelError("unknown node")
        self._g.add_edge(src_key, dst_key)

    def package_nodes(self):
        for key, data in self._g.nodes(data=True):
            if data["kind"] is NodeKind.PACKAGE:
                yield key, data["package"], data["role"]

    def has_cycle(self):
        return not nx.is_directed_acyclic_graph(self._g)

    def dependency_closure(self, roots):
        seen = set()
        stack = [r for r in roots if r in self._g]
        while stack:
            node = stack.pop()
            if node in seen or node == self._base_node:
                continue
            seen.add(node)
            stack.extend(self._g.successors(node))
        return seen

    def extract_primary_subgraph(self):
        roots = [
            key
            for key, _, role in self.package_nodes()
            if role is PackageRole.PRIMARY
        ]
        return self._induced(self.dependency_closure(roots), with_base=False)

    def extract_base_subgraph(self):
        members = {
            key
            for key, _, role in self.package_nodes()
            if role is PackageRole.BASE_MEMBER
        }
        return self._induced(members, with_base=True)

    def extract_package_subgraph(self, name, version=None):
        candidates = [
            (key, pkg)
            for key, pkg, _ in self.package_nodes()
            if pkg.name == name
            and (version is None or str(pkg.version) == version)
        ]
        if not candidates:
            raise GraphModelError("not a graph vertex")
        root, _ = max(candidates, key=lambda kv: kv[1].version)
        return self._induced(self.dependency_closure([root]), with_base=False)

    def _induced(self, nodes, *, with_base):
        sub = NxSemanticGraph()
        if with_base and self._base_node is not None:
            sub.add_base_image(self._g.nodes[self._base_node]["attrs"])
        keep = set(nodes)
        if with_base and self._base_node is not None:
            keep.add(self._base_node)
        for key in nodes:
            data = self._g.nodes[key]
            if data["kind"] is NodeKind.PACKAGE:
                sub.add_package(data["package"], data["role"])
        adj = self._g.adj
        sub_g = sub._g
        for u in keep:
            if u not in sub_g:
                continue
            for v in adj[u]:
                if v in keep and v in sub_g:
                    sub_g.add_edge(u, v)
        return sub

    def union_update(self, other):
        if (
            other._base_node is not None
            and self._base_node is not None
            and other._base_node != self._base_node
        ):
            raise GraphModelError("different base images")
        if other._base_node is not None and self._base_node is None:
            self.add_base_image(other._g.nodes[other._base_node]["attrs"])
        for _key, data in other._g.nodes(data=True):
            if data["kind"] is NodeKind.PACKAGE:
                self.add_package(data["package"], data["role"])
        for u, v in other._g.edges():
            if u in self._g and v in self._g:
                self._g.add_edge(u, v)

    def copy(self):
        dup = NxSemanticGraph()
        dup._g = self._g.copy()
        dup._base_node = self._base_node
        return dup


def shape(graph) -> tuple:
    """Everything order-sensitive a graph exposes, as plain data."""
    if isinstance(graph, NxSemanticGraph):
        nodes = list(graph._g.nodes)
        edges = list(graph._g.edges())
    else:
        nodes = list(graph._succ)
        edges = [(u, v) for u, targets in graph._succ.items() for v in targets]
        assert len(graph) == len(nodes)
        assert graph.n_edges() == len(edges)
    return (
        graph._base_node,
        nodes,
        [(key, pkg.identity, role) for key, pkg, role in graph.package_nodes()],
        edges,
        graph.has_cycle(),
    )


@st.composite
def operations(draw):
    """A build script: base, package and edge additions."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("base"), st.sampled_from(ATTRS)),
                st.tuples(
                    st.just("pkg"),
                    st.sampled_from(PACKAGES),
                    st.sampled_from(ROLES),
                ),
                st.tuples(
                    st.just("edge"),
                    st.integers(0, 12),
                    st.integers(0, 12),
                ),
            ),
            max_size=40,
        )
    )


def build_both(ops):
    """Apply ``ops`` to both implementations; errors must agree."""
    ours, ref = SemanticGraph(), NxSemanticGraph()
    for op in ops:
        if op[0] == "base":
            outcomes = []
            for g in (ours, ref):
                try:
                    g.add_base_image(op[1])
                    outcomes.append(None)
                except GraphModelError:
                    outcomes.append("error")
            assert outcomes[0] == outcomes[1]
        elif op[0] == "pkg":
            assert ours.add_package(op[1], op[2]) == ref.add_package(
                op[1], op[2]
            )
        else:
            nodes = list(ref._g.nodes)
            if nodes:
                src = nodes[op[1] % len(nodes)]
                dst = nodes[op[2] % len(nodes)]
                ours.add_dependency_edge(src, dst)
                ref.add_dependency_edge(src, dst)
    return ours, ref


@given(operations(), st.data())
@settings(max_examples=200, deadline=None)
def test_semantic_graph_matches_networkx(ops, data):
    ours, ref = build_both(ops)
    assert shape(ours) == shape(ref)

    keys = list(ref._g.nodes)
    roots = data.draw(st.lists(st.sampled_from(keys))) if keys else []
    assert ours.dependency_closure(roots) == ref.dependency_closure(roots)

    assert shape(ours.extract_primary_subgraph()) == shape(
        ref.extract_primary_subgraph()
    )
    assert shape(ours.extract_base_subgraph()) == shape(
        ref.extract_base_subgraph()
    )
    for _, pkg, _ in ref.package_nodes():
        for version in (None, str(pkg.version)):
            assert shape(
                ours.extract_package_subgraph(pkg.name, version)
            ) == shape(ref.extract_package_subgraph(pkg.name, version))

    dup_ours, dup_ref = ours.copy(), ref.copy()
    assert shape(dup_ours) == shape(dup_ref)
    # a copy is independent of its source
    if keys:
        dup_ours.add_dependency_edge(keys[0], keys[-1])
        dup_ref.add_dependency_edge(keys[0], keys[-1])
        assert shape(ours) == shape(ref)
        assert shape(dup_ours) == shape(dup_ref)


@given(operations(), operations())
@settings(max_examples=200, deadline=None)
def test_union_matches_networkx(left_ops, right_ops):
    left_ours, left_ref = build_both(left_ops)
    right_ours, right_ref = build_both(right_ops)
    outcomes = []
    for left, right in ((left_ours, right_ours), (left_ref, right_ref)):
        try:
            left.union_update(right)
            outcomes.append(None)
        except GraphModelError:
            outcomes.append("error")
    assert outcomes[0] == outcomes[1]
    assert shape(left_ours) == shape(left_ref)
