"""Unit tests for the SemanticGraph."""

import copyreg
import io
import pickle

import pytest

from repro.errors import GraphModelError
from repro.model.attributes import BaseImageAttrs
from repro.model.graph import NodeKind, PackageRole, SemanticGraph
from repro.model.package import make_package

ATTRS = BaseImageAttrs("linux", "ubuntu", "16.04", "amd64")
OTHER = BaseImageAttrs("linux", "debian", "8", "amd64")


def build_sample() -> SemanticGraph:
    """base + primary 'app' -> dep 'lib' -> base member 'libc'."""
    g = SemanticGraph()
    g.add_base_image(ATTRS)
    libc = g.add_package(
        make_package("libc", "2.23", installed_size=10),
        PackageRole.BASE_MEMBER,
    )
    lib = g.add_package(
        make_package("lib", "1.0", installed_size=5),
        PackageRole.DEPENDENCY,
    )
    app = g.add_package(
        make_package("app", "1.0", installed_size=20),
        PackageRole.PRIMARY,
    )
    g.add_dependency_edge(app, lib)
    g.add_dependency_edge(lib, libc)
    return g


def role_of(g: SemanticGraph, key: str) -> PackageRole:
    return {k: role for k, _, role in g.package_nodes()}[key]


class TestConstruction:
    def test_single_base_image(self):
        g = SemanticGraph()
        g.add_base_image(ATTRS)
        g.add_base_image(ATTRS)  # idempotent
        with pytest.raises(GraphModelError):
            g.add_base_image(OTHER)

    def test_duplicate_package_vertices_merge(self):
        g = SemanticGraph()
        pkg = make_package("x", "1.0", installed_size=1)
        k1 = g.add_package(pkg, PackageRole.DEPENDENCY)
        k2 = g.add_package(pkg, PackageRole.DEPENDENCY)
        assert k1 == k2
        assert len(g) == 1

    def test_role_strengthening(self):
        g = SemanticGraph()
        pkg = make_package("x", "1.0", installed_size=1)
        key = g.add_package(pkg, PackageRole.DEPENDENCY)
        g.add_package(pkg, PackageRole.PRIMARY)
        assert role_of(g, key) is PackageRole.PRIMARY
        # weakening is ignored
        g.add_package(pkg, PackageRole.DEPENDENCY)
        assert role_of(g, key) is PackageRole.PRIMARY

    def test_edge_requires_known_nodes(self):
        g = SemanticGraph()
        with pytest.raises(GraphModelError):
            g.add_dependency_edge("pkg!a=1:amd64", "pkg!b=1:amd64")

    def test_different_versions_are_distinct_vertices(self):
        g = SemanticGraph()
        g.add_package(make_package("x", "1.0"), PackageRole.DEPENDENCY)
        g.add_package(make_package("x", "2.0"), PackageRole.DEPENDENCY)
        assert len(g) == 2


class TestQueries:
    def test_counts(self):
        g = build_sample()
        assert len(g) == 4  # base + 3 packages
        assert g.n_edges() == 2
        assert sum(1 for _ in g.packages()) == 3

    def test_primary_packages(self):
        g = build_sample()
        assert [p.name for p in g.primary_packages()] == ["app"]

    def test_find_package(self):
        g = build_sample()
        assert g.find_package("lib").name == "lib"
        assert g.find_package("ghost") is None
        assert g.has_package("app")

    def test_total_package_size(self):
        assert build_sample().total_package_size() == 35

    def test_cycle_detection(self):
        g = SemanticGraph()
        a = g.add_package(make_package("a", "1"), PackageRole.DEPENDENCY)
        b = g.add_package(make_package("b", "1"), PackageRole.DEPENDENCY)
        assert not g.has_cycle()
        g.add_dependency_edge(a, b)
        g.add_dependency_edge(b, a)
        assert g.has_cycle()


class TestSubgraphs:
    def test_primary_subgraph_is_closure(self):
        g = build_sample()
        ps = g.extract_primary_subgraph()
        names = {p.name for p in ps.packages()}
        assert names == {"app", "lib", "libc"}
        assert ps.base_attrs is None  # no base vertex in GI[PS]

    def test_base_subgraph_members_only(self):
        g = build_sample()
        bs = g.extract_base_subgraph()
        assert {p.name for p in bs.packages()} == {"libc"}
        assert bs.base_attrs == ATTRS

    def test_package_subgraph(self):
        g = build_sample()
        sub = g.extract_package_subgraph("lib")
        assert {p.name for p in sub.packages()} == {"lib", "libc"}

    def test_package_subgraph_unknown_raises(self):
        with pytest.raises(GraphModelError):
            build_sample().extract_package_subgraph("ghost")

    def test_closure_through_cycles_terminates(self):
        g = SemanticGraph()
        a = g.add_package(make_package("a", "1"), PackageRole.PRIMARY)
        b = g.add_package(make_package("b", "1"), PackageRole.DEPENDENCY)
        g.add_dependency_edge(a, b)
        g.add_dependency_edge(b, a)
        ps = g.extract_primary_subgraph()
        assert {p.name for p in ps.packages()} == {"a", "b"}

    def test_subgraph_preserves_edges(self):
        g = build_sample()
        ps = g.extract_primary_subgraph()
        assert ps.n_edges() == 2


class TestUnion:
    def test_union_dedups_identical_packages(self):
        g1 = build_sample()
        g2 = build_sample()
        before = len(g1)
        g1.union_update(g2)
        assert len(g1) == before

    def test_union_adds_new_packages(self):
        g1 = build_sample()
        g2 = SemanticGraph()
        g2.add_package(make_package("extra", "1.0"), PackageRole.PRIMARY)
        g1.union_update(g2)
        assert g1.has_package("extra")

    def test_union_conflicting_bases_raises(self):
        g1 = SemanticGraph()
        g1.add_base_image(ATTRS)
        g2 = SemanticGraph()
        g2.add_base_image(OTHER)
        with pytest.raises(GraphModelError):
            g1.union_update(g2)

    def test_union_acquires_base(self):
        g1 = SemanticGraph()
        g2 = SemanticGraph()
        g2.add_base_image(ATTRS)
        g1.union_update(g2)
        assert g1.base_attrs == ATTRS

    def test_copy_is_independent(self):
        g = build_sample()
        dup = g.copy()
        dup.add_package(make_package("new", "1.0"), PackageRole.PRIMARY)
        assert not g.has_package("new")
        assert dup.has_package("new")


class _ParentLayoutPickler(pickle.Pickler):
    """Pickles a SemanticGraph exactly as it pickled when it wrapped a
    ``networkx.DiGraph``: the class, then its ``__dict__`` as state."""

    def __init__(self, file, nx_graph, base_node):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.state = {"_g": nx_graph, "_base_node": base_node}

    def reducer_override(self, obj):
        if isinstance(obj, SemanticGraph):
            return (copyreg.__newobj__, (SemanticGraph,), self.state)
        return NotImplemented


def _edges(g: SemanticGraph) -> list[tuple[str, str]]:
    return [(u, v) for u, targets in g._succ.items() for v in targets]


def _shape(g: SemanticGraph) -> tuple:
    return (
        g.base_node,
        g.base_attrs,
        list(g._succ),
        list(g.package_nodes()),
        _edges(g),
    )


class TestPersistedFormat:
    def test_loads_the_networkx_layout(self):
        import networkx as nx

        g = build_sample()
        legacy = nx.DiGraph()
        legacy.add_node(g.base_node, kind=NodeKind.BASE_IMAGE, attrs=ATTRS)
        for key, pkg, role in g.package_nodes():
            legacy.add_node(key, kind=NodeKind.PACKAGE, package=pkg, role=role)
        legacy.add_edges_from(_edges(g))
        buffer = io.BytesIO()
        _ParentLayoutPickler(buffer, legacy, g.base_node).dump(g)
        blob = buffer.getvalue()
        assert b"networkx" in blob

        loaded = pickle.loads(blob)
        assert isinstance(loaded, SemanticGraph)
        assert _shape(loaded) == _shape(g)
        # and it keeps working as a graph
        loaded.add_package(make_package("new", "1.0"), PackageRole.PRIMARY)
        assert loaded.has_package("new")

    def test_new_pickles_name_no_third_party_class(self):
        g = build_sample()
        blob = pickle.dumps(g, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"networkx" not in blob
        assert _shape(pickle.loads(blob)) == _shape(g)
