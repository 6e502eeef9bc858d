"""Property-based tests on the dependency resolver.

Soundness over randomly generated catalogs: any resolvable request
yields a plan that is dependency-closed, correctly ordered and version
consistent — including catalogs with dependency cycles.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guestos import catalog as catalog_module
from repro.guestos.catalog import Catalog
from repro.model.package import DependencySpec, make_package


@st.composite
def catalogs(draw):
    """Random catalog over names p0..pN with random (cyclic) Depends."""
    n = draw(st.integers(min_value=1, max_value=10))
    names = [f"p{i}" for i in range(n)]
    packages = []
    for i, name in enumerate(names):
        dep_idx = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                max_size=3,
                unique=True,
            )
        )
        deps = tuple(
            DependencySpec(names[j]) for j in dep_idx if j != i
        )
        packages.append(
            make_package(
                name,
                "1.0",
                installed_size=draw(
                    st.integers(min_value=0, max_value=10**6)
                ),
                n_files=1,
                depends=deps,
            )
        )
    return Catalog(packages)


@given(catalogs(), st.data())
@settings(max_examples=150)
def test_plan_is_dependency_closed(catalog, data):
    name = data.draw(st.sampled_from(catalog.names()))
    plan = catalog.resolve([name])
    planned = set(plan.names())
    assert name in planned
    for pkg in plan.packages():
        for dep in pkg.dependency_names():
            assert dep in planned


@given(catalogs(), st.data())
@settings(max_examples=150)
def test_plan_order_respects_dependencies_modulo_cycles(catalog, data):
    """A dependency appears no later than its dependent unless the two
    share a strongly-connected component (a Depends cycle)."""
    import networkx as nx

    name = data.draw(st.sampled_from(catalog.names()))
    plan = catalog.resolve([name])
    order = {n: i for i, n in enumerate(plan.names())}

    g = nx.DiGraph()
    g.add_nodes_from(order)
    for pkg in plan.packages():
        for dep in pkg.dependency_names():
            if dep in order:
                g.add_edge(pkg.name, dep)
    scc_of = {}
    for i, comp in enumerate(nx.strongly_connected_components(g)):
        for node in comp:
            scc_of[node] = i
    for pkg in plan.packages():
        for dep in pkg.dependency_names():
            if dep in order and scc_of[dep] != scc_of[pkg.name]:
                assert order[dep] < order[pkg.name], (
                    f"{dep} must precede {pkg.name}"
                )


@given(catalogs(), st.data())
@settings(max_examples=100)
def test_plan_has_no_duplicates(catalog, data):
    name = data.draw(st.sampled_from(catalog.names()))
    plan = catalog.resolve([name])
    assert len(plan.names()) == len(set(plan.names()))


@given(catalogs(), st.data())
@settings(max_examples=100)
def test_preinstalled_never_replanned(catalog, data):
    name = data.draw(st.sampled_from(catalog.names()))
    full = {p.name: p for p in catalog.resolve([name]).packages()}
    plan = catalog.resolve([name], preinstalled=full)
    assert plan.names() == []


@given(catalogs(), st.data())
@settings(max_examples=100)
def test_auto_marks_exactly_non_requested(catalog, data):
    name = data.draw(st.sampled_from(catalog.names()))
    plan = catalog.resolve([name])
    for step in plan:
        assert step.auto == (step.package.name != name)


# ---------------------------------------------------------------------------
# build order: the dict-based resolver against the networkx oracle
# ---------------------------------------------------------------------------


def _networkx_dependency_order(chosen, preinstalled):
    """The networkx-backed build order the resolver used to run,
    kept verbatim as the reference the dict-based one must reproduce."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(chosen)
    for name, pkg in chosen.items():
        for dep in pkg.dependency_names():
            if dep in chosen:
                g.add_edge(name, dep)
    condensation = nx.condensation(g)
    # condensation is a DAG; topological order gives dependents first,
    # so reverse it to install dependencies first.
    order: list[str] = []
    for scc_id in reversed(list(nx.topological_sort(condensation))):
        members = sorted(condensation.nodes[scc_id]["members"])
        order.extend(members)
    return order


@contextmanager
def _checked_against_oracle():
    """Route every resolution's build order through both
    implementations and fail on the first disagreement."""
    real = catalog_module._dependency_order
    calls = []

    def checked(chosen, preinstalled):
        order = real(chosen, preinstalled)
        assert order == _networkx_dependency_order(chosen, preinstalled)
        calls.append(len(chosen))
        return order

    with mock.patch.object(catalog_module, "_dependency_order", checked):
        yield calls


@given(catalogs(), st.data())
@settings(max_examples=150)
def test_build_order_matches_networkx_oracle(catalog, data):
    packages = catalog.all_packages()
    # the whole catalog, in a drawn insertion order and as a drawn
    # subset (dependencies outside ``chosen`` must be ignored)
    shuffled = data.draw(st.permutations(packages))
    subset = data.draw(st.lists(st.sampled_from(packages), unique=True))
    for pool in (packages, shuffled, subset):
        chosen = {p.name: p for p in pool}
        assert catalog_module._dependency_order(
            chosen, {}
        ) == _networkx_dependency_order(chosen, {})
    # and on the ``chosen`` maps real resolutions build
    name = data.draw(st.sampled_from(catalog.names()))
    with _checked_against_oracle() as calls:
        catalog.resolve([name])
    assert calls


def test_catalog_data_resolutions_match_networkx_oracle():
    """Every resolution the shipped catalog performs: the base
    template, every package alone and on top of the base, and every
    Table II image build."""
    from repro.errors import ReproError
    from repro.workloads import standard_corpus
    from repro.workloads.catalog_data import base_template, build_catalog

    catalog = build_catalog()
    with _checked_against_oracle() as calls:
        base = catalog.resolve(base_template().package_names)
        preinstalled = {p.name: p for p in base.packages()}
        for name in catalog.names():
            catalog.resolve([name])
            try:
                catalog.resolve([name], preinstalled=preinstalled)
            except ReproError:
                pass  # conflicts with the base; nothing to order
        corpus = standard_corpus()
        for spec_name in corpus.table_ii_names():
            corpus.build(spec_name)
    assert len(calls) > 2 * len(catalog.names())
