"""Incidence matrices, line graphs, Beineke recognition, root recovery."""

import numpy as np
import pytest

from framegraphs.graphs import (
    Graph,
    GraphError,
    beineke,
    complete,
    cycle,
    delete_edge,
    enumerate_connected,
    hypercube,
    is_isomorphic,
    o_graph,
    path,
    star,
)
from framegraphs.linegraph import (
    LINE_GRAPH_MAX_N,
    ROOT_GRAPH_MAX_N,
    NotALineGraph,
    SizeLimitError,
    adjacency,
    contains_induced,
    is_line_graph,
    laplacian,
    line_graph,
    oriented_incidence,
    root_graph,
    unoriented_incidence,
)

import reference_linegraph as reference


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [path(5), cycle(6), complete(5), star(6), o_graph(5)])
def test_oriented_incidence_gives_laplacian(g):
    b = oriented_incidence(g).matrix
    assert np.array_equal(b @ b.T, laplacian(g))
    # One -1 (smaller endpoint) and one +1 per column.
    for j, (u, v) in enumerate(g.edges):
        assert b[u, j] == -1.0 and b[v, j] == 1.0
        assert np.count_nonzero(b[:, j]) == 2


@pytest.mark.parametrize("g", [path(5), cycle(6), complete(5)])
def test_unoriented_incidence_gives_line_adjacency(g):
    b = unoriented_incidence(g).matrix
    lg = line_graph(g).line
    assert np.array_equal(b.T @ b - 2 * np.eye(g.m), adjacency(lg))


def test_laplacian_row_sums_vanish():
    lap = laplacian(complete(6))
    assert np.array_equal(lap.sum(axis=0), np.zeros(6))


# ---------------------------------------------------------------------------
# Line graphs
# ---------------------------------------------------------------------------

def test_line_graph_of_families():
    assert is_isomorphic(line_graph(path(5)).line, path(4))
    assert is_isomorphic(line_graph(cycle(6)).line, cycle(6))
    assert is_isomorphic(line_graph(star(4)).line, complete(3))
    # L(K_4) is the octahedron: 6 vertices, all of degree 4.
    lk4 = line_graph(complete(4)).line
    assert lk4.n == 6 and lk4.degree_sequence() == (4,) * 6
    with pytest.raises(GraphError):
        line_graph(Graph(3, ()))


def test_line_graph_edge_order_matches_canonical():
    g = o_graph(4)
    lg = line_graph(g)
    assert lg.edge_to_vertex == tuple(range(g.m))
    for i in range(g.m):
        for j in range(i + 1, g.m):
            incident = bool(set(g.edges[i]) & set(g.edges[j]))
            assert lg.line.has_edge(i, j) == incident


# ---------------------------------------------------------------------------
# Induced-subgraph search
# ---------------------------------------------------------------------------

def test_contains_induced_positive():
    phi = contains_induced(path(6), path(4))
    assert phi is not None
    for u in range(4):
        for v in range(u + 1, 4):
            assert path(6).has_edge(phi[u], phi[v]) == path(4).has_edge(u, v)


def test_contains_induced_is_induced_not_subgraph():
    # K_4 contains P_4 as a subgraph but not as an induced subgraph.
    assert contains_induced(complete(4), path(4)) is None
    assert contains_induced(complete(5), star(4)) is None
    assert contains_induced(cycle(7), path(4)) is not None


def test_contains_induced_guard():
    with pytest.raises(GraphError):
        contains_induced(path(3), path(4))


# ---------------------------------------------------------------------------
# Beineke recognition
# ---------------------------------------------------------------------------

def test_beineke_graphs_are_not_line_graphs():
    for i in range(1, 10):
        verdict = is_line_graph(beineke(i))
        assert verdict is not True


def test_is_line_graph_witnesses():
    verdict = is_line_graph(hypercube(3))
    assert verdict is not True and verdict[1] == 1  # claw inside Q_3
    for n in range(5, 9):
        verdict = is_line_graph(delete_edge(complete(n), (0, 1)))
        assert verdict is not True and verdict[1] == 3
    # The returned embedding really induces the named pattern.
    g = delete_edge(complete(6), (0, 1))
    _, idx, phi = is_line_graph(g)
    pat = beineke(idx)
    for u in range(pat.n):
        for v in range(u + 1, pat.n):
            assert g.has_edge(phi[u], phi[v]) == pat.has_edge(u, v)


def test_is_line_graph_positive_cases():
    for g in (complete(3), path(5), cycle(6), line_graph(complete(5)).line,
              line_graph(complete(7)).line, complete(14), complete(30)):
        assert is_line_graph(g) is True


def test_is_line_graph_size_cap():
    with pytest.raises(SizeLimitError):
        is_line_graph(path(LINE_GRAPH_MAX_N + 1))


def _line_graph_catalog(max_vertices=7):
    """All line graphs on <= max_vertices vertices, from explicit roots.

    A connected line graph on k vertices comes from a connected root with
    k edges; roots with up to 7 edges have at most 8 vertices, and the
    8-vertex ones are exactly the trees.
    """
    roots = [g for n in range(2, 8) for g in enumerate_connected(n)
             if g.m <= max_vertices]
    trees7 = [g for g in enumerate_connected(7) if g.m == 6]
    trees8 = []
    for t in trees7:
        for u in range(t.n):
            cand = Graph.from_edges(t.n + 1, list(t.edges) + [(u, t.n)])
            if not any(is_isomorphic(cand, s) for s in trees8):
                trees8.append(cand)
    assert len(trees8) == 23  # known count of trees on 8 vertices
    catalog = {}
    for p in roots + trees8:
        lg = line_graph(p).line
        key = (lg.n, lg.m, lg.degree_sequence())
        bucket = catalog.setdefault(key, [])
        if not any(is_isomorphic(lg, h) for h in bucket):
            bucket.append(lg)
    return catalog


def test_is_line_graph_agrees_with_root_oracle():
    """Recognition matches brute-force root search on <= 7 vertices."""
    catalog = _line_graph_catalog()
    for n in range(2, 8):
        for g in enumerate_connected(n):
            key = (g.n, g.m, g.degree_sequence())
            expected = any(
                is_isomorphic(g, h) for h in catalog.get(key, ())
            )
            assert (is_line_graph(g) is True) == expected, g


# ---------------------------------------------------------------------------
# Root recovery
# ---------------------------------------------------------------------------

def test_root_graph_whitney_uniqueness():
    for n in range(4, 7):
        for p in enumerate_connected(n):
            lg = line_graph(p).line
            roots = root_graph(lg)
            if is_isomorphic(lg, complete(3)):
                # K_3 is the one ambiguous case: roots K_3 and K_{1,3}.
                assert len(roots) == 2
                assert any(is_isomorphic(r, p) for r in roots)
            else:
                assert len(roots) == 1
                assert is_isomorphic(roots[0], p)


def test_root_graph_of_triangle():
    roots = root_graph(complete(3))
    assert len(roots) == 2
    assert any(is_isomorphic(r, complete(3)) for r in roots)
    assert any(is_isomorphic(r, star(4)) for r in roots)


def test_root_graph_of_k1():
    roots = root_graph(Graph(1, ()))
    assert len(roots) == 1 and roots[0] == path(2)


def test_root_graph_rejects_non_line_graphs():
    with pytest.raises(NotALineGraph, match="G1"):
        root_graph(star(4))
    with pytest.raises(NotALineGraph, match="G3"):
        root_graph(delete_edge(complete(5), (0, 1)))


def test_root_graph_of_dense_line_graphs():
    (root,) = root_graph(complete(21))
    assert is_isomorphic(root, star(22))
    (root,) = root_graph(line_graph(complete(7)).line)
    assert is_isomorphic(root, complete(7))


def test_root_graph_guards():
    with pytest.raises(GraphError):
        root_graph(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(SizeLimitError):
        root_graph(cycle(ROOT_GRAPH_MAX_N + 1))


# ---------------------------------------------------------------------------
# Differential tests on every graph with at most 7 vertices
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def atlas():
    """networkx's graph atlas, disconnected graphs included, as (nx, Graph)
    pairs; the null graph at index 0 has no Graph counterpart."""
    nx = pytest.importorskip("networkx")
    pairs = [
        (a, Graph.from_edges(a.number_of_nodes(), a.edges()))
        for a in nx.graph_atlas_g()[1:]
    ]
    assert len(pairs) == 1252
    return pairs


def test_is_line_graph_matches_reference_search(atlas):
    for _, g in atlas:
        assert is_line_graph(g) == reference.is_line_graph(g), g


def _induced(search, g, h):
    try:
        return search(g, h)
    except GraphError:
        return "pattern larger than host"


def test_contains_induced_matches_reference_search(atlas):
    patterns = [beineke(i) for i in range(1, 10)] + [path(4)]
    for _, g in atlas:
        for h in patterns:
            assert _induced(contains_induced, g, h) == _induced(
                reference.contains_induced, g, h
            ), (g, h)


def test_is_line_graph_matches_networkx(atlas):
    nx = pytest.importorskip("networkx")

    def invertible(a):
        try:
            nx.inverse_line_graph(a)
        except nx.NetworkXError:
            return False
        return True

    for a, g in atlas:
        expected = all(
            invertible(a.subgraph(c))
            for c in nx.connected_components(a)
            if len(c) > 1
        )
        assert (is_line_graph(g) is True) == expected, g


def test_root_graph_matches_networkx(atlas):
    nx = pytest.importorskip("networkx")
    for a, g in atlas:
        if g.n < 2 or not nx.is_connected(a) or is_line_graph(g) is not True:
            continue
        inverse = nx.convert_node_labels_to_integers(nx.inverse_line_graph(a))
        expected = Graph.from_edges(inverse.number_of_nodes(), inverse.edges())
        roots = root_graph(g)
        assert len(roots) == (2 if is_isomorphic(g, complete(3)) else 1), g
        assert any(is_isomorphic(r, expected) for r in roots), g
