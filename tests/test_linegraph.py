"""Incidence matrices, line graphs, Beineke recognition, root recovery."""

import itertools
import random
import time

import numpy as np
import pytest

from framegraphs import graphs, linegraph
from framegraphs.constructions import oriented_incidence
from framegraphs.graphs import (
    Graph,
    GraphError,
    beineke,
    complete,
    components,
    cycle,
    delete_edge,
    edgeless,
    enumerate_connected,
    hypercube,
    is_connected,
    join,
    o_graph,
    path,
    star,
)
from framegraphs.linegraph import (
    NotALineGraph,
    contains_induced,
    is_line_graph,
    line_graph,
    root_graph,
)

import reference_linegraph as reference
from reference_graphs import is_isomorphic


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def _nx(g):
    """g as a networkx graph on the nodes 0..n-1, in order."""
    nx = pytest.importorskip("networkx")
    a = nx.Graph(g.edges)
    a.add_nodes_from(range(g.n))
    return nx, a


@pytest.mark.parametrize("g", [path(5), cycle(6), complete(5), star(6), o_graph(5)])
def test_oriented_incidence_gives_laplacian(g):
    b = oriented_incidence(g)
    nx, a = _nx(g)
    assert np.array_equal(b @ b.T, nx.laplacian_matrix(a, nodelist=range(g.n)).toarray())
    # One -1 (smaller endpoint) and one +1 per column.
    for j, (u, v) in enumerate(g.edges):
        assert b[u, j] == -1.0 and b[v, j] == 1.0
        assert np.count_nonzero(b[:, j]) == 2


@pytest.mark.parametrize("g", [path(5), cycle(6), complete(5)])
def test_unoriented_incidence_gives_line_adjacency(g):
    b = np.abs(oriented_incidence(g))
    nx, a = _nx(line_graph(g).line)
    assert np.array_equal(b.T @ b - 2 * np.eye(g.m), nx.to_numpy_array(a, nodelist=range(g.m)))


def test_laplacian_row_sums_vanish():
    b = oriented_incidence(complete(6))
    lap = b @ b.T
    nx, a = _nx(complete(6))
    assert np.array_equal(lap, nx.laplacian_matrix(a, nodelist=range(6)).toarray())
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


def test_line_graph_views_match_networkx(views_match_networkx):
    # Both adjacency views of each line graph, derived from its edges,
    # equal networkx's adjacency.
    lk12 = line_graph(complete(12)).line
    roots = [g for n in range(2, 8) for g in enumerate_connected(n)] + [complete(12), lk12]
    for g in roots:
        views_match_networkx(line_graph(g).line)


def test_line_graph_edge_order_matches_canonical():
    g = o_graph(4)
    lg = line_graph(g)
    assert lg.line.n == g.m
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


def _assert_induces(g, idx, phi):
    """phi maps the vertices of G_idx injectively into g and induces it."""
    pat = beineke(idx)
    assert sorted(phi) == list(range(pat.n)) and len(set(phi.values())) == pat.n
    for u in range(pat.n):
        for v in range(u + 1, pat.n):
            assert g.has_edge(phi[u], phi[v]) == pat.has_edge(u, v)


def _cocktail_party(k):
    """K_{2xk}: k pairs {2i, 2i + 1}, every vertex adjacent to all but its partner."""
    return Graph.from_edges(2 * k, [
        (u, v) for u in range(2 * k) for v in range(u + 1, 2 * k) if u // 2 != v // 2
    ])


def _count_krausz_searches(monkeypatch):
    """The order of every graph searched for a Krausz partition from now on."""
    calls = []
    search = linegraph._krausz_partition
    monkeypatch.setattr(linegraph, "_krausz_partition",
                        lambda g: calls.append(g.n) or search(g))
    return calls


def test_is_line_graph_witnesses(monkeypatch):
    verdict = is_line_graph(hypercube(3))
    assert verdict is not True and verdict[1] == 1  # claw inside Q_3
    # The returned embedding really induces the named pattern, also past
    # the 30 vertices recognition was once capped at.
    lk9 = line_graph(complete(9)).line
    g = delete_edge(lk9, lk9.edges[0])
    _, idx, phi = is_line_graph(g)
    _assert_induces(g, idx, phi)
    # On claw-free inputs, K_n - e and the cocktail party K_{2x10}, the
    # witness is named with no Krausz search: the one search made decides
    # line-ness.  Counted rather than timed.
    calls = _count_krausz_searches(monkeypatch)
    for g in [delete_edge(complete(n), (0, 1)) for n in range(5, 51)] + [_cocktail_party(10)]:
        calls.clear()
        verdict = is_line_graph(g)
        assert verdict is not True and verdict[1] == 3  # K_5 - e
        _assert_induces(g, 3, verdict[2])
        assert len(calls) == 1


def test_witness_searches_no_line_component_again(monkeypatch):
    # L(K_14) on vertices 0..90 beside the non-line K_{2x4} on 91..98:
    # each component is searched once, in order, when line-ness is
    # decided, and naming the witness searches neither again.
    lk14 = line_graph(complete(14)).line
    g = Graph.from_edges(99, list(lk14.edges) + [
        (91 + u, 91 + v) for u, v in _cocktail_party(4).edges
    ])
    calls = _count_krausz_searches(monkeypatch)
    verdict = is_line_graph(g)
    assert verdict[1] == 3 and min(verdict[2].values()) >= 91
    _assert_induces(g, 3, verdict[2])
    assert calls == [91, 8]


def test_components_are_built_without_the_checking_constructor(monkeypatch):
    # Two copies of L(K_5), on 0..9 and 10..19, beside a claw centred at 20:
    # recognition builds each component with Graph._derived, so it names
    # the claw, in the input's labels, with Graph.__post_init__ disabled.
    lk5 = line_graph(complete(5)).line
    edges = [e for k in (0, 10) for e in ((u + k, v + k) for u, v in lk5.edges)]
    edges += [(20, 21), (20, 22), (20, 23)]

    def refuse(self):
        raise AssertionError("Graph() ran on a derived graph")

    monkeypatch.setattr(graphs.Graph, "__post_init__", refuse)
    g = Graph._derived(24, tuple(sorted(edges)))
    assert is_line_graph(g) == (False, 1, {0: 20, 1: 21, 2: 22, 3: 23})


def test_witness_lies_in_first_non_line_component():
    # Two claws, on 0, 10, 11, 12 and on 1..4: the witness is the claw of
    # the first component, not the first claw of the whole graph.
    g = Graph.from_edges(13, [(0, 10), (10, 11), (10, 12), (1, 2), (1, 3), (1, 4)])
    verdict = is_line_graph(g)
    assert verdict[1] == 1 and set(verdict[2].values()) == {0, 10, 11, 12}
    _assert_induces(g, 1, verdict[2])


def test_is_line_graph_positive_cases():
    for g in (complete(3), path(5), cycle(6), line_graph(complete(5)).line,
              line_graph(complete(7)).line, complete(14), complete(30),
              complete(60), line_graph(complete(12)).line):
        assert is_line_graph(g) is True


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
    # Whitney's one exception, returned as K_3 then the claw, as labelled.
    assert [(r.n, r.edges) for r in roots] == [
        (3, complete(3).edges), (4, star(4).edges)
    ]


def test_root_graph_of_k1():
    roots = root_graph(Graph(1, ()))
    assert len(roots) == 1 and roots[0] == path(2)


def test_root_graph_rejects_non_line_graphs():
    with pytest.raises(NotALineGraph, match="G1"):
        root_graph(star(4))
    with pytest.raises(NotALineGraph, match="G3"):
        root_graph(delete_edge(complete(5), (0, 1)))
    lk9 = line_graph(complete(9)).line  # 36 vertices
    with pytest.raises(NotALineGraph, match="G1"):
        root_graph(delete_edge(lk9, lk9.edges[0]))


def test_root_graph_of_dense_line_graphs():
    (root,) = root_graph(complete(21))
    assert is_isomorphic(root, star(22))
    (root,) = root_graph(line_graph(complete(7)).line)
    assert is_isomorphic(root, complete(7))
    # Past the 21 vertices root recovery was once capped at.
    (root,) = root_graph(complete(40))
    assert is_isomorphic(root, star(41))
    (root,) = root_graph(cycle(60))
    assert is_isomorphic(root, cycle(60))


def _timed(f, *args):
    """f(*args), asserting that the call takes under a second."""
    start = time.perf_counter()
    result = f(*args)
    assert time.perf_counter() - start < 1.0
    return result


# Each next clique starts at the lowest vertex with an uncovered edge, found
# without a scan over all vertices, and at most two first cliques are
# tried, so none of these three is quadratic in its input.  Each input's
# adjacency is built before the timed call.

def test_root_of_a_long_path():
    g = path(30000)
    g._adj
    (root,) = _timed(root_graph, g)
    degrees = [len(a) for a in root._adj]
    assert (root.n, root.m, max(degrees)) == (30001, 30000, 2) and is_connected(root)
    # The line path reads neighbour sets only: bitmask rows take O(n^2) bits.
    assert "_rows" not in vars(g) and "_rows" not in vars(root)


def test_large_complete_graph_is_a_line_graph():
    g = complete(600)
    g._adj
    assert _timed(is_line_graph, g) is True
    assert "_rows" not in vars(g)


def test_no_first_clique_fits_among_many_common_neighbours():
    # K_2 joined to 4000 isolated vertices: 0 and 1 have 4000 pairwise
    # non-adjacent common neighbours.
    g = join(complete(2), edgeless(4000))
    g._adj
    verdict = _timed(is_line_graph, g)
    assert verdict is not True and verdict[1] == 1
    _assert_induces(g, 1, verdict[2])


def test_krausz_memberships_partition_the_edges(atlas):
    # Each vertex lies in at most two cliques, indexed in the order found;
    # the cliques are cliques and cover every edge exactly once.
    for _, g in atlas:
        if not is_connected(g):
            continue
        member = linegraph._krausz_partition(g)
        assert (member is not None) == (is_line_graph(g) is True), g
        if member is None:
            continue
        cliques = {}
        for v, cs in enumerate(member):
            assert len(cs) <= 2 and cs == sorted(set(cs)), g
            for c in cs:
                cliques.setdefault(c, []).append(v)
        assert sorted(cliques) == list(range(len(cliques))), g
        covered = [e for c in cliques.values() for e in itertools.combinations(c, 2)]
        assert sorted(covered) == list(g.edges), g


def _relabelled_line_graphs(rng, count=80):
    """Line graphs of seeded random roots with 2 to 60 edges, relabelled by
    a random permutation, each followed by a copy with one adjacency
    toggled; many roots, and so many of these graphs, are disconnected."""
    graphs = []
    while len(graphs) < 2 * count:
        n, p = rng.randint(2, 16), rng.uniform(0.1, 0.9)
        root = Graph.from_edges(n, [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ])
        if not 2 <= root.m <= 60:
            continue
        lg = line_graph(root).line
        perm = list(range(lg.n))
        rng.shuffle(perm)
        edges = {tuple(sorted((perm[u], perm[v]))) for u, v in lg.edges}
        toggled = tuple(sorted(rng.sample(range(lg.n), 2)))
        graphs += [Graph.from_edges(lg.n, edges), Graph.from_edges(lg.n, edges ^ {toggled})]
    return graphs


def test_krausz_partition_matches_reference(atlas):
    # The search checks and covers each clique in one pass; the reference
    # checks every pair of a clique before it covers it.  Both must find the
    # same memberships, or both None, on every connected component.
    rng = random.Random(35)
    inputs = [g for _, g in atlas if is_connected(g)] + _relabelled_line_graphs(rng)
    inputs += [line_graph(complete(k)).line for k in range(2, 13)]
    inputs += [_cocktail_party(k) for k in range(1, 11)]
    inputs += [join(complete(2), edgeless(k)) for k in range(1, 31)]
    found = set()
    for g in inputs:
        for verts in components(g):
            comp = g if len(verts) == g.n else linegraph._induced(g, verts)
            member = linegraph._krausz_partition(comp)
            assert member == reference._krausz_partition(comp), comp
            found.add(member is None)
    assert found == {True, False}


def test_krausz_search_decides_connectivity(atlas):
    # The search covers vertex 0's component only, so on a disconnected
    # graph it ends with a vertex in no clique, or finds vertex 0 with no
    # neighbour: None, as for a non-line graph.
    disconnected = [g for _, g in atlas if not is_connected(g)]
    assert any(g.m == 0 for g in disconnected)
    assert any(g.m and not g.neighbors(0) for g in disconnected)
    for g in disconnected:
        assert linegraph._krausz_partition(g) is None, g
        assert linegraph.root_edges(g) is None, g


def test_root_graph_guards():
    # A disconnected graph is refused as such, even where its first
    # component is no line graph.
    for g in (
        Graph(4, [(0, 1), (2, 3)]),  # 2K_2
        Graph(6, [(0, 1), (0, 2), (0, 3), (4, 5)]),  # claw + K_2
        Graph(6, [(0, 1), (2, 3), (2, 4), (2, 5)]),  # K_2 + claw
        Graph(4, [(1, 2), (1, 3), (2, 3)]),  # K_1 + K_3
    ):
        with pytest.raises(GraphError, match="needs a connected graph") as refused:
            root_graph(g)
        assert refused.type is GraphError, g


def test_root_graph_walks_only_after_a_failed_search(monkeypatch):
    walks, reach = [], graphs._reach

    def counted(adj, s, seen):
        walks.append(s)
        return reach(adj, s, seen)

    monkeypatch.setattr(graphs, "_reach", counted)
    (root,) = root_graph(line_graph(complete(6)).line)
    assert walks == [] and is_isomorphic(root, complete(6))
    with pytest.raises(GraphError, match="needs a connected graph"):
        root_graph(Graph(4, [(0, 1), (2, 3)]))
    assert walks == [0]


# ---------------------------------------------------------------------------
# Differential tests on every graph with at most 7 vertices
# ---------------------------------------------------------------------------

def test_is_line_graph_matches_reference_search(atlas):
    """Identical to the exhaustive search on line graphs and on graphs with
    a claw; on claw-free non-line graphs the witness is a forbidden
    subgraph among odd triangles, which need not be the lowest-index G_i
    the search names."""
    for _, g in atlas:
        verdict, expected = is_line_graph(g), reference.is_line_graph(g)
        if expected is True or expected[1] == 1:
            assert verdict == expected, g
        else:
            assert verdict is not True and verdict[1] >= 2 and expected[1] >= 2, g
            _assert_induces(g, verdict[1], verdict[2])


def _induced(search, g, h):
    try:
        return search(g, h)
    except GraphError:
        return "pattern larger than host"


def _hosts_beyond_atlas():
    """K_n - e for n = 8..30, the cocktail parties K_{2xk} for k <= 10 and
    seeded random graphs on 8 to 20 vertices."""
    hosts = [delete_edge(complete(n), (0, 1)) for n in range(8, 31)]
    hosts += [_cocktail_party(k) for k in range(1, 11)]
    rng = random.Random(9)
    for _ in range(40):
        n, p = rng.randint(8, 20), rng.uniform(0.2, 0.9)
        hosts.append(Graph.from_edges(n, [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]))
    return hosts


def test_contains_induced_matches_reference_search(atlas):
    patterns = [beineke(i) for i in range(1, 10)] + [path(4)]
    for _, g in atlas:
        for h in patterns:
            assert _induced(contains_induced, g, h) == _induced(
                reference.contains_induced, g, h
            ), (g, h)
    # Past the atlas every pattern is compared up to 14 vertices.  On
    # larger hosts only G1 and P_4 are: the program searches the others
    # only on small graphs, and on K_30 - e the reference alone needs
    # about 35 s for G5 on a shared 2-vCPU x86-64 machine (its search
    # visits every K_4 of the host).
    for g in _hosts_beyond_atlas():
        for h in patterns if g.n <= 14 else [beineke(1), path(4)]:
            assert _induced(contains_induced, g, h) == _induced(
                reference.contains_induced, g, h
            ), (g, h)


def test_contains_induced_matches_networkx_on_dense_hosts():
    # Dense hosts past the reference comparison's 14 vertices, where the
    # masked row of the step rule prunes most candidates: networkx's
    # induced matcher decides containment, and every returned map induces
    # its pattern.
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    hosts = [delete_edge(complete(n), (0, 1)) for n in (15, 18)]
    rng = random.Random(4)
    for _ in range(3):
        hosts.append(Graph.from_edges(16, [
            (u, v) for u in range(16) for v in range(u + 1, 16) if rng.random() < 0.8
        ]))
    patterns = [beineke(i) for i in range(1, 10)] + [path(4)]
    for g in hosts:
        a = nx.Graph(g.edges)
        a.add_nodes_from(range(g.n))
        for h in patterns:
            b = nx.Graph(h.edges)
            b.add_nodes_from(range(h.n))
            phi = contains_induced(g, h)
            assert (phi is not None) == GraphMatcher(a, b).subgraph_is_isomorphic(), (g, h)
            if phi is not None:
                assert sorted(phi) == list(range(h.n)) and len(set(phi.values())) == h.n
                assert all(g.has_edge(phi[u], phi[v]) == h.has_edge(u, v)
                           for u, v in itertools.combinations(range(h.n), 2))


def test_claw_scan_matches_induced_search(atlas):
    """The bitmask claw scan that names G1 returns the embedding the
    induced-map search returns, on the atlas, every join the join-line
    sweep checks at max-n 5, and the hosts past the atlas."""
    pool = [g for k in range(3, 6) for g in enumerate_connected(k)]
    joins = [join(g, h) for i, g in enumerate(pool) for h in pool[i:]]
    for g in [g for _, g in atlas] + joins + _hosts_beyond_atlas():
        expected = contains_induced(g, beineke(1)) if g.n >= 4 else None
        assert linegraph._claw(g) == expected, g


def test_contains_induced_has_no_recursion_limit():
    g, h = path(1200), path(1100)
    phi = contains_induced(g, h)
    assert phi is not None and sorted(phi) == list(range(h.n))
    image = set(phi.values())
    assert len(image) == h.n
    # The image spans exactly h's edges, so it induces h.
    assert all(g.has_edge(phi[u], phi[v]) for u, v in h.edges)
    assert sum(1 for u, v in g.edges if u in image and v in image) == h.m


def _invertible(nx, a):
    """Whether networkx finds a root of the connected graph a."""
    try:
        nx.inverse_line_graph(a)
    except nx.NetworkXError:
        return False
    return True


def test_is_line_graph_matches_networkx(atlas):
    nx = pytest.importorskip("networkx")
    for a, g in atlas:
        expected = all(
            _invertible(nx, a.subgraph(c))
            for c in nx.connected_components(a)
            if len(c) > 1
        )
        assert (is_line_graph(g) is True) == expected, g


def _toggled_line_graphs(count=60):
    """Line graphs of seeded random roots on 4 to 14 vertices, with 3 to
    60 edges and one adjacency toggled; many roots are disconnected."""
    rng = random.Random(10)
    graphs = []
    while len(graphs) < count:
        n, p = rng.randint(4, 14), rng.uniform(0.1, 0.8)
        root = Graph.from_edges(n, [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ])
        if not 3 <= root.m <= 60:
            continue
        lg = line_graph(root).line
        toggled = tuple(sorted(rng.sample(range(lg.n), 2)))
        graphs.append(Graph.from_edges(lg.n, set(lg.edges) ^ {toggled}))
    return graphs


def test_is_line_graph_beyond_atlas(monkeypatch):
    """Past the atlas, line-ness matches networkx, every witness induces
    its G_i, and each component up to the first non-line one is searched
    for a Krausz partition exactly once, naming the witness included."""
    nx = pytest.importorskip("networkx")
    inputs = _toggled_line_graphs() + [
        delete_edge(complete(n), (0, 1)) for n in range(5, 51)
    ] + [_cocktail_party(k) for k in range(1, 11)]
    calls = _count_krausz_searches(monkeypatch)
    named = set()
    for g in inputs:
        a = nx.Graph(g.edges)
        a.add_nodes_from(range(g.n))
        comps = sorted(nx.connected_components(a), key=min)
        line = [len(c) == 1 or _invertible(nx, a.subgraph(c)) for c in comps]
        searched = line.index(False) + 1 if False in line else len(comps)
        calls.clear()
        verdict = is_line_graph(g)
        assert (verdict is True) == all(line), g
        if verdict is not True:
            _assert_induces(g, verdict[1], verdict[2])
            named.add(verdict[1])
        assert calls == [len(c) for c in comps[:searched]], g
    # Both kinds of witness occur: claws and claw-free ones.
    assert 1 in named and named - {1}


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
