"""Fixtures shared by the differential tests."""

import pytest

from framegraphs.graphs import Graph


@pytest.fixture(scope="session")
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


@pytest.fixture(scope="session")
def views_match_networkx():
    """A check that a Graph's neighbour sets and bitmask rows both equal
    networkx's adjacency of the same edges."""
    nx = pytest.importorskip("networkx")

    def check(g):
        a = nx.Graph(g.edges)
        a.add_nodes_from(range(g.n))
        assert g._adj == tuple(frozenset(a[u]) for u in range(g.n)), g
        assert g._rows == tuple(sum(1 << w for w in a[u]) for u in range(g.n)), g

    return check
