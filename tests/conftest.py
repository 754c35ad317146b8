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
