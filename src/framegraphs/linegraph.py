"""Incidence matrices, Laplacians, line graphs, and root-graph recovery.

Line graphs are recognized, and their roots recovered, by searching for
Krausz partitions: partitions of the edges into cliques with every vertex
in at most two of them.  Per connected component the search tries at most
deg + 1 first cliques and propagates each with no further branch, so it is
polynomial; by Whitney's theorem its first partition gives the one root
(K_3 has two).  A non-line graph is named by its first claw if it has
one, otherwise by a minimal forbidden induced subgraph found by deleting
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphs import Graph, GraphError, beineke, complete, components, is_connected, path, star


class NotALineGraph(GraphError):
    pass


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def oriented_incidence(g: Graph) -> np.ndarray:
    """Oriented incidence matrix with -1 at the smaller-index endpoint.

    Columns follow g.edges.  Satisfies B @ B.T == laplacian(g) exactly.
    """
    b = np.zeros((g.n, g.m))
    for j, (u, v) in enumerate(g.edges):
        b[u, j] = -1.0
        b[v, j] = 1.0
    return b


def unoriented_incidence(g: Graph) -> np.ndarray:
    """0/1 incidence matrix by g.edges; B^T B - 2I is the line graph's adjacency."""
    return np.abs(oriented_incidence(g))


def adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def laplacian(g: Graph) -> np.ndarray:
    """Degree matrix minus adjacency matrix."""
    lap = -adjacency(g)
    for u in range(g.n):
        lap[u, u] = g.degree(u)
    return lap


# ---------------------------------------------------------------------------
# Line graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineGraphMap:
    """Line graph of a root g: line vertex i is the edge g.edges[i]."""

    line: Graph


def line_graph(g: Graph) -> LineGraphMap:
    """Vertices are the edges of g (canonical order); adjacency is incidence."""
    if g.m < 1:
        raise GraphError("line graph needs at least one edge")
    # Two distinct edges of a simple graph share at most one endpoint, so
    # each adjacent pair comes from exactly one vertex's incident edges.
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)
    edges = [pair for inc in incident for pair in combinations(inc, 2)]
    return LineGraphMap(line=Graph(g.m, tuple(edges)))


def contains_induced(g: Graph, h: Graph) -> dict[int, int] | None:
    """An injective map V(h) -> V(g) inducing h exactly, or None.

    Backtracking over h's vertices in descending-degree order; adjacency
    and non-adjacency are both enforced, so the image induces h.
    Candidates are tried in increasing vertex order, so the embedding
    returned is the first one in that fixed search order.
    """
    if h.n > g.n:
        raise GraphError("pattern graph is larger than host")
    # Static search order: highest degree first, then greedily prefer
    # vertices with the most already-ordered neighbors, so candidates can
    # be anchored to neighborhoods of mapped images.
    order: list[int] = []
    remaining = set(range(h.n))
    while remaining:
        chosen = max(
            remaining,
            key=lambda u: (
                sum(1 for w in h.neighbors(u) if w in order), h.degree(u), -u
            ),
        )
        order.append(chosen)
        remaining.remove(chosen)
    # For each position k, the earlier positions whose images must be
    # adjacent to the image of order[k], and those whose images must not.
    joined = [
        [j for j in range(k) if h.has_edge(order[k], order[j])]
        for k in range(h.n)
    ]
    apart = [
        [j for j in range(k) if not h.has_edge(order[k], order[j])]
        for k in range(h.n)
    ]
    degree = [h.degree(u) for u in order]
    adj = g._adj
    image: list[int] = []

    def extend(k: int) -> bool:
        if k == h.n:
            return True
        if joined[k]:
            first, *others = joined[k]
            cand = adj[image[first]].intersection(*(adj[image[j]] for j in others))
        else:
            cand = frozenset(range(g.n))
        cand = cand.difference(image, *(adj[image[j]] for j in apart[k]))
        for v in sorted(cand):
            if len(adj[v]) < degree[k]:
                continue
            image.append(v)
            if extend(k + 1):
                return True
            image.pop()
        return False

    return dict(zip(order, image)) if extend(0) else None


def _induced(g: Graph, verts: list[int]) -> Graph:
    """The subgraph of g induced on verts, relabelled onto 0..k-1 in list order."""
    index = {v: i for i, v in enumerate(verts)}
    return Graph.from_edges(len(verts), [
        (index[u], index[w]) for u in verts for w in g._adj[u] if u < w and w in index
    ])


def _is_line(g: Graph) -> bool:
    """Whether every connected component of g has a Krausz partition."""
    parts = components(g)
    return all(_krausz_partition(g if len(parts) == 1 else _induced(g, verts)) is not None
               for verts in parts)


def _beineke_witness(g: Graph) -> tuple[bool, int, dict[int, int]]:
    """(False, i, embedding) for a Beineke graph G_i induced in a non-line g.

    The first claw (G1) if there is one.  Otherwise the vertices are
    deleted in ascending order, each while the rest stays non-line: at
    most n line tests.  No vertex of what remains can go, so it is a
    minimal non-line graph, and as it is claw-free it is one of G2..G9.
    """
    embedding = contains_induced(g, beineke(1))
    if embedding is not None:
        return (False, 1, embedding)
    keep = list(range(g.n))
    for v in range(g.n):
        rest = [u for u in keep if u != v]
        if not _is_line(_induced(g, rest)):
            keep = rest
    core = _induced(g, keep)
    for i in range(2, 10):
        pattern = beineke(i)
        embedding = contains_induced(core, pattern) if pattern.n == core.n else None
        if embedding is not None:
            return (False, i, {k: keep[w] for k, w in embedding.items()})
    raise AssertionError("no Krausz partition, yet no Beineke subgraph")


def is_line_graph(g: Graph):
    """True, or (False, beineke_index, embedding) with a concrete witness.

    Line-ness is decided by whether each connected component has a Krausz
    partition.  The witness is g's first claw if it has one, otherwise a
    minimal forbidden induced subgraph found by deleting vertices.
    """
    return True if _is_line(g) else _beineke_witness(g)


# ---------------------------------------------------------------------------
# Root graphs via Krausz partitions
# ---------------------------------------------------------------------------

def _krausz_partition(g: Graph) -> list[set[int]] | None:
    """The first partition of a connected g's edges into cliques, each
    vertex in <= 2 cliques, or None if there is none.

    The first clique holds the edge from vertex 0 to its smallest neighbor,
    the anchor.  It lies in {0, anchor} + C, C their common neighbors, and
    misses at most one w in C: two missed w, w' would lie in the second
    clique of both 0 and anchor, covering ww' twice.  After it, unit
    propagation decides the rest: a vertex in one clique with uncovered
    edges has its second clique forced to be its uncovered neighborhood.
    A vertex that lies in no clique has all of its edges uncovered, so its
    neighbours lie in no clique either; as g is connected, propagation
    covers every edge or fails a clique check, and never needs a branch.
    """
    if g.m == 0:
        return []
    anchor = min(g._adj[0])
    common = sorted(g._adj[0] & g._adj[anchor])
    # Each common neighbor left out in turn, then none.
    firsts = [
        [0, anchor, *common[:i], *common[i + 1:]]
        for i in reversed(range(len(common)))
    ]
    firsts.append([0, anchor, *common])
    for s in firsts:
        uncovered = [set(a) for a in g._adj]
        count = [0] * g.n
        cliques: list[set[int]] = []
        while all(
            count[u] < 2 and uncovered[u].issuperset(s[i + 1:])
            for i, u in enumerate(s)
        ):
            for u in s:
                count[u] += 1
                uncovered[u].difference_update(s)
            cliques.append(set(s))
            v = next((v for v in range(g.n) if count[v] and uncovered[v]), None)
            if v is None:
                return cliques
            s = [v, *uncovered[v]]
    return None


def _root_from_partition(g: Graph, cliques: list[set[int]]) -> Graph:
    member: list[list[int]] = [[] for _ in range(g.n)]
    for i, s in enumerate(cliques):
        for v in s:
            member[v].append(i)
    n_root = len(cliques)
    edges = []
    for v in range(g.n):
        cs = member[v]
        if len(cs) == 2:
            edges.append((cs[0], cs[1]))
        elif len(cs) == 1:
            edges.append((cs[0], n_root))  # pendant endpoint
            n_root += 1
        else:
            raise AssertionError("vertex outside every clique")
    return Graph.from_edges(n_root, edges)


def root_graph(g: Graph) -> list[Graph]:
    """All root graphs of a connected line graph, up to isomorphism.

    By Whitney's theorem that is one root, built from the first Krausz
    partition, for every connected line graph except K_3, which has the
    two roots K_3 and K_{1,3}.
    """
    if not is_connected(g):
        raise GraphError("root recovery needs a connected graph")
    if g.n == 1:
        return [path(2)]
    if g.n == 3 and g.m == 3:
        return [complete(3), star(4)]
    part = _krausz_partition(g)
    if part is None:
        # No Krausz partition; run the Beineke search to name a witness.
        _, index, _ = _beineke_witness(g)
        raise NotALineGraph(f"not a line graph (forbidden subgraph G{index})")
    return [_root_from_partition(g, part)]
