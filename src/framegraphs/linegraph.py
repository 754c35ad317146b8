"""Incidence matrices, Laplacians, line graphs, and root-graph recovery.

Line graphs are recognized, and their roots recovered, by searching for
Krausz partitions: partitions of the edges into cliques with every vertex
in at most two of them.  The search branches once per connected component,
over at most deg + 1 candidate cliques, and unit propagation settles the
rest, so it is polynomial and takes graphs of any order.  Beineke's nine
forbidden induced subgraphs are searched only for non-line graphs, to name
a concrete witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, beineke, is_connected, is_isomorphic, path


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
    b = np.zeros((g.n, g.m))
    for j, (u, v) in enumerate(g.edges):
        b[u, j] = 1.0
        b[v, j] = 1.0
    return b


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
    edges = []
    for i in range(g.m):
        for j in range(i + 1, g.m):
            if set(g.edges[i]) & set(g.edges[j]):
                edges.append((i, j))
    return LineGraphMap(line=Graph.from_edges(g.m, edges))


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


def _components(g: Graph) -> list[Graph]:
    """The connected components of g, each relabelled onto 0..k-1."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        verts = [s]
        for u in verts:
            for w in g._adj[u]:
                if not seen[w]:
                    seen[w] = True
                    verts.append(w)
        if len(verts) == g.n:
            return [g]
        index = {v: i for i, v in enumerate(verts)}
        comps.append(Graph.from_edges(len(verts), [
            (index[u], index[w]) for u in verts for w in g._adj[u] if u < w
        ]))
    return comps


def _beineke_witness(g: Graph) -> tuple[bool, int, dict[int, int]]:
    """(False, i, embedding) for the first Beineke graph G_i inside g.

    Only called on graphs with no Krausz partition, which by the
    Krausz-Beineke theorem contain one of the nine.
    """
    for i in range(1, 10):
        pattern = beineke(i)
        if pattern.n <= g.n:
            embedding = contains_induced(g, pattern)
            if embedding is not None:
                return (False, i, embedding)
    raise AssertionError("no Krausz partition, yet no Beineke subgraph")


def is_line_graph(g: Graph):
    """True, or (False, beineke_index, embedding) with a concrete witness.

    Line-ness is decided by whether each connected component has a Krausz
    partition; the Beineke search runs only on non-line graphs, to name
    the first forbidden induced subgraph in the order G1..G9.
    """
    if all(next(_krausz_partitions(c), None) is not None for c in _components(g)):
        return True
    return _beineke_witness(g)


# ---------------------------------------------------------------------------
# Root graphs via Krausz partitions
# ---------------------------------------------------------------------------

def _krausz_partitions(g: Graph):
    """Yield all partitions of E(g) into cliques, each vertex in <= 2 cliques.

    Unit propagation: once a vertex lies in one clique and still has
    uncovered edges, its second clique is forced to be the whole uncovered
    neighborhood.  Branching happens only at a vertex in no clique yet, on
    the clique holding its edge to its first uncovered neighbor, the
    anchor.  That clique lies in {branch, anchor} + C, where C is the set
    of their common uncovered neighbors, and misses at most one w in C:
    two missed vertices w, w' would lie both in the second clique of
    branch and in that of anchor, covering the edge ww' twice.  So there
    are at most |C| + 1 candidates, and propagation from any of them
    settles the whole connected component.
    """
    uncovered = [set(a) for a in g._adj]
    count = [0] * g.n
    cliques: list[frozenset[int]] = []

    def clique_ok(s: list[int]) -> bool:
        return all(
            count[u] < 2 and uncovered[u].issuperset(s[i + 1:])
            for i, u in enumerate(s)
        )

    def place(s: list[int]):
        for u in s:
            count[u] += 1
            uncovered[u].difference_update(s)
        cliques.append(frozenset(s))

    def unplace(s: list[int]):
        cliques.pop()
        for u in s:
            count[u] -= 1
            uncovered[u].update(w for w in s if w != u)

    def search():
        # Propagate all forced cliques before branching.
        placed: list[list[int]] = []
        ok = True
        while True:
            v = next((v for v in range(g.n) if count[v] and uncovered[v]), None)
            if v is None:
                break
            forced = [v, *uncovered[v]]
            if not clique_ok(forced):
                ok = False
                break
            place(forced)
            placed.append(forced)
        if ok:
            branch = next((v for v in range(g.n) if uncovered[v]), None)
            if branch is None:
                yield [set(s) for s in cliques]
            else:
                anchor = min(uncovered[branch])
                common = sorted(uncovered[branch] & uncovered[anchor])
                # Each common neighbor left out in turn, then none.
                candidates = [
                    [branch, anchor, *common[:i], *common[i + 1:]]
                    for i in reversed(range(len(common)))
                ]
                candidates.append([branch, anchor, *common])
                for s in candidates:
                    if clique_ok(s):
                        place(s)
                        yield from search()
                        unplace(s)
        for s in reversed(placed):
            unplace(s)

    yield from search()


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

    A single graph for every connected line graph except K_3, which has
    the two roots K_3 and K_{1,3}.
    """
    if not is_connected(g):
        raise GraphError("root recovery needs a connected graph")
    if g.n == 1:
        return [path(2)]
    roots: list[Graph] = []
    for part in _krausz_partitions(g):
        root = _root_from_partition(g, part)
        if not any(is_isomorphic(root, r) for r in roots):
            roots.append(root)
    if not roots:
        # No Krausz partition; run the Beineke search to name a witness.
        _, index, _ = _beineke_witness(g)
        raise NotALineGraph(f"not a line graph (forbidden subgraph G{index})")
    return roots
