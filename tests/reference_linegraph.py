"""Reference line-graph recognizer: the exhaustive Beineke search, and the
Krausz partition search with a separate check before each clique's cover.

The library decides line-ness by searching for a Krausz partition and runs
the Beineke search only to name a witness.  This module keeps the plain
search over all nine forbidden induced subgraphs, with the original
``contains_induced``, so differential tests can require identical results.
It has no size cap; callers keep inputs small.  ``_krausz_partition`` is
the library's search as it was before each clique was checked and covered
in one pass: it checks every pair of a clique first, then covers it, so
the memberships the library finds must equal the ones it finds.
"""

from __future__ import annotations

import heapq
import itertools

from framegraphs.graphs import Graph, GraphError, beineke


def contains_induced(g: Graph, h: Graph) -> dict[int, int] | None:
    """An injective map V(h) -> V(g) inducing h exactly, or None.

    Backtracking over h's vertices in descending-degree order; adjacency
    and non-adjacency are both enforced, so the image induces h.
    """
    if h.n > g.n:
        raise GraphError("pattern graph is larger than host")
    gnbr = [g.neighbors(v) for v in range(g.n)]
    hnbr = [h.neighbors(u) for u in range(h.n)]
    order: list[int] = []
    remaining = set(range(h.n))
    while remaining:
        chosen = max(
            remaining,
            key=lambda u: (
                sum(1 for w in hnbr[u] if w in order), len(hnbr[u]), -u
            ),
        )
        order.append(chosen)
        remaining.remove(chosen)
    anchors = [
        [w for w in order[:k] if w in hnbr[order[k]]] for k in range(h.n)
    ]
    mapping: dict[int, int] = {}
    used = [False] * g.n

    def extend(k: int) -> bool:
        if k == h.n:
            return True
        u = order[k]
        if anchors[k]:
            cand = set(gnbr[mapping[anchors[k][0]]])
            for w in anchors[k][1:]:
                cand &= gnbr[mapping[w]]
            cand = sorted(cand)
        else:
            cand = range(g.n)
        for v in cand:
            if used[v] or len(gnbr[v]) < len(hnbr[u]):
                continue
            if all(
                (mapping[w] in gnbr[v]) == (w in hnbr[u]) for w in order[:k]
            ):
                mapping[u] = v
                used[v] = True
                if extend(k + 1):
                    return True
                del mapping[u]
                used[v] = False
        return False

    return dict(mapping) if extend(0) else None


def is_line_graph(g: Graph):
    """True, or (False, beineke_index, embedding) with a concrete witness."""
    for i in range(1, 10):
        pattern = beineke(i)
        if pattern.n <= g.n:
            embedding = contains_induced(g, pattern)
            if embedding is not None:
                return (False, i, embedding)
    return True


def _krausz_partition(g: Graph) -> list[list[int]] | None:
    """For each vertex of a connected g, the indices of its cliques in the
    first partition of g's edges into cliques with every vertex in <= 2 of
    them, in the order found; or None if there is no such partition.

    The first clique holds the edge from vertex 0 to its smallest neighbor,
    the anchor.  It is {0, anchor} + C, C their common neighbours, or that
    minus one w in C.  A left-out w lies in the second clique of 0 and in
    the second clique of the anchor; the two differ, as 0 and the anchor
    share the first, so an edge from w to another member of C could be
    covered by neither.  So w is tried only if it sees none of the rest of
    C and that rest is a clique, and then nothing else fits: at most two
    first cliques are tried.  After it, unit propagation decides the rest:
    a vertex in one clique with uncovered edges has its second clique
    forced to be its uncovered neighbourhood, and the next clique starts
    at the lowest such vertex.  The vertices in a clique wait on a heap,
    and one with no uncovered edge left is popped for good.  A vertex that
    lies in no clique has all of its edges uncovered, so its neighbours
    lie in no clique either; as g is connected, propagation covers every
    edge or fails a clique check, and never needs a branch.
    """
    if g.m == 0:
        return [[]]
    adj = g._adj
    anchor = min(adj[0])
    both = adj[0] & adj[anchor]
    common, k = sorted(both), len(both)
    # Twice C's edges: (k - 1)(k - 2) with w seeing none iff C - w is a clique.
    pairs = sum(len(adj[x] & both) for x in both)
    # Each fitting w left out in turn, from the last, then none.
    firsts = [[0, anchor, *(x for x in common if x != w)] for w in reversed(common)
              if pairs == (k - 1) * (k - 2) and not adj[w] & both]
    if pairs == k * (k - 1):
        firsts.append([0, anchor, *common])
    for s in firsts:
        uncovered = [set(a) for a in adj]
        member: list[list[int]] = [[] for _ in adj]
        joined: list[int] = []
        for index in itertools.count():
            if not all(len(member[u]) < 2 and uncovered[u].issuperset(s[i + 1:])
                       for i, u in enumerate(s)):
                break
            for u in s:
                if not member[u]:
                    heapq.heappush(joined, u)
                member[u].append(index)
                uncovered[u].difference_update(s)
            while joined and not uncovered[joined[0]]:
                heapq.heappop(joined)
            if not joined:
                return member
            s = [joined[0], *uncovered[joined[0]]]
    return None
