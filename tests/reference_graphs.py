"""Reference enumeration, isomorphism and edge-cycle check on Graphs.

The library reads its enumeration from a committed table, whose
generator (tools/connected_table.py) works on bitmask rows and skips
subsets that a twin swap makes redundant, and it has no isomorphism test:
classify labels each catalog family by its structure.  This module keeps
the plain versions: a recursive, degree-pruned ``find_isomorphism`` (and
``is_isomorphic``), the oracle the tests compare graphs with, the plan
that the library's induced-map search follows (``match_steps``), and an
``enumerate_connected`` that builds a Graph for every candidate and tests
it against each kept graph with the same invariant key, so differential
tests can require identical results.
It has no size cap; callers keep inputs small.

``edge_cycle_check`` is the necessary condition that every edge of a tight
frame graph on >= 3 vertices lies on a 3- or 4-cycle.  The library has no
such test: it refutes only graphs that the common-neighbour test already
refutes, which test_verify and test_acceptance pin.
"""

from __future__ import annotations

import functools

from framegraphs.graphs import Graph


def _neighbours(g: Graph) -> list[frozenset[int]]:
    return [g.neighbors(u) for u in range(g.n)]


def _triangle_counts(g: Graph, nbr: list[frozenset[int]]) -> tuple[int, ...]:
    counts = [0] * g.n
    for u, v in g.edges:
        shared = len(nbr[u] & nbr[v])
        counts[u] += shared
        counts[v] += shared
    return tuple(counts)


def _invariant_key(g: Graph, nbr: list[frozenset[int]]):
    tri = _triangle_counts(g, nbr)
    local = sorted(
        (len(nbr[u]), tri[u], tuple(sorted(len(nbr[w]) for w in nbr[u])))
        for u in range(g.n)
    )
    return (g.n, g.m, tuple(local))


def _search_order(g: Graph, nbr: list[frozenset[int]]) -> list[int]:
    """Greedy: next the vertex with the most neighbours already ordered,
    then the highest degree, then the lowest index."""
    ordered = [0] * g.n
    order: list[int] = []
    remaining = set(range(g.n))
    while remaining:
        u = max(remaining, key=lambda v: (ordered[v], len(nbr[v]), -v))
        order.append(u)
        remaining.remove(u)
        for w in nbr[u]:
            ordered[w] += 1
    return order


def find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """An adjacency-preserving bijection V(g) -> V(h), or None.

    Backtracking with degree-sequence pruning; the returned map is the
    first one found under the fixed search order.
    """
    if g.n != h.n or g.m != h.m:
        return None
    gnbr, hnbr = _neighbours(g), _neighbours(h)
    if _invariant_key(g, gnbr) != _invariant_key(h, hnbr):
        return None
    order = _search_order(g, gnbr)
    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(k: int) -> bool:
        if k == g.n:
            return True
        u = order[k]
        for v in range(h.n):
            if used[v] or len(gnbr[u]) != len(hnbr[v]):
                continue
            ok = True
            for w in order[:k]:
                if (w in gnbr[u]) != (mapping[w] in hnbr[v]):
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used[v] = True
                if extend(k + 1):
                    return True
                mapping[u] = -1
                used[v] = False
        return False

    return {u: mapping[u] for u in range(g.n)} if extend(0) else None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None


def match_steps(g: Graph) -> list[tuple[int, tuple[int, ...], int]]:
    """Per position k of the search order: order[k], its earlier
    neighbours in ascending order, and the lowest earlier non-neighbour,
    or -1 if there is none."""
    nbr = _neighbours(g)
    order = _search_order(g, nbr)
    steps = []
    for k, u in enumerate(order):
        earlier = sorted(order[:k])
        far = [w for w in earlier if w not in nbr[u]]
        steps.append((u, tuple(w for w in earlier if w in nbr[u]), far[0] if far else -1))
    return steps


@functools.cache
def enumerate_connected(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one per isomorphism class, in
    the order of their first candidate: each graph on n - 1 vertices in
    turn, with a new vertex joined to each non-empty subset, taken as a
    bitmask in ascending order."""
    if n == 1:
        return [Graph(1, ())]
    buckets: dict[object, list[Graph]] = {}
    out = []
    for parent in enumerate_connected(n - 1):
        for mask in range(1, 1 << (n - 1)):
            new = [(i, n - 1) for i in range(n - 1) if mask >> i & 1]
            cand = Graph.from_edges(n, list(parent.edges) + new)
            bucket = buckets.setdefault(_invariant_key(cand, _neighbours(cand)), [])
            if not any(find_isomorphism(cand, seen) is not None for seen in bucket):
                bucket.append(cand)
                out.append(cand)
    return out


def edge_cycle_check(g: Graph) -> tuple[int, int] | None:
    """The first edge, in g.edges order, on no 3-cycle and no 4-cycle; None
    if every edge lies on one."""
    nbr = _neighbours(g)
    for u, v in g.edges:
        on_c3 = bool(nbr[u] & nbr[v])
        on_c4 = any(w != x and x in nbr[w] for w in nbr[u] - {v} for x in nbr[v] - {u})
        if not (on_c3 or on_c4):
            return (u, v)
    return None
