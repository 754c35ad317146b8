"""Reference line-graph recognizer: the exhaustive Beineke search.

The library decides line-ness by searching for a Krausz partition and runs
the Beineke search only to name a witness.  This module keeps the plain
search over all nine forbidden induced subgraphs, with the original
``contains_induced``, so differential tests can require identical results.
It has no size cap; callers keep inputs small.
"""

from __future__ import annotations

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
