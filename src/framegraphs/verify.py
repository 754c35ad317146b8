"""Obstruction tests and the tight-frame-graph classification pipeline.

A graph is certified tight by attaching a verified tight frame whose Gram
pattern equals the graph, refuted by a concrete obstruction witness, or
annotated from the literature; everything else is reported unknown.
frames, constructions and numpy load only to build a catalog or verify a
match, so the obstruction tests, the sweeps that classify nothing and the
classification of a graph that no catalog family fits run without them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import graphs
from .graphs import ENUMERATION_MAX_N, Graph, GraphError, beineke, contains_induced, \
    enumerate_connected, is_connected, path
from .linegraph import is_line_graph, line_graph, root_edges

if TYPE_CHECKING:
    from .frames import Frame


@dataclass(frozen=True, eq=False)
class Certificate:
    """Evidence for or against the tight-frame-graph property.

    verdict is one of "tight", "not_tight", "literature_not_tight",
    "unknown".  Tight certificates carry a verified frame whose Gram
    pattern equals the input as a labeled graph; a tight frame in
    dimension d also certifies msr <= d.
    """

    verdict: str
    detail: str = ""
    frame: Frame | None = None
    witness: tuple | None = None

    @property
    def dimension(self) -> int | None:
        return self.frame.d if self.frame is not None else None


# ---------------------------------------------------------------------------
# Obstruction tests
# ---------------------------------------------------------------------------

def neighbor_obstruction(g: Graph) -> tuple[int, int, int] | None:
    """Lexicographically first non-adjacent pair with exactly one common
    neighbor, as (u, v, w); None if no such pair exists."""
    adj = g._adj
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if v in adj[u]:
                continue
            shared = adj[u] & adj[v]
            if len(shared) == 1:
                return (u, v, min(shared))
    return None


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _pairing(ours: list[int], theirs: list[int]) -> list[int] | None:
    """Each vertex u, of degree ours[u], onto a vertex v of degree
    theirs[v], those of one degree paired in index order; None if the
    degrees differ."""
    a = sorted(range(len(ours)), key=ours.__getitem__)
    b = sorted(range(len(theirs)), key=theirs.__getitem__)
    if [ours[u] for u in a] != [theirs[v] for v in b]:
        return None
    return [v for _, v in sorted(zip(a, b))]


def _by_degree(p: Graph, g: Graph) -> list[int] | None:
    """Each vertex of g onto the vertex of p of its degree (_pairing).  The
    vertices of one degree are interchangeable in K_n, K_n - e and L(O_n),
    and a graph with the order, size and degrees of K_n - e, or of L(O_n)
    (K_{n-1} plus a vertex of degree 2), is that graph."""
    return _pairing([len(a) for a in g._adj], [len(a) for a in p._adj])


def _by_root(p: Graph, g: Graph) -> list[int] | None:
    """L(p), p being K_k or K_{2,k}: each vertex on the column of its root
    edge's image in p.edges, the root's vertices paired with p's by degree
    (_pairing), as those of one degree are interchangeable in p; None
    unless every root edge lands on an edge of p.  Equal degrees are not
    enough: K_{2,3} and the house graph, C_5 plus a chord, share them."""
    edges = root_edges(g)
    if edges is None:
        return None
    degree = [0] * (1 + max(map(max, edges)))
    for u in itertools.chain.from_iterable(edges):
        degree[u] += 1
    image = _pairing(degree, [len(a) for a in p._adj])
    if image is None:
        return None
    column = {e[::s]: i for i, e in enumerate(p.edges) for s in (1, -1)}
    columns = [column.get((image[u], image[v])) for u, v in edges]
    return None if None in columns else columns


def _by_pattern(p: Graph, g: Graph) -> list[int] | None:
    """p on at most six vertices: the first induced map of p into g, which
    at g's order and size is an isomorphism."""
    image = contains_induced(g, p)
    return None if image is None else sorted(image, key=image.get)


@functools.lru_cache(maxsize=512)
def _catalog(n: int, m: int) -> tuple:
    """The catalog entries that could match an (n, m) graph, each as (name,
    frame, shape): shape(g) is the frame column of each vertex of g, or
    None if g is not the frame's Gram graph.  A shape is a rule bound to a
    graph, the Gram graph unless a root is named: K_n, K_n - e and L(O_n)
    are matched by their degrees, L(K_k) and K_2 x K_k = L(K_{2,k}) by
    their root edges, and C_4, G2 and G6 by an induced map, so no entry
    searches for an isomorphism.  The edge-count tests run first: an (n, m)
    that no family fits returns () before numpy, frames or constructions
    load, and a family's frame is built only when (n, m) passes its test,
    so a large sparse graph builds none.  Memoised per (n, m): every call
    shares the frames and shapes, which are read-only, and a pattern builds
    its match steps on its first match."""
    k = (1 + math.isqrt(1 + 8 * n)) // 2  # the one k >= 3 with k(k - 1)/2 = n, if any
    # Each builder runs after the imports below bind the names it reads.
    families = (
        ("k1", n == 1, lambda: Frame(np.array([[1.0]])), _by_degree, None),
        ("complete", n > 1 and m == n * (n - 1) // 2,
         lambda: constructions.star_frame(n, n - 1), _by_degree, None),
        ("complete-minus-edge", n >= 4 and m == n * (n - 1) // 2 - 1,
         lambda: constructions.kn_minus_e_frame(n), _by_degree, None),
        ("cycle4", n == 4 and m == 4, lambda: constructions.c4_frame(), _by_pattern, None),
        ("line-of-o", n >= 4 and m == (n - 1) * (n - 2) // 2 + 2,
         lambda: constructions.line_o_frame(n), _by_degree, None),
        ("g2", n == 5 and m == 7, lambda: constructions.g2_frame(), _by_pattern, None),
        ("g6", n == 6 and m == 11, lambda: constructions.g6_frame(), _by_pattern, None),
        (f"line-of-complete{k}",
         k >= 3 and k * (k - 1) // 2 == n and k * (k - 1) * (k - 2) // 2 == m,
         lambda: constructions.laplacian_method(graphs.complete(k)), _by_root,
         lambda: graphs.complete(k)),
        (f"k2-box-k{n // 2}", n % 2 == 0 and n >= 6 and m == (n // 2) ** 2,
         lambda: constructions.k2kn_frame(n // 2), _by_root,
         lambda: graphs.complete_bipartite(2, n // 2)),
    )
    fits = [family for family in families if family[1]]
    if not fits:
        return ()
    import numpy as np

    from . import constructions
    from .frames import Frame, associated_graph

    entries = []
    for name, _, build, rule, root in fits:
        frame = build()
        key = root() if root else associated_graph(frame).graph
        entries.append((name, frame, functools.partial(rule, key)))
    return tuple(entries)


def classify(g: Graph) -> Certificate:
    """Certify, refute, or annotate the tight-frame-graph property.

    Tries the constructive catalog at any order (each entry's shape labels
    the input with the frame's columns, and the relabelled frame is
    re-verified), then the literature annotation of K_{2,n-2}, which no
    obstruction test refutes, then the obstruction tests; otherwise returns
    unknown.
    The catalog frames and their shapes are built once per (order, size)
    in a process; each certificate is still re-verified.
    """
    if not is_connected(g):
        raise GraphError("classification needs a connected graph")
    for name, frame, shape in _catalog(g.n, g.m):
        columns = shape(g)
        if columns is None:
            continue
        from .frames import Frame, represents, tightness

        cert_frame = Frame(frame.synthesis[:, columns])
        verdict = tightness(cert_frame)
        if verdict.kind not in ("tight", "parseval"):
            raise AssertionError(f"catalog frame {name} is not tight")
        if not represents(cert_frame, g):
            raise AssertionError(f"catalog frame {name} does not match after relabeling")
        return Certificate("tight", detail=name, frame=cert_frame)
    # Two non-adjacent vertices of degree n - 2 cover 2(n - 2) edges; if that
    # is all of them, g is K_{2,n-2}, and they are the neighbours of any leaf:
    # vertex 0, or else its lowest neighbour.  No pair there has exactly one
    # common neighbour, so testing it first spares the pair scan.
    n = g.n
    if n >= 5 and g.m == 2 * (n - 2):
        adj = g._adj
        hubs = adj[0] if len(adj[0]) == 2 else adj[min(adj[0])]
        if len(hubs) == 2:
            u, v = hubs
            if len(adj[u]) == len(adj[v]) == n - 2 and v not in adj[u]:
                return Certificate(
                    "literature_not_tight",
                    detail="K_{m,n} is a tight frame graph only for m = n",
                )
    witness = neighbor_obstruction(g)
    if witness is not None:
        return Certificate(
            "not_tight", detail="non-adjacent pair with a unique common neighbor",
            witness=("neighbor", witness),
        )
    # Every edge of a tight frame graph on n >= 3 vertices lies on a 3- or
    # 4-cycle, but that test refutes nothing more: if edge uv is on neither,
    # u (say) has another neighbor w, and u is the only common neighbor of
    # the non-adjacent w and v, so neighbor_obstruction has returned.
    return Certificate("unknown")


# ---------------------------------------------------------------------------
# Exhaustive sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    checked: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def root_order_theorem_check(max_n: int) -> SweepReport:
    """Exhaustively verify the root-order classification up to max_n vertices.

    For connected roots with as many edges as vertices, and for trees, the
    line graph must classify tight when the root is C_4, O_n (O_3 = C_3)
    or a star, and must carry a common-neighbor obstruction otherwise.
    The roots are enumerate_connected(k, 0), which builds only the graphs
    with m <= n, not every connected graph on k vertices.
    """
    if max_n > ENUMERATION_MAX_N:
        raise GraphError(
            f"root_order_theorem_check capped at max_n = {ENUMERATION_MAX_N}")
    if max_n < 2:
        raise GraphError("root_order_theorem_check needs max_n >= 2")
    report = SweepReport()
    for k in range(2, max_n + 1):
        for p in enumerate_connected(k, 0):
            # Exempt: a star or O_n (a vertex adjacent to all others), or C_4,
            # the one unicyclic root on 4 vertices with maximum degree 2.
            top = p.degree_sequence()[-1]
            exempt = top == p.n - 1 or (p.n == 4 and p.m == 4 and top == 2)
            report.checked += 1
            lg = line_graph(p).line
            if (classify(lg).verdict != "tight" if exempt
                    else neighbor_obstruction(lg) is None):
                report.counterexamples.append(p)
    return report


def induced_path_sweep(max_n: int) -> SweepReport:
    """Every connected root on <= max_n vertices with an induced 4-path
    must yield a line graph with a common-neighbor obstruction."""
    if max_n > ENUMERATION_MAX_N:
        raise GraphError(
            f"induced_path_sweep capped at max_n = {ENUMERATION_MAX_N}")
    if max_n < 4:
        raise GraphError("induced_path_sweep needs max_n >= 4")
    report = SweepReport()
    p4 = path(4)
    for k in range(4, max_n + 1):
        for p in enumerate_connected(k):
            if contains_induced(p, p4) is None:
                continue
            report.checked += 1
            lg = line_graph(p).line
            if neighbor_obstruction(lg) is None:
                report.counterexamples.append(p)
    return report


def _induces_g1_to_g3(g: Graph, verdict) -> bool:
    """Whether g, with this is_line_graph verdict, induces G1, G2 or G3; a
    witness other than G1 means g is claw-free, so G2 and G3 are searched."""
    return verdict is not True and (verdict[1] <= 3 or any(
        contains_induced(g, beineke(i)) is not None for i in (2, 3)))


def join_line_check(max_n: int) -> SweepReport:
    """Joins of connected graphs on >= 3 vertices (not both complete) are
    never line graphs: each induces G1, G2 or G3."""
    if max_n > 6:
        raise GraphError("join_line_check capped at max_n = 6")
    if max_n < 3:
        raise GraphError("join_line_check needs max_n >= 3")
    pool = [g for k in range(3, max_n + 1) for g in enumerate_connected(k)]
    report = SweepReport()
    for i, g in enumerate(pool):
        for h in pool[i:]:
            if g.m == g.n * (g.n - 1) // 2 and h.m == h.n * (h.n - 1) // 2:
                continue
            report.checked += 1
            j = graphs.join(g, h)
            verdict = is_line_graph(j)
            if not _induces_g1_to_g3(j, verdict):
                report.counterexamples.append((g, h, verdict))
    return report
