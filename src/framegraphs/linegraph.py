"""Line graphs, line-graph recognition, and root-graph recovery.

Line graphs are recognized, and their roots recovered, by searching each
connected component for a Krausz partition of its edges into cliques
(_krausz_partition).  The search is polynomial and reads only neighbour
sets, so on a line graph recognition and root recovery take O(n + m)
memory.  By Whitney's theorem the first partition gives the one root (K_3
has two), read as each vertex's root edge (root_edges), which is how verify
labels the line-graph families of its catalog.  A non-line graph is named
in its first component with no Krausz partition by a forbidden induced
subgraph (_beineke_witness), found on bitmask rows (O(n^2) bits) and by
graphs.contains_induced, the induced-map search that verify also runs for
its smallest catalog patterns; it stays importable from here.

Like graphs, this module imports no numpy; a graph's incidence matrix is
built in constructions.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .graphs import Graph, GraphError, _bits, beineke, complete, components, \
    contains_induced, is_connected, star


class NotALineGraph(GraphError):
    pass


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
    # each adjacent pair comes from exactly one vertex's incident edges.  The
    # later edges at i = (u, v) are (u, w), w > v, then (y, v) and (v, x),
    # y, x > u, so in the canonical order row i comes out ascending.
    incident: list[list[int]] = [[] for _ in range(g.n)]
    later = []  # per edge: each end's incident list and where its later edges start
    for i, (u, v) in enumerate(g.edges):
        later.append((incident[u], len(incident[u]) + 1, incident[v], len(incident[v]) + 1))
        incident[u].append(i)
        incident[v].append(i)
    edges = [(i, j) for i, (a, p, b, q) in enumerate(later) for j in a[p:] + b[q:]]
    return LineGraphMap(line=Graph._derived(g.m, tuple(edges)))


def _induced(g: Graph, verts: list[int]) -> Graph:
    """The subgraph of g induced on the ascending verts, relabelled onto 0..k-1."""
    adj = g._adj
    index = {v: i for i, v in enumerate(verts)}
    return Graph._derived(len(verts), tuple(sorted(
        (index[u], index[w]) for u in verts for w in adj[u] if u < w and w in index
    )))


def _odd_diamond(g: Graph) -> list[int]:
    """Sorted a, b, c, d, x, y: on the first edge ab of the connected g
    with odd triangles abc and abd, c < d non-adjacent (the lowest such c,
    then d), and the lowest x and y that see an odd number of a, b, c and
    of a, b, d."""
    adj, rows = g._adj, g._rows
    for a, b in g.edges:
        # Bit x of side ^ rows[c] is set iff x sees an odd number of a, b
        # and c; the bits of a, b and c cancel.
        side = rows[a] ^ rows[b]
        odd = {c: side ^ rows[c] for c in adj[a] & adj[b] if side ^ rows[c]}
        apexes = sum(1 << c for c in odd)
        for c in sorted(odd):
            far = apexes & ~rows[c] & ~(1 << c)
            if far:
                d = (far & -far).bit_length() - 1
                x, y = ((odd[t] & -odd[t]).bit_length() - 1 for t in (c, d))
                return sorted({a, b, c, d, x, y})
    raise AssertionError("claw-free and no Krausz partition, yet no odd diamond")


def _claw(g: Graph) -> dict[int, int] | None:
    """The first induced claw of g, as contains_induced(g, beineke(1))
    returns it, or None: the lowest centre v, then the lexicographically
    first a < b < c of its neighbours that are pairwise non-adjacent."""
    rows = g._rows
    for v, r in enumerate(rows):
        for a in _bits(r):
            # v's neighbours above a that a does not see, then above b
            # that neither a nor b sees.
            far = r & ~rows[a] & -(2 << a)
            for b in _bits(far):
                rest = far & ~rows[b] & -(2 << b)
                if rest:
                    return {0: v, 1: a, 2: b, 3: (rest & -rest).bit_length() - 1}
    return None


def _beineke_witness(g: Graph) -> tuple[int, dict[int, int]]:
    """(i, embedding) for a Beineke graph G_i induced in the
    connected g, which has no Krausz partition.

    The first claw (G1) if g has one.  Otherwise, by van Rooij & Wilf (The
    interchange graph of a finite graph, Acta Math. Acad. Sci. Hungar. 16,
    1965), g has an odd diamond: a claw-free graph is a line graph iff no
    two odd triangles abc and abd (some vertex sees an odd number of each)
    have c and d non-adjacent.  Its at most six vertices induce a
    claw-free non-line graph, named by the first G2..G9 in it.
    """
    embedding = _claw(g)
    if embedding is not None:
        return 1, embedding
    keep = _odd_diamond(g)
    core = _induced(g, keep)
    for i in range(2, 10):
        pattern = beineke(i)
        embedding = contains_induced(core, pattern) if pattern.n <= core.n else None
        if embedding is not None:
            return i, {k: keep[w] for k, w in embedding.items()}
    raise AssertionError("an odd diamond, yet no Beineke subgraph")


def is_line_graph(g: Graph):
    """True, or (False, beineke_index, embedding) with a concrete witness,
    named inside the first connected component, in order, that has no
    Krausz partition; the components are searched in turn."""
    for verts in components(g):
        comp = g if len(verts) == g.n else _induced(g, verts)
        if _krausz_partition(comp) is None:
            i, embedding = _beineke_witness(comp)
            return (False, i, {k: verts[w] for k, w in embedding.items()})
    return True


# ---------------------------------------------------------------------------
# Root graphs via Krausz partitions
# ---------------------------------------------------------------------------

def _krausz_partition(g: Graph) -> list[list[int]] | None:
    """For each vertex of g, the indices of its cliques in the first
    partition of g's edges into cliques with every vertex in <= 2 of them,
    in the order found; None unless g is a connected line graph.

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
    at the lowest such vertex, kept on a heap.  A vertex in no clique has
    all of its edges uncovered, so its neighbours lie in no clique either:
    propagation covers every edge of 0's component or fails a clique check,
    and never needs a branch.  So it decides connectivity too: g (n > 1)
    is connected iff vertex 0 has a neighbour and no vertex is left in no
    clique.  One pass checks and covers a clique s: taking s from a
    member's uncovered neighbours must remove exactly len(s) - 1, and the
    member must lie in fewer than two cliques.  As uncovered edges are
    symmetric, that count at one end checks a pair; a failed s is left
    half covered, but the next first clique starts afresh.
    """
    adj = g._adj
    if not adj[0]:
        return None if g.n > 1 else [[]]
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
            for u in s:
                cs, left, before = member[u], uncovered[u], len(uncovered[u])
                left.difference_update(s)
                if len(cs) > 1 or before - len(left) != len(s) - 1:
                    break
                if not cs:
                    heapq.heappush(joined, u)
                cs.append(index)
            else:
                while joined and not uncovered[joined[0]]:
                    heapq.heappop(joined)
                if not joined:
                    return member if all(member) else None
                s = [joined[0], *uncovered[joined[0]]]
                continue
            break  # s failed its check: try the next first clique
    return None


def root_edges(g: Graph) -> list[tuple[int, int]] | None:
    """For each vertex of g, its edge in g's root; None unless g is a
    connected line graph.

    The root is read from the first Krausz partition: root vertex i is
    clique i, each vertex is the root edge joining its cliques, and a
    vertex in fewer than two cliques gets new root vertices, numbered in
    vertex order (so K_1 gives [(0, 1)]), so the edges are distinct pairs
    a < b.  By Whitney's theorem it is g's one root up to isomorphism,
    unless g is K_3, which gives K_{1,3} here and also has the root K_3.
    """
    member = _krausz_partition(g)
    if member is None:
        return None
    fresh = itertools.count(1 + max(max(cs, default=-1) for cs in member))
    return [(*cs, *itertools.islice(fresh, 2 - len(cs))) for cs in member]


def root_graph(g: Graph) -> list[Graph]:
    """All root graphs of a connected line graph, up to isomorphism: the
    graph of root_edges, or for K_3 the two roots K_3 and K_{1,3}.  The
    Krausz search decides connectivity, so a walk runs only if it fails."""
    if g.n == 3 and g.m == 3:
        return [complete(3), star(4)]
    edges = root_edges(g)
    if edges is None:
        if not is_connected(g):
            raise GraphError("root recovery needs a connected graph")
        index, _ = _beineke_witness(g)
        raise NotALineGraph(f"not a line graph (forbidden subgraph G{index})")
    return [Graph._derived(1 + max(map(max, edges)), tuple(sorted(edges)))]
