"""Simple undirected graphs: named families and the operations used downstream.

Vertices are 0-based integers.  Edges are unordered pairs stored as sorted
tuples ``(u, v)`` with ``u < v``; the edge list is kept sorted
lexicographically and that order is the canonical edge order used by the
incidence / line-graph machinery.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from dataclasses import dataclass


class GraphError(ValueError):
    """Invalid graph construction or operation argument."""


def _integer(x) -> int:
    """x as a Python int, if it is an integer (numpy integers are)."""
    try:
        return operator.index(x)
    except TypeError:
        raise GraphError(f"{x!r} is not an integer") from None


def _pair(e) -> tuple[int, int]:
    """The edge e as two exact ints, as operator.index gives them."""
    try:
        u, v = e
    except (TypeError, ValueError):
        raise GraphError(f"edge {e!r} is not a pair of vertices") from None
    return _integer(u), _integer(v)


# OEIS A001349: the connected graphs on n = 1, 2, ... vertices, one count
# per level of the table connected.g6, which enumerate_connected reads.
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)
ENUMERATION_MAX_N = len(CONNECTED_COUNTS)
# Largest order of the text format, in both directions: a header alone names
# n, and the stages downstream allocate per vertex (adjacency views,
# component lists).
TEXT_MAX_N = 100_000


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices ``0..n-1``, stored as n and the
    sorted edges, as exact ints: operator.index converts n and each endpoint
    (a bool, a numpy integer or any int subclass; another type, or an edge
    that is not a pair, raises GraphError).  Graph() takes pairs u < v, as
    the family builders here pass them; from_edges takes unordered pairs.
    Neighbour sets (_adj), bitmask rows (_rows, O(n^2) bits) and, for a
    pattern, its search plan (_steps) are derived on first use; a cached
    view is slower to read than a plain attribute, so loops read it into a
    local once.  Graph(), from_edges and from_text check every edge;
    Graph._derived(n, edges) checks none, so only code here that derives
    its edges may call it (line_graph, root_graph, associated_graph,
    enumerate_connected, join, linegraph._induced), with n >= 1 and a tuple
    of strictly increasing pairs of Python ints 0 <= u < v < n."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "n", n := _integer(self.n))
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        index, edges = operator.index, []
        seen = set()  # u * n + v per edge, distinct as 0 <= u < v < n
        for e in self.edges:
            try:
                u, v = e
                u, v = index(u), index(v)
            except (TypeError, ValueError):
                u, v = _pair(e)  # raises the GraphError that names the fault
            if not 0 <= u < v < n:
                raise GraphError(
                    f"loop at vertex {u}" if u == v else f"bad edge {(u, v)} for n={n}")
            key = u * n + v
            if key in seen:
                raise GraphError(f"duplicate edge {(u, v)}")
            seen.add(key)
            edges.append((u, v))
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    @functools.cached_property
    def _adj(self) -> tuple[frozenset[int], ...]:
        """Neighbour sets: _adj[u] holds the neighbours of u."""
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(a) for a in adj)

    @functools.cached_property
    def _rows(self) -> tuple[int, ...]:
        """Bitmask rows: bit w of _rows[u] is set iff uw is an edge."""
        rows = [0] * self.n
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)

    @functools.cached_property
    def _steps(self) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        """The plan _induced_map follows, one step per position: the vertex
        u mapped there, its earlier neighbours, ascending, and its
        lowest-numbered earlier non-neighbour, or -1.  Next is the vertex
        left with the most neighbours already planned, then the highest
        degree, then the lowest index, found by a scan: O(k^2) on k
        vertices.  Patterns have at most 8, the size tools/connected_table.py
        matches, and a larger one may backtrack anyway (see
        contains_induced).  In a connected graph every step after the first
        has an earlier neighbour.  The vertices before a step are always
        the same, so a pattern's plan is fixed; a host builds none.  Without
        the non-neighbour, G1-G3 in the 435 join-line joins took 154 ms, not 78."""
        rows, steps, done = self._rows, [], 0  # done: the vertices planned
        left = list(range(self.n))
        while left:
            u = min(left, key=lambda w: (
                -(rows[w] & done).bit_count(), -rows[w].bit_count(), w))
            left.remove(u)
            far = done & ~rows[u]
            steps.append((u, tuple(_bits(done & rows[u])), (far & -far).bit_length() - 1))
            done |= 1 << u
        return tuple(steps)

    @classmethod
    def _derived(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        g = object.__new__(cls)
        g.__dict__.update(n=n, edges=edges)
        return g

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """The entry for unordered pairs: each is sorted, then checked by Graph()."""
        return Graph(n, (sorted(_pair(e)) for e in edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, u: int) -> frozenset[int]:
        if not 0 <= u < self.n:
            raise GraphError(f"vertex {u} out of range for n={self.n}")
        return self._adj[u]

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(a) for a in self._adj))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u] if 0 <= u < self.n and 0 <= v < self.n else False


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

# Beineke's nine forbidden induced subgraphs, 0-based transcription.
# G1 is the claw K_{1,3}, G3 is K_5 minus an edge, G9 is the wheel on 6
# vertices (hub 0).
_BEINEKE_EDGES = {
    1: [(0, 1), (0, 2), (0, 3)],
    2: [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)],
    3: [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)],
    4: [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3)],
    5: [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4)],
    6: [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5),
        (3, 4), (3, 5)],
    7: [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3), (4, 5)],
    8: [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 5), (3, 4), (4, 5)],
    9: [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5),
        (1, 5)],
}


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("K_n needs n >= 1")
    return Graph(n, itertools.combinations(range(n), 2))


def edgeless(n: int) -> Graph:
    if n < 1:
        raise GraphError("edgeless graph needs n >= 1")
    return Graph(n, ())


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("P_n needs n >= 1")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("C_n needs n >= 3")
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def star(n: int) -> Graph:
    """S_n on n vertices, hub = vertex 0."""
    if n < 2:
        raise GraphError("S_n needs n >= 2")
    return Graph(n, ((0, i) for i in range(1, n)))


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n}; first part is vertices 0..m-1."""
    if m < 1 or n < 1:
        raise GraphError("K_{m,n} needs m, n >= 1")
    return Graph(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def o_graph(n: int) -> Graph:
    """O_n: the star S_n (hub 0) plus an edge between two leaves."""
    if n < 3:
        raise GraphError("O_n needs n >= 3")
    return Graph(n, [(0, i) for i in range(1, n)] + [(1, 2)])


def diamond() -> Graph:
    """K_4 minus an edge; the non-edge is {0, 1}."""
    return Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def hypercube(n: int) -> Graph:
    """Q_n: vertex v is a bit string, adjacent to each v with one bit flipped."""
    if n < 1:
        raise GraphError("Q_n needs n >= 1")
    return Graph(1 << n, tuple(
        (v, v | 1 << i) for v in range(1 << n) for i in range(n) if not v >> i & 1))


@functools.cache
def beineke(i: int) -> Graph:
    """The i-th forbidden induced subgraph for line graphs, 1 <= i <= 9;
    one shared Graph per i, so its search order is computed once."""
    if i not in _BEINEKE_EDGES:
        raise GraphError("Beineke index must be in 1..9")
    edges = _BEINEKE_EDGES[i]
    return Graph(max(v for _, v in edges) + 1, edges)


_FAMILIES = {
    "complete": (complete, 1),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "star": (star, 1),
    "complete-bipartite": (complete_bipartite, 2),
    "o": (o_graph, 1),
    "diamond": (diamond, 0),
    "hypercube": (hypercube, 1),
    "beineke": (beineke, 1),
    "edgeless": (edgeless, 1),
}


def gen_named(tag: str, *params: int) -> Graph:
    """Build a named family member with its canonical vertex labeling,
    refusing an order above TEXT_MAX_N (no text reader accepts one) before
    the family builds an edge; the family functions build any order."""
    tag = tag.lower()
    if tag not in _FAMILIES:
        raise GraphError(f"unknown family {tag!r}")
    fn, arity = _FAMILIES[tag]
    if len(params) != arity:
        raise GraphError(f"family {tag!r} takes {arity} parameter(s)")
    if tag == "hypercube":
        # 2^k > TEXT_MAX_N iff k reaches its bit length; 2^k itself may have
        # too many digits to print.
        if params[0] >= TEXT_MAX_N.bit_length():
            raise GraphError(f"graph order 2^{params[0]} exceeds the limit of {TEXT_MAX_N}")
    elif tag != "beineke" and sum(params) > TEXT_MAX_N:  # the order is m + n, or n
        raise GraphError(f"graph order {sum(params)} exceeds the limit of {TEXT_MAX_N}")
    return fn(*params)


# ---------------------------------------------------------------------------
# Graph operations
# ---------------------------------------------------------------------------

def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus all edges between them."""
    off = g.n
    edges = list(g.edges)
    edges += [(u + off, v + off) for u, v in h.edges]
    edges += [(u, v + off) for u in range(g.n) for v in range(h.n)]
    return Graph._derived(g.n + h.n, tuple(sorted(edges)))


def duplicate_vertex(g: Graph, u: int) -> Graph:
    """Add vertex g.n adjacent to u and to every neighbor of u."""
    return Graph(g.n + 1, [*g.edges, (u, g.n), *((w, g.n) for w in g.neighbors(u))])


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    u, v = min(e), max(e)
    if not g.has_edge(u, v):
        raise GraphError(f"edge {(u, v)} not in graph")
    return Graph(g.n, tuple(x for x in g.edges if x != (u, v)))


def _reach(adj, s: int, seen: list[bool]) -> list[int]:
    """The unmarked vertices a walk from s reaches, s first; marks them in seen."""
    seen[s] = True
    reached = [s]
    for u in reached:
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                reached.append(w)
    return reached


def components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each in ascending order,
    ordered by their smallest vertex: one walk from each unmarked vertex."""
    adj, seen = g._adj, [False] * g.n
    return [sorted(_reach(adj, s, seen)) for s in range(g.n) if not seen[s]]


def is_connected(g: Graph) -> bool:
    """Whether a walk from vertex 0 reaches all n vertices."""
    return len(_reach(g._adj, 0, [False] * g.n)) == g.n


# ---------------------------------------------------------------------------
# Induced subgraphs and enumeration
# ---------------------------------------------------------------------------

def _induced_map(p: Graph, hrows: list[int], allowed: list[int]) -> list[int] | None:
    """The first injective map from the pattern p into a host that induces
    p exactly, as image[u], or None; the host as bitmask rows.

    p's vertices are mapped in the order of its plan, p._steps, u to the unused
    host vertices of the bitmask allowed[u] (the label masks of
    tools/connected_table.py; every host vertex for contains_induced) adjacent
    to the images of u's mapped neighbours and to no other image, tried in
    ascending order.  One step rule, read from the plan: the rows of the
    neighbours' images, ANDed, less the row of the image of u's lowest-numbered
    mapped non-neighbour, mask the candidates; a candidate v, which sees every
    neighbour's image, is kept iff hrows[v] meets no more images than u has
    mapped neighbours.  A step costs the neighbours mapped, and on a dense host
    the masked row prunes most candidates.  An explicit stack keeps the
    search's depth free of the recursion limit.
    """
    steps = p._steps
    n = p.n
    left = [0] * n  # per position k: the candidates not yet tried
    left[0] = allowed[steps[0][0]]
    image = [0] * n
    used = 0  # the images, as host vertices
    k = 0
    while True:
        cands = left[k]
        if not cands:
            # Position k is exhausted: undo position k - 1 and resume it.
            if k == 0:
                return None
            k -= 1
            used ^= 1 << image[steps[k][0]]
            continue
        low = cands & -cands
        left[k] = cands ^ low
        v = low.bit_length() - 1
        u, near, _ = steps[k]
        if (hrows[v] & used).bit_count() != len(near):
            continue
        image[u] = v
        used |= low
        k += 1
        if k == n:
            return image
        u, near, far = steps[k]
        cands = allowed[u] & ~used
        for w in near:
            cands &= hrows[image[w]]
        if far >= 0:
            cands &= ~hrows[image[far]]
        left[k] = cands


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def contains_induced(g: Graph, h: Graph) -> dict[int, int] | None:
    """An injective map V(h) -> V(g) inducing h exactly, keyed in plan
    order (h._steps), or None.

    The induced-map search: h's vertices in plan order, each to any
    vertex of g the plan's masks leave, tried in increasing order, so the
    embedding returned is the first in that fixed order.  At equal order
    and size it is an isomorphism, but it can backtrack exponentially on
    large sparse graphs; callers here pass an h of at most six vertices.
    """
    if h.n > g.n:
        raise GraphError("pattern graph is larger than host")
    image = _induced_map(h, g._rows, [(1 << g.n) - 1] * h.n)
    return None if image is None else {u: image[u] for u, _, _ in h._steps}


def enumerate_connected(n: int, excess: int | None = None) -> list[Graph]:
    """All connected graphs on n vertices, one per isomorphism class; with
    an excess c, only those with m - n <= c (c = -1 gives the trees, 0
    adds the unicyclic graphs), exactly the full list filtered so.

    Level n is read from the committed table connected.g6 (CONNECTED_TABLE),
    one graph6 line per graph, which tools/connected_table.py generates.
    The file is read and checked once, on the first call.  Each call builds
    a table per byte position of the level's lines and a new list; a line
    is skipped by its edge count before a Graph is built.  Cold,
    enumerate_connected(7) takes about 3 ms.
    """
    n = _integer(n)
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise GraphError(f"enumeration supports 1 <= n <= {ENUMERATION_MAX_N}")
    if excess is not None and (excess := _integer(excess)) < -1:
        raise GraphError("no connected graph has m - n < -1")
    pairs = tuple((i, j) for j in range(1, n) for i in range(j))
    edges = [[()] * 127]  # edges[i][c]: the edges that character c names at byte i
    for k in range(0, len(pairs), 6):  # the next byte's bits 5, 4, ..., 0: pairs k, k + 1, ...
        named = [()]  # by the six bits, c - 63
        for b in range(6):
            named += [pairs[k + 5 - b:k + 6 - b] + e for e in named]
        edges.append([()] * 63 + named)
    lines = zip(*[iter(_table()[n])] * (len(edges) + 1))  # each line's bytes, newline last
    get, chain = operator.getitem, itertools.chain.from_iterable
    return [Graph._derived(n, tuple(sorted(chain(map(get, edges, line))))) for line in lines
            if excess is None or sum(map(len, map(get, edges, line))) - n <= excess]


CONNECTED_TABLE = os.path.join(os.path.dirname(__file__), "connected.g6")


@functools.cache
def _table() -> dict[int, bytes]:
    """The table's levels by order, each the bytes of its lines.  Level n
    runs from where level n - 1 ends over the lines of its width that begin
    with its order byte.  Its order, the length of its lines, their
    characters and their zero padding are each checked on a slice of it,
    then the count per order, so a fault is named as a line-by-line walk
    would first meet it."""
    def bad(why):
        return GraphError(f"{CONNECTED_TABLE}: {why}")

    with open(CONNECTED_TABLE, "rb") as f:
        data = f.read()
    if data.translate(None, b"\n" + bytes(range(63, 127))):
        raise bad("a character outside 63..126")
    if data[-1:] not in (b"\n", b""):  # the last line may end without one
        data += b"\n"
    levels, counts, at = {}, (), 0
    while at < len(data):
        n = max(data[at] - 63, 0)  # an empty line has order 0
        if n != len(levels) + 1:
            raise bad(f"a level of order {n} out of place")
        chars = -(-n * (n - 1) // 12)  # ceil(n(n - 1)/2 / 6)
        starts = data[at::chars + 2]  # each line's order byte, while none is cut
        count = len(starts) - len(starts.lstrip(starts[:1]))
        counts += (count,)
        levels[n] = level = data[at:(at := at + count * (chars + 2))]
        if level[chars + 1::chars + 2] != b"\n" * count or level.count(b"\n") != count:
            raise bad(f"a line of order {n} not {1 + chars} characters long")
        zero = bytes(range(63, 127, 1 << 6 * chars - n * (n - 1) // 2))  # padding bits 0
        if level[chars::chars + 2].translate(None, zero):
            raise bad(f"a line of order {n} with nonzero padding bits")
    if counts != CONNECTED_COUNTS:
        raise bad(f"{counts} graphs per order, not {CONNECTED_COUNTS}")
    return levels


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def to_text(g: Graph) -> str:
    if g.n > TEXT_MAX_N:  # from_text would reject it
        raise GraphError(f"graph order {g.n} exceeds the limit of {TEXT_MAX_N}")
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def text_lines(text: str) -> list[str]:
    """Lines of the graph or frame text format, '#' comments and blank lines dropped."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def from_text(text: str) -> Graph:
    """Parse the graph text format: "n m" then m lines "u v" (u < v)."""
    rows = text_lines(text)
    if not rows:
        raise GraphError("empty graph text")
    try:
        n, m = map(int, rows[0].split())
    except ValueError:
        raise GraphError(f"bad header line {rows[0]!r}") from None
    if n > TEXT_MAX_N:
        raise GraphError(f"graph order {n} exceeds the limit of {TEXT_MAX_N}")
    if len(rows) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise GraphError(f"bad edge line {line!r}") from None
        if not u < v:
            raise GraphError(f"edge line {line!r} must have u < v")
        edges.append((u, v))
    return Graph(n, tuple(edges))
