"""Write the table of connected graphs, one graph6 line per graph.

``framegraphs.graphs.enumerate_connected`` reads its graphs from the table
``src/framegraphs/connected.g6``; this script is the generator that wrote
it, and rewrites it byte for byte:

    PYTHONPATH=src python tools/connected_table.py > src/framegraphs/connected.g6

The table holds the levels n = 1 .. ENUMERATION_MAX_N in order, with no
header.  Each line is McKay's graph6 of one graph in the labelling that
``connected`` below keeps: the character 63 + n, then the upper triangle of
the adjacency matrix column by column (01, 02, 12, 03, ...), six bits to a
character plus 63, zero-padded.  nauty's ``geng`` writes the format and
networkx reads it (``from_graph6_bytes``).  The vertex labels that sort
candidates into buckets are defined here, as the library reads no labels.
"""

from __future__ import annotations

import functools
import sys

from framegraphs.graphs import ENUMERATION_MAX_N, Graph, _induced_map


def _vertex_labels(rows: list[int]) -> list[tuple]:
    """Per-vertex isomorphism invariants: the degree, and the edges among
    the neighbours (each counted from both ends, so twice the triangles at
    the vertex)."""
    labels = []
    for r in rows:
        tri = 0
        x = r
        while x:
            low = x & -x
            tri += (rows[low.bit_length() - 1] & r).bit_count()
            x ^= low
        labels.append((r.bit_count(), tri))
    return labels


def _label_masks(labels: list[tuple]) -> dict[tuple, int]:
    """Each vertex label's vertices, as one bitmask."""
    masks: dict[tuple, int] = {}
    for v, label in enumerate(labels):
        masks[label] = masks.get(label, 0) | 1 << v
    return masks


@functools.cache
def connected(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one per isomorphism class.

    Level n is generated from level n-1 by attaching a new vertex to every
    non-empty neighbour subset, taken as a bitmask in ascending order
    (every connected graph has a non-cut vertex, so this reaches every
    class); the first candidate of each class is kept.  Two rules keep the
    work down without changing that list or its order:

    - a subset is skipped when, for some twins u < v of the parent (equal
      open or equal closed neighbourhoods), it holds v but not u.  Swapping
      u and v is an automorphism of the parent, so the candidate is
      isomorphic to one from a smaller subset of the same parent;
    - each candidate's vertex labels are computed once, on bitmask rows,
      and their sorted tuple is its bucket key.  Only the kept graphs in
      its bucket are mapped into the candidate's rows, by the induced-map
      search behind graphs.contains_induced, each vertex to the
      candidate's vertices of its label (at equal order and size, an
      induced map is an isomorphism).  The label masks pay: without
      them the whole table took 4.8 s, not 1.8 s, with the same bytes.

    A Graph is built only for the graphs kept.  Results are memoized per n.
    """
    if n == 1:
        return [Graph(1, ())]
    new = n - 1
    buckets: dict[tuple, list[tuple[Graph, list[tuple]]]] = {}
    out = []
    for parent in connected(new):
        base = parent._rows
        # (bit of v, bit of u) for twins u < v: a kept subset holding v holds u.
        twins = [
            (1 << v, 1 << u)
            for v in range(new) for u in range(v)
            if base[u] == base[v] or base[u] | 1 << u == base[v] | 1 << v
        ]
        for mask in range(1, 1 << new):
            if any(mask & bv and not mask & bu for bv, bu in twins):
                continue
            rows = [r | (mask >> u & 1) << new for u, r in enumerate(base)]
            rows.append(mask)
            labels = _vertex_labels(rows)
            bucket = buckets.setdefault(tuple(sorted(labels)), [])
            if bucket:
                masks = _label_masks(labels)
                if any(_induced_map(seen, rows, [masks[label] for label in seen_labels])
                       is not None for seen, seen_labels in bucket):
                    continue
            g = Graph(n, tuple(
                (u, w) for u in range(n) for w in range(u + 1, n) if rows[u] >> w & 1
            ))
            bucket.append((g, labels))
            out.append(g)
    return out


def graph6(g: Graph) -> str:
    """g in graph6 (n <= 62): chr(63 + n), then the upper triangle column
    by column, six bits to a character, zero-padded."""
    rows = g._rows
    bits = [rows[i] >> j & 1 for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    return chr(63 + g.n) + "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6))


def lines(max_n: int = ENUMERATION_MAX_N):
    """The table's lines for the levels 1 .. max_n, newline-terminated."""
    for n in range(1, max_n + 1):
        for g in connected(n):
            yield graph6(g) + "\n"


if __name__ == "__main__":
    sys.stdout.writelines(lines())
