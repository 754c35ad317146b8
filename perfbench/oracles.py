"""Output checks that do not use the code under test.

Graphs are ``(n, edges)`` with ``edges`` a list of ``(u, v)`` pairs,
``u < v``.  Every check returns ``None`` when the output is right and a
one-line reason when it is wrong.  Numeric checks use numpy directly on
the matrices; structural checks use networkx.
"""

from __future__ import annotations

import hashlib
import itertools

import networkx as nx
import numpy as np

# Relative threshold for the benchmark's own zero/nonzero decisions.  The
# program decides at 1e-9; entries on either side of both are ~1e-15 or
# >= 1e-3 for every frame the workloads build.
REL_TOL = 1e-8

# Verdict counts (tight, not_tight, literature_not_tight, unknown) over
# the connected graphs on n vertices, from the project ROADMAP.
ATLAS_COUNTS = {
    5: {"tight": 4, "not_tight": 14, "literature_not_tight": 1, "unknown": 2},
    6: {"tight": 6, "not_tight": 82, "literature_not_tight": 1, "unknown": 23},
    7: {"tight": 3, "not_tight": 712, "literature_not_tight": 1, "unknown": 137},
}

# Beineke's nine minimal non-line graphs in the program's numbering.
# perfbench/selftest.py checks with networkx that this table is exactly
# the set of minimal non-line graphs, so it does not rest on the program.
BEINEKE = {
    1: (4, [(0, 1), (0, 2), (0, 3)]),
    2: (5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]),
    3: (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]),
    4: (6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3)]),
    5: (6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4)]),
    6: (6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5),
            (3, 4), (3, 5)]),
    7: (6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3), (4, 5)]),
    8: (6, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 5), (3, 4), (4, 5)]),
    9: (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5),
            (1, 5)]),
}


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    return a


def nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def line_graph_edges(root_edges) -> list[tuple[int, int]]:
    """Line graph of a root, vertex i being the i-th edge in sorted order."""
    order = sorted(tuple(sorted(e)) for e in root_edges)
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(order)), 2)
        if set(order[i]) & set(order[j])
    ]


def gram_support(f: np.ndarray) -> np.ndarray:
    """0/1 matrix of the off-diagonal entries of F^T F above REL_TOL."""
    g = f.T @ f
    s = (np.abs(g) > REL_TOL * np.max(np.abs(g))).astype(np.int64)
    np.fill_diagonal(s, 0)
    return s


def is_tight(f: np.ndarray) -> bool:
    """True iff F F^T is a multiple of the identity."""
    s = f @ f.T
    c = np.trace(s) / s.shape[0]
    return bool(np.max(np.abs(s - c * np.eye(s.shape[0]))) <= REL_TOL * abs(c))


def matrix_sha1(mat) -> str:
    return hashlib.sha1(np.ascontiguousarray(mat, dtype=float).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Obstructions, read directly off the adjacency matrix
# ---------------------------------------------------------------------------

def _on_short_cycle(a: np.ndarray, u: int, v: int) -> bool:
    """Edge uv lies on a 3-cycle or a 4-cycle."""
    if np.any(a[u] & a[v]):
        return True
    nu, nv = a[u].copy(), a[v].copy()
    nu[v] = nv[u] = 0
    # w ~ u, x ~ v, w ~ x; the zero diagonal of a rules out w == x.
    return bool(np.any(np.outer(nu, nv) * a))


def obstruction_present(a: np.ndarray) -> bool:
    """A non-adjacent pair with one common neighbor, or an edge on no
    3- or 4-cycle (the latter tested from three vertices up)."""
    n = a.shape[0]
    common = a @ a
    nonadj = (a == 0) & ~np.eye(n, dtype=bool)
    if np.any(nonadj & (common == 1)):
        return True
    if n < 3:
        return False
    us, vs = np.nonzero(np.triu(a))
    return not all(_on_short_cycle(a, u, v) for u, v in zip(us, vs))


def check_classify(op: dict, out: dict) -> str | None:
    """Check one classify verdict on the graph ``op`` describes.

    ``out`` has the verdict, the certificate frame (as nested lists) for
    ``tight`` and the witness for ``not_tight``.
    """
    n, edges = op["n"], op["edges"]
    a = adjacency(n, edges)
    verdict = out["verdict"]
    if op.get("expect") and verdict != op["expect"]:
        return f"verdict {verdict}, expected {op['expect']}"
    if verdict == "tight":
        if out.get("frame") is None:
            return "tight verdict without a frame"
        f = np.array(out["frame"], dtype=float)
        if f.ndim != 2 or f.shape[1] != n:
            return f"certificate shape {f.shape} for n={n}"
        if not is_tight(f):
            return "certificate frame operator is not a multiple of I"
        if not np.array_equal(gram_support(f), a):
            return "certificate Gram support differs from the input"
        return None
    if verdict == "not_tight":
        kind, data = out["witness"]
        if kind == "neighbor":
            u, v, w = data
            if u == v or a[u, v]:
                return f"witness pair ({u}, {v}) is adjacent or equal"
            if list(np.flatnonzero(a[u] & a[v])) != [w]:
                return f"witness pair ({u}, {v}) does not have {w} as sole common neighbor"
            return None
        if kind == "edge_cycle":
            u, v = data
            if not a[u, v]:
                return f"witness ({u}, {v}) is not an edge"
            if _on_short_cycle(a, u, v):
                return f"witness edge ({u}, {v}) lies on a 3- or 4-cycle"
            return None
        return f"unknown witness kind {kind!r}"
    if verdict in ("unknown", "literature_not_tight"):
        if obstruction_present(a):
            return f"{verdict} although an obstruction exists"
        if verdict == "literature_not_tight" and not nx.is_isomorphic(
            nx_graph(n, edges), nx.complete_bipartite_graph(2, n - 2)
        ):
            return "literature_not_tight on a graph other than K_{2,n-2}"
        return None
    return f"unrecognised verdict {verdict!r}"


def check_atlas_counts(counts: dict[int, dict[str, int]]) -> list[int]:
    """Orders n whose verdict counts differ from ATLAS_COUNTS."""
    return [
        n for n, want in ATLAS_COUNTS.items()
        if {k: v for k, v in counts.get(n, {}).items() if v} != want
    ]


# ---------------------------------------------------------------------------
# frames-large
# ---------------------------------------------------------------------------

def check_frame_chain(op: dict, out: dict) -> str | None:
    """Line graph, Laplacian frame, tightness, Gram pattern and text round
    trip for one root."""
    n, edges = op["n"], op["edges"]
    want = line_graph_edges(edges)
    if [tuple(e) for e in out["line_edges"]] != want:
        return "line_graph differs from the benchmark's line graph"
    f = np.array(out["frame"], dtype=float)
    m = len(edges)
    if f.shape != (n - 1, m):
        return f"frame shape {f.shape}, expected {(n - 1, m)}"
    if not np.array_equal(gram_support(f), adjacency(m, want)):
        return "frame Gram support differs from the line graph"
    if [tuple(e) for e in out["pattern_edges"]] != want:
        return "associated_graph differs from the line graph"
    complete = m == n * (n - 1) // 2
    if is_tight(f) != complete:
        return f"frame tight={is_tight(f)} for a root with complete={complete}"
    if (out["kind"] in ("tight", "parseval")) != complete:
        return f"tightness says {out['kind']} for a root with complete={complete}"
    if out["roundtrip_sha1"] != matrix_sha1(f):
        return "text round trip is not bit-identical"
    return None


# ---------------------------------------------------------------------------
# recognize-lines
# ---------------------------------------------------------------------------

def check_recognition(op: dict, out: dict) -> str | None:
    n, edges = op["n"], op["edges"]
    g = nx_graph(n, edges)
    if op["root"] is not None:
        if out["line"] is not True:
            return f"line graph reported as non-line ({out['line']})"
        if "roots" not in out:
            return None
        rn, redges = op["root"]
        want = nx_graph(rn, redges)
        roots = out["roots"]
        if len(roots) != 1 or not nx.is_isomorphic(nx_graph(*roots[0]), want):
            return "root_graph did not recover the generating root"
        return None
    try:
        nx.inverse_line_graph(g)
        return "input is a line graph by networkx"
    except nx.NetworkXError:
        pass
    if out["line"] is True:
        return "non-line graph reported as a line graph"
    idx, emb = out["line"]
    pn, pedges = BEINEKE[idx]
    image = list(emb)
    if len(image) != pn or len(set(image)) != pn or not all(0 <= v < n for v in image):
        return f"witness embedding {image} is not injective into V(g)"
    induced = nx_graph(pn, [
        (i, j) for i, j in itertools.combinations(range(pn), 2)
        if g.has_edge(image[i], image[j])
    ])
    if not nx.is_isomorphic(induced, nx_graph(pn, pedges)):
        return f"witness does not induce G{idx}"
    if "roots" in out and out["roots"] != "NotALineGraph":
        return f"root_graph returned {out['roots']!r} on a non-line graph"
    return None


# ---------------------------------------------------------------------------
# cli-sweeps
# ---------------------------------------------------------------------------

def parse_graph_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    rows = [r.split("#", 1)[0].split() for r in text.splitlines()]
    rows = [r for r in rows if r]
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = [(int(u), int(v)) for u, v in rows[1:]]
    if len(edges) != m:
        raise ValueError(f"header says {m} edges, found {len(edges)}")
    return n, edges


def parse_matrix_text(text: str) -> np.ndarray:
    rows = [r.split("#", 1)[0].split() for r in text.splitlines()]
    rows = [r for r in rows if r]
    r, c = int(rows[0][1]), int(rows[1][1])
    mat = np.array([[float(x) for x in row] for row in rows[2:]], dtype=float)
    if mat.shape != (r, c):
        raise ValueError(f"matrix text is {mat.shape}, header says {(r, c)}")
    return mat


def _classify_output(stdout: str, cert_text: str | None) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(" ")
        fields[key] = rest
    out = {"verdict": fields["verdict"], "frame": None, "witness": None}
    if "witness" in fields:
        kind, *data = fields["witness"].split()
        out["witness"] = (kind, [int(x) for x in data])
    if cert_text is not None:
        out["frame"] = parse_matrix_text(cert_text).tolist()
    return out


def check_cli_stage(stage: dict, res: dict, inputs: str | None) -> str | None:
    """Check one CLI process: ``stage`` names the expected outcome, ``res``
    holds returncode, stdout and (for classify) the certificate text;
    ``inputs`` is the stdin the stage was fed."""
    check, rc, out = stage["check"], res["rc"], res["stdout"]
    try:
        if check == "sweep":
            want = f"checked {stage['checked']}\ncounterexamples 0\n"
            return None if rc == 0 and out == want else f"rc {rc}, output {out!r}"
        if rc != stage["rc"]:
            return f"exit code {rc}, expected {stage['rc']}"
        if check == "gen":
            n, edges = parse_graph_text(out)
            want = nx_graph(*stage["graph"])
            return None if nx.is_isomorphic(nx_graph(n, edges), want) else "gen output"
        if check == "linegraph":
            root_n, root_edges = parse_graph_text(inputs)
            n, edges = parse_graph_text(out)
            if n != len(root_edges) or edges != line_graph_edges(root_edges):
                return "linegraph output differs from the benchmark's line graph"
            return None
        if check == "rootgraph":
            n, edges = parse_graph_text(out)
            want = nx_graph(*stage["graph"])
            return None if nx.is_isomorphic(nx_graph(n, edges), want) else "wrong root"
        if check == "frame":
            f = parse_matrix_text(out)
            root_n, root_edges = stage["graph"]
            if not is_tight(f):
                return "frame is not tight"
            want = adjacency(len(root_edges), line_graph_edges(root_edges))
            return None if np.array_equal(gram_support(f), want) else "frame Gram support"
        if check == "tight":
            kind, _, lo, _, hi = out.split()
            return None if kind in ("tight", "parseval") and np.isclose(
                float(lo), float(hi), rtol=1e-9) else f"check tight said {out!r}"
        if check == "classify":
            n, edges = parse_graph_text(inputs)
            verdict = _classify_output(out, res.get("cert"))
            return check_classify({"n": n, "edges": edges, "expect": stage["expect"]}, verdict)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unparseable output ({exc})"
    return f"unknown stage check {check!r}"
