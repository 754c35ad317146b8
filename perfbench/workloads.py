"""Seeded inputs for the four workloads.

Every input is generated here, from the workload seed, and relabelled with
a seeded permutation; the program receives only the resulting graphs or
CLI text.  Each op is a dict: ``n`` and ``edges`` (sorted ``(u, v)``
pairs, ``u < v``), a ``tag`` naming its input family, and what the oracle
needs to check it.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx

from oracles import BEINEKE, adjacency, line_graph_edges, obstruction_present

# Workload name -> seconds one pass over its op list takes at reference
# speed (see REF_S in run.py).  round(--seconds / this) is the nominal
# number of passes: the weight of each input in the latency distribution,
# whatever the time box held, and twice the number of traced passes.
PASS_SECONDS = {
    "classify-mix": 0.10,
    "frames-large": 1.35,
    "recognize-lines": 1.8,
    "cli-sweeps": 2.4,
}

# Caps of the program at the parent commit; inputs stay inside them.
CLASSIFY_MAX_N = 24
LINE_GRAPH_MAX_N = 30
ROOT_GRAPH_MAX_N = 21
# A root vertex of degree d is a d-clique in the line graph, and the
# recognizer is exponential in clique size (K_14 alone takes 1.8 s).  With
# the cap at 4 a pass of random roots costs the same to within 12% across
# seeds; at 5 or 6, within 12-23%, at two to five times the cost.
ROOT_MAX_DEGREE = 4


def _sorted_edges(edges) -> list[tuple[int, int]]:
    return sorted(tuple(sorted((int(u), int(v)))) for u, v in edges)


def _from_nx(g: nx.Graph) -> tuple[int, list[tuple[int, int]]]:
    g = nx.convert_node_labels_to_integers(g, ordering="sorted")
    return g.number_of_nodes(), _sorted_edges(g.edges())


def _relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return _sorted_edges((perm[u], perm[v]) for u, v in edges)


def _op(rng, n, edges, tag, **extra) -> dict:
    return {"n": n, "edges": _relabel(rng, n, edges), "tag": tag, **extra}


def _complete(n):
    return n, list(itertools.combinations(range(n), 2))


def _o_graph(n):
    return n, [(0, i) for i in range(1, n)] + [(1, 2)]


def _line(root):
    n, edges = root
    return len(edges), line_graph_edges(edges)


def random_connected(rng: random.Random, n: int, m: int, max_degree: int | None = None):
    """A connected graph with exactly n vertices and m edges: a random
    spanning tree plus random extra edges, all within max_degree."""
    cap = max_degree or n
    if not n - 1 <= m <= min(n * (n - 1) // 2, n * cap // 2):
        raise ValueError(f"no connected graph with n={n}, m={m}, max degree {cap}")
    while True:
        deg = [0] * n
        edges = set()
        for v in range(1, n):
            choices = [u for u in range(v) if deg[u] < cap]
            if not choices:
                break
            u = rng.choice(choices)
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
        else:
            spare = [
                e for e in itertools.combinations(range(n), 2)
                if e not in edges and deg[e[0]] < cap and deg[e[1]] < cap
            ]
            rng.shuffle(spare)
            for u, v in spare:
                if len(edges) == m:
                    break
                if deg[u] < cap and deg[v] < cap:
                    edges.add((u, v))
                    deg[u] += 1
                    deg[v] += 1
            if len(edges) == m:
                return n, _sorted_edges(edges)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def classify_mix(rng: random.Random) -> list[dict]:
    """verify.classify over the small atlas, the known-tight families, and
    graphs that pass every obstruction test."""
    ops = [
        _op(rng, *_from_nx(g), "atlas")
        for g in nx.graph_atlas_g()[1:]
        if nx.is_connected(g)
    ]
    tight = [_complete(n) for n in range(8, CLASSIFY_MAX_N + 1)]
    tight += [(n, e[1:]) for n, e in tight]  # K_n minus the edge {0, 1}
    tight += [_line(_complete(k)) for k in range(4, 8)]
    tight += [_line(_o_graph(k)) for k in range(4, 12)]
    tight += [
        _from_nx(nx.cartesian_product(nx.complete_graph(2), nx.complete_graph(k)))
        for k in range(3, 13)
    ]
    tight += [_from_nx(nx.cycle_graph(4)), BEINEKE[2], BEINEKE[6]]
    ops += [_op(rng, n, e, "tight-family", expect="tight") for n, e in tight]
    ops += [
        _op(rng, *_from_nx(nx.complete_bipartite_graph(k, k)), "k-m-m")
        for k in range(2, CLASSIFY_MAX_N // 2 + 1)
    ]
    ops += [_op(rng, *_from_nx(nx.hypercube_graph(d)), "cube") for d in (3, 4)]
    for i in range(40):
        n = 8 + i % (CLASSIFY_MAX_N - 7)
        while True:
            g = nx.gnp_random_graph(n, rng.uniform(0.5, 0.8), seed=rng.randrange(2**32))
            n_, edges = _from_nx(g)
            if nx.is_connected(g) and not obstruction_present(adjacency(n_, edges)):
                break
        ops.append(_op(rng, n_, edges, "obstruction-free"))
    rng.shuffle(ops)
    return ops


def frames_large(rng: random.Random) -> list[dict]:
    """line_graph -> laplacian_method -> tightness -> associated_graph ->
    text round trip, on roots large enough for the O(m^2) loops to matter.
    The random roots sit on a fixed (n, density) grid so that a pass costs
    about the same on every seed."""
    roots = [_complete(n) for n in (20, 30, 40)]
    for n in (20, 30, 40, 50, 60):
        for density in (0.1, 0.3, 0.5):
            m = max(n - 1, round(density * n * (n - 1) / 2))
            roots.append(random_connected(rng, n, m))
    ops = [_op(rng, n, e, "complete" if len(e) == n * (n - 1) // 2 else "random")
           for n, e in roots]
    rng.shuffle(ops)
    return ops


def _is_line(n, edges) -> bool:
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    try:
        nx.inverse_line_graph(g)
    except nx.NetworkXError:
        return False
    return True


def recognize_lines(rng: random.Random) -> list[dict]:
    """is_line_graph, plus root_graph up to its cap, on line graphs and on
    non-line graphs.

    The searches are exponential, and on random dense inputs their cost
    spans three decades (0.3 s to 2.3 s for G(21, 0.8)), so a pass of
    random inputs alone would cost a different amount on every seed.  The
    heavy part is therefore a fixed set of graphs, which the seed only
    relabels: L(K_7), line graphs of other dense roots, and dense non-line
    graphs on which root_graph's search is longest, all chosen among
    candidates for moving at most 10% under relabelling.  The seeded random
    inputs around them are line graphs of degree-capped roots with 8 to 30
    edges, line graphs with one adjacency toggled, and sparse random
    non-line graphs.
    """
    ops = []
    for g in (nx.complete_graph(7), nx.complete_graph(6),
              nx.complete_bipartite_graph(5, 5), nx.complete_bipartite_graph(3, 6),
              nx.complete_bipartite_graph(3, 5), nx.complete_bipartite_graph(4, 4),
              nx.petersen_graph(), nx.hypercube_graph(3)):
        ops.append(_line_op(rng, _from_nx(g), "line-fixed"))
    for parts in ((2,) * 6, (2,) * 8, (3,) * 4, (3,) * 5, (3,) * 6):
        n, edges = _from_nx(nx.complete_multipartite_graph(*parts))
        ops.append(_op(rng, n, edges, "dense-fixed", root=None,
                       root_call=n <= ROOT_GRAPH_MAX_N))
    # Three roots per edge count: the densest possible, a tree, and one
    # halfway between.
    for m in range(8, LINE_GRAPH_MAX_N + 1):
        lo = _min_order(m, ROOT_MAX_DEGREE)
        for n in (lo, (lo + m + 1) // 2, m + 1):
            ops.append(_line_op(rng, random_connected(rng, n, m, ROOT_MAX_DEGREE), "line"))
    for i in range(24):
        if i % 2:
            n = 12 + (i // 2) * 18 // 11
            while True:
                g = nx.gnp_random_graph(n, rng.uniform(0.15, 0.35), seed=rng.randrange(2**32))
                n_, edges = _from_nx(g)
                if nx.is_connected(g) and not _is_line(n_, edges):
                    break
            tag = "sparse"
        else:
            # One adjacency toggled: often claw-free, so the recognizer has
            # to look past G1 for its witness.
            while True:
                m = rng.randint(12, LINE_GRAPH_MAX_N)
                root = random_connected(rng, rng.randint(_min_order(m, ROOT_MAX_DEGREE), m),
                                        m, ROOT_MAX_DEGREE)
                n_, edges = _line(root)
                edges = sorted(set(edges) ^ {tuple(sorted(rng.sample(range(n_), 2)))})
                g = nx.Graph(edges)
                if g.number_of_nodes() == n_ and nx.is_connected(g) and not _is_line(n_, edges):
                    break
            tag = "toggled-line"
        ops.append(_op(rng, n_, edges, tag, root=None, root_call=n_ <= ROOT_GRAPH_MAX_N))
    rng.shuffle(ops)
    return ops


def _line_op(rng, root, tag) -> dict:
    n, edges = _line(root)
    return _op(rng, n, edges, tag, root=root, root_call=n <= ROOT_GRAPH_MAX_N)


def _min_order(m: int, max_degree: int) -> int:
    """Fewest vertices a connected graph with m edges and the degree cap
    can have."""
    n = 2
    while n * (n - 1) // 2 < m or n * max_degree // 2 < m:
        n += 1
    return n


# CLI family -> networkx twin, grouped by the classify verdict and the path
# that reaches it.  A run classifies one seeded member of each group, so
# every seed sends the same mix of paths through the program.
_CLI_CLASSIFY = [
    [(["complete", str(k)], nx.complete_graph(k), "tight") for k in range(3, 10)]
    + [(["cycle", "4"], nx.cycle_graph(4), "tight"),
       (["diamond"], nx.Graph([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), "tight")],
    [(["path", str(k)], nx.path_graph(k), "not_tight") for k in range(3, 10)]
    + [(["star", str(k)], nx.star_graph(k - 1), "not_tight") for k in range(3, 10)]
    + [(["o", str(k)], nx.Graph(_o_graph(k)[1]), "not_tight") for k in range(4, 10)],
    [(["cycle", str(k)], nx.cycle_graph(k), "not_tight") for k in range(5, 10)],
    [(["complete-bipartite", "2", str(k)], nx.complete_bipartite_graph(2, k),
      "literature_not_tight") for k in range(3, 7)],
]

# Sweep -> the "checked" count it prints at the parent commit.
_SWEEPS = [
    (["sweep", "root-order", "--max-n", "7"], 78),
    (["sweep", "lemma-p4", "--max-n", "7"], 852),
    (["sweep", "join-line", "--max-n", "5"], 429),
]


def cli_sweeps(rng: random.Random) -> list[dict]:
    """One CLI invocation per op, run one at a time; a pipeline's stages
    feed each other's stdout to stdin.  Returns a flat op list, each op
    saying whether it reads the previous stage's output."""
    k7 = _complete(7)
    pipelines = [[{"argv": argv, "check": "sweep", "checked": c}] for argv, c in _SWEEPS]
    pipelines.append([
        {"argv": ["gen", "complete", "7"], "check": "gen", "rc": 0, "graph": k7},
        {"argv": ["linegraph"], "check": "linegraph", "rc": 0},
        {"argv": ["rootgraph"], "check": "rootgraph", "rc": 0, "graph": k7},
    ])
    pipelines.append([
        {"argv": ["frame", "lkn", "40"], "check": "frame", "rc": 0, "graph": _complete(40)},
        {"argv": ["check", "tight"], "check": "tight", "rc": 0},
    ])
    for params, twin, verdict in (rng.choice(group) for group in _CLI_CLASSIFY):
        pipelines.append([
            {"argv": ["gen", *params], "check": "gen", "rc": 0, "graph": _from_nx(twin)},
            {"argv": ["classify", "--out", "{cert}"], "check": "classify",
             "rc": 0 if verdict == "tight" else 1, "expect": verdict},
        ])
    rng.shuffle(pipelines)
    ops = []
    for stages in pipelines:
        for s, stage in enumerate(stages):
            ops.append({**stage, "stdin_prev": s > 0, "tag": stage["check"]})
    return ops


GENERATORS = {
    "classify-mix": classify_mix,
    "frames-large": frames_large,
    "recognize-lines": recognize_lines,
    "cli-sweeps": cli_sweeps,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
