"""Obstruction tests, classification certificates, and exhaustive sweeps."""

import inspect
import random
import time
import warnings
from collections import Counter

import numpy as np
import pytest

from framegraphs import constructions, frames, verify
from framegraphs.frames import BorderlineEntryWarning, represents, tightness
from framegraphs.graphs import (
    Graph,
    GraphError,
    beineke,
    complete,
    complete_bipartite,
    components,
    contains_induced,
    cycle,
    delete_edge,
    duplicate_vertex,
    enumerate_connected,
    is_connected,
    join,
    o_graph,
    path,
    star,
)
from framegraphs.linegraph import is_line_graph, line_graph
from framegraphs.verify import (
    Certificate,
    classify,
    induced_path_sweep,
    join_line_check,
    neighbor_obstruction,
    root_order_theorem_check,
)

import reference_linegraph as reference
from reference_graphs import edge_cycle_check, is_isomorphic


# ---------------------------------------------------------------------------
# Obstructions
# ---------------------------------------------------------------------------

def _k2_box_kn(n):
    """K_2 x K_n with vertex (u, u') labelled u * n + u': the line graph of K_{2,n}."""
    return line_graph(complete_bipartite(2, n)).line


def test_neighbor_obstruction_witnesses():
    # P_4: the ends 0 and 2 share only vertex 1.
    assert neighbor_obstruction(path(4)) == (0, 2, 1)
    assert neighbor_obstruction(cycle(5)) == (0, 2, 1)
    assert neighbor_obstruction(star(4)) == (1, 2, 0)


def test_neighbor_obstruction_none_cases():
    # C_4 and K_n have no such pair; K_{2,3} has none either although it is
    # not a tight frame graph -- the test is only a necessary condition.
    assert neighbor_obstruction(cycle(4)) is None
    assert neighbor_obstruction(complete(5)) is None
    assert neighbor_obstruction(complete_bipartite(2, 3)) is None


def test_neighbor_obstruction_witness_is_valid():
    for g in (path(6), cycle(7), o_graph(6), star(5)):
        w = neighbor_obstruction(g)
        assert w is not None
        u, v, c = w
        assert not g.has_edge(u, v)
        assert g.neighbors(u) & g.neighbors(v) == {c}


def test_sparse_checks_build_no_rows():
    # Bitmask rows of P_60000 would take about 225 MB; these checks read
    # the neighbour sets alone.
    g = path(60000)
    assert is_connected(g) and len(components(g)) == 1
    assert neighbor_obstruction(g) == (0, 2, 1)
    assert "_adj" in vars(g) and "_rows" not in vars(g)


def _random_connected(rng, n):
    """A random spanning tree on n vertices plus each other edge with one
    probability drawn per graph, so dense graphs are common."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    density = rng.uniform(0.2, 0.95)
    edges |= {
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    }
    return Graph.from_edges(n, edges)


def test_edge_cycle_witness_implies_neighbor_witness():
    # Why classify has no edge-cycle stage: on a connected graph with
    # n >= 3, an edge on no 3- or 4-cycle always comes with a non-adjacent
    # pair whose only common neighbor is one of its endpoints.
    assert edge_cycle_check(cycle(4)) is None and edge_cycle_check(complete(4)) is None
    assert edge_cycle_check(path(3)) == edge_cycle_check(cycle(5)) == (0, 1)
    nx = pytest.importorskip("networkx")
    graphs = [
        Graph.from_edges(a.number_of_nodes(), a.edges())
        for a in nx.graph_atlas_g()
        if a.number_of_nodes() >= 3 and nx.is_connected(a)
    ]
    rng = random.Random(20201)
    graphs += [_random_connected(rng, rng.randint(3, 16)) for _ in range(2200)]
    free = 0
    for g in graphs:
        if neighbor_obstruction(g) is None:
            free += 1
            assert edge_cycle_check(g) is None, g
    assert len(graphs) == 3194 and free > 1000


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def check_tight_certificate(g, cert):
    assert cert.verdict == "tight"
    assert cert.frame is not None
    assert tightness(cert.frame).kind in ("tight", "parseval")
    assert represents(cert.frame, g)


def test_classify_tight_families():
    for g in (
        complete(1),
        complete(6),
        delete_edge(complete(6), (2, 4)),
        cycle(4),
        line_graph(o_graph(6)).line,
        line_graph(complete(5)).line,
        _k2_box_kn(4),
        duplicate_vertex(cycle(4), 0),          # G2
        duplicate_vertex(duplicate_vertex(Graph.from_edges(
            4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), 0), 1),  # G6
    ):
        check_tight_certificate(g, classify(g))


def test_classify_certificate_dimension():
    cert = classify(complete(6))
    assert cert.dimension == 5
    cert = classify(cycle(4))
    assert cert.dimension == 2


def test_classify_not_tight():
    for g in (path(5), cycle(7), star(6)):
        cert = classify(g)
        assert cert.verdict == "not_tight"
        kind, (u, v, w) = cert.witness
        assert kind == "neighbor"
        assert not g.has_edge(u, v) and g.neighbors(u) & g.neighbors(v) == {w}


def test_classify_literature_annotation():
    cert = classify(complete_bipartite(2, 4))
    assert cert.verdict == "literature_not_tight"
    # Recognised by degrees, so the order is not bounded by recursion depth.
    assert classify(complete_bipartite(2, 1000)).verdict == "literature_not_tight"


def test_k2n_is_annotated_before_the_pair_scan(monkeypatch):
    # K_{2,k} has no neighbour witness, and its shape is tested first, so
    # classify(K_{2,4000}) does not pay the quadratic pair scan.
    def no_scan(g):
        raise AssertionError("pair scan reached")

    monkeypatch.setattr(verify, "neighbor_obstruction", no_scan)
    for k in [*range(3, 61), 4000]:
        assert classify(complete_bipartite(2, k)).verdict == "literature_not_tight", k
        # The same graph with its hubs last, so vertex 0 is a leaf.
        leaves_first = Graph.from_edges(k + 2, [(i, k + j) for i in range(k) for j in (0, 1)])
        assert classify(leaves_first).verdict == "literature_not_tight", k


def test_classify_unknown():
    # The 6-vertex wheel matches no catalog entry and no obstruction fires.
    cert = classify(beineke(9))
    assert cert.verdict == "unknown"
    # Verdict counts (tight, not_tight, literature_not_tight, unknown) over
    # every connected graph on 5, 6 and 7 vertices.
    kinds = ("tight", "not_tight", "literature_not_tight", "unknown")
    for n, counts in ((5, [4, 14, 1, 2]), (6, [6, 82, 1, 23]), (7, [3, 712, 1, 137])):
        found = Counter(classify(g).verdict for g in enumerate_connected(n))
        assert [found[k] for k in kinds] == counts, n


def test_classify_rejects_disconnected():
    with pytest.raises(GraphError):
        classify(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_classify_relabels_onto_input():
    # A relabeled K_5 minus an edge: the certificate frame must follow the
    # input labels, i.e. the Gram zero sits exactly at the missing edge.
    g = delete_edge(complete(5), (1, 3))
    cert = classify(g)
    check_tight_certificate(g, cert)
    gram = cert.frame.synthesis.T @ cert.frame.synthesis
    assert abs(gram[1, 3]) < 1e-9
    assert np.min(np.abs(gram[0, 1:])) > 1e-9


def _shuffled(g, rng):
    """g with its vertices relabeled by a random permutation."""
    p = list(range(g.n))
    rng.shuffle(p)
    return Graph.from_edges(g.n, [(p[u], p[v]) for u, v in g.edges])


def test_classify_above_former_order_cap():
    # The catalog matches at every order, and no certificate has a Gram
    # entry near the zero threshold.
    rng = random.Random(64)
    families = [g for n in range(25, 65) for g in (
        complete(n), delete_edge(complete(n), (0, 1)), line_graph(o_graph(n)).line)]
    families += [line_graph(complete(k)).line for k in range(8, 12)]
    families += [_k2_box_kn(k) for k in range(3, 33)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", BorderlineEntryWarning)
        for g in families:
            g = _shuffled(g, rng)
            check_tight_certificate(g, classify(g))


def _chang_graphs():
    """The three Chang graphs: L(K_8) Seidel-switched on the line vertices
    of a perfect matching, of C_3 + C_5 and of C_8 in K_8."""
    lk8 = line_graph(complete(8)).line
    index = {e: i for i, e in enumerate(complete(8).edges)}
    c8 = [(i, (i + 1) % 8) for i in range(8)]
    c3_c5 = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
    for switched in ([(0, 1), (2, 3), (4, 5), (6, 7)], c3_c5, c8):
        s = {index[tuple(sorted(e))] for e in switched}
        yield Graph(28, tuple((u, v) for u in range(28) for v in range(u + 1, 28)
                              if lk8.has_edge(u, v) != ((u in s) != (v in s))))


def test_classify_refutes_chang_graphs():
    # Each Chang graph is strongly regular with L(K_8)'s parameters
    # (28, 12, 6, 4), so it passes every count the catalog filters by; only
    # the root recovery tells it apart, as it is no line graph, and no
    # obstruction fires.
    rng = random.Random(28)
    for g in _chang_graphs():
        g = _shuffled(g, rng)
        assert set(g.degree_sequence()) == {12}
        assert {(g.has_edge(u, v), len(g.neighbors(u) & g.neighbors(v)))
                for u in range(28) for v in range(u + 1, 28)} == {(True, 6), (False, 4)}
        assert classify(g).verdict == "unknown"


# ---------------------------------------------------------------------------
# Labelling by structure
# ---------------------------------------------------------------------------

def _family_members():
    """(detail, graph) for every catalog family, L(K_k), K_2 x K_k and
    L(O_n) well past the orders of _catalog_inputs."""
    yield from (("k1" if n == 1 else "complete", complete(n)) for n in range(1, 12))
    yield from (("complete-minus-edge", delete_edge(complete(n), (0, 1))) for n in range(4, 12))
    yield from (("cycle4", cycle(4)), ("g2", beineke(2)), ("g6", beineke(6)))
    yield from (("line-of-o", line_graph(o_graph(n)).line) for n in range(5, 41))
    yield from ((f"line-of-complete{k}", line_graph(complete(k)).line) for k in range(4, 13))
    yield from ((f"k2-box-k{k}", _k2_box_kn(k))
                for k in range(3, 21))


def test_each_family_is_labelled_by_its_structure(monkeypatch):
    # Relabelled members get their own entry's certificate, and only the
    # patterns of at most six vertices run the induced-map search: the
    # degrees or the root edges place every other vertex on its column.
    searched = []

    def counted(g, p):
        searched.append(p.n)
        return contains_induced(g, p)

    monkeypatch.setattr(verify, "contains_induced", counted)
    rng = random.Random(26)
    for detail, g in _family_members():
        for _ in range(3):
            h = _shuffled(g, rng)
            cert = classify(h)
            check_tight_certificate(h, cert)
            assert cert.detail == detail, (detail, h)
    assert searched and max(searched) <= 6


def test_catalog_rejects_graphs_that_only_fit_its_counts():
    rng = random.Random(16)
    # The six 4-regular graphs on 8 vertices fit K_2 x K_4's order and size.
    k2k4 = _k2_box_kn(4)
    quartic = [g for g in enumerate_connected(8) if set(g.degree_sequence()) == {4}]
    assert len(quartic) == 6 and sum(is_isomorphic(g, k2k4) for g in quartic) == 1
    for g in quartic:
        cert = classify(_shuffled(g, rng))
        assert (cert.detail == "k2-box-k4") == is_isomorphic(g, k2k4)
        assert (cert.verdict == "tight") == is_isomorphic(g, k2k4)
    # The house graph, C_5 plus a chord, has K_{2,3}'s degrees, so its line
    # graph has K_2 x K_3's order and size and a root with K_{2,3}'s degrees.
    house = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)])
    lh = line_graph(house).line
    assert (lh.n, lh.m) == (6, 9) and classify(_shuffled(lh, rng)).verdict == "not_tight"
    # K_5 less two disjoint edges fits L(O_5)'s order and size.
    g = delete_edge(delete_edge(complete(5), (0, 1)), (2, 3))
    assert (g.n, g.m) == (5, 8) and classify(_shuffled(g, rng)).verdict != "tight"
    # At (6, 12) the octahedron L(K_4) and L(O_6) each get their own entry.
    for g, detail in ((line_graph(complete(4)).line, "line-of-complete4"),
                      (line_graph(o_graph(6)).line, "line-of-o")):
        assert (g.n, g.m) == (6, 12)
        h = _shuffled(g, rng)
        cert = classify(h)
        check_tight_certificate(h, cert)
        assert cert.detail == detail


# ---------------------------------------------------------------------------
# The catalog memo
# ---------------------------------------------------------------------------

def _catalog_inputs(n):
    """One graph of each catalog family on n vertices."""
    gs = [complete(n), delete_edge(complete(n), (0, 1)), line_graph(o_graph(n)).line]
    if n == 4:
        gs.append(cycle(4))
    if n == 5:
        gs.append(duplicate_vertex(cycle(4), 0))  # G2
    if n == 6:
        gs.append(duplicate_vertex(duplicate_vertex(delete_edge(complete(4), (0, 1)), 0), 1))
    gs += [line_graph(complete(k)).line for k in range(4, 8) if k * (k - 1) // 2 == n]
    if n % 2 == 0 and n >= 6:
        gs.append(_k2_box_kn(n // 2))
    return gs


def test_warm_catalog_matches_cold():
    rng = random.Random(24)
    details = set()
    for n in range(4, 25):
        for g in _catalog_inputs(n):
            g = _shuffled(g, rng)
            classify(g)
            warm = classify(g)
            verify._catalog.cache_clear()
            cold = classify(g)
            check_tight_certificate(g, warm)
            assert (warm.verdict, warm.detail) == (cold.verdict, cold.detail)
            assert warm.frame.synthesis.tobytes() == cold.frame.synthesis.tobytes()
            details.add(warm.detail)
    assert details == {"complete", "complete-minus-edge", "cycle4", "line-of-o", "g2", "g6"} | {
        f"line-of-complete{k}" for k in range(4, 8)} | {f"k2-box-k{k}" for k in range(3, 13)}


def test_line_of_complete_listed_exactly_at_its_order():
    # One candidate k per order n, from k(k - 1)/2 = n.
    def names(n, m):
        return [name for name, *_ in verify._catalog(n, m)
                if name.startswith("line-of-complete")]

    for k in range(3, 16):
        n = k * (k - 1) // 2
        assert names(n, n * (k - 2)) == [f"line-of-complete{k}"]
        assert names(n - 1, n * (k - 2)) == names(n + 1, n * (k - 2)) == []


def test_catalog_memo_cannot_be_poisoned():
    verify._catalog.cache_clear()
    first, k1 = classify(complete(6)), classify(complete(1))
    assert k1.detail == "k1"
    for cert in (first, k1):
        if cert.frame.synthesis.flags.writeable:
            cert.frame.synthesis[:] = 7.0
    # The memoised frames themselves refuse writes.
    for n, m in ((6, 15), (1, 0)):
        for _, frame, *_ in verify._catalog(n, m):
            with pytest.raises(ValueError):
                frame.synthesis[0, 0] = 7.0
    again = [classify(complete(6)), classify(complete(1))]
    verify._catalog.cache_clear()
    for g, warm in zip((complete(6), complete(1)), again):
        cold = classify(g)
        assert warm.frame.synthesis.tobytes() == cold.frame.synthesis.tobytes()
        check_tight_certificate(g, warm)


def test_catalog_frame_built_once_per_key(monkeypatch):
    built = []
    original = constructions.kn_minus_e_frame

    def counted(n):
        built.append(n)
        return original(n)

    monkeypatch.setattr(constructions, "kn_minus_e_frame", counted)
    verify._catalog.cache_clear()
    k12e = delete_edge(complete(12), (0, 1))
    rng = random.Random(12)
    for _ in range(20):
        g = _shuffled(k12e, rng)
        check_tight_certificate(g, classify(g))
    assert built == [12]
    assert verify._catalog.cache_info().currsize == 1


def test_catalog_pattern_builds_its_steps_once():
    verify._catalog.cache_clear()
    rng = random.Random(8)
    c4 = cycle(4)
    (_, _, shape), = verify._catalog(c4.n, c4.m)
    pattern = shape.args[0]
    hosts = [_shuffled(c4, rng) for _ in range(2)]
    check_tight_certificate(hosts[0], classify(hosts[0]))
    steps = pattern.__dict__["_steps"]
    check_tight_certificate(hosts[1], classify(hosts[1]))
    assert pattern.__dict__["_steps"] is steps
    assert not any("_steps" in g.__dict__ for g in hosts)


def test_catalog_builds_no_frame_it_cannot_match(monkeypatch):
    # The per-family edge-count tests carry load: a catalog built per order
    # alone would build star_frame(100_000, 99_999), about 80 GB, to
    # classify a path.
    built = []

    def refuse(name):
        def builder(*args, **kwargs):
            built.append(name)
            raise AssertionError(f"{name}{args} built for a graph it cannot match")
        return builder

    for name, fn in vars(constructions).items():
        if inspect.isfunction(fn) and fn.__module__ == constructions.__name__ \
                and not name.startswith("_"):
            monkeypatch.setattr(constructions, name, refuse(name))
    verify._catalog.cache_clear()
    assert verify._catalog(100_000, 99_999) == ()
    g = path(60_000)
    start = time.perf_counter()
    assert classify(g).verdict == "not_tight"
    assert time.perf_counter() - start < 1.0
    assert built == []
    verify._catalog.cache_clear()


def test_every_certificate_is_verified(monkeypatch):
    # The memo holds no verification result: each call re-runs both checks,
    # which classify imports from frames once a catalog pattern matches.
    calls = Counter()

    def counting(name):
        check = getattr(frames, name)

        def counted(*args):
            calls[name] += 1
            return check(*args)
        return counted

    for name in ("tightness", "represents"):
        monkeypatch.setattr(frames, name, counting(name))
    for _ in range(3):
        classify(complete(7))
    assert calls == {"tightness": 3, "represents": 3}


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_root_order_sweep():
    report = root_order_theorem_check(6)
    assert report.ok and report.checked > 0
    for max_n in (9, 1, -3):  # above the cap, or no root to check
        with pytest.raises(GraphError):
            root_order_theorem_check(max_n)
    report = root_order_theorem_check(7)
    assert report.ok and report.checked == 78
    report = root_order_theorem_check(8)
    assert report.ok and report.checked == 190


def test_root_order_sweep_enumerates_only_its_roots(monkeypatch):
    # The roots have m <= n, so each level is requested at excess 0 and
    # no full level is built.
    requested = []
    enumerate_all = verify.enumerate_connected
    monkeypatch.setattr(verify, "enumerate_connected",
                        lambda *args: requested.append(args) or enumerate_all(*args))
    assert root_order_theorem_check(8).checked == 190
    assert requested == [(k, 0) for k in range(2, 9)]


def test_induced_path_sweep():
    report = induced_path_sweep(6)
    assert report.ok and report.checked == 89
    for max_n in (9, 3, 0):  # above the cap, or too small to hold a P_4
        with pytest.raises(GraphError):
            induced_path_sweep(max_n)
    report = induced_path_sweep(7)
    assert report.ok and report.checked == 852
    report = induced_path_sweep(8)
    assert report.ok and report.checked == 11708


def test_join_line_sweep():
    report = join_line_check(4)
    assert report.ok and report.checked > 0
    with pytest.raises(GraphError):
        join_line_check(7)
    with pytest.raises(GraphError):
        join_line_check(2)
    report = join_line_check(5)
    assert report.ok and report.checked == 429


def test_join_check_matches_reference_g1_to_g3(atlas):
    """The join check passes exactly where the exhaustive search names G1,
    G2 or G3, though the witness now named can be another G_i."""
    pool = [g for k in range(3, 6) for g in enumerate_connected(k)]
    joins = [join(g, h) for i, g in enumerate(pool) for h in pool[i:]
             if not (g.m == g.n * (g.n - 1) // 2 and h.m == h.n * (h.n - 1) // 2)]
    assert len(joins) == 429
    # Joins whose witness is G6 or G9, where G2 or G3 must be searched for.
    assert sum(is_line_graph(j)[1] > 3 for j in joins) == 2
    for g in joins + [g for _, g in atlas]:
        verdict, expected = is_line_graph(g), reference.is_line_graph(g)
        assert verify._induces_g1_to_g3(g, verdict) == (
            expected is not True and expected[1] <= 3), g


def test_sweeps_record_failed_checks(monkeypatch):
    # With every check forced to fail, each checked case is a counterexample.
    monkeypatch.setattr(verify, "neighbor_obstruction", lambda g: None)
    monkeypatch.setattr(verify, "classify", lambda g: Certificate("unknown"))
    monkeypatch.setattr(verify, "is_line_graph", lambda g: True)
    for report in (root_order_theorem_check(5), induced_path_sweep(5), join_line_check(4)):
        assert report.checked > 0 and not report.ok
        assert len(report.counterexamples) == report.checked
