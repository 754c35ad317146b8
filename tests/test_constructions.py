"""Explicit frame families, tight completions, and the duplication chain."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from framegraphs import constructions as cons
from framegraphs.frames import (
    BorderlineEntryWarning,
    Frame,
    associated_graph,
    frame_operator,
    gramian,
    tightness,
)
from framegraphs.graphs import (
    Graph,
    GraphError,
    beineke,
    complete,
    complete_bipartite,
    cycle,
    delete_edge,
    enumerate_connected,
    o_graph,
    path,
)
from framegraphs.linegraph import line_graph
from framegraphs.spectral import TAU, sym_eig

import reference_frames as reference
from reference_graphs import is_isomorphic


# ---------------------------------------------------------------------------
# Laplacian method
# ---------------------------------------------------------------------------

def test_laplacian_method_complete_graphs():
    for n in range(3, 8):
        f = cons.laplacian_method(complete(n))
        assert f.d == n - 1 and f.n == n * (n - 1) // 2
        assert np.max(np.abs(frame_operator(f) - n * np.eye(n - 1))) < 1e-8
        assert associated_graph(f).graph == line_graph(complete(n)).line


def test_laplacian_method_operator_spectrum():
    # The frame-operator spectrum is the nonzero Laplacian spectrum.
    nx = pytest.importorskip("networkx")
    f = cons.laplacian_method(cycle(5))
    lap = nx.laplacian_matrix(nx.cycle_graph(5), nodelist=range(5)).toarray()
    lap_vals = sym_eig(lap)[0][1:]
    op_vals = sym_eig(frame_operator(f))[0]
    assert np.allclose(np.sort(op_vals), np.sort(lap_vals))


def test_laplacian_method_pattern_matches_incidence_gram():
    """Gram off-diagonal support equals that of B^T B for every small root."""
    for n in range(2, 7):
        for p in enumerate_connected(n):
            f = cons.laplacian_method(p)
            inc = cons.oriented_incidence(p)
            ref = inc.T @ inc
            g = gramian(f)
            for i in range(p.m):
                for j in range(i + 1, p.m):
                    assert (abs(g[i, j]) > 1e-9) == (ref[i, j] != 0)


def test_laplacian_method_guards():
    with pytest.raises(GraphError):
        cons.laplacian_method(Graph(3, ()))
    with pytest.raises(GraphError):
        cons.laplacian_method(Graph.from_edges(4, [(0, 1), (2, 3)]))


# ---------------------------------------------------------------------------
# L(K_n) in dimension n-2
# ---------------------------------------------------------------------------

def test_lkn_small_frame():
    for n in range(3, 8):
        f = cons.lkn_small_frame(n)
        assert f.d == n - 2
        assert np.max(np.abs(frame_operator(f) - n * np.eye(n - 2))) < 1e-8
        # Columns follow the documented edge order of K_n: column i < n - 1
        # is the edge {i, n - 1}, the rest are the edges of K_{n-1}.
        col_edges = [(i, n - 1) for i in range(n - 1)] + list(complete(n - 1).edges)
        kn = complete(n)
        lkn = line_graph(kn).line
        perm = {i: kn.edges.index(e) for i, e in enumerate(col_edges)}
        pattern = associated_graph(f).graph
        assert pattern.m == lkn.m
        for i, j in pattern.edges:
            assert lkn.has_edge(perm[i], perm[j])


def test_lkn_small_base_matrix_spectrum():
    # M M^T has one zero eigenvalue and n with multiplicity n-2.
    for n in range(3, 9):
        k = n - 1
        c = np.eye(k) - np.ones((k, k)) / k
        d = cons.oriented_incidence(complete(k))
        m = np.hstack([c, d])
        vals = sym_eig(m @ m.T)[0]
        assert abs(vals[0]) < 1e-8
        assert np.max(np.abs(vals[1:] - n)) < 1e-8


def test_lkn_small_guard():
    with pytest.raises(GraphError):
        cons.lkn_small_frame(2)


# ---------------------------------------------------------------------------
# Star method
# ---------------------------------------------------------------------------

def test_star_frame_parseval_and_pattern():
    for n in range(2, 9):
        for d in range(1, n):
            f = cons.star_frame(n, d)
            assert f.d == d and f.n == n
            assert tightness(f).kind == "parseval"
            assert associated_graph(f).graph == complete(n)


def _star_rows(n, keep):
    """The rows of the full star frame for K_n named by the 1-based
    columns in keep: the frame a keep set selects."""
    return Frame(cons.star_frame(n, n - 1).synthesis[[k - 1 for k in keep]])


def test_star_frame_keeps_alternating_rows():
    # star_frame(n, d) is, bit for bit, the rows 1, 3, 5, ... of the full
    # frame extended by the even rows, largest first, to d rows.
    for n in range(2, 11):
        for d in range(1, n):
            keep = (list(range(1, n, 2)) + list(range(2, n, 2))[::-1])[:d]
            expected = _star_rows(n, sorted(keep)).synthesis
            assert np.array_equal(cons.star_frame(n, d).synthesis, expected), (n, d)
    for n, d, keep in ((8, 3, [1, 3, 5]), (8, 5, [1, 3, 5, 6, 7]), (5, 4, [1, 2, 3, 4])):
        assert np.array_equal(cons.star_frame(n, d).synthesis, _star_rows(n, keep).synthesis)


def test_star_frame_matches_eigenvectors_times_incidence():
    # The closed-form rows equal, bit for bit, X^T B for the star Laplacian's
    # eigenvectors X and the star's incidence matrix B.
    for n in range(2, 81):
        for d in range(1, n):
            expected = reference.star_frame(n, d)
            assert cons.star_frame(n, d).synthesis.tobytes() == expected.tobytes(), (n, d)


def test_star_frame_allocates_only_its_rows():
    # A 3 x 4000 frame takes 96 kB; X and B for the star on 4001 vertices
    # would take about 128 MB each.
    tracemalloc.start()
    try:
        f = cons.star_frame(4000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * f.synthesis.nbytes


def _has_repeated_columns(f):
    cols = f.synthesis
    return any(
        np.max(np.abs(cols[:, i] - cols[:, j])) < 1e-12
        for i, j in itertools.combinations(range(f.n), 2)
    )


def test_star_frame_avoids_repeated_columns_when_avoidable():
    # Whenever some choice of d rows of the full frame, row 1 among them,
    # gives distinct frame vectors, star_frame(n, d) does as well (d >= 2).
    for n in range(4, 9):
        for d in range(2, n):
            avoidable = any(
                not _has_repeated_columns(_star_rows(n, [1, *rest]))
                for rest in itertools.combinations(range(2, n), d - 1)
            )
            if avoidable:
                assert not _has_repeated_columns(cons.star_frame(n, d)), (n, d)


def test_star_frame_consecutive_keep_repeats_columns():
    # Keeping consecutive rows does produce repeated vectors, which is
    # why star_frame skips every other row.
    f = _star_rows(5, [1, 2])
    cols = f.synthesis
    assert any(
        np.max(np.abs(cols[:, i] - cols[:, j])) < 1e-12
        for i, j in itertools.combinations(range(5), 2)
    )
    assert tightness(f).kind == "parseval"
    assert associated_graph(f).graph == complete(5)


def test_star_frame_guards():
    with pytest.raises(GraphError):
        cons.star_frame(1, 1)
    with pytest.raises(GraphError):
        cons.star_frame(5, 5)


# ---------------------------------------------------------------------------
# K_2 x K_n product frame
# ---------------------------------------------------------------------------

def test_k2kn_frame():
    for n in range(3, 9):
        f = cons.k2kn_frame(n)
        t = tightness(f)
        assert t.kind == "tight"
        assert abs(t.upper - (n * n - 2 * n + 2)) < 1e-8
        k2_box_kn = line_graph(complete_bipartite(2, n)).line
        assert associated_graph(f).graph == k2_box_kn
    with pytest.raises(GraphError):
        cons.k2kn_frame(2)


# ---------------------------------------------------------------------------
# Tight completions
# ---------------------------------------------------------------------------

def completion_pool():
    return [
        Frame(cons.diamond_frame().synthesis[:, :3]),
        cons.laplacian_method(path(4)),
        cons.laplacian_method(cycle(5)),
        Frame(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.25], [0.0, 0.0, 1.0]])),
        Frame(np.diag([1.0, 2.0, 3.0])),
    ]


def test_minimal_completion_is_tight_with_deficit_count():
    for f in completion_pool():
        res = cons.minimal_tight_completion(f)
        t = tightness(res.frame)
        assert t.kind in ("tight", "parseval")
        assert abs(t.upper - res.bound) < 1e-8
        vals = sym_eig(frame_operator(f))[0]
        deficit = int(np.sum(res.bound - vals > 1e-9 * max(1.0, res.bound)))
        assert len(res.added) == deficit
        # Added columns really are the completion: original columns unchanged.
        assert np.array_equal(res.frame.synthesis[:, : f.n], f.synthesis)


def test_minimal_completion_noop_on_tight_frames():
    res = cons.minimal_tight_completion(cons.diamond_frame())
    assert res.added == ()
    assert res.bound == pytest.approx(1.0)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_minimal_completion_top_cluster(scale):
    # The top cluster runs down the ascending spectrum until a gap above
    # TAU * lambda_max: a chain of smaller gaps stays one cluster even when
    # it spans more than the threshold, and each value below the last big
    # gap gets one added vector.
    rng = np.random.default_rng(3)
    half = 0.5 * TAU
    for vals, added in (([1.0 + k * half for k in range(6)], 0),
                        ([0.5, 0.5 + half, 1.0, 1.0 + half, 1.0 + 8 * half, 1.0 + 9 * half], 4)):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        f = Frame(scale * q @ np.diag(np.sqrt(vals)))
        res = cons.minimal_tight_completion(f)
        assert len(res.added) == added
        assert res.bound == pytest.approx(scale**2 * np.mean(vals[added:]))


def _random_completion_beats(f, count, bound, rng, tries=300):
    """Randomized search for a completion with `count` columns; True if found."""
    d = f.d
    s = frame_operator(f)
    target = bound * np.eye(d) - s
    for _ in range(tries):
        h = rng.standard_normal((d, count))
        # Best-effort scaling: match the Frobenius norm of the gap.
        gap = np.linalg.norm(target)
        if np.linalg.norm(h @ h.T) > 0:
            h *= np.sqrt(gap / np.linalg.norm(h @ h.T))
        if np.max(np.abs(h @ h.T - target)) < 1e-6:
            return True
    return False


def test_minimal_completion_minimality_oracle():
    """No completion with fewer columns exists (randomized refutation, d <= 3).

    If S has k eigenvalues below the bound, c*I - S has rank k for every
    c >= bound, so H H^T = c*I - S needs at least k columns in H.
    """
    rng = np.random.default_rng(0)
    for f in completion_pool():
        if f.d > 3:
            continue
        res = cons.minimal_tight_completion(f)
        k = len(res.added)
        if k == 0:
            continue
        # Rank argument: the gap matrix has rank exactly k at the bound.
        gap = res.bound * np.eye(f.d) - frame_operator(f)
        vals = np.abs(sym_eig(gap)[0])
        assert int(np.sum(vals > 1e-9 * max(1.0, res.bound))) == k
        # And a randomized search with k-1 columns never succeeds.
        assert not _random_completion_beats(f, k - 1, res.bound, rng)


def test_two_step_completion():
    for f in completion_pool():
        res = cons.two_step_completion(f)
        t = tightness(res.frame)
        assert t.kind in ("tight", "parseval")
        assert len(res.added) <= (f.d - 1) * (f.d + 2) // 2
        assert abs(t.upper - res.bound) < 1e-8


def test_completion_comparison_on_truncated_diamond():
    f = Frame(cons.diamond_frame().synthesis[:, :3])
    assert len(cons.minimal_tight_completion(f).added) == 1
    assert len(cons.two_step_completion(f).added) == 2


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_two_step_completion_is_scale_invariant(scale):
    f = Frame(scale * cons.diamond_frame().synthesis[:, :3])
    res = cons.two_step_completion(f)
    assert len(res.added) == 2
    assert tightness(res.frame).kind == "tight"


# ---------------------------------------------------------------------------
# Duplication chain
# ---------------------------------------------------------------------------

def test_diamond_and_c4_frames_exact_entries():
    f = cons.diamond_frame()
    s2, s10 = np.sqrt(2.0), np.sqrt(10.0)
    expected = np.array([[1 / s2, -3 / s2, 2.0, 1.0], [1 / s2, 3 / s2, 1.0, 2.0]]) / s10
    assert np.array_equal(f.synthesis, expected)
    g = cons.c4_frame()
    assert np.array_equal(
        g.synthesis, np.array([[1.0, 1.0, 0.0, -1.0], [0.0, 1.0, 1.0, 1.0]]) / np.sqrt(3.0)
    )


def test_kn_minus_e_frames():
    for n in range(4, 9):
        f = cons.kn_minus_e_frame(n)
        assert f.d == 2 and f.n == n
        assert tightness(f).kind == "parseval"
        assert associated_graph(f).graph == delete_edge(complete(n), (0, 1))
    with pytest.raises(GraphError):
        cons.kn_minus_e_frame(3)


def test_line_o_frames():
    for n in range(4, 9):
        f = cons.line_o_frame(n)
        assert tightness(f).kind == "parseval"
        assert is_isomorphic(
            associated_graph(f).graph, line_graph(o_graph(n)).line
        )
    with pytest.raises(GraphError):
        cons.line_o_frame(3)


def test_duplication_chain_frames_up_to_64():
    # One split per frame, so no Gram entry shrinks towards the zero
    # threshold as n grows: the labeled pattern holds at every order.
    with warnings.catch_warnings():
        warnings.simplefilter("error", BorderlineEntryWarning)
        for n in range(4, 65):
            f = cons.kn_minus_e_frame(n)
            assert tightness(f).kind == "parseval"
            assert associated_graph(f).graph == delete_edge(complete(n), (0, 1))
            # L(O_n): vertex 1 sees only 2 and 3 of the clique on the rest.
            lo = Graph(n, tuple((u, v) for u, v in complete(n).edges
                                if 1 not in (u, v) or (u, v) in ((1, 2), (1, 3))))
            assert is_isomorphic(lo, line_graph(o_graph(n)).line)
            f = cons.line_o_frame(n)
            assert tightness(f).kind == "parseval"
            assert associated_graph(f).graph == lo


def _dup_chain_catalog():
    """L(O_n) for n = 4..8 and the tight forbidden subgraphs G2, G3, G6."""
    catalog = {f"line-o{n}": cons.line_o_frame(n) for n in range(4, 9)}
    catalog.update(g2=cons.g2_frame(), g3=cons.kn_minus_e_frame(5), g6=cons.g6_frame())
    return catalog


def test_dup_chain_catalog():
    catalog = _dup_chain_catalog()
    assert [f.n for f in catalog.values()] == [4, 5, 6, 7, 8, 5, 5, 6]
    for frame in catalog.values():
        assert tightness(frame).kind == "parseval"
    assert is_isomorphic(associated_graph(catalog["g2"]).graph, beineke(2))
    assert is_isomorphic(associated_graph(catalog["g3"]).graph, beineke(3))
    assert is_isomorphic(associated_graph(catalog["g6"]).graph, beineke(6))
