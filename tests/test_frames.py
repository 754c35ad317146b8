"""Frame predicates and transforms: bounds, tightness, patterns, Naimark,
duplication."""

import random
import tracemalloc
import warnings

import numpy as np
import pytest
import reference_frames as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from framegraphs import frames, linegraph
from framegraphs.constructions import (
    c4_frame,
    diamond_frame,
    g2_frame,
    g6_frame,
    k2kn_frame,
    kn_minus_e_frame,
    laplacian_method,
    line_o_frame,
    lkn_small_frame,
    minimal_tight_completion,
    star_frame,
)
from framegraphs.frames import (
    BorderlineEntryWarning,
    Frame,
    FrameError,
    ToleranceInconsistencyError,
    associated_graph,
    duplicate_vector,
    frame_operator,
    gramian,
    naimark_complement,
    tightness,
)
from framegraphs.graphs import (
    Graph,
    complete,
    components,
    cycle,
    diamond,
    duplicate_vertex,
    enumerate_connected,
    is_connected,
    join,
)
from framegraphs.linegraph import line_graph, root_graph
from framegraphs.matio import frame_to_text
from framegraphs.spectral import sym_eig
from framegraphs.verify import classify


def mercedes_frame():
    """Three unit-norm vectors at 120 degrees: a tight frame for R^2, B = 3/2."""
    ang = 2 * np.pi / 3
    cols = [[np.cos(k * ang), np.sin(k * ang)] for k in range(3)]
    return Frame(np.array(cols).T)


# ---------------------------------------------------------------------------
# Construction and basics
# ---------------------------------------------------------------------------

def test_frame_validation():
    with pytest.raises(FrameError):
        Frame(np.array([1.0, 2.0]))  # not 2-d
    with pytest.raises(FrameError):
        Frame(np.array([[1.0, np.inf]]))
    with pytest.raises(FrameError):
        Frame(np.array([[1.0, 2.0], [0.0, 0.0]]))  # rank 1 in R^2
    # S = scale^2 diag(1, 1e-15, 4) has rank 2 and S = scale^2 diag(1, 1e-6, 4)
    # rank 3, at every scale: the zero threshold is TAU * lambda_max.
    for scale in (1e-6, 1.0, 1e6):
        with pytest.raises(FrameError, match="do not span"):
            Frame(scale * np.diag(np.sqrt([1.0, 1e-15, 4.0])))
        assert Frame(scale * np.diag(np.sqrt([1.0, 1e-6, 4.0]))).d == 3
    f = Frame(np.eye(3))
    assert f.d == f.n == 3
    assert np.array_equal(f.synthesis[:, 1], np.array([0.0, 1.0, 0.0]))


def test_complex_frame_rejected():
    # Casting to float would drop the imaginary part: this one would pass
    # as Parseval, with only a ComplexWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FrameError, match="complex"):
            Frame(np.array([[1 + 1j, 0], [0, 1]]))


def test_records_compare_by_identity():
    # The generated __eq__ compared arrays and raised; these records are
    # equal only to themselves, and hash.
    f = Frame(np.eye(2))
    done = minimal_tight_completion(Frame(np.array([[1.0, 0.0], [0.0, 2.0]])))
    cert, other = classify(cycle(4)), classify(cycle(4))
    for a, b in ((f, Frame(np.eye(2))), (done, done.frame), (cert, other)):
        assert a == a and a != b
        hash(a)
    assert len({f, done, cert, other}) == 4


def test_too_few_columns_rejected_before_the_rank_test(monkeypatch):
    # d > n columns cannot span R^d, so the d x d operator is never formed:
    # a "rows 100000" / "cols 1" text must not ask for an 80 GB matrix.
    def no_rank(*args, **kwargs):
        raise AssertionError("rank test reached")

    monkeypatch.setattr(np.linalg, "eigh", no_rank)
    for shape in [(2, 1), (5, 3), (40, 1)]:
        with pytest.raises(FrameError, match="do not span the space"):
            Frame(np.ones(shape))


def test_operator_and_gramian():
    f = mercedes_frame()
    assert np.allclose(frame_operator(f), 1.5 * np.eye(2))
    g = gramian(f)
    assert np.allclose(np.diag(g), 1.0)
    assert np.allclose(g[0, 1], -0.5)


def test_frame_bounds():
    b = tightness(mercedes_frame())
    assert b.lower == pytest.approx(1.5) and b.upper == pytest.approx(1.5)
    # Diamond frame minus its fourth column has bounds (1/2, 1).
    f = Frame(diamond_frame().synthesis[:, :3])
    b = tightness(f)
    assert b.lower == pytest.approx(0.5, abs=1e-12)
    assert b.upper == pytest.approx(1.0, abs=1e-12)


def test_tightness_reuses_the_rank_check_eigenvalues(monkeypatch):
    # Frame keeps the frame-operator eigenvalues of its rank check, numpy's
    # eigh of S, so the bounds are those of sym_eig on S, bit for bit, and
    # tightness on an existing frame runs no eigendecomposition.
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for f in (mercedes_frame(), laplacian_method(complete(6)), c4_frame()):
        values = sym_eig(frame_operator(f))[0]
        calls.clear()
        b = tightness(f)
        assert b.kind in ("tight", "parseval")
        assert calls == []
        assert (b.lower, b.upper) == (values[0], values[-1])
    Frame(np.eye(2))
    assert len(calls) == 1
    # The frame holds a read-only copy, so the kept eigenvalues cannot go
    # stale: writing to the caller's array leaves the frame as it was.
    a = np.eye(2)
    f = Frame(a)
    a[0, 0] = 5.0
    assert f.synthesis[0, 0] == 1.0 and tightness(f).upper == 1.0
    with pytest.raises(ValueError):
        f.synthesis[0, 0] = 5.0


# ---------------------------------------------------------------------------
# Tightness
# ---------------------------------------------------------------------------

def test_tightness_kinds():
    assert tightness(mercedes_frame()).kind == "tight"
    assert tightness(diamond_frame()).kind == "parseval"
    assert tightness(Frame(np.array([[1.0, 0.0], [0.0, 2.0]]))).kind == "not_tight"


def test_tightness_cross_check_consistent_on_scaled_frames():
    # A tight-but-not-Parseval frame must fail both Parseval tests, not one.
    t = tightness(Frame(np.sqrt(2.0) * np.eye(4)))
    assert t.kind == "tight" and t.upper == pytest.approx(2.0)


def _with_spectrum(f, values):
    """f, with the frame-operator eigenvalues its rank check kept overwritten."""
    object.__setattr__(f, "_spectrum", np.array(values, dtype=float))
    return f


def test_tightness_cross_check_fires_in_the_last_block():
    # Columns 0..n-2 are a Parseval frame for span(e_1, e_2); column n-1 is
    # 2 e_3.  So S = diag(1, 1, 4), and G^2 - G is zero but for its last
    # diagonal entry, 4^2 - 4, which lies in the last of many row blocks.
    n = 600
    ang = 2 * np.pi * np.arange(n - 1) / (n - 1)
    x = np.zeros((3, n))
    x[:2, :-1] = np.sqrt(2 / (n - 1)) * np.array([np.cos(ang), np.sin(ang)])
    x[2, -1] = 2.0
    assert n > 2 * (frames._BLOCK_ENTRIES // n)  # three row blocks or more
    assert tightness(Frame(x)).kind == "not_tight"
    # A frame-operator spectrum that says Parseval contradicts G^2 != G.
    with pytest.raises(ToleranceInconsistencyError, match="parseval=True"):
        tightness(_with_spectrum(Frame(x), [1.0, 1.0, 1.0]))
    # On the Parseval frame with e_3 as its last column, G^2 = G, so a
    # spectrum that says not Parseval contradicts it.
    x[2, -1] = 1.0
    assert tightness(Frame(x)).kind == "parseval"
    with pytest.raises(ToleranceInconsistencyError, match="parseval=False"):
        tightness(_with_spectrum(Frame(x), [0.5, 1.0, 1.0]))
    with pytest.raises(ToleranceInconsistencyError, match="parseval=False"):
        tightness(_with_spectrum(Frame(np.eye(2)), [0.5, 1.0]))


# ---------------------------------------------------------------------------
# Gram pattern
# ---------------------------------------------------------------------------

def test_associated_graph_diamond():
    assert associated_graph(diamond_frame()).graph == diamond()
    assert associated_graph(diamond_frame()).graph != complete(4)


def test_associated_graph_c4():
    assert associated_graph(c4_frame()).graph == cycle(4)


def test_associated_graph_views_match_networkx(views_match_networkx):
    # On every catalog frame of order 4 to 24, both adjacency views of the
    # Gram pattern, derived from its edges, equal networkx's adjacency.
    catalog = [c4_frame(), g2_frame(), g6_frame()]
    catalog += [f for n in range(4, 25) for f in (
        star_frame(n, n - 1), kn_minus_e_frame(n), line_o_frame(n))]
    catalog += [laplacian_method(complete(k)) for k in range(4, 8)]
    catalog += [k2kn_frame(k) for k in range(3, 13)]
    for f in catalog:
        views_match_networkx(associated_graph(f).graph)


def test_line_graph_and_pattern_build_no_adjacency():
    # Both are compared by their edges alone, so neither adjacency view of
    # L(K_40) or of its Gram pattern is built.
    line = line_graph(complete(40)).line
    f = laplacian_method(complete(40))
    pattern = associated_graph(f).graph
    assert pattern == line
    for g in (line, pattern):
        assert "_adj" not in vars(g) and "_rows" not in vars(g)


def test_associated_graph_scale_invariance():
    f = diamond_frame()
    scaled = Frame(1e8 * f.synthesis)
    assert associated_graph(scaled).graph == diamond()


def test_borderline_entry_warning():
    eps = 5e-9  # within a decade of the default threshold
    mat = np.array([[1.0, 0.0], [eps, 1.0]])
    with pytest.warns(BorderlineEntryWarning):
        associated_graph(Frame(mat))
    # G[0, 3] = 5e-9 (an edge) and G[1, 2] = 2e-10 (not): one warning each,
    # named in row-major order of the upper triangle.
    mat = np.eye(4)
    mat[0, 3], mat[1, 2] = 5e-9, 2e-10
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pattern = associated_graph(Frame(mat))
    assert [(w.category, str(w.message)) for w in caught] == [
        (BorderlineEntryWarning,
         "Gram entry (0, 3) = 5.000e-09 is within a decade of the zero threshold 1.000e-09"),
        (BorderlineEntryWarning,
         "Gram entry (1, 2) = 2.000e-10 is within a decade of the zero threshold 1.000e-09"),
    ]
    assert pattern.graph.edges == ((0, 3),)
    # An entry exactly at the threshold is not an edge.
    with pytest.warns(BorderlineEntryWarning):
        assert associated_graph(Frame(np.array([[1.0, 1e-9], [0.0, 1.0]]))).graph.m == 0
    # A clearly zero entry stays quiet.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        associated_graph(Frame(np.eye(2)))


def _traced(fn, *args):
    """The memory fn(*args) allocates, as tracemalloc sees it: what its
    result keeps, and the peak."""
    tracemalloc.start()
    try:
        result = fn(*args)  # alive while the memory is read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_gram_checks_hold_no_n_by_n_array():
    # The Laplacian frame of K_60 has n = 1770 columns, and one n x n float64
    # array takes 8 n^2 bytes (23.9 MiB).  The Gram checks walk G and G^2 - G
    # in blocks, so tightness stays below a quarter of that, and
    # associated_graph, which returns a Graph of 102 660 edges, below two
    # thirds: the edge pairs and their tuple, with no per-edge check's set or
    # sorted copy alive beside them.  Its edges share one int object per
    # vertex, so the pattern keeps about 6.2 MiB, not the 11.5 MiB of a new
    # int per endpoint.
    f = laplacian_method(complete(60))
    one = 8 * f.n * f.n
    assert _traced(tightness, f)[1] < one / 4
    kept, peak = _traced(associated_graph, f)
    assert peak < 2 * one / 3
    assert kept < 8 * 2**20


def test_pattern_warnings_point_at_the_caller():
    # associated_graph warns at its caller, so a filter on the caller's
    # module sees the warnings.
    mat = np.eye(4)
    mat[0, 3], mat[1, 2] = 5e-9, 2e-10
    f = Frame(mat)
    with warnings.catch_warnings(record=True) as pattern:
        warnings.simplefilter("always")
        associated_graph(f)
    assert len(pattern) == 2
    assert [w.filename for w in pattern] == [__file__] * 2


def test_tiny_frames_are_frames():
    # Rank and tightness decisions are relative: no absolute floor.
    f = Frame(diamond_frame().synthesis * 1e-6)
    assert tightness(f).kind == "tight"
    assert associated_graph(f).graph == diamond()
    for scale in (3e-5, 3.5e-5):
        assert tightness(Frame(np.diag([1.0, 1.5]) * scale)).kind == "not_tight"


def test_extreme_scales_raise_no_numpy_warning():
    # F F^T overflows at 1e200, so Frame refuses it and names the operator:
    # the entries themselves are finite.  At 1e120, S F - F overflows in the
    # cross-check, which then fires neither way, so the verdict is S's.
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FrameError, match="frame operator"):
            Frame(np.array([[1e200, 1.0], [0.0, 1e200]]))
        for mat, kind in (([[1e120, 1.0], [0.0, 1e120]], "tight"),
                          ([[1e120, 0.0], [0.0, 2e120]], "not_tight"),
                          (1e120 * rng.standard_normal((3, 600)), "not_tight")):
            assert tightness(Frame(np.array(mat))).kind == kind


def test_nearly_rank_deficient_frames_get_a_verdict():
    # The Gramian cross-check in tightness assumes the rank check's
    # threshold: a frame whose smallest frame-operator eigenvalue s^2 lies
    # just above TAU * B is a frame, and must get a verdict, not raise
    # ToleranceInconsistencyError.  Both shapes have S = diag(B, s^2).
    ratios = np.concatenate([1e-9 * (1 + np.logspace(-6, 3, 60)), np.logspace(-8.9, 0, 540),
                             1 - np.logspace(-11, -7, 60)])
    kinds = {"parseval": 0, "tight": 0, "not_tight": 0}
    for b in (1e-6, 1.0, 1e4):
        for s in np.sqrt(ratios * b):
            half = s / np.sqrt(2)
            for mat in (np.diag([np.sqrt(b), s]), [[np.sqrt(b), 0, 0], [0, half, half]]):
                kinds[tightness(Frame(mat)).kind] += 1
    assert sum(kinds.values()) == 6 * ratios.size
    assert min(kinds.values()) > 0


def test_pattern_threshold_ignores_zero_columns():
    # Column 4 is about 1e-9 times the longest column 1, so G[1, 4] sits on
    # the threshold.  The threshold comes from the column norms whatever the
    # number of row blocks: 200 zero columns, which make the walk take two
    # blocks, change neither the threshold nor the pattern.
    rows = ["0x1.4f8b588e368f0p-17 -0x1.84fee0bd337adp-24 0x0.0p+0 "
            "-0x1.2a2c1f5a120f4p-17 -0x1.a1ae4d0a81219p-54",
            "0x0.0p+0 0x1.4f8b588e368f0p-17 0x0.0p+0 "
            "0x1.c9a631be7ea72p-19 0x1.6849b86a12b9bp-47"]
    mat = np.array([[float.fromhex(x) for x in row.split()] for row in rows])
    padded = np.hstack([mat, np.zeros((2, 200))])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BorderlineEntryWarning)
        plain, wide = associated_graph(Frame(mat)), associated_graph(Frame(padded))
    assert wide.graph.n == 205 and plain.graph.edges == wide.graph.edges


def test_pattern_respects_tolerance_policy():
    # An entry at 1e-6 of the largest is far above the zero threshold.
    mat = np.array([[1.0, 1e-6], [0.0, 1.0]])
    assert associated_graph(Frame(mat)).graph.m == 1


# ---------------------------------------------------------------------------
# Naimark complement
# ---------------------------------------------------------------------------

def test_naimark_complement_properties():
    f = diamond_frame()
    comp = naimark_complement(f)
    assert comp.d == f.n - f.d
    assert np.max(np.abs(gramian(comp) + gramian(f) - np.eye(f.n))) < 1e-12
    assert tightness(comp).kind == "parseval"
    assert associated_graph(comp).graph == associated_graph(f).graph


def test_naimark_complement_guards():
    with pytest.raises(FrameError):
        naimark_complement(mercedes_frame())  # tight but not Parseval
    with pytest.raises(FrameError):
        naimark_complement(Frame(np.eye(3)))  # d = n


# ---------------------------------------------------------------------------
# Vector duplication
# ---------------------------------------------------------------------------

def test_duplicate_vector_preserves_operator_exactly():
    f = diamond_frame()
    dup = duplicate_vector(f, 2)
    assert dup.n == f.n + 1
    # Two copies of c/sqrt(2) contribute c c^T up to one rounding step.
    assert np.max(np.abs(frame_operator(dup) - frame_operator(f))) < 1e-15
    assert np.array_equal(dup.synthesis[:, 4], dup.synthesis[:, 2])


def test_duplicate_vector_pattern_law():
    f = diamond_frame()
    for i in range(f.n):
        dup = duplicate_vector(f, i)
        expected = duplicate_vertex(associated_graph(f).graph, i)
        assert associated_graph(dup).graph == expected
        assert expected == duplicate_vertex(diamond(), i)


def test_duplicate_vector_splits_into_copies():
    f = diamond_frame()
    for copies in (1, 3, 61):
        dup = duplicate_vector(f, 0, copies)
        assert dup.n == f.n + copies - 1
        assert np.max(np.abs(frame_operator(dup) - frame_operator(f))) < 1e-14
        assert all(np.array_equal(dup.synthesis[:, j], dup.synthesis[:, 0]) for j in range(f.n, dup.n))
        # One split into k copies is k - 1 vertex duplications of the pattern.
        expected = associated_graph(f).graph
        for _ in range(copies - 1):
            expected = duplicate_vertex(expected, 0)
        assert associated_graph(dup).graph == expected


def test_duplicate_vector_guards():
    with pytest.raises(FrameError):
        duplicate_vector(diamond_frame(), 4)
    with pytest.raises(FrameError):
        duplicate_vector(diamond_frame(), -1)
    with pytest.raises(FrameError):
        duplicate_vector(diamond_frame(), 0, 0)


def test_duplicate_zero_column_rejected():
    f = Frame(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(FrameError):
        duplicate_vector(f, 2)


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def test_star_frame_parseval_reconstruction():
    f = star_frame(6, 3)
    x = np.array([0.3, -1.2, 2.0])
    coeffs = f.synthesis.T @ x
    # Parseval frames reconstruct by plain synthesis.
    assert np.allclose(f.synthesis @ coeffs, x)


# ---------------------------------------------------------------------------
# Invariance of the numeric decisions
# ---------------------------------------------------------------------------

FRAMES = [
    diamond_frame(),
    c4_frame(),
    mercedes_frame(),
    star_frame(6, 3),
    laplacian_method(cycle(5)),
    k2kn_frame(3),
    lkn_small_frame(5),
    Frame(diamond_frame().synthesis[:, :3]),  # not tight
    Frame(np.random.default_rng(3).standard_normal((3, 5))),  # not tight
]


def _is_tight(f):
    return tightness(f).kind != "not_tight"


def _represents_exactly(f, pattern):
    """f's Gram pattern is pattern, and differs from it with the edge {0, 1}
    toggled or with one more vertex."""
    got = associated_graph(f).graph
    assert got == pattern
    assert got != Graph(f.n, tuple(set(pattern.edges) ^ {(0, 1)}))
    assert got != Graph(f.n + 1, pattern.edges)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FRAMES), st.floats(min_value=-6, max_value=6))
def test_scaling_keeps_tightness_and_pattern(f, log_scale):
    scaled = Frame(10.0 ** log_scale * f.synthesis)
    assert _is_tight(scaled) == _is_tight(f)
    assert associated_graph(scaled).graph == associated_graph(f).graph
    _represents_exactly(scaled, associated_graph(f).graph)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FRAMES), st.data())
def test_column_permutation_permutes_pattern(f, data):
    perm = data.draw(st.permutations(range(f.n)))
    permuted = Frame(f.synthesis[:, perm])
    assert tightness(permuted).kind == tightness(f).kind
    pattern = associated_graph(f).graph
    expected = Graph.from_edges(f.n, [
        (i, j) for i in range(f.n) for j in range(i + 1, f.n)
        if pattern.has_edge(perm[i], perm[j])
    ])
    assert associated_graph(permuted).graph == expected
    _represents_exactly(permuted, expected)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FRAMES), st.integers(min_value=0, max_value=2**32 - 1))
def test_orthogonal_rotation_keeps_tightness_and_pattern(f, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((f.d, f.d)))
    rotated = Frame(q @ f.synthesis)
    assert tightness(rotated).kind == tightness(f).kind
    assert associated_graph(rotated).graph == associated_graph(f).graph
    _represents_exactly(rotated, associated_graph(f).graph)


# ---------------------------------------------------------------------------
# Differential tests against the entry-by-entry reference
# ---------------------------------------------------------------------------

def _random_root(rng, n):
    """Connected graph: a random spanning tree plus edges at a random density."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    density = rng.choice((0.1, 0.3, 0.5))
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
    return Graph.from_edges(n, edges)


def _planted_borderline_frame(rng, n=None):
    """Scaled identity with a few off-diagonal entries near the zero threshold.
    Given n, the identity is n x n with a last column 10 times longer, which
    sets the threshold for every Gram row block though only the last block
    holds its diagonal entry, and each block boundary gets a near-threshold
    entry in the row above it and in the row below it."""
    wide = n is not None
    n = n or rng.randint(2, 9)
    mat = np.eye(n)
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        mat[i, j] = rng.choice((-1, 1)) * 10.0 ** rng.uniform(-11.5, -7.5)
    if wide:
        mat[-1, -1] = 10.0
        s = frames._BLOCK_ENTRIES // n
        for b in range(s, n, s):
            for i in (b - 1, b):  # G_ij = mat[i, j] for j > i; the threshold is 1e-7
                mat[i, rng.randrange(i + 1, n)] = (
                    rng.choice((-1, 1)) * 10.0 ** rng.uniform(-7.9, -6.1))
    return Frame(10.0 ** rng.uniform(-5, 5) * mat)


def _blocks(f):
    """The number of Gram row blocks the library walks for f."""
    return -(-f.n // max(1, frames._BLOCK_ENTRIES // f.n))


def _differential_frames():
    """Catalog, Laplacian and planted-borderline frames; the last five span
    at least three Gram row blocks."""
    rng = random.Random(20261018)
    # The duplication-chain frames: L(O_n) for n = 4..8, then G2, G3, G6.
    catalog = [line_o_frame(n) for n in range(4, 9)]
    catalog += [g2_frame(), kn_minus_e_frame(5), g6_frame()]
    frames = [diamond_frame(), c4_frame(), mercedes_frame(), star_frame(7, 4), star_frame(9, 5)]
    frames += catalog
    frames += [kn_minus_e_frame(n) for n in range(4, 8)]
    frames += [lkn_small_frame(n) for n in range(4, 9)]
    frames += [k2kn_frame(n) for n in range(3, 7)]
    frames += [laplacian_method(complete(n)) for n in range(3, 13)]
    # Parseval frames scaled across the threshold band of the cross-check.
    frames += [Frame((1 + c * 1e-9) * f.synthesis)
               for f in catalog for c in (-3, -1, 0.5, 1, 3)]
    frames += [laplacian_method(_random_root(rng, rng.randint(3, 30))) for _ in range(40)]
    frames += [_planted_borderline_frame(rng) for _ in range(60)]
    # Laplacian frames of roots with 300 to 600 edges, one column per edge.
    wide = []
    while len(wide) < 3:
        root = _random_root(rng, rng.randint(30, 60))
        if 300 <= root.m <= 600:
            wide.append(laplacian_method(root))
    frames += wide + [_planted_borderline_frame(rng, n) for n in (320, 448)]
    return frames


def _with_warnings(fn, f):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(f)
    return out, [(w.category, str(w.message)) for w in caught]


def _verdict(fn, f):
    try:
        return fn(f).kind
    except ToleranceInconsistencyError:
        return "inconsistent"


def test_frame_layer_matches_reference():
    frames = _differential_frames()
    assert min(_blocks(f) for f in frames[-5:]) >= 3
    borderline = 0
    for f in frames:
        pattern, caught = _with_warnings(associated_graph, f)
        edges, expected = _with_warnings(reference.associated_edges, f)
        assert pattern.graph.edges == tuple(edges)
        assert caught == expected
        borderline += len(caught)
        assert _verdict(tightness, f) == _verdict(reference.tightness, f)
        assert frame_to_text(f) == reference.matrix_to_text(f.synthesis)
    assert borderline >= 60  # the planted frames exercise the warning path


def test_derived_graphs_equal_their_checked_construction(atlas):
    # line_graph, root_graph, enumerate_connected, join, associated_graph and
    # recognition's component subgraphs (linegraph._induced) build their
    # graphs with Graph._derived, which checks nothing: each must hold the n
    # and the sorted edges that the checking constructor gives.
    def check(g):
        assert type(g.n) is int and g == Graph(g.n, list(g.edges))
        assert all(type(u) is type(v) is int for u, v in g.edges)
        assert all(a < b for a, b in zip(g.edges, g.edges[1:]))

    rng = random.Random(20261020)
    connected = [g for n in range(1, 9) for g in enumerate_connected(n)]
    roots = [g for g in connected if 2 <= g.n <= 7]
    roots += [_random_root(rng, rng.randint(2, 40)) for _ in range(30)]
    # Roots with isolated vertices and several components.
    roots += [Graph.from_edges(30, {tuple(sorted(rng.sample(range(30), 2))) for _ in range(k)})
              for k in (1, 5, 20, 60)]
    pool = [g for g in connected if g.n <= 4]
    lines = [line_graph(g).line for g in roots]
    derived = connected + lines + [r for lg in lines if is_connected(lg) for r in root_graph(lg)]
    derived += [join(g, h) for g in pool for h in pool]
    # The components of the line graphs of roots with several components,
    # and the witness cores of the claw-free non-line atlas graphs.
    derived += [linegraph._induced(lg, verts) for lg in lines if not is_connected(lg)
                for verts in components(lg)]
    cores = [linegraph._induced(g, linegraph._odd_diamond(g)) for _, g in atlas
             if is_connected(g) and linegraph._claw(g) is None
             and linegraph._krausz_partition(g) is None]
    assert cores
    derived += cores
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BorderlineEntryWarning)
        derived += [associated_graph(f).graph for f in _differential_frames()]
    for g in derived:
        check(g)
