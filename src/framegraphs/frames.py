"""Frames and frame-level predicates and transforms.

A frame is held by its d x n synthesis matrix whose columns are the frame
vectors.  Tightness tests, the Gram-pattern graph, Naimark complements
and vector duplication live here.  A frame f represents a graph g iff
f.n == g.n and associated_graph(f).graph == g, the one reader of G's pattern.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph
from .spectral import TAU, sym_eig

_BLOCK_ENTRIES = 1 << 15  # one block of the n x n G or G^2 - G: 256 KB of float64


class FrameError(ValueError):
    pass


class ToleranceInconsistencyError(FrameError):
    """The S-based Parseval test and the G^2 = G test disagree."""


class BorderlineEntryWarning(UserWarning):
    """A Gram entry sits close to the zero threshold; the pattern is fragile."""


@dataclass(frozen=True, eq=False)
class Frame:
    """Frame for R^d given by its synthesis matrix (columns = frame vectors).

    The synthesis matrix is a read-only copy, so the ascending eigenvalues
    of the frame operator that the rank check keeps, and tightness reads as
    the frame bounds, stay those of the frame.  Complex input raises, and
    frames compare and hash by identity (arrays have no truth value)."""

    synthesis: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.iscomplexobj(self.synthesis):
            raise FrameError("synthesis matrix is complex; only real frames are supported")
        mat = np.array(self.synthesis, dtype=float)
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise FrameError(f"synthesis matrix must be 2-d, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise FrameError("synthesis matrix has non-finite entries")
        mat.flags.writeable = False
        object.__setattr__(self, "synthesis", mat)
        # d > n columns cannot span R^d; say so before forming the d x d S.
        if self.d > self.n:
            raise FrameError("columns do not span the space: not a frame")
        # numpy forms S = F F^T exactly symmetric (syrk): eigh(S) gives sym_eig(S)'s values.
        with np.errstate(over="ignore", invalid="ignore"):
            s = mat @ mat.T
        if not np.isfinite(s).all():
            raise FrameError("frame operator F F^T overflows: entries too large")
        values = np.linalg.eigh(s)[0]
        size = np.abs(values)
        if size.min() <= TAU * size.max():
            raise FrameError("columns do not span the space: not a frame")
        object.__setattr__(self, "_spectrum", values)

    @property
    def d(self) -> int:
        return self.synthesis.shape[0]

    @property
    def n(self) -> int:
        return self.synthesis.shape[1]


@dataclass(frozen=True)
class Tightness:
    """The verdict and the optimal bounds, S's extreme eigenvalues."""

    kind: str  # "parseval" | "tight" | "not_tight"
    lower: float
    upper: float


@dataclass(frozen=True)
class GramPattern:
    """Off-diagonal support of the Gramian, read as a graph."""

    graph: Graph


def frame_operator(f: Frame) -> np.ndarray:
    return f.synthesis @ f.synthesis.T


def gramian(f: Frame) -> np.ndarray:
    return f.synthesis.T @ f.synthesis


def tightness(f: Frame) -> Tightness:
    """Classify the frame as Parseval, tight, or not tight.

    The Parseval verdict from the frame operator is cross-checked against
    the Gramian projection identity G^2 = G, and disagreement raises.  The
    largest entry of G^2 - G is at most TAU * n * B for a Parseval frame and,
    as Frame's rank check holds every eigenvalue of S above TAU * B, above
    TAU * min(B, 1) / (2n) for any other, so only a value past these bounds
    (the lower one halved for margin) contradicts S.  The symmetric G^2 - G is
    read in associated_graph's row blocks of F^T (S F - F), d * n^2 flops, not n^3;
    only a frame far from Parseval overflows there, and it fires neither test.
    """
    a, b = float(f._spectrum[0]), float(f._spectrum[-1])
    is_tight = b - a <= TAU * b
    s_parseval = is_tight and abs(b - 1.0) <= TAU
    x, n = f.synthesis, f.n
    s = max(1, _BLOCK_ENTRIES // n)
    with np.errstate(over="ignore", invalid="ignore"):
        r = frame_operator(f) @ x - x
        dev = max(np.abs(x[:, i:i + s].T @ r[:, i:]).max() for i in range(0, n, s))
    if (s_parseval and dev > TAU * b * n) or (
        not s_parseval and 4 * n * dev <= TAU * min(b, 1.0)
    ):
        raise ToleranceInconsistencyError(
            f"frame-operator test says parseval={s_parseval} but "
            f"Gramian projection test says parseval={not s_parseval}"
        )
    kind = "parseval" if s_parseval else "tight" if is_tight else "not_tight"
    return Tightness(kind, a, b)


def associated_graph(f: Frame) -> GramPattern:
    """Graph on n vertices with an edge where the Gram entry is nonzero.

    G's upper triangle is read in row blocks F[:, i:i+s]^T F[:, i:] of at
    most _BLOCK_ENTRIES entries.  The zero threshold is TAU times the
    largest squared column norm, max|G| by Cauchy-Schwarz, taken once before
    the first block however many blocks there are; one row-major pass per
    block keeps the entries above a tenth of the threshold.  Each entry within a decade of
    it triggers a BorderlineEntryWarning at the caller, in row-major order:
    the discrete pattern extracted from floats is fragile there.
    """
    x, n = f.synthesis, f.n
    s = max(1, _BLOCK_ENTRIES // n)
    thr = TAU * float(np.einsum("ij,ij->j", x, x).max())
    ints, edges = np.arange(n).astype(object), []  # one int object per vertex
    for i in range(0, n, s):
        g = x[:, i:i + s].T @ x[:, i:]
        mag = np.abs(g)
        rows, cols = np.nonzero(mag > thr / 10)
        upper = rows < cols
        rows, cols = rows[upper], cols[upper]
        cand = mag[rows, cols]
        for k in (cand < thr * 10).nonzero()[0]:
            r, c = rows[k], cols[k]
            warnings.warn(
                f"Gram entry ({i + r}, {i + c}) = {g[r, c]:.3e} is within a decade "
                f"of the zero threshold {thr:.3e}",
                BorderlineEntryWarning,
                stacklevel=2,
            )
        edge = cand > thr
        edges += zip(ints[i:][rows[edge]].tolist(), ints[i:][cols[edge]].tolist())
    return GramPattern(graph=Graph._derived(n, tuple(edges)))  # row-major: sorted


def naimark_complement(f: Frame) -> Frame:
    """The (n-d) x n Parseval frame whose Gramian is I - G.

    Rows are the eigenvectors of G for eigenvalue 0; requires a Parseval
    frame with d < n.
    """
    if tightness(f).kind != "parseval":
        raise FrameError("Naimark complement needs a Parseval frame")
    if f.d >= f.n:
        raise FrameError("Gramian has full rank (d = n): complement is empty")
    values, vectors = sym_eig(gramian(f))
    zero_cols = np.flatnonzero(np.abs(values) <= TAU * values[-1])
    if zero_cols.size != f.n - f.d:
        raise FrameError(
            f"expected {f.n - f.d} zero Gram eigenvalues, found {zero_cols.size}"
        )
    return Frame(vectors[:, zero_cols].T)


def duplicate_vector(f: Frame, i: int, copies: int = 2) -> Frame:
    """Split column i into `copies` equal columns scaled by 1/sqrt(copies).

    The frame operator is unchanged (up to rounding).  Column i keeps one
    copy and the others are appended last, so the Gram pattern is
    duplicate_vertex(pattern, i) applied copies - 1 times: a new column has
    nonzero inner products exactly with column i, its copies and i's neighbors.
    """
    if not 0 <= i < f.n:
        raise FrameError(f"column index {i} out of range")
    if copies < 1:
        raise FrameError(f"need at least one copy, got {copies}")
    col = f.synthesis[:, i]
    if not np.any(col):
        raise FrameError(f"column {i} is zero and cannot be duplicated")
    scaled = col / np.sqrt(copies)
    mat = f.synthesis.copy()
    mat[:, i] = scaled
    return Frame(np.column_stack([mat] + [scaled] * (copies - 1)))

