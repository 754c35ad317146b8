"""Explicit frame constructions for graph families.

Every matrix is derived from a graph's oriented incidence matrix B, built
here beside the frames that use it, so that graphs and linegraph import no
numpy: B Bᵀ is the Laplacian.  The frames are the Laplacian-eigenbasis
frame for a root graph's line graph, the two tight frames for the line
graph of a complete graph (dimensions n-1 and n-2), the star-based Parseval
frames for K_n, the K_2 x K_n product frame, tight completions (minimal and
generic two-step), and the duplication-chain frames, which split a vector
of the diamond or 4-cycle frame into equal copies: K_n minus an edge, the
line graphs of O_n, and the forbidden subgraphs G2 and G6 (G3 is K_5 minus
an edge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .frames import Frame, duplicate_vector
from .graphs import Graph, GraphError, is_connected
from .spectral import TAU, sym_eig


@dataclass(frozen=True, eq=False)
class CompletionResult:
    """A frame extended to a tight frame: original columns plus `added`."""

    frame: Frame
    added: tuple[np.ndarray, ...]
    bound: float


# ---------------------------------------------------------------------------
# Incidence matrix
# ---------------------------------------------------------------------------

def oriented_incidence(g: Graph) -> np.ndarray:
    """Oriented incidence matrix with -1 at the smaller-index endpoint.

    Columns follow g.edges.  B @ B.T is the Laplacian of g, exactly.
    """
    b = np.zeros((g.n, g.m))
    for j, (u, v) in enumerate(g.edges):
        b[u, j] = -1.0
        b[v, j] = 1.0
    return b


# ---------------------------------------------------------------------------
# Laplacian-based frames
# ---------------------------------------------------------------------------

def laplacian_method(p: Graph) -> Frame:
    """Frame F = X^T B for the line graph of a connected root graph p.

    X holds the Laplacian eigenvectors for the n-1 largest eigenvalues, B
    the oriented incidence matrix.  Only the Gram pattern of F, the line
    graph of p, and its frame-operator spectrum, the nonzero Laplacian
    spectrum, are fixed: in a repeated eigenvalue's eigenspace the entries
    of F follow the basis LAPACK returns.
    """
    if p.m < 1:
        raise GraphError("root graph needs at least one edge")
    if not is_connected(p):
        raise GraphError("Laplacian method needs a connected root graph")
    b = oriented_incidence(p)
    x = sym_eig(b @ b.T)[1][:, 1:]  # drop the eigenvalue-0 (all-ones) eigenvector
    return Frame(x.T @ b)


def lkn_small_frame(n: int) -> Frame:
    """Tight frame for the line graph of K_n in dimension n-2.

    Built from the (n-1) x n(n-1)/2 block matrix [C D] with
    C = I - J/(n-1) and D the oriented incidence matrix of K_{n-1};
    column i < n-1 (of C) stands for the edge {i, n-1} of K_n, and the
    rest for the edges of K_{n-1} in canonical order.
    """
    if n < 3:
        raise GraphError("lkn_small_frame needs n >= 3")
    k = n - 1
    c = np.eye(k) - np.ones((k, k)) / k
    d = oriented_incidence(graphs.complete(k))
    m = np.hstack([c, d])
    x = sym_eig(m @ m.T)[1][:, 1:]  # eigenvalue-n eigenspace (the top n-2)
    return Frame(x.T @ m)


def star_frame(n: int, d: int) -> Frame:
    """Parseval frame for K_n in dimension d, from the star-graph Laplacian.

    The (n+1) x (n-1) eigenvector matrix for the eigenvalue-1 eigenspace
    of the star Laplacian has column k (1-based) equal to
    sqrt((n-k)/(n-k+1)) at row k+1 and -sqrt((n-k)/(n-k+1))/(n-k) at rows
    k+2..n+1.  Applying the star's incidence matrix to d of its columns
    yields the frame; d = n - 1 keeps them all, and a smaller d keeps rows
    of that frame: the odd columns 1, 3, 5, ..., then the even ones,
    largest first, as far as d reaches.
    """
    if n < 2 or not 1 <= d <= n - 1:
        raise GraphError("star_frame needs n >= 2 and 1 <= d <= n - 1")
    xt = np.zeros((n + 1, n - 1))
    for k in range(1, n):
        head = np.sqrt((n - k) / (n - k + 1))
        xt[k, k - 1] = head
        xt[k + 1:, k - 1] = -head / (n - k)
    b = oriented_incidence(graphs.star(n + 1))
    # Frame vectors j and j+1 coincide unless a kept column lies in
    # {j, j+1}; the odd columns hit every such pair except the last one
    # when n is odd, which is why the even columns start at n-1.
    keep = (list(range(1, n, 2)) + list(range(2, n, 2))[::-1])[:d]
    return Frame(xt[:, sorted(k - 1 for k in keep)].T @ b)


def k2kn_frame(n: int) -> Frame:
    """Tight frame [J - I | J - (n-1)I] for the prism-like product K_2 x K_n.

    The frame bound is n^2 - 2n + 2; the Gram pattern is two copies of K_n
    joined by the perfect matching i ~ i + n.
    """
    if n < 3:
        raise GraphError("k2kn_frame needs n >= 3")
    j = np.ones((n, n))
    return Frame(np.hstack([j - np.eye(n), j - (n - 1) * np.eye(n)]))


# ---------------------------------------------------------------------------
# Tight completions
# ---------------------------------------------------------------------------

def minimal_tight_completion(f: Frame) -> CompletionResult:
    """Append sqrt(B - lambda_i) x_i for every frame-operator eigenvalue
    below the top cluster.

    The top cluster holds the eigenvalues above the last gap between
    consecutive ascending ones that exceeds TAU * |lambda_max| (all of them
    if there is none), and B is their mean.  The result is B-tight, and no
    completion with fewer added vectors exists.
    """
    values, vectors = sym_eig(f.synthesis @ f.synthesis.T)
    gaps = np.flatnonzero(np.diff(values) > TAU * np.max(np.abs(values)))
    low = gaps[-1] + 1 if gaps.size else 0  # index of the top cluster's first value
    bound = float(np.mean(values[low:]))
    added = tuple(np.sqrt(max(bound - values[i], 0.0)) * vectors[:, i] for i in range(low))
    mat = f.synthesis
    if added:
        mat = np.column_stack([mat, *added])
    return CompletionResult(frame=Frame(mat), added=added, bound=bound)


def two_step_completion(f: Frame) -> CompletionResult:
    """Generic two-step tight completion.

    Step 1 appends, for each non-orthogonal row pair (i, j) in
    lexicographic order, a two-entry column that cancels exactly that
    pair's inner product.  Step 2 pads every short row up to the maximum
    row norm with a single-entry column.  At most (d-1)(d+2)/2 columns are
    appended and the result is tight with bound m^2 (m the max row norm).
    """
    mat = f.synthesis
    d = f.d
    thr = TAU * float(np.max(np.abs(mat @ mat.T)))
    added: list[np.ndarray] = []
    for i in range(d):
        for j in range(i + 1, d):
            c = float(mat[i] @ mat[j])
            if abs(c) > thr:
                col = np.zeros(d)
                col[i] = -np.sign(c) * np.sqrt(abs(c))
                col[j] = np.sqrt(abs(c))
                added.append(col)
                mat = np.column_stack([mat, col])
    norms2 = np.einsum("ij,ij->i", mat, mat)
    top = float(np.max(norms2))
    for i in range(d):
        gap = top - norms2[i]
        if gap > thr:
            col = np.zeros(d)
            col[i] = np.sqrt(gap)
            added.append(col)
            mat = np.column_stack([mat, col])
    return CompletionResult(frame=Frame(mat), added=tuple(added), bound=top)


# ---------------------------------------------------------------------------
# Duplication-chain frames
# ---------------------------------------------------------------------------

def diamond_frame() -> Frame:
    """The 2 x 4 Parseval frame representing the diamond graph (non-edge {0, 1})."""
    s2 = np.sqrt(2.0)
    mat = np.array([[1 / s2, -3 / s2, 2.0, 1.0], [1 / s2, 3 / s2, 1.0, 2.0]])
    return Frame(mat / np.sqrt(10.0))


def c4_frame() -> Frame:
    """A Parseval frame representing the 4-cycle with its canonical labels."""
    mat = np.array([[1.0, 1.0, 0.0, -1.0], [0.0, 1.0, 1.0, 1.0]])
    return Frame(mat / np.sqrt(3.0))


def kn_minus_e_frame(n: int) -> Frame:
    """Parseval frame for K_n minus an edge (non-edge {0, 1}), n >= 4.

    The diamond frame with vertex 2, adjacent to every other vertex, split
    into n - 3 equal copies in one step.
    """
    if n < 4:
        raise GraphError("kn_minus_e_frame needs n >= 4")
    return duplicate_vector(diamond_frame(), 2, n - 3)


def line_o_frame(n: int) -> Frame:
    """Parseval frame for the line graph of O_n, n >= 4.

    The diamond frame with vertex 0, a clique vertex not adjacent to the
    outside degree-2 vertex 1, split into n - 3 equal copies in one step.
    """
    if n < 4:
        raise GraphError("line_o_frame needs n >= 4")
    return duplicate_vector(diamond_frame(), 0, n - 3)


def g2_frame() -> Frame:
    """Parseval frame for G2: the 4-cycle frame with vertex 0 duplicated."""
    return duplicate_vector(c4_frame(), 0)


def g6_frame() -> Frame:
    """Parseval frame for G6: the diamond frame with vertices 0 and 1 duplicated."""
    return duplicate_vector(duplicate_vector(diamond_frame(), 0), 1)

