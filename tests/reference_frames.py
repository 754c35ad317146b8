"""Reference frame layer: the entry-by-entry loops.

The library reads the Gram pattern and the borderline warnings from numpy
masks over row blocks F[:, i:i+s]^T F[:, i:] of G's upper triangle, with
the threshold TAU * max|G| taken before the first block from the largest
squared column norm (Cauchy-Schwarz).  It reads the eigenvector signs
from whole-array masks, formats each text row in one call, and takes the
Gramian projection deviation over the same row blocks of the symmetric
F^T (S F - F).  This module keeps the plain versions: the whole G and its
largest entry, a double loop over its upper triangle, one ``format`` call
per matrix entry, the n^3 product G @ G - G, and a loop over eigenvector
columns, so differential tests can require identical results.
"""

from __future__ import annotations

import warnings

import numpy as np

from framegraphs.frames import (
    BorderlineEntryWarning,
    Frame,
    Tightness,
    ToleranceInconsistencyError,
    gramian,
)
from framegraphs.spectral import TAU


def associated_edges(f: Frame) -> list[tuple[int, int]]:
    """Edges (i, j), i < j, where |G_ij| exceeds the threshold; warns on
    each entry within a decade of it, in loop order."""
    g = gramian(f)
    thr = TAU * np.max(np.abs(g))
    edges = []
    for i in range(f.n):
        for j in range(i + 1, f.n):
            mag = abs(g[i, j])
            if thr / 10 < mag < thr * 10:
                warnings.warn(
                    f"Gram entry ({i}, {j}) = {g[i, j]:.3e} is within a decade "
                    f"of the zero threshold {thr:.3e}",
                    BorderlineEntryWarning,
                    stacklevel=2,
                )
            if mag > thr:
                edges.append((i, j))
    return edges


def tightness(f: Frame) -> Tightness:
    """The library's verdict, cross-checked with G @ G - G."""
    a, b = float(f._spectrum[0]), float(f._spectrum[-1])
    is_tight = b - a <= TAU * b
    s_parseval = is_tight and abs(b - 1.0) <= TAU
    g = gramian(f)
    dev = np.max(np.abs(g @ g - g))
    if (s_parseval and dev > TAU * b * f.n) or (
        not s_parseval and 4 * f.n * dev <= TAU * min(b, 1.0)
    ):
        raise ToleranceInconsistencyError(
            f"frame-operator test says parseval={s_parseval} but "
            f"Gramian projection test says parseval={not s_parseval}"
        )
    if s_parseval:
        return Tightness("parseval", a, b)
    if is_tight:
        return Tightness("tight", a, b)
    return Tightness("not_tight", a, b)


def matrix_to_text(mat: np.ndarray) -> str:
    mat = np.asarray(mat, dtype=float)
    lines = [f"rows {mat.shape[0]}", f"cols {mat.shape[1]}"]
    for row in mat:
        lines.append(" ".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"


def sign_convention(vectors: np.ndarray) -> np.ndarray:
    """Negate each column whose first entry above TAU in magnitude is negative."""
    vectors = vectors.copy()
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        big = np.flatnonzero(np.abs(col) > TAU)
        if big.size and col[big[0]] < 0:
            vectors[:, j] = -col
    return vectors
