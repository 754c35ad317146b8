"""Dense symmetric eigendecomposition and tolerance-aware numeric rank.

LAPACK (via numpy.linalg.eigh) does the heavy lifting; this module pins
down the contract every consumer relies on: ascending eigenvalues, a
deterministic sign convention for eigenvectors, and a single relative
tolerance policy for all zero/nonzero decisions (TolerancePolicy, from
:mod:`framegraphs.tolerance`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerance import DEFAULT_TOL, TolerancePolicy


class SpectralError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class EigDecomp:
    """Ascending eigenvalues and orthonormal column eigenvectors; equal only to itself."""

    values: np.ndarray
    vectors: np.ndarray


def _eigh(m: np.ndarray, tol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """numpy's eigh of m made exactly symmetric, once m is checked."""
    if np.iscomplexobj(m):
        raise SpectralError("matrix is complex; only real symmetric matrices are supported")
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise SpectralError(f"matrix must be square and non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise SpectralError("matrix has non-finite entries")
    scale = np.max(np.abs(m))
    if np.max(np.abs(m - m.T)) > tol.threshold(scale):
        raise SpectralError("matrix is not symmetric within tolerance")
    try:
        return np.linalg.eigh((m + m.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigendecomposition failed: {exc}") from exc


def sym_eigvals(m: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """sym_eig(m, tol).values, bit for bit (the same eigh call), without
    normalising the signs of eigenvectors it then drops."""
    return _eigh(m, tol)[0]


def sym_eig(m: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix.

    Deterministic for identical input: eigenvalues ascending, and in each
    eigenvector the first entry of magnitude above the tolerance is made
    positive.
    """
    values, vectors = _eigh(m, tol)
    big = np.abs(vectors) > tol.tau_rel
    first = np.argmax(big, axis=0)  # row of each column's first big entry, or 0
    cols = np.arange(vectors.shape[1])
    flip = big[first, cols] & (vectors[first, cols] < 0)
    return EigDecomp(values=values, vectors=np.where(flip, -vectors, vectors))


def numeric_rank(m: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Number of eigenvalues with |lambda| > tau_rel * |lambda_max|."""
    values = np.abs(sym_eigvals(m, tol))
    return int(np.sum(values > tol.threshold(np.max(values))))


def group_eigenvalues(values: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> list[list[int]]:
    """Indices of eigenvalues grouped into multiplicity classes.

    Consecutive (ascending) eigenvalues within the relative tolerance of
    each other land in the same group.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    lam_max = np.max(np.abs(values))
    thr = tol.threshold(lam_max)
    groups = [[0]]
    for i in range(1, values.size):
        if values[i] - values[groups[-1][-1]] <= thr:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups
