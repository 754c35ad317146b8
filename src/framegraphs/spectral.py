"""Dense symmetric eigendecomposition.

LAPACK (via numpy.linalg.eigh) does the heavy lifting; this module pins
down the contract every consumer relies on: ascending eigenvalues, a
deterministic sign convention for eigenvectors, and the one relative zero
threshold TAU behind every zero/nonzero decision: x is zero at scale s
when |x| <= TAU * |s|.
"""

from __future__ import annotations

import numpy as np

TAU = 1e-9


class SpectralError(ValueError):
    pass


def sym_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix as numpy's (values, vectors).

    Deterministic for identical input: eigenvalues ascending, and in each
    eigenvector (a column) the first entry of magnitude above TAU is made
    positive.
    """
    if np.iscomplexobj(m):
        raise SpectralError("matrix is complex; only real symmetric matrices are supported")
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise SpectralError(f"matrix must be square and non-empty, got shape {m.shape}")
    scale = np.abs(m).max()  # inf or nan iff an entry is not finite
    if not np.isfinite(scale):
        raise SpectralError("matrix has non-finite entries")
    if np.abs(m - m.T).max() > TAU * scale:
        raise SpectralError("matrix is not symmetric within tolerance")
    try:
        values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigendecomposition failed: {exc}") from exc
    big = np.abs(vectors) > TAU
    first = np.argmax(big, axis=0)  # row of each column's first big entry, or 0
    cols = np.arange(vectors.shape[1])
    flip = big[first, cols] & (vectors[first, cols] < 0)
    return values, np.where(flip, -vectors, vectors)

