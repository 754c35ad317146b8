"""Eigendecomposition contract: ordering, signs, zero threshold."""

import numpy as np
import pytest
import reference_frames as reference

from framegraphs import verify
from framegraphs.constructions import laplacian_method, oriented_incidence
from framegraphs.frames import Frame, frame_operator, gramian
from framegraphs.graphs import complete, cycle, path
from framegraphs.spectral import TAU, SpectralError, sym_eig


def test_sym_eig_reconstructs():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8))
    m = a + a.T
    values, vectors = sym_eig(m)
    assert np.all(np.diff(values) >= 0)
    recon = vectors @ np.diag(values) @ vectors.T
    assert np.max(np.abs(recon - m)) < 1e-10
    # Orthonormal eigenvectors.
    assert np.max(np.abs(vectors.T @ vectors - np.eye(8))) < 1e-10


def test_sym_eig_sign_convention_and_determinism():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    m = a + a.T
    (_, v1), (_, v2) = sym_eig(m), sym_eig(m.copy())
    assert np.array_equal(v1, v2)
    for j in range(6):
        col = v1[:, j]
        lead = col[np.abs(col) > TAU][0]
        assert lead > 0


def test_sym_eig_signs_match_reference():
    rng = np.random.default_rng(5)
    mats = [b @ b.T for b in map(oriented_incidence, (path(7), cycle(8), complete(6)))]
    mats += [gramian(laplacian_method(g)) for g in (path(6), cycle(5), complete(5))]
    for _ in range(20):
        a = rng.standard_normal((7, 7))
        block = np.zeros((10, 10))  # zero leading rows in some eigenvectors
        block[3:, 3:] = a + a.T
        mats += [a + a.T, block, block * rng.choice([1e-6, 1e6])]
    later_lead = 0
    for m in mats:
        vectors = np.linalg.eigh((m + m.T) / 2.0)[1]
        expected = reference.sign_convention(vectors)
        assert np.array_equal(sym_eig(m)[1], expected)
        later_lead += np.sum(np.abs(expected[0]) <= TAU)
    assert later_lead > 0  # some leading entries lie below the threshold


def test_eigenvalues_alone_are_those_of_sym_eig():
    # Frame takes numpy's eigh of S = F F^T as it stands.  numpy forms S
    # exactly symmetric, so the bounds a Frame keeps are those of sym_eig on
    # S bit for bit: on every catalog frame up to 24 vertices, and on seeded
    # random frames of several shapes, memory orders and scales.
    frames = [frame for n in range(1, 25) for m in range(n * (n - 1) // 2 + 1)
              for _, frame, _ in verify._catalog.__wrapped__(n, m)]
    assert len(frames) > 80
    rng = np.random.default_rng(13)
    for d in range(1, 30):
        for n in (d, d + 1, 3 * d + 2, 200):
            a = rng.standard_normal((d, n))
            frames += [Frame(a), Frame(np.asfortranarray(a)), Frame(a * 1e-7), Frame(a * 1e100)]
    for f in frames:
        s = frame_operator(f)
        assert (s == s.T).all()
        assert f._spectrum.tobytes() == sym_eig(s)[0].tobytes()


def test_sym_eig_rejects_bad_input():
    with pytest.raises(SpectralError):
        sym_eig(np.ones((2, 3)))
    with pytest.raises(SpectralError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(SpectralError, match="non-finite"):
            sym_eig(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_complex_input_is_rejected():
    # Casting to float would drop the imaginary parts: the first matrix has
    # eigenvalues 1 and 3, not 2 and 2.
    for m in ([[2, 1j], [-1j, 2]], np.array([[2, 0], [0, 2]], dtype=complex)):
        with pytest.raises(SpectralError, match="complex"):
            sym_eig(m)


def test_empty_matrix_is_rejected():
    with pytest.raises(SpectralError, match="non-empty"):
        sym_eig(np.zeros((0, 0)))


def test_sym_eig_tolerates_tiny_asymmetry():
    m = np.eye(3)
    m[0, 1] = 1e-12
    assert np.allclose(sym_eig(m)[0], 1.0)

