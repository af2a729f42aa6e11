"""Independent references the tests compare the library against."""

import numpy as np

from quasiherm import matrixcore as mc


def null_space(H, tol=1e-10):
    """Hermitian null space of ``X -> H^dagger X - X H``, shape ``(k, dim, dim)``.

    X is represented by dim^2 real coordinates in a Frobenius orthonormal
    Hermitian basis (the diagonal units, then for each pair i < j the
    symmetric and the antisymmetric element) and the image is split into
    (re, im) parts.  The real system is 2 dim^2 x dim^2, so the reduced SVD,
    O(dim^6), returns every right vector.  The cut is relative to
    ``max(sigma_max, ||H||)``: for H within rounding of a multiple of the
    identity, sigma_max is itself rounding noise.
    """
    Hm = np.asarray(H, dtype=complex)
    dim = Hm.shape[0]
    i, j = np.triu_indices(dim, 1)
    sym = dim + 2 * np.arange(i.size)
    herm = np.zeros((dim * dim, dim, dim), dtype=complex)
    herm[np.arange(dim), np.arange(dim), np.arange(dim)] = 1.0
    herm[sym, i, j] = herm[sym, j, i] = 1.0 / np.sqrt(2.0)
    herm[sym + 1, i, j] = 1j / np.sqrt(2.0)
    herm[sym + 1, j, i] = -1j / np.sqrt(2.0)
    image = (Hm.conj().T @ herm - herm @ Hm).reshape(len(herm), -1)
    F = np.concatenate([image.real, image.imag], axis=1).T
    _, svals, Vt = np.linalg.svd(F, full_matrices=False)
    return np.tensordot(Vt[svals <= tol * max(svals[0], mc.fro(Hm))], herm, axes=1)
