"""Solve the intertwining equation ``H^dagger Theta = Theta H`` for Hermitian
metric candidates, parameterize the admissible (positive-definite) family and
evaluate physical inner products.

Two independent constructions of the solution space are computed and cross
checked on every solve:

* an algebraic null-space path over the real vector space of Hermitian
  matrices (dim^2 real parameters), thresholded by singular value;
* a spectral path built from rank-one projectors onto left eigenvectors,
  defined whenever the spectrum is real and nondegenerate.

The positive-weight combinations of the spectral projectors exhaust the
positive-definite metrics, so the weight vector is exactly the residual
freedom left by the equation (the metric is never unique; selecting a member
of the family is deliberately left to the caller).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .errors import (
    ComplexSpectrum,
    DegenerateSpectrumWarning,
    DimensionMismatch,
    NonPositiveWeight,
    QuasiHermiticityViolation,
    SpanMismatch,
    SpectralPathUnavailable,
)

#: mutual-projection residual above which the two solution paths are rejected
SPAN_AGREEMENT_TOL = 1e-8
#: intertwining residual above which an (operator, metric) pair is refused
QH_GATE = 1e-10


@dataclass(frozen=True)
class MetricFamily:
    """Hermitian basis of the metric solution space for one Hamiltonian.

    ``basis`` spans the real linear space of Hermitian solutions; when the
    spectral path is available its elements are the left-eigenvector
    projectors ``|L_n><L_n|`` (one per eigenvalue, matching ``kappa_default``).
    ``oracle_basis`` is the independently computed null-space basis and is
    always present.  ``degenerate`` flags spectra whose smallest gap fell
    below tolerance, in which case only the oracle basis is returned.
    """

    dim: int
    basis: tuple[np.ndarray, ...]
    oracle_basis: tuple[np.ndarray, ...]
    spectral: mc.SpectralData | None
    kappa_default: np.ndarray
    degenerate: bool
    span_residual: float | None

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "basis": [mc.matrix_to_json(B) for B in self.basis],
            "kappa_default": [float(k) for k in self.kappa_default],
        }


def _hermitian_basis(dim: int) -> np.ndarray:
    """Frobenius-orthonormal basis of the real space of Hermitian matrices.

    Shape ``(dim**2, dim, dim)``: the diagonal units first, then for each
    pair i < j (row-major) the symmetric and the antisymmetric element.
    """
    i, j = np.triu_indices(dim, 1)
    sym = dim + 2 * np.arange(i.size)
    E = np.zeros((dim * dim, dim, dim), dtype=complex)
    E[np.arange(dim), np.arange(dim), np.arange(dim)] = 1.0
    E[sym, i, j] = E[sym, j, i] = 1.0 / np.sqrt(2.0)
    E[sym + 1, i, j] = 1j / np.sqrt(2.0)
    E[sym + 1, j, i] = -1j / np.sqrt(2.0)
    return E


def _realcols(X: np.ndarray) -> np.ndarray:
    """Stacked matrices as real columns ``(re.ravel(), im.ravel())``."""
    flat = X.reshape(len(X), -1)
    return np.concatenate([flat.real, flat.imag], axis=1).T


def _span_residual(first: np.ndarray, second: np.ndarray) -> float:
    """Largest relative distance between either span and the other's projection."""
    if not len(first) or not len(second):
        return np.inf
    A, B = _realcols(first), _realcols(second)
    worst = 0.0
    for span, other in ((A, B), (B, A)):
        Q = np.linalg.qr(span)[0]
        resid = np.linalg.norm(other - Q @ (Q.T @ other), axis=0)
        worst = max(worst, float((resid / np.linalg.norm(other, axis=0)).max()))
    return worst


def solve_metric_space(H, tol: float = 1e-10) -> MetricFamily:
    """Compute the Hermitian solution family of ``H^dagger X = X H``.

    Parameters
    ----------
    H : array_like
        Square Hamiltonian with (numerically) real spectrum.
    tol : float
        Relative threshold used for the spectral-reality precondition, the
        null-space singular-value cut and the degeneracy gap test.

    Returns
    -------
    MetricFamily
        Null-space basis plus, for nondegenerate spectra, the spectral
        projector basis with all-ones default weights.

    Raises
    ------
    ComplexSpectrum
        When ``max |Im lambda| > tol * ||H||``; no positive-definite solution
        can exist in that phase.
    DefectiveMatrix
        Propagated from the eigensolver at an exceptional point.
    SpanMismatch
        When the two independently computed spans disagree beyond 1e-8.

    Warns with DegenerateSpectrumWarning and skips the spectral path when the
    smallest eigenvalue gap falls below ``tol * ||H||``.
    """
    Hm = mc.as_square_matrix(H, "H")
    if tol <= 0:
        raise ValueError("tol must be positive")
    dim = Hm.shape[0]
    scale = mc.fro(Hm)

    spectral = mc.eig(Hm)
    max_imag = float(np.abs(spectral.eigenvalues.imag).max())
    if max_imag > tol * max(scale, 1e-300):
        raise ComplexSpectrum(
            f"max |Im eigenvalue| {max_imag:.3e} exceeds {tol:.1e} * ||H||"
        )

    # Null-space path: represent X by dim^2 real coordinates in a Frobenius
    # orthonormal Hermitian basis and split the image into (re, im) parts.
    # F is 2 dim^2 x dim^2, so the reduced SVD returns every right vector.
    herm = _hermitian_basis(dim)
    F = _realcols(Hm.conj().T @ herm - herm @ Hm)
    _, svals, Vt = np.linalg.svd(F, full_matrices=False)
    oracle = np.tensordot(Vt[svals <= tol * svals[0]], herm, axes=1)

    degenerate = spectral.min_gap() < tol * max(scale, 1e-300)
    if degenerate:
        warnings.warn(
            "eigenvalue gap below tolerance; spectral metric path skipped",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
        basis, spectral, residual = oracle, None, None
    else:
        Lv = spectral.left_vectors
        basis = Lv.T[:, :, None] * Lv.T[:, None, :].conj()      # |L_n><L_n|
        residual = _span_residual(oracle, basis)
        if residual > SPAN_AGREEMENT_TOL:
            raise SpanMismatch(
                f"null-space and spectral solution spans differ by {residual:.3e}"
            )
    return MetricFamily(
        dim=dim,
        basis=tuple(basis),
        oracle_basis=tuple(oracle),
        spectral=spectral,
        kappa_default=np.ones(len(basis)),
        degenerate=degenerate,
        span_residual=residual,
    )


def metric_from_weights(family: MetricFamily, kappa) -> np.ndarray:
    """Assemble ``Theta = sum_n kappa_n |L_n><L_n|`` from positive weights.

    Positive weights on the left-eigenvector projectors give a Hermitian
    positive-definite metric whenever the spectrum is real and nondegenerate.
    """
    if family.spectral is None:
        raise SpectralPathUnavailable(
            "no spectral projector basis (degenerate or skipped spectrum)"
        )
    k = np.asarray(kappa, dtype=float).reshape(-1)
    if k.shape[0] != len(family.basis):
        raise DimensionMismatch(
            f"{k.shape[0]} weights for a basis of size {len(family.basis)}"
        )
    if np.any(k <= 0.0) or not np.all(np.isfinite(k)):
        raise NonPositiveWeight("all metric weights must be finite and > 0")
    Lv = family.spectral.left_vectors
    Theta = (Lv * k) @ Lv.conj().T
    return (Theta + Theta.conj().T) / 2.0


def check_quasi_hermitian(L, Theta) -> float:
    """Relative residual ``||L^dagger Theta - Theta L|| / (||L|| ||Theta||)``.

    The package's one evaluation of the intertwining relation (chain rungs
    and PC products included); zero-safe as ``matrixcore.rel_residual``.
    The caller compares the result against its own tolerance.
    """
    Lm, Tm = mc.square_pair(L, Theta, "L", "Theta")
    return mc.rel_residual(Lm.conj().T @ Tm - Tm @ Lm, Lm, Tm)


def require_quasi_hermitian(L, Theta, what: str) -> None:
    """Raise QuasiHermiticityViolation when the residual exceeds ``QH_GATE``."""
    residual = check_quasi_hermitian(L, Theta)
    if residual > QH_GATE:
        raise QuasiHermiticityViolation(
            f"{what}: intertwining residual {residual:.3e} exceeds {QH_GATE:.0e}"
        )


def physical_inner_product(psi_a, psi_b, Theta) -> complex:
    """Metric-weighted inner product ``<psi_a|Theta|psi_b>``.

    Conjugate-linear in the first argument.  For a positive-definite metric
    the diagonal value ``<psi|Theta|psi>`` is real positive for psi != 0.
    """
    Tm = mc.as_square_matrix(Theta, "Theta")
    a = mc.as_vector(psi_a, Tm.shape[0], "psi_a")
    b = mc.as_vector(psi_b, Tm.shape[0], "psi_b")
    return complex(np.vdot(a, Tm @ b))
