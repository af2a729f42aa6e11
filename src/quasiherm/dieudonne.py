"""Solve the intertwining equation ``H^dagger Theta = Theta H`` for Hermitian
metric candidates, parameterize the admissible (positive-definite) family and
evaluate physical inner products.

For a real, nondegenerate spectrum the solution space is spanned by the
rank-one projectors ``|L_n><L_n|`` onto the left eigenvectors of H, and the
positive-weight combinations of these projectors exhaust the
positive-definite metrics (Scholtz, Geyer and Hahne 1992; Mostafazadeh,
arXiv:0810.5643).  The weight vector is therefore exactly the residual
freedom left by the equation (the metric is never unique; selecting a member
of the family is deliberately left to the caller).

Every nondegenerate solve cross-checks two independent constructions of the
left eigenvectors, both O(dim^3):

* the rows of the inverted right eigenvector basis of H (``matrixcore.eig``);
* the right eigenvectors of ``H^dagger`` from a separate eigensolve, matched
  to H's eigenvalues by sorting their conjugates with the same key.

The algebraic null space over the real vector space of Hermitian matrices
(dim^2 real parameters, thresholded by singular value) costs O(dim^6).  It
is built only on demand, as ``MetricFamily.oracle_basis``, except for
degenerate spectra, where it is the only basis available.
"""

from __future__ import annotations

import functools
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

#: left-eigenvector disagreement above which the two eigensolves are rejected
SPAN_AGREEMENT_TOL = 1e-8
#: intertwining residual above which an (operator, metric) pair is refused
QH_GATE = 1e-10


@dataclass(frozen=True)
class MetricFamily:
    """Hermitian basis of the metric solution space for one Hamiltonian.

    ``basis`` spans the real linear space of Hermitian solutions; when the
    spectral path is available its elements are the left-eigenvector
    projectors ``|L_n><L_n|`` (one per eigenvalue, matching ``kappa_default``).
    ``oracle_basis`` is the independently computed null-space basis; for a
    nondegenerate spectrum it is built from ``hamiltonian`` and ``tol`` on
    first access (O(dim^6)) and cached.  ``degenerate`` flags spectra whose
    smallest gap fell below tolerance, in which case the null-space basis is
    the only basis and ``span_residual`` is None.

    ``span_residual`` is the disagreement of the two eigensolves: the larger
    of ``max_n ||v_n - e^{i phi_n} L_n||`` over the unit-normalized left
    vectors of H and right vectors of ``H^dagger`` (phase taken from their
    overlap) and ``max_n |conj(mu_n) - lambda_n| / ||H||``.
    """

    dim: int
    basis: tuple[np.ndarray, ...]
    spectral: mc.SpectralData | None
    kappa_default: np.ndarray
    degenerate: bool
    span_residual: float | None
    hamiltonian: np.ndarray
    tol: float

    @functools.cached_property
    def oracle_basis(self) -> tuple[np.ndarray, ...]:
        if self.degenerate:
            return self.basis
        return tuple(_null_space(self.hamiltonian, self.tol))

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


def _null_space(Hm: np.ndarray, tol: float) -> np.ndarray:
    """Hermitian null space of ``X -> H^dagger X - X H``, shape ``(k, dim, dim)``.

    X is represented by dim^2 real coordinates in a Frobenius orthonormal
    Hermitian basis and the image is split into (re, im) parts.  The real
    system is 2 dim^2 x dim^2, so the reduced SVD returns every right vector.
    """
    herm = _hermitian_basis(Hm.shape[0])
    image = (Hm.conj().T @ herm - herm @ Hm).reshape(len(herm), -1)
    F = np.concatenate([image.real, image.imag], axis=1).T
    _, svals, Vt = np.linalg.svd(F, full_matrices=False)
    return np.tensordot(Vt[svals <= tol * svals[0]], herm, axes=1)


def _eigensolve_disagreement(Hm: np.ndarray, spectral: mc.SpectralData, scale: float) -> float:
    """``span_residual``: H's left eigenvectors against an eigensolve of ``H^dagger``.

    The pairs are matched by sorting the conjugate eigenvalues with
    ``matrixcore.eig``'s (real, imaginary) key; ``np.linalg.eig`` returns
    unit columns.  The phase-aligned difference of unit vectors stays at
    rounding level; the cancelling form ``sqrt(1 - |<L|v>|^2)`` would floor
    near 1.5e-8.
    """
    mu, V = np.linalg.eig(Hm.conj().T)
    mu = mu.conj()
    order = np.lexsort((mu.imag, mu.real))
    mu, V = mu[order], V[:, order]
    L = spectral.left_vectors / np.linalg.norm(spectral.left_vectors, axis=0)
    phase = np.exp(1j * np.angle(np.sum(L.conj() * V, axis=0)))
    vectors = float(np.linalg.norm(V - phase * L, axis=0).max())
    drift = mc.entry_norm(mu - spectral.eigenvalues)
    return max(vectors, drift / scale if drift else 0.0)


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
        For nondegenerate spectra the spectral projector basis with all-ones
        default weights (the null-space basis follows on demand); otherwise
        the null-space basis alone.

    Raises
    ------
    ComplexSpectrum
        When ``max |Im lambda| > tol * ||H||``; no positive-definite solution
        can exist in that phase.
    DefectiveMatrix
        Propagated from the eigensolver at an exceptional point.
    SpanMismatch
        When the left eigenvectors of H and the separately computed right
        eigenvectors of ``H^dagger`` disagree beyond 1e-8.

    Warns with DegenerateSpectrumWarning and skips the spectral path when the
    smallest eigenvalue gap falls below ``tol * ||H||``; the null-space basis
    is then built at once, since it is the only basis.
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

    degenerate = spectral.min_gap() < tol * max(scale, 1e-300)
    if degenerate:
        warnings.warn(
            "eigenvalue gap below tolerance; spectral metric path skipped",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
        basis, spectral, residual = _null_space(Hm, tol), None, None
    else:
        Lv = spectral.left_vectors
        basis = Lv.T[:, :, None] * Lv.T[:, None, :].conj()      # |L_n><L_n|
        residual = _eigensolve_disagreement(Hm, spectral, scale)
        if residual > SPAN_AGREEMENT_TOL:
            raise SpanMismatch(
                f"eigensolves of H and H^dagger disagree by {residual:.3e}"
            )
    return MetricFamily(
        dim=dim,
        basis=tuple(basis),
        spectral=spectral,
        kappa_default=np.ones(len(basis)),
        degenerate=degenerate,
        span_residual=residual,
        hamiltonian=Hm,
        tol=tol,
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
