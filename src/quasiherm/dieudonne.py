"""Solve the intertwining equation ``H^dagger Theta = Theta H`` for Hermitian
metric candidates, parameterize the admissible (positive-definite) family and
evaluate physical inner products.

For a diagonalizable H with a real spectrum, the sorted eigenvalues fall into
clusters (a new one starts at every gap of at least ``tol * ||H||``); cluster
b has multiplicity m_b and left eigenvector block ``L_b``.  The Hermitian
solutions are ``sum_b L_b K_b L_b^dagger`` over Hermitian m_b x m_b blocks
``K_b``, positive definite exactly when every ``K_b`` is (Scholtz, Geyer and
Hahne 1992; Mostafazadeh, arXiv:0810.5643).  The metric is never unique;
selecting a member of the family is deliberately left to the caller.

Every solve cross-checks, in O(dim^3), the left eigenvectors of H (rows of
the inverted right basis from ``matrixcore.eig``) against the right
eigenvectors of ``H^dagger`` from a separate eigensolve, matched by sorted
conjugate eigenvalue and compared against the span of their cluster.  The
O(dim^6) algebraic null space over the dim^2 real parameters of a Hermitian
matrix is built only on demand, as ``MetricFamily.oracle_basis``.
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
)

#: left-eigenvector disagreement above which the two eigensolves are rejected
SPAN_AGREEMENT_TOL = 1e-8
#: intertwining residual above which an (operator, metric) pair is refused
QH_GATE = 1e-10


@dataclass(frozen=True)
class MetricFamily:
    """Hermitian basis of the metric solution space for one Hamiltonian.

    ``basis`` holds the projectors ``|L_n><L_n|`` (one per eigenvalue,
    matching ``kappa_default``), then for each pair i < j in one eigenvalue
    cluster ``(|L_i><L_j| + h.c.)/sqrt 2`` and ``i(|L_i><L_j| - h.c.)/sqrt 2``:
    ``sum_b m_b^2`` elements.  ``degenerate`` flags a cluster of more than one
    eigenvalue.  ``oracle_basis``, the null-space basis, is built from
    ``hamiltonian`` and ``tol`` on first access and cached.

    ``span_residual`` is the larger of ``max_n ||v_n - P_n v_n||``, with
    ``v_n`` the unit eigenvectors of ``H^dagger`` and ``P_n`` the orthogonal
    projector onto H's left vectors in the cluster of n, and
    ``max_n |conj(mu_n) - lambda_n| / ||H||``.
    """

    dim: int
    basis: tuple[np.ndarray, ...]
    spectral: mc.SpectralData
    kappa_default: np.ndarray
    degenerate: bool
    span_residual: float
    hamiltonian: np.ndarray
    tol: float

    @functools.cached_property
    def oracle_basis(self) -> tuple[np.ndarray, ...]:
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
    The cut is relative to ``max(sigma_max, ||H||)``: for H within rounding
    of a multiple of the identity, sigma_max is itself rounding noise.
    """
    herm = _hermitian_basis(Hm.shape[0])
    image = (Hm.conj().T @ herm - herm @ Hm).reshape(len(herm), -1)
    F = np.concatenate([image.real, image.imag], axis=1).T
    _, svals, Vt = np.linalg.svd(F, full_matrices=False)
    return np.tensordot(Vt[svals <= tol * max(svals[0], mc.fro(Hm))], herm, axes=1)


def _eigensolve_disagreement(
    Hm: np.ndarray, eigenvalues: np.ndarray, Q: np.ndarray, same: np.ndarray, scale: float
) -> float:
    """``span_residual``: cluster spans of H's left vectors against ``eig(H^dagger)``.

    ``Q`` holds H's unit left vectors, orthonormalized within each cluster;
    ``same[m, n]`` says whether m and n share one.  Pairs are matched by
    sorting the conjugate eigenvalues with ``matrixcore.eig``'s key.  The
    projection residual is a vector difference, so it stays at rounding
    level where ``sqrt(1 - |<L|v>|^2)`` would floor near 1.5e-8.
    """
    mu, V = np.linalg.eig(Hm.conj().T)
    mu = mu.conj()
    order = np.lexsort((mu.imag, mu.real))
    mu, V = mu[order], V[:, order]
    vectors = float(np.linalg.norm(V - Q @ ((Q.conj().T @ V) * same), axis=0).max())
    drift = mc.entry_norm(mu - eigenvalues)
    return max(vectors, drift / scale if drift else 0.0)


def solve_metric_space(H, tol: float = 1e-10) -> MetricFamily:
    """Compute the Hermitian solution family of ``H^dagger X = X H``.

    Parameters
    ----------
    H : array_like
        Square diagonalizable Hamiltonian with (numerically) real spectrum.
    tol : float
        Relative threshold used for the spectral-reality precondition, the
        eigenvalue clustering and the on-demand null-space singular-value cut.

    Returns
    -------
    MetricFamily
        The cluster basis (projectors first, then the within-cluster pair
        elements) with all-ones default weights on the projectors; the
        null-space basis follows on demand.

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

    Warns with DegenerateSpectrumWarning when some eigenvalue gap falls
    below ``tol * ||H||``, i.e. when a cluster has more than one member.
    """
    Hm = mc.as_square_matrix(H, "H")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    dim = Hm.shape[0]
    scale = mc.fro(Hm)

    spectral = mc.eig(Hm)
    max_imag, imag_ratio = mc.spectrum_imag(spectral.eigenvalues, scale)
    if imag_ratio > tol:
        raise ComplexSpectrum(
            f"max |Im eigenvalue| {max_imag:.3e} exceeds {tol:.1e} * ||H||"
        )

    gaps = np.abs(np.diff(spectral.eigenvalues))
    labels = np.concatenate(([0], np.cumsum(gaps >= tol * max(scale, 1e-300))))
    Lv = spectral.left_vectors
    basis = Lv.T[:, :, None] * Lv.T[:, None, :].conj()      # |L_n><L_n|
    Q = Lv / np.linalg.norm(Lv, axis=0)
    degenerate = bool(labels[-1] + 1 < dim)
    if degenerate:
        warnings.warn(
            "eigenvalue gap below tolerance; metric family built per eigenvalue cluster",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
        i, j = np.triu_indices(dim, 1)
        same_cluster = labels[i] == labels[j]
        i, j = i[same_cluster], j[same_cluster]
        outer = Lv.T[i, :, None] * Lv.T[j, None, :].conj()    # |L_i><L_j|
        adjoint = outer.conj().transpose(0, 2, 1)
        pairs = np.stack([outer + adjoint, 1j * (outer - adjoint)], axis=1) / np.sqrt(2.0)
        basis = np.concatenate([basis, pairs.reshape(-1, dim, dim)])
        for b in np.unique(labels[i]):
            Q[:, labels == b] = np.linalg.qr(Q[:, labels == b])[0]
    residual = _eigensolve_disagreement(
        Hm, spectral.eigenvalues, Q, labels[:, None] == labels, scale
    )
    if residual > SPAN_AGREEMENT_TOL:
        raise SpanMismatch(f"eigensolves of H and H^dagger disagree by {residual:.3e}")
    return MetricFamily(
        dim=dim,
        basis=tuple(basis),
        spectral=spectral,
        kappa_default=np.ones(dim),
        degenerate=degenerate,
        span_residual=residual,
        hamiltonian=Hm,
        tol=tol,
    )


def metric_from_weights(family: MetricFamily, kappa) -> np.ndarray:
    """Assemble ``Theta = sum_n kappa_n |L_n><L_n|`` from positive weights.

    One weight per eigenvalue (``family.dim`` of them): the block-diagonal
    members of the cluster family, ``K_b = diag(kappa)`` on each cluster.
    Positive weights give a Hermitian positive-definite metric whenever H is
    diagonalizable with a real spectrum.
    """
    k = np.asarray(kappa, dtype=float).reshape(-1)
    if k.shape[0] != family.dim:
        raise DimensionMismatch(
            f"{k.shape[0]} weights for {family.dim} left eigenvectors"
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
