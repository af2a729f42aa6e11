"""Solve the intertwining equation ``H^dagger Theta = Theta H`` for Hermitian
metric candidates, parameterize the admissible (positive-definite) family and
evaluate physical inner products.

For a diagonalizable H with a real spectrum, the sorted eigenvalues fall into
clusters (a new one starts at every gap above ``CLUSTER_RTOL * ||H||``); cluster
b has multiplicity m_b and left eigenvector block ``L_b``.  The Hermitian
solutions are ``sum_b L_b K_b L_b^dagger`` over Hermitian m_b x m_b blocks
``K_b``, positive definite exactly when every ``K_b`` is (Scholtz, Geyer and
Hahne 1992; Mostafazadeh, arXiv:0810.5643).  The metric is never unique;
selecting a member of the family is deliberately left to the caller.

Every solve cross-checks, in O(dim^3), the left eigenvectors of H (rows of
the inverted right basis from ``matrixcore.eig``) against the right
eigenvectors of ``H^dagger`` from a separate eigensolve, matched by sorted
conjugate eigenvalue and compared against the span of their cluster; no
O(dim^6) null space of the dim^2-parameter real system is ever built.
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
)

#: left-eigenvector disagreement above which the two eigensolves are rejected
SPAN_AGREEMENT_TOL = 1e-8
#: intertwining residual above which an (operator, metric) pair is refused
QH_GATE = 1e-10
#: default relative threshold of the metric solve's reality test
SOLVE_TOL = 1e-10
#: eigenvalue gap, relative to ||H||, above which a new eigenvalue cluster starts
CLUSTER_RTOL = 1e-10


@dataclass(frozen=True)
class MetricFamily:
    """The metric solution space of one Hamiltonian, by its cluster structure.

    ``cluster_sizes`` holds the multiplicities m_b of the eigenvalue
    clusters in sorted-eigenvalue order; with the left vectors in
    ``spectral`` they fix every solution ``sum_b L_b K_b L_b^dagger``, whose
    real dimension is ``sum_b m_b^2`` (the span of ``|L_i><L_j|`` + h.c. and
    ``i(|L_i><L_j| - h.c.)`` over i, j in one cluster).

    ``span_residual`` is the larger of ``max_n ||v_n - P_n v_n||``, with
    ``v_n`` the unit eigenvectors of ``H^dagger`` and ``P_n`` the orthogonal
    projector onto H's left vectors in the cluster of n, and
    ``max_n |conj(mu_n) - lambda_n| / ||H||``.
    """

    cluster_sizes: tuple[int, ...]
    spectral: mc.SpectralData
    span_residual: float

    @property
    def dim(self) -> int:
        """Matrix dimension, the number of eigenvalues."""
        return len(self.spectral.eigenvalues)

    @property
    def kappa_default(self) -> np.ndarray:
        """One weight per eigenvalue, all ones (the metric ``L L^dagger``)."""
        return np.ones(self.dim)

    @property
    def degenerate(self) -> bool:
        """Whether some cluster has more than one eigenvalue."""
        return len(self.cluster_sizes) < self.dim

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "cluster_sizes": list(self.cluster_sizes),
            "left_vectors": mc.matrix_to_json(self.spectral.left_vectors),
            "kappa_default": [float(k) for k in self.kappa_default],
        }


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


def solve_metric_space(H, tol: float = SOLVE_TOL) -> MetricFamily:
    """Compute the Hermitian solution family of ``H^dagger X = X H``.

    Parameters
    ----------
    H : array_like
        Square diagonalizable Hamiltonian with (numerically) real spectrum.
    tol : float
        Relative threshold of the spectral-reality precondition alone (BadRange
        unless positive and finite); clusters start at gaps above
        ``CLUSTER_RTOL * ||H||``.

    Returns
    -------
    MetricFamily
        The cluster sizes and left eigenvectors that fix the solution
        family, with all-ones default weights (the metric ``L L^dagger``).

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

    Warns with DegenerateSpectrumWarning when a cluster has more than one
    member, i.e. some eigenvalue gap is at most ``CLUSTER_RTOL * ||H||``.
    """
    Hm, e = mc._unit_scaled(mc.as_square_matrix(H, "H"))
    tol = mc.as_tolerance(tol)
    scale = mc.fro(Hm)

    spectral = mc.eig(Hm)
    max_imag, imag_ratio = mc.spectrum_imag(spectral.eigenvalues, scale)
    if not imag_ratio <= tol:
        max_imag = mc._ldexp(max_imag, -e)
        raise ComplexSpectrum(f"max |Im eigenvalue| {max_imag:.3e} exceeds {tol:.1e} * ||H||")

    gaps = np.abs(np.diff(spectral.eigenvalues))
    labels = np.concatenate(([0], np.cumsum(gaps > CLUSTER_RTOL * scale)))
    cluster_sizes = np.bincount(labels)
    Q = spectral.left_vectors / np.linalg.norm(spectral.left_vectors, axis=0)
    if len(cluster_sizes) < Hm.shape[0]:
        warnings.warn(
            "eigenvalue gap below tolerance; metric family built per eigenvalue cluster",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
        for b in np.flatnonzero(cluster_sizes > 1):
            Q[:, labels == b] = np.linalg.qr(Q[:, labels == b])[0]
    residual = _eigensolve_disagreement(
        Hm, spectral.eigenvalues, Q, labels[:, None] == labels, scale
    )
    if not residual <= SPAN_AGREEMENT_TOL:
        raise SpanMismatch(f"eigensolves of H and H^dagger disagree by {residual:.3e}")
    spectral = mc.SpectralData(mc._ldexp(spectral.eigenvalues, -e), spectral.right_vectors,
                               spectral.left_vectors, spectral.condition_estimate)
    return MetricFamily(tuple(cluster_sizes.tolist()), spectral, residual)


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
    The caller compares the result against its own tolerance.  The operands
    pass ``matrixcore.in_range``, so an exact power of two on either keeps it.
    """
    Lm, Tm = mc.in_range(*mc.square_pair(L, Theta, "L", "Theta"))
    return mc.rel_residual(Lm.conj().T @ Tm - Tm @ Lm, Lm, Tm)


def require_quasi_hermitian(L, Theta, what: str) -> None:
    """Raise QuasiHermiticityViolation unless the residual is at most ``QH_GATE``."""
    residual = check_quasi_hermitian(L, Theta)
    if not residual <= QH_GATE:
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
