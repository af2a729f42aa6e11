"""Built-in Hamiltonian families, deterministic random ensembles and
spectral-phase sweeps.

The generators supply both valid inputs (similarity-transformed Hermitian
matrices with a Gram-matrix metric witness) and adversarial ones (broken-phase
lattices, defective limits) for the rest of the package.  Randomness comes
from an explicit 64-bit generator documented below, so a fixed seed pins the
matrices byte for byte across runs and platforms.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .dieudonne import check_quasi_hermitian, metric_from_weights, solve_metric_space
from .errors import (
    BadDimension,
    BadRange,
    ComplexSpectrum,
    DefectiveMatrix,
    SpanMismatch,
    ZeroParameter,
)

_MASK64 = (1 << 64) - 1


class DeterministicRng:
    """Tiny self-contained random source with a frozen algorithm.

    State advances by the splitmix64 step; uniforms take the top 53 bits;
    standard normals come from the Box-Muller pair transform with the spare
    value cached.  The algorithm is part of the package contract: a fixed
    seed yields identical matrices on every platform and run.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via the Box-Muller pair transform."""
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        u1 = 1.0 - self.uniform()  # (0, 1]: keeps the log finite
        u2 = self.uniform()
        radius = np.sqrt(-2.0 * np.log(u1))
        self._spare = float(radius * np.sin(2.0 * np.pi * u2))
        return float(radius * np.cos(2.0 * np.pi * u2))

    def normal_matrix(self, d: int) -> np.ndarray:
        return np.array([[self.normal() for _ in range(d)] for _ in range(d)])

    def complex_normal_matrix(self, d: int) -> np.ndarray:
        X = self.normal_matrix(d)
        Y = self.normal_matrix(d)
        return (X + 1j * Y) / np.sqrt(2.0)

    def hermitian_matrix(self, d: int) -> np.ndarray:
        G = self.complex_normal_matrix(d)
        return (G + G.conj().T) / 2.0

    def unitary(self, d: int) -> np.ndarray:
        """Haar-like unitary from the QR of a complex normal matrix."""
        Q, R = np.linalg.qr(self.complex_normal_matrix(d))
        phase = np.diag(R).copy()
        phase = phase / np.abs(phase)
        return Q * phase.conj()


def toy_2x2(g: float) -> np.ndarray:
    """Minimal non-Hermitian model ``[[0, 1], [g^2, 0]]``.

    Eigenvalues are +-g (real for real g != 0); ``toy_2x2_metric`` returns
    the reference metric diag(g^2, 1) that intertwines it.
    """
    if g == 0:
        raise ZeroParameter("g must be nonzero")
    return np.array([[0.0, 1.0], [float(g) ** 2, 0.0]], dtype=complex)


def toy_2x2_metric(g: float) -> np.ndarray:
    """Reference metric diag(g^2, 1) for ``toy_2x2(g)``."""
    if g == 0:
        raise ZeroParameter("g must be nonzero")
    return np.diag([float(g) ** 2, 1.0]).astype(complex)


def pt_chain(d: int, gamma: float) -> np.ndarray:
    """Tight-binding chain with one balanced gain/loss pair at the ends.

    Unit hopping on the off-diagonals, diagonal (+i*gamma, 0, ..., 0,
    -i*gamma).  The matrix commutes with (anti-diagonal parity) x (complex
    conjugation) identically, for every d and gamma.
    """
    if int(d) != d or d < 2:
        raise BadDimension("chain needs d >= 2 sites")
    d = int(d)
    H = np.zeros((d, d), dtype=complex)
    idx = np.arange(d - 1)
    H[idx, idx + 1] = 1.0
    H[idx + 1, idx] = 1.0
    H[0, 0] = 1j * gamma
    H[d - 1, d - 1] = -1j * gamma
    return H


def parity(d: int) -> np.ndarray:
    """Anti-diagonal matrix of ones: Hermitian and involutive (P^2 = I)."""
    if int(d) != d or d < 2:
        raise BadDimension("parity needs d >= 2")
    return np.fliplr(np.eye(int(d))).astype(complex)


def qh_pair(h, omega) -> tuple[np.ndarray, np.ndarray]:
    """Similarity pair ``H = Omega^-1 h Omega`` with witness ``Theta = Omega^dagger Omega``.

    For Hermitian h the output H has real spectrum and the Gram witness is
    positive definite and satisfies the intertwining relation exactly.
    """
    hm = mc.as_square_matrix(h, "h")
    Om = mc.as_square_matrix(omega, "omega")
    if hm.shape != Om.shape:
        raise BadDimension("h and omega must share a dimension")
    H = mc.inverse(Om) @ hm @ Om
    Theta = Om.conj().T @ Om
    return H, (Theta + Theta.conj().T) / 2.0


#: caps for the conditioned draws in random_qh, each tried at most _MAX_DRAWS times
_OMEGA_COND_LIMIT = 50.0
_GAP_FLOOR = 1e-4
_MAX_DRAWS = 100


def random_qh(d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded quasi-Hermitian Hamiltonian with a positive metric witness.

    Draws a Hermitian ``h`` (rejecting near-degenerate spectra) and an
    invertible ``Omega`` (rejecting condition numbers above
    ``50 * max(1, d/32)^2``), then returns ``qh_pair(h, Omega)``.  Fixed seed
    implies fixed matrices.

    Raises BadDimension when either draw is rejected ``_MAX_DRAWS`` times in
    a row.
    """
    if int(d) != d or d < 2:
        raise BadDimension("random_qh needs d >= 2")
    d = int(d)
    rng = DeterministicRng(seed)
    for _ in range(_MAX_DRAWS):
        h = rng.hermitian_matrix(d)
        gaps = np.diff(np.sort(np.linalg.eigvalsh(h)))
        if gaps.min() >= _GAP_FLOOR * mc.fro(h):
            break
    else:
        raise BadDimension(f"random_qh({d}): {_MAX_DRAWS} h draws missed the gap floor")
    cond_cap = _OMEGA_COND_LIMIT * max(1.0, d / 32) ** 2
    for _ in range(_MAX_DRAWS):
        omega = rng.complex_normal_matrix(d)
        if np.linalg.cond(omega) <= cond_cap:
            break
    else:
        raise BadDimension(
            f"random_qh({d}): {_MAX_DRAWS} Omega draws had cond > {cond_cap:g}"
        )
    return qh_pair(h, omega)


def random_hermitian_invertible(d: int, rng: DeterministicRng) -> np.ndarray:
    """Hermitian invertible parameter ``V D V^dagger``.

    V is a Haar-like random unitary and D carries random signs with
    magnitudes in [0.5, 2], so the result is well conditioned but in general
    indefinite (the chain construction needs invertibility only).
    """
    V = rng.unitary(d)
    mags = np.array([0.5 + 1.5 * rng.uniform() for _ in range(d)])
    signs = np.array([1.0 if rng.uniform() < 0.5 else -1.0 for _ in range(d)])
    M = (V * (signs * mags)) @ V.conj().T
    return (M + M.conj().T) / 2.0


def spectral_reality(H, tol: float) -> tuple[bool, float]:
    """Whether ``max |Im lambda| <= tol * ||H||``, plus the max imaginary part.

    Propagates DefectiveMatrix from the eigensolver at exceptional points.
    """
    Hm = mc.as_square_matrix(H, "H")
    max_imag, ratio = mc.spectrum_imag(mc.eig(Hm).eigenvalues, mc.fro(Hm))
    return ratio <= tol, max_imag


@dataclass(frozen=True)
class SweepResult:
    """Grid of reality/positivity flags plus a bisected phase boundary."""

    parameter_values: np.ndarray
    reality_flags: tuple[bool, ...]
    positivity_flags: tuple[bool, ...]
    critical_estimate: float | None

    def to_json(self) -> dict:
        return {
            "parameter_values": [float(x) for x in self.parameter_values],
            "reality_flags": list(self.reality_flags),
            "positivity_flags": list(self.positivity_flags),
            "critical_estimate": self.critical_estimate,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["parameter", "reality", "positivity"])
        for x, r, p in zip(
            self.parameter_values, self.reality_flags, self.positivity_flags
        ):
            writer.writerow([repr(float(x)), int(r), int(p)])
        return buf.getvalue()


def _real_phase(H, tol: float) -> bool:
    """``spectral_reality``'s flag, False at an exceptional point."""
    try:
        return spectral_reality(H, tol)[0]
    except DefectiveMatrix:
        return False


def _phase_flags(H, tol: float) -> tuple[bool, bool]:
    """(reality, positivity-of-the-all-ones spectral metric) for one matrix."""
    if not _real_phase(H, tol):
        return False, False
    try:
        family = solve_metric_space(H, tol=max(tol, 1e-12))
        theta = metric_from_weights(family, family.kappa_default)
    except (ComplexSpectrum, DefectiveMatrix, SpanMismatch):
        return True, False
    positive, _ = mc.positive_metric(theta)
    admissible = check_quasi_hermitian(H, theta) <= 1e-8
    return True, bool(positive and admissible)


def sweep_exceptional(
    family, lo: float, hi: float, samples: int, tol: float = 1e-9
) -> SweepResult:
    """Map the real-spectrum phase of a parameterized family.

    ``family`` maps a real parameter to a square matrix.  A uniform grid of
    ``samples`` points is flagged for spectral reality and for positivity of
    the all-ones-weight spectral metric; when reality holds at ``lo`` and
    fails at ``hi``, the first grid sign change is refined by bisection to an
    absolute uncertainty of 1e-6.
    """
    if not (lo < hi and np.isfinite(float(hi) - float(lo))):
        raise BadRange(f"need lo < hi a finite distance apart, got [{lo}, {hi}]")
    if int(samples) != samples or samples < 2:
        raise BadRange("need at least 2 samples")
    grid = np.linspace(lo, hi, int(samples))
    reality = []
    positivity = []
    for x in grid:
        r, p = _phase_flags(family(float(x)), tol)
        reality.append(r)
        positivity.append(p)

    critical = None
    if reality[0] and not reality[-1]:
        flip = next(i for i in range(len(grid) - 1) if reality[i] and not reality[i + 1])
        a, b = float(grid[flip]), float(grid[flip + 1])
        while b - a > 1e-6:
            midpoint = (a + b) / 2.0
            if _real_phase(family(midpoint), tol):
                a = midpoint
            else:
                b = midpoint
        critical = (a + b) / 2.0

    return SweepResult(
        parameter_values=grid,
        reality_flags=tuple(reality),
        positivity_flags=tuple(positivity),
        critical_estimate=critical,
    )
