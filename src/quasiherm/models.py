"""Built-in Hamiltonian families, deterministic random ensembles and
spectral-phase sweeps.

The generators supply both valid inputs (similarity-transformed Hermitian
matrices with a Gram-matrix metric witness) and adversarial ones (broken-phase
lattices, defective limits) for the rest of the package.  Randomness comes
from an explicit 64-bit generator documented below, so a fixed seed pins the
matrices byte for byte across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .dieudonne import QH_GATE, check_quasi_hermitian, metric_from_weights, solve_metric_space
from .errors import BadDimension, BadRange, DimensionMismatch, SpanMismatch, ZeroParameter

_MASK64 = (1 << 64) - 1


def _whole(n, least: int, error: type, message: str) -> int:
    """``int(n)`` for a finite whole number ``n >= least``; else ``error(message)``."""
    if not (np.isfinite(n) and n >= least and int(n) == n):
        raise error(message)
    return int(n)


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
    d = _whole(d, 2, BadDimension, "chain needs d >= 2 sites")
    H = np.zeros((d, d), dtype=complex)
    idx = np.arange(d - 1)
    H[idx, idx + 1] = 1.0
    H[idx + 1, idx] = 1.0
    H[0, 0] = 1j * gamma
    H[d - 1, d - 1] = -1j * gamma
    return H


def parity(d: int) -> np.ndarray:
    """Anti-diagonal matrix of ones: Hermitian and involutive (P^2 = I)."""
    d = _whole(d, 2, BadDimension, "parity needs d >= 2")
    return np.fliplr(np.eye(d)).astype(complex)


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


def _first_accepted(sample, accept, failure: str):
    """The first of at most ``_MAX_DRAWS`` values of ``sample()`` that
    ``accept`` takes; BadDimension with message ``failure`` if none is."""
    for _ in range(_MAX_DRAWS):
        value = sample()
        if accept(value):
            return value
    raise BadDimension(failure)


def random_qh(d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded quasi-Hermitian Hamiltonian with a positive metric witness.

    Draws a Hermitian ``h`` (rejecting near-degenerate spectra) and an
    invertible ``Omega`` (rejecting condition numbers above
    ``50 * max(1, d/32)^2``), then returns ``qh_pair(h, Omega)``.  Fixed seed
    implies fixed matrices.

    Raises BadDimension when either draw is rejected ``_MAX_DRAWS`` times in
    a row.
    """
    d = _whole(d, 2, BadDimension, "random_qh needs d >= 2")
    rng = DeterministicRng(seed)
    h = _first_accepted(
        lambda: rng.hermitian_matrix(d),
        lambda h: np.diff(np.sort(np.linalg.eigvalsh(h))).min() >= _GAP_FLOOR * mc.fro(h),
        f"random_qh({d}): {_MAX_DRAWS} h draws missed the gap floor",
    )
    cond_cap = _OMEGA_COND_LIMIT * max(1.0, d / 32) ** 2
    omega = _first_accepted(
        lambda: rng.complex_normal_matrix(d),
        lambda omega: np.linalg.cond(omega) <= cond_cap,
        f"random_qh({d}): {_MAX_DRAWS} Omega draws had cond > {cond_cap:g}",
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
    Hm, e = mc._unit_scaled(mc.as_square_matrix(H, "H"))
    tol = mc.as_tolerance(tol)
    max_imag, ratio = mc.spectrum_imag(mc.eig(Hm).eigenvalues, mc.fro(Hm))
    return bool(ratio <= tol), float(mc._ldexp(max_imag, -e))


@dataclass(frozen=True)
class SweepResult:
    """Grid of reality/positivity flags plus the refined phase boundary.

    ``critical_method`` names the refinement that produced
    ``critical_estimate``: ``"root"`` (regula falsi on the squared splitting
    of the coalescing pair), ``"bisection"`` (on the reality flag) or None
    when no boundary was bracketed; ``critical_evaluations`` counts the
    matrices the refinement eigendecomposed beyond the grid.
    """

    parameter_values: np.ndarray
    reality_flags: tuple[bool, ...]
    positivity_flags: tuple[bool, ...]
    critical_estimate: float | None
    critical_method: str | None
    critical_evaluations: int

    def to_json(self) -> dict:
        return {
            "parameter_values": [float(x) for x in self.parameter_values],
            "reality_flags": list(self.reality_flags),
            "positivity_flags": list(self.positivity_flags),
            "critical_estimate": self.critical_estimate,
            "critical_method": self.critical_method,
            "critical_evaluations": self.critical_evaluations,
        }

    def to_csv(self) -> str:
        flags = zip(self.parameter_values, self.reality_flags, self.positivity_flags)
        rows = ([x, int(r), int(p)] for x, r, p in flags)
        return mc.csv_text(["parameter", "reality", "positivity"], rows)


def _reality_flags(H, tol: float) -> tuple[np.ndarray, np.ndarray, list, list]:
    """``spectral_reality``'s flag for each matrix of a ``(k, d, d)`` stack,
    False where the matrix is defective, found as ``spectral_reality`` finds
    it: on the ``_unit_scaled`` copy ``S = 2**e * H`` of each member.

    Returns the flags, the stack of copies S, each member's end
    ``(eigenvalues, fro, e)`` of S for the refinement, and each member's
    ``SpectralData`` of S (None where it is defective).
    """
    S, e = mc._unit_scaled(H, axis=(-2, -1))
    w, R, L, overlap, defective = mc.eig_stack(S)
    scale = np.array([mc.fro(s) for s in S])
    _, ratio = mc.spectrum_imag(w, scale)
    spectral = [None if bad else mc.SpectralData(*data, float(1.0 / o))
                for *data, o, bad in zip(w, R, L, overlap, defective)]
    return ~defective & (ratio <= tol), S, list(zip(w, scale, e.ravel().tolist())), spectral


def _positive_phase(S, tol: float, spectral: mc.SpectralData) -> bool:
    """Positivity of the all-ones spectral metric of a real-phase matrix.

    ``_reality_flags`` flagged the unit-scaled S real and not defective on
    ``spectral``, its ``mc.eig`` bit for bit, at the solve's own ``tol``, so
    the solve can refuse it only by SpanMismatch.
    """
    try:
        family = solve_metric_space(S, tol=tol, spectral=spectral)
    except SpanMismatch:
        return False
    theta = metric_from_weights(family, family.kappa_default)
    positive, _ = mc.is_positive_definite(theta)
    return bool(positive and check_quasi_hermitian(S, theta) <= QH_GATE)


def _squared_splitting(end, centre) -> float | None:
    """``Re(((l+ - l-) / scale)**2)`` of the two eigenvalues nearest ``centre``.

    ``end`` is ``(w, scale, e)``: the spectrum and the Frobenius norm of a
    matrix scaled by ``2**e``, so the value is scale-free.  ``centre`` is
    ``(c, f)``, a point in the unit of a matrix scaled by ``2**f``, moved
    into the end's unit by the exact factor ``2**(e - f)``.  None unless the
    pair exists and is isolated: its splitting lies below its distance to
    the third-nearest eigenvalue (infinite at d = 2).  A value within
    ``eps`` of zero, its rounding level, reads 0.0.
    """
    w, scale, e = end
    if len(w) < 2:
        return None
    near = w[np.argsort(np.abs(w - mc._ldexp(centre[0], e - centre[1])))]
    split = near[0] - near[1]
    gap = np.abs(near[2] - near[:2]).min() if len(near) > 2 else np.inf
    if not abs(split) < gap:  # also refuses a NaN or infinite splitting
        return None
    value = float(((split / scale) ** 2).real) if split else 0.0
    return 0.0 if abs(value) <= np.finfo(float).eps else value


def _coalescing_pair(end_a, end_b):
    """``(centre, f(a), f(b))`` for the root-find, or None while it cannot start.

    Each end is ``(eigenvalues, fro, e)`` of its matrix scaled by ``2**e``.
    The pair is the two eigenvalues nearest the real part of the broken
    end's most complex eigenvalue, kept in that end's unit; the
    root-find needs it isolated at both ends and ``f = _squared_splitting``
    zero at either end, or else positive at the real end and negative at
    the broken end, where the pair must be complex conjugates, as it is past
    an EP2 at which a real pair turns complex.
    """
    wb = end_b[0]
    k = np.argmax(np.abs(wb.imag))
    centre = float(wb[k].real), end_b[2]
    fa = _squared_splitting(end_a, centre)
    fb = _squared_splitting(end_b, centre)
    if fa is None or fb is None:
        return None
    conjugate = np.abs(wb - wb[k].conj()).min() < abs(wb[k].imag)
    if fa == 0.0 or fb == 0.0 or (conjugate and fa > 0.0 > fb):
        return centre, fa, fb
    return None


#: refinement stops once the bracket is this narrow relative to |parameter| ...
_BRACKET_RTOL = 4.0 * np.finfo(float).eps
#: ... or after this many evaluations
_MAX_EVALUATIONS = 100
#: matrices per stacked eigendecomposition of the grid (bounds the memory)
_STACK = 256


def _bisection_point(a: float, b: float) -> float:
    """The midpoint of ``(a, b)``, or the geometric mean where the ends share
    a sign and differ by more than a factor of 4 (an end at 0 counting as the
    smallest normal float), so a cell across orders of magnitude narrows fast."""
    lo, hi = abs(a) or np.finfo(float).tiny, abs(b) or np.finfo(float).tiny
    m = float(np.copysign(np.sqrt(lo) * np.sqrt(hi), a or b))
    if np.sign(a) * np.sign(b) >= 0 and max(lo, hi) > 4.0 * min(lo, hi) and a < m < b:
        return m  # a < m < b fails only where the end beside a 0 is subnormal
    return a + 0.5 * (b - a)


def _refine(family, a: float, b: float, end_a, end_b, tol: float):
    """Narrow the flip cell ``[a, b]`` (real phase at a, broken at b).

    At an EP2 the squared splitting of the coalescing pair is analytic in
    the parameter and changes sign, so Illinois regula falsi on it reaches
    the crossing to rounding.  While ``_coalescing_pair`` refuses the
    bracket, or once the pair is lost, the reality flag is bisected at
    ``_bisection_point`` instead.  Each end is ``(eigenvalues, fro, e)`` of
    its matrix scaled by ``2**e``, and so is each probe.  Returns
    ``(estimate, method, evaluations)``.
    """
    method, evaluations, side = "bisection", 0, 0
    pair = _coalescing_pair(end_a, end_b)
    while evaluations < _MAX_EVALUATIONS and b - a > _BRACKET_RTOL * max(abs(a), abs(b)):
        if pair is None:
            method = "bisection"
            m = _bisection_point(a, b)
            real, _, (end_m,), _ = _reality_flags(family(m)[None], tol)
            evaluations += 1
            if real[0]:
                a, end_a = m, end_m
            else:
                b, end_b = m, end_m
            pair = _coalescing_pair(end_a, end_b)
            continue
        method = "root"
        centre, fa, fb = pair
        if fa == 0.0 or fb == 0.0:
            return (a if fa == 0.0 else b), method, evaluations
        c = b - (b - a) * (fb / (fb - fa))
        if not a < c < b:
            c = a + 0.5 * (b - a)
        Sc, ec = mc._unit_scaled(family(c))
        end_c = np.linalg.eigvals(Sc), mc.fro(Sc), int(ec)
        evaluations += 1
        fc = _squared_splitting(end_c, centre)
        if fc is None:
            pair = None
        elif fc == 0.0:
            return c, method, evaluations
        elif fc > 0.0:  # Illinois: halve the value kept at the same end twice
            a, end_a, pair = c, end_c, (centre, fc, fb * 0.5 if side < 0 else fb)
            side = -1
        else:
            b, end_b, pair = c, end_c, (centre, fa * 0.5 if side > 0 else fa, fc)
            side = 1
    return a + 0.5 * (b - a), method, evaluations


def sweep_exceptional(
    family, lo: float, hi: float, samples: int, tol: float = 1e-9
) -> SweepResult:
    """Map the real-spectrum phase of a parameterized family.

    ``family`` maps a real parameter to a square matrix of one fixed size.
    A uniform grid of ``samples`` points is flagged for spectral reality
    (from stacked eigendecompositions; a defective point reads False) and,
    at the real points, for positivity of the all-ones-weight spectral
    metric.  Each grid point is decomposed once, on its ``_unit_scaled``
    copy, and the metric solve of a real point takes that decomposition, so
    no flag depends on the family's scale, also where ``||H||`` is beyond
    the float range; the refinement probes unit-scaled copies too.  When
    reality holds at ``lo`` and fails at ``hi``, the first
    flip cell of the grid is narrowed by ``_refine``: a root-find on the
    squared splitting of the coalescing eigenvalue pair, with bisection of
    the reality flag as its fallback.  Both stop once the bracket is within
    a few ulps of the parameter (the root-find also once the splitting is
    at its rounding level), and after ``_MAX_EVALUATIONS`` evaluations at
    most, so the estimate is relative to the parameter's scale and the
    sweep always returns.  ``critical_method`` and ``critical_evaluations``
    of the result say which loop made the estimate and at what cost.
    A matrix, on the grid or probed by the refinement, whose shape differs
    from that of ``family(lo)`` raises DimensionMismatch naming its parameter.
    """
    if not (lo < hi and np.isfinite(float(hi) - float(lo))):
        raise BadRange(f"need lo < hi a finite distance apart, got [{lo}, {hi}]")
    tol = mc.as_tolerance(tol)
    grid = np.linspace(lo, hi, _whole(samples, 2, BadRange, "need at least 2 samples"))
    shape = None

    def member(x: float) -> np.ndarray:
        nonlocal shape
        H = mc.as_square_matrix(family(x), "H")
        shape = shape or H.shape
        if H.shape != shape:
            raise DimensionMismatch(f"family({x!r}) has shape {H.shape}, not {shape}")
        return H

    reality, positivity, ends = [], [], []
    for start in range(0, len(grid), _STACK):
        H = np.stack([member(float(x)) for x in grid[start:start + _STACK]])
        real, S, chunk_ends, spectral = _reality_flags(H, tol)
        reality += real.tolist()
        positivity += [r and _positive_phase(s, tol, sd)
                       for r, s, sd in zip(reality[start:], S, spectral)]
        ends += chunk_ends

    critical, method, evaluations = None, None, 0
    if reality[0] and not reality[-1]:
        flip = next(i for i in range(len(grid) - 1) if reality[i] and not reality[i + 1])
        critical, method, evaluations = _refine(
            member, float(grid[flip]), float(grid[flip + 1]), ends[flip], ends[flip + 1], tol
        )

    return SweepResult(
        parameter_values=grid,
        reality_flags=tuple(reality),
        positivity_flags=tuple(positivity),
        critical_estimate=critical,
        critical_method=method,
        critical_evaluations=evaluations,
    )
