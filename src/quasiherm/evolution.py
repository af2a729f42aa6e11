"""Dual-pair time evolution and metric-weighted expectations.

The forward states obey ``i d/dt psi = H psi`` and are propagated with the
exact exponential ``exp(-i H t)``; the dual (metric-multiplied) states obey
the conjugate equation ``i d/dt psi'' = H^dagger psi''``.  Both exponentials
come from ``matrixcore.mat_exp`` (scaling-and-squaring Pade in numpy), one
call per state and one per dual at every sample, so the duals are an
independent computation rather than ``Theta`` times the states.  When H is
quasi-Hermitian for the metric the two propagations intertwine exactly and
the weighted norm ``<psi|Theta|psi>`` is conserved, which is what
``norm_trajectory`` certifies on the stacks of samples.  Each exponential
errs by about ``||H|| t eps`` relative, so the certified drift grows with
``||H|| t``; beyond ``||H|| t ~ 1/eps`` no phase is resolved and the
squarings overflow, which raises ``ExponentialOverflow``, as does an
exponential too large to represent.  Step integrators appear only in the
test suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .dieudonne import physical_inner_product, require_quasi_hermitian
from .errors import BadRange, ZeroState


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled evolution: states, dual states and weighted norms.

    ``states[k]`` is psi(times[k]); ``dual_states[k]`` its metric-multiplied
    partner; ``norms[k] = <psi|Theta|psi>``.  ``drift`` is the largest
    relative deviation of the norm from its initial value and
    ``dual_residual`` the worst relative distance between the dual states
    and ``Theta @ states``.  Both certify a gated pair and are not enforced
    bounds: they measure the rounding of the two exponentials.
    """

    times: np.ndarray
    states: np.ndarray
    dual_states: np.ndarray
    norms: np.ndarray
    drift: float
    dual_residual: float

    def to_json(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "norms": [float(x) for x in self.norms],
            "states": [mc.vector_to_json(v) for v in self.states],
            "dual_states": [mc.vector_to_json(v) for v in self.dual_states],
            "drift": self.drift,
            "dual_residual": self.dual_residual,
        }

    def to_csv(self) -> str:
        parts = [f"{part}_psi{j}" for j in range(self.states.shape[1]) for part in ("re", "im")]
        rows = np.column_stack((self.times, self.norms, self.states.view(np.float64)))
        return mc.csv_text(["t", "norm", *parts], rows)


def propagate(H, psi0, t: float) -> np.ndarray:
    """Forward state ``exp(-i H t) psi0``."""
    Hm = mc.as_square_matrix(H, "H")
    psi = mc.as_vector(psi0, Hm.shape[0], "psi0")
    return mc.mat_exp(-1j * float(t) * Hm) @ psi


def propagate_dual(H, Theta, psi0, t: float) -> np.ndarray:
    """Dual state ``exp(-i H^dagger t) Theta psi0``.

    Requires the intertwining relation to hold (residual at most ``QH_GATE``);
    the result then equals ``Theta @ propagate(H, psi0, t)``.
    """
    Hm, Tm = mc.square_pair(H, Theta, "H", "Theta")
    require_quasi_hermitian(Hm, Tm, "dual propagation")
    return propagate(Hm.conj().T, Tm @ mc.as_vector(psi0, Hm.shape[0], "psi0"), t)


def norm_trajectory(H, Theta, psi0, times) -> TrajectoryRecord:
    """Sample the dual evolution pair and the weighted norm over ``times``.

    The (H, Theta) pair is gated like ``propagate_dual``.  The loop over
    ``times`` holds only the two exponentials; Theta times the states, the
    norms and the dual residual are computed on the ``(k, d)`` stacks.  Both
    psi0 and Theta are ``_unit_scaled`` and the results scaled back by a
    power of four, so ``drift`` and ``dual_residual`` depend on the scale of
    neither.  A zero psi0 raises ZeroState.
    """
    Hm, Tm = mc.square_pair(H, Theta, "H", "Theta")
    psi = mc.as_vector(psi0, Hm.shape[0], "psi0")
    if not psi.any():
        raise ZeroState("norm trajectory needs a nonzero state")
    ts = np.asarray(times, dtype=float).reshape(-1)
    if ts.size < 1 or not np.all(np.isfinite(ts)) or np.any(np.diff(ts) <= 0):
        raise BadRange("times must be a nonempty strictly increasing finite sequence")
    mc.require_positive_metric(Tm)
    require_quasi_hermitian(Hm, Tm, "norm trajectory")

    (psi, e), (T, f) = mc._unit_scaled(psi), mc._unit_scaled(Tm)
    Hdag, theta_psi = Hm.conj().T, T @ psi
    states = np.array([mc.mat_exp(-1j * t * Hm) @ psi for t in ts])
    duals = np.array([mc.mat_exp(-1j * t * Hdag) @ theta_psi for t in ts])
    theta_states = (T @ states[..., None])[..., 0]
    norms = (states.conj()[:, None, :] @ theta_states[..., None])[:, 0, 0].real

    # the gate bounds |phi|^2 by cond(Theta) |psi|^2, so no row norm over- or underflows
    drift = float(np.abs(norms - norms[0]).max() / abs(norms[0]))
    diff = np.linalg.norm(duals - theta_states, axis=1)
    worst = float(np.max(diff / (np.linalg.norm(T) * np.linalg.norm(states, axis=1))))
    states, duals = mc._ldexp(states, -e), mc._ldexp(duals, -e - f)  # beyond the range: inf
    return TrajectoryRecord(ts, states, duals, mc._ldexp(norms, -2 * e - f), drift, worst)


def expectation(L, Theta, psi) -> complex:
    """Weighted expectation ``<psi|Theta L|psi> / <psi|Theta|psi>``.

    Real (to rounding) whenever L is quasi-Hermitian for the
    positive-definite metric; a complex value is the diagnostic signature of
    a non-observable L.  The ratio is taken on the ``_unit_scaled`` copy of
    psi, so it does not depend on the scale of psi.
    """
    Lm, Tm = mc.square_pair(L, Theta, "L", "Theta")
    v = mc.as_vector(psi, Tm.shape[0], "psi")
    if not v.any():
        raise ZeroState("expectation needs a nonzero state")
    v, _ = mc._unit_scaled(v)
    return complex(physical_inner_product(v, Lm @ v, Tm) / physical_inner_product(v, v, Tm))
