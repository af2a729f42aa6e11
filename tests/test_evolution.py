import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiherm import matrixcore as mc
from quasiherm.dieudonne import metric_from_weights, solve_metric_space
from quasiherm.errors import (
    BadRange,
    DimensionMismatch,
    NotPositiveDefinite,
    QuasiHermiticityViolation,
    ZeroState,
)
from quasiherm.evolution import (
    expectation,
    norm_trajectory,
    propagate,
    propagate_dual,
)
from quasiherm.models import DeterministicRng, random_qh, toy_2x2, toy_2x2_metric

TOY_H = toy_2x2(2.0)
TOY_THETA = toy_2x2_metric(2.0)


def rk4_schrodinger(H, psi0, t, steps):
    """Fixed-step 4th-order integrator for i dpsi/dt = H psi (test oracle)."""
    h = t / steps
    psi = np.asarray(psi0, dtype=complex).copy()

    def f(v):
        return -1j * (H @ v)

    for _ in range(steps):
        k1 = f(psi)
        k2 = f(psi + 0.5 * h * k1)
        k3 = f(psi + 0.5 * h * k2)
        k4 = f(psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return psi


def random_triple(seed, dim=4):
    H, _ = random_qh(dim, seed)
    family = solve_metric_space(H)
    rng = DeterministicRng(seed + 31337)
    kappa = [0.5 + 1.5 * rng.uniform() for _ in range(dim)]
    theta = metric_from_weights(family, kappa)
    psi0 = np.array([rng.normal() + 1j * rng.normal() for _ in range(dim)])
    return H, theta, psi0


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------

def test_propagate_zero_time():
    psi0 = np.array([1.0, 2.0 - 1j])
    np.testing.assert_allclose(propagate(TOY_H, psi0, 0.0), psi0, atol=1e-15)


def test_propagate_diagonal_phases():
    got = propagate(np.diag([1.0, 2.0]), [1.0, 0.0], np.pi)
    np.testing.assert_allclose(got, [np.exp(-1j * np.pi), 0.0], atol=1e-14)
    np.testing.assert_allclose(got, [-1.0, 0.0], atol=1e-14)


def test_propagate_matches_rk4_oracle():
    psi0 = np.array([1.0, 1.0], dtype=complex)
    exact = propagate(TOY_H, psi0, 1.0)
    stepped = rk4_schrodinger(TOY_H, psi0, 1.0, 1000)
    np.testing.assert_allclose(exact, stepped, atol=1e-10)


def test_propagate_time_additivity():
    H, _, psi0 = random_triple(5)
    one_shot = propagate(H, psi0, 3.7)
    two_step = propagate(H, propagate(H, psi0, 1.4), 2.3)
    assert np.linalg.norm(one_shot - two_step) <= 1e-9 * np.linalg.norm(one_shot)


def test_propagate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        propagate(TOY_H, [1.0, 0.0, 0.0], 1.0)


# ---------------------------------------------------------------------------
# propagate_dual
# ---------------------------------------------------------------------------

def test_dual_zero_time_applies_metric():
    psi0 = np.array([1.0, 2.0])
    got = propagate_dual(TOY_H, TOY_THETA, psi0, 0.0)
    np.testing.assert_allclose(got, TOY_THETA @ psi0, atol=1e-14)


def test_dual_collapses_for_hermitian_pair():
    H = np.array([[1.0, 1j], [-1j, -1.0]])
    psi0 = np.array([0.3, -1.0 + 0.5j])
    got = propagate_dual(H, np.eye(2), psi0, 2.0)
    np.testing.assert_allclose(got, propagate(H, psi0, 2.0), atol=1e-12)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_dual_equals_metric_times_forward(t):
    psi0 = np.array([1.0, -0.5 + 1j])
    dual = propagate_dual(TOY_H, TOY_THETA, psi0, t)
    want = TOY_THETA @ propagate(TOY_H, psi0, t)
    assert np.linalg.norm(dual - want) <= 1e-10 * np.linalg.norm(want)


def test_dual_gates_on_quasi_hermiticity():
    with pytest.raises(QuasiHermiticityViolation):
        propagate_dual(TOY_H, np.eye(2), [1.0, 0.0], 1.0)


# ---------------------------------------------------------------------------
# norm_trajectory
# ---------------------------------------------------------------------------

def test_trajectory_hermitian_case_constant_norm():
    H = np.array([[0.0, 1.0], [1.0, 0.5]])
    record = norm_trajectory(H, np.eye(2), [1.0, 1j], np.linspace(0, 10, 51))
    assert record.drift <= 1e-12
    np.testing.assert_allclose(record.norms, record.norms[0], rtol=1e-12)


def test_trajectory_toy_model_conserves_weighted_norm():
    record = norm_trajectory(
        TOY_H, TOY_THETA, [1.0, 0.0], np.linspace(0.0, 10.0, 101)
    )
    assert record.drift <= 1e-8
    assert record.dual_residual <= 1e-9


def test_trajectory_wrong_metric_drifts():
    # the identity metric on the genuinely non-Hermitian toy model
    record = norm_trajectory(
        TOY_H, np.eye(2), [1.0, 0.0], np.linspace(0.0, 10.0, 101), check=False
    )
    assert record.drift >= 1e-2


def test_trajectory_gates_and_validation():
    with pytest.raises(QuasiHermiticityViolation):
        norm_trajectory(TOY_H, np.eye(2), [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(NotPositiveDefinite):
        norm_trajectory(np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(BadRange):
        norm_trajectory(TOY_H, TOY_THETA, [1.0, 0.0], [1.0, 0.5])


@pytest.mark.parametrize("seed", range(6))
def test_trajectory_invariants_random_pairs(seed):
    H, theta, psi0 = random_triple(seed, dim=2 + seed % 5)
    record = norm_trajectory(H, theta, psi0, np.linspace(0.0, 10.0, 101))
    assert record.drift <= 1e-8
    assert record.dual_residual <= 1e-9
    for k in (0, 50, 100):
        dual = record.dual_states[k]
        want = theta @ record.states[k]
        assert np.linalg.norm(dual - want) <= 1e-9 * mc.fro(theta) * np.linalg.norm(
            record.states[k]
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_trajectory_drift_and_dual_residual_property(seed, dim):
    H, theta, psi0 = random_triple(seed, dim)
    record = norm_trajectory(H, theta, psi0, np.linspace(0.0, 10.0, 21))
    assert record.drift <= 1e-8
    assert record.dual_residual <= 1e-8


def test_trajectory_serialization_shapes():
    record = norm_trajectory(
        TOY_H, TOY_THETA, [1.0, 0.5j], np.linspace(0.0, 1.0, 5)
    )
    csv_text = record.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "t,norm,re_psi0,im_psi0,re_psi1,im_psi1"
    assert len(lines) == 6
    payload = record.to_json()
    assert len(payload["times"]) == 5
    assert len(payload["states"]) == 5
    assert payload["drift"] == record.drift


# ---------------------------------------------------------------------------
# expectation
# ---------------------------------------------------------------------------

def test_expectation_identity_is_one():
    got = expectation(np.eye(2), TOY_THETA, [0.3, 1.0 - 2j])
    assert got == pytest.approx(1.0, abs=1e-14)


def test_expectation_metric_observable_value():
    # <psi|Theta^2|psi> = 17 against <psi|Theta|psi> = 5
    got = expectation(TOY_THETA, TOY_THETA, [1.0, 1.0])
    assert got == pytest.approx(17.0 / 5.0, abs=1e-14)
    assert abs(got.imag) <= 1e-15


def test_expectation_flags_non_observable():
    got = expectation(np.diag([1j, 1.0]), np.eye(2), [1.0, 1.0])
    assert abs(got.imag) > 0.1


def test_expectation_rejects_zero_state():
    with pytest.raises(ZeroState):
        expectation(np.eye(2), TOY_THETA, [0.0, 0.0])


@pytest.mark.parametrize("seed", range(4))
def test_expectation_reality_for_chain_observables(seed):
    from quasiherm.factorchain import build_chain
    from quasiherm.models import random_hermitian_invertible

    dim = 3 + seed
    H, theta, _ = random_triple(100 + seed, dim=dim)
    rng = DeterministicRng(seed)
    chain = build_chain(
        H, theta, [random_hermitian_invertible(dim, rng) for _ in range(2)]
    )
    for _ in range(25):
        psi = np.array([rng.normal() + 1j * rng.normal() for _ in range(dim)])
        for lam in chain.observables:
            value = expectation(lam, theta, psi)
            assert abs(value.imag) <= 1e-9 * max(1.0, abs(value))
