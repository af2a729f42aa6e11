import numpy as np
import pytest

from quasiherm import matrixcore as mc
from quasiherm import models
from quasiherm.dieudonne import check_quasi_hermitian
from quasiherm.errors import BadDimension, BadRange, DefectiveMatrix, ZeroParameter
from quasiherm.models import (
    DeterministicRng,
    parity,
    pt_chain,
    qh_pair,
    random_hermitian_invertible,
    random_qh,
    spectral_reality,
    sweep_exceptional,
    toy_2x2,
    toy_2x2_metric,
)
from quasiherm.symmetry import check_pt_symmetry, involution_defect


# ---------------------------------------------------------------------------
# deterministic generator
# ---------------------------------------------------------------------------

def test_rng_reproducible_stream():
    a = DeterministicRng(123)
    b = DeterministicRng(123)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert a.normal() == b.normal()


def test_rng_uniform_range_and_rough_moments():
    rng = DeterministicRng(7)
    us = [rng.uniform() for _ in range(5000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert np.mean(us) == pytest.approx(0.5, abs=0.03)
    ns = [rng.normal() for _ in range(20000)]
    assert np.mean(ns) == pytest.approx(0.0, abs=0.03)
    assert np.std(ns) == pytest.approx(1.0, abs=0.03)


def test_rng_unitary_is_unitary():
    U = DeterministicRng(5).unitary(6)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(6), atol=1e-12)


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------

def test_toy_hermitian_limit():
    H = toy_2x2(1.0)
    np.testing.assert_allclose(H, [[0.0, 1.0], [1.0, 0.0]], atol=0.0)
    assert check_quasi_hermitian(H, np.eye(2)) == 0.0


def test_toy_spectrum_and_reference_metric():
    H = toy_2x2(2.0)
    sd = mc.eig(H)
    np.testing.assert_allclose(sd.eigenvalues, [-2.0, 2.0], atol=1e-14)
    assert check_quasi_hermitian(H, toy_2x2_metric(2.0)) <= 1e-15


def test_toy_rejects_zero_coupling():
    with pytest.raises(ZeroParameter):
        toy_2x2(0.0)
    with pytest.raises(ZeroParameter):
        toy_2x2_metric(0.0)


def test_pt_chain_hermitian_limit_spectrum():
    sd = mc.eig(pt_chain(2, 0.0))
    np.testing.assert_allclose(sd.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_pt_chain_unbroken_spectrum():
    # characteristic polynomial lambda^2 = 1 - gamma^2
    sd = mc.eig(pt_chain(2, 0.5))
    want = np.sqrt(1.0 - 0.25)
    np.testing.assert_allclose(sd.eigenvalues, [-want, want], atol=1e-14)


def test_pt_chain_broken_spectrum():
    sd = mc.eig(pt_chain(2, 1.5))
    want = np.sqrt(1.5**2 - 1.0)
    np.testing.assert_allclose(sd.eigenvalues, [-1j * want, 1j * want], atol=1e-14)


def test_pt_chain_rejects_small_dimension():
    with pytest.raises(BadDimension):
        pt_chain(1, 0.5)


@pytest.mark.parametrize("d", range(2, 13))
def test_pt_chain_symmetry_residual_vanishes(d):
    for gamma in (0.0, 0.3, 1.0, 4.0):
        assert check_pt_symmetry(pt_chain(d, gamma), parity(d)) <= 1e-15


def test_parity_properties():
    for d in (2, 3, 6):
        P = parity(d)
        np.testing.assert_allclose(P, np.fliplr(np.eye(d)), atol=0.0)
        assert mc.hermitian_defect(P) == 0.0
        assert involution_defect(P) == 0.0
        np.testing.assert_allclose(mc.inverse(P), P, atol=0.0)
    with pytest.raises(BadDimension):
        parity(1)


# ---------------------------------------------------------------------------
# random quasi-Hermitian ensemble
# ---------------------------------------------------------------------------

def test_random_qh_witness_is_admissible():
    for seed in range(10):
        dim = 2 + seed % 7
        H, theta = random_qh(dim, seed)
        flag, _ = mc.is_positive_definite(
            theta, 1e-12 * max(1.0, mc.entry_norm(theta))
        )
        assert flag
        assert check_quasi_hermitian(H, theta) <= 1e-10
        real, _ = spectral_reality(H, 1e-10)
        assert real


def test_random_qh_identity_similarity_path():
    rng = DeterministicRng(9)
    h = rng.hermitian_matrix(4)
    H, theta = qh_pair(h, np.eye(4))
    np.testing.assert_allclose(H, h, atol=1e-14)
    np.testing.assert_allclose(theta, np.eye(4), atol=0.0)


def test_random_qh_refuses_a_dimension_it_cannot_draw(monkeypatch):
    # with a cap of 1 no Omega draw qualifies (cond >= 1): raise, do not hang
    monkeypatch.setattr(models, "_OMEGA_COND_LIMIT", 1.0)
    with pytest.raises(BadDimension, match="Omega draws had cond > 1$"):
        random_qh(8, 1)


@pytest.mark.parametrize("seed", range(5))
def test_random_qh_draws_at_large_dimension(seed):
    H, theta = random_qh(64, seed)
    assert H.shape == theta.shape == (64, 64)
    assert check_quasi_hermitian(H, theta) <= 1e-10


def test_random_qh_fixed_seed_is_bit_stable():
    first_H, first_T = random_qh(4, 42)
    second_H, second_T = random_qh(4, 42)
    assert np.array_equal(first_H, second_H)
    assert np.array_equal(first_T, second_T)
    other_H, _ = random_qh(4, 43)
    assert not np.array_equal(first_H, other_H)
    # fingerprint pinned at first implementation: catches silent generator changes
    assert first_H[0, 0] == pytest.approx(
        -2.085348111040583 - 0.8555787977489535j, abs=1e-15
    )
    assert first_T[0, 0] == pytest.approx(2.4789497730213523, abs=1e-15)
    assert first_H[2, 3] == pytest.approx(
        -2.2498289994121263 + 0.5942859083584423j, abs=1e-15
    )


def test_random_hermitian_invertible_spectrum_window():
    rng = DeterministicRng(11)
    for d in (2, 5):
        M = random_hermitian_invertible(d, rng)
        assert mc.hermitian_defect(M) <= 1e-14
        eigs = np.abs(np.linalg.eigvalsh(M))
        assert eigs.min() >= 0.5 - 1e-12
        assert eigs.max() <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# spectral reality and sweeps
# ---------------------------------------------------------------------------

def test_spectral_reality_cases():
    real, imag = spectral_reality(np.diag([1.0, 2.0]), 1e-10)
    assert real and imag <= 1e-14
    real, imag = spectral_reality(pt_chain(2, 0.5), 1e-10)
    assert real and imag <= 1e-14
    real, imag = spectral_reality(pt_chain(2, 1.5), 1e-10)
    assert not real
    assert imag == pytest.approx(np.sqrt(1.25), abs=1e-12)


def test_spectral_reality_propagates_defectiveness():
    with pytest.raises(DefectiveMatrix):
        spectral_reality(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-10)


def test_sweep_finds_exceptional_point():
    result = sweep_exceptional(lambda g: pt_chain(2, g), 0.0, 2.0, 21)
    assert abs(result.critical_estimate - 1.0) <= 1e-6
    grid = result.parameter_values
    for x, r, p in zip(grid, result.reality_flags, result.positivity_flags):
        if x < 0.999:
            assert r and p
        if x > 1.001:
            assert not r and not p
    lo_true = grid[[i for i, r in enumerate(result.reality_flags) if r][-1]]
    hi_false = grid[[i for i, r in enumerate(result.reality_flags) if not r][0]]
    assert lo_true <= result.critical_estimate <= hi_false


def test_sweep_constant_hermitian_family_has_no_critical_point():
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    result = sweep_exceptional(lambda g: H + g * np.eye(2), 0.0, 1.0, 5)
    assert all(result.reality_flags)
    assert all(result.positivity_flags)
    assert result.critical_estimate is None


def test_sweep_rejects_bad_ranges():
    with pytest.raises(BadRange):
        sweep_exceptional(lambda g: pt_chain(2, g), 2.0, 0.0, 5)
    with pytest.raises(BadRange):
        sweep_exceptional(lambda g: pt_chain(2, g), 0.0, 2.0, 1)


@pytest.mark.parametrize(
    "lo, hi", [(0.0, np.inf), (-np.inf, 2.0), (np.nan, 2.0), (0.0, np.nan), (-1e308, 1e308)]
)
def test_sweep_rejects_nonfinite_ranges(lo, hi):
    with pytest.raises(BadRange, match="finite"):
        sweep_exceptional(lambda g: pt_chain(2, g), lo, hi, 5)


def test_sweep_serialization():
    result = sweep_exceptional(lambda g: pt_chain(2, g), 0.0, 2.0, 5)
    lines = result.to_csv().strip().split("\n")
    assert lines[0] == "parameter,reality,positivity"
    assert len(lines) == 6
    payload = result.to_json()
    assert len(payload["parameter_values"]) == 5
    assert payload["critical_estimate"] == result.critical_estimate
