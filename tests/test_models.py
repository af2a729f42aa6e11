import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiherm import matrixcore as mc
from quasiherm import models
from quasiherm.dieudonne import check_quasi_hermitian
from quasiherm.errors import (
    BadDimension,
    BadRange,
    DefectiveMatrix,
    DimensionMismatch,
    ZeroParameter,
)
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
        flag, _ = mc.is_positive_definite(theta)
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


def test_random_qh_refuses_when_no_h_draw_clears_the_gap_floor(monkeypatch):
    # a gap of ten times ||h||_F is out of reach of every Hermitian draw
    monkeypatch.setattr(models, "_GAP_FLOOR", 10.0)
    with pytest.raises(BadDimension, match=r"random_qh\(2\): 100 h draws missed the gap floor"):
        random_qh(2, 0)


def test_random_qh_and_qh_pair_refuse_bad_dimensions():
    with pytest.raises(BadDimension, match="d >= 2"):
        random_qh(1, 0)
    with pytest.raises(BadDimension, match="share a dimension"):
        qh_pair(np.eye(2), np.eye(3))


@pytest.mark.parametrize("size", [np.nan, np.inf, -np.inf, 2.5])
@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda n: pt_chain(n, 0.5), BadDimension, "chain needs d >= 2 sites"),
        (parity, BadDimension, "parity needs d >= 2"),
        (lambda n: random_qh(n, 0), BadDimension, "random_qh needs d >= 2"),
        (lambda n: sweep_exceptional(toy_2x2, 0.0, 2.0, n), BadRange, "need at least 2 samples"),
    ],
    ids=["pt_chain", "parity", "random_qh", "sweep_exceptional"],
)
def test_sizes_must_be_finite_whole_numbers(make, error, message, size):
    with pytest.raises(error, match=message):
        make(size)


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


def test_sweep_reports_how_the_estimate_was_made():
    result = sweep_exceptional(lambda g: pt_chain(2, g), 0.0, 2.0, 21)
    payload = result.to_json()
    assert payload["critical_method"] == result.critical_method == "root"
    assert payload["critical_evaluations"] == result.critical_evaluations
    assert isinstance(result.critical_evaluations, int)
    assert abs(result.critical_estimate - 1.0) <= 1e-15
    flat = sweep_exceptional(lambda g: np.diag([1.0, 2.0 + g]), 0.0, 1.0, 5)
    assert (flat.critical_estimate, flat.critical_method, flat.critical_evaluations) == (None, None, 0)


def looped_real_phase(H, tol):
    """The reality probe the sweep once ran per matrix: the stacked flags' reference."""
    try:
        return spectral_reality(H, tol)[0]
    except DefectiveMatrix:
        return False


@st.composite
def sweep_stacks(draw):
    """pt_chain grids (d = 2..32, gamma = 1 included) and random_qh stacks."""
    d = draw(st.integers(2, 32))
    if draw(st.booleans()):
        gammas = draw(st.lists(st.floats(0.0, 2.5), min_size=1, max_size=8)) + [1.0]
        return [pt_chain(d, g) for g in draw(st.permutations(gammas))]
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
    return [random_qh(min(d, 12), seed)[0] for seed in seeds]


@settings(max_examples=60, deadline=None)
@given(sweep_stacks(), st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_stacked_reality_flags_match_the_looped_probe(stack, tol):
    flags, _, _ = models._reality_flags(np.stack(stack), tol)
    assert flags.tolist() == [looped_real_phase(H, tol) for H in stack]


def test_reality_flag_of_the_two_site_exceptional_point_is_false():
    flags, _, _ = models._reality_flags(np.stack([pt_chain(2, 0.5), pt_chain(2, 1.0)]), 1e-9)
    assert flags.tolist() == [True, False]
    with pytest.raises(DefectiveMatrix):
        spectral_reality(pt_chain(2, 1.0), 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 16),
    st.floats(1e-6, 0.1),
    st.floats(1e-6, 0.1),
    st.integers(2, 6),
)
def test_sweep_estimate_of_even_chains_is_one_to_rounding(half, below, above, samples):
    d = 2 * half
    result = sweep_exceptional(lambda g: pt_chain(d, g), 1.0 - below, 1.0 + above, samples)
    assert result.critical_method == "root"
    assert abs(result.critical_estimate - 1.0) <= 1e-12


@pytest.mark.parametrize("d", [3, 5, 9, 15])
def test_sweep_estimate_of_odd_chains(d):
    # three eigenvalues meet at sqrt((d + 1) / (d - 1)); the root-find still
    # lands far closer than the flag's 1e-6 bisection did
    critical = np.sqrt((d + 1) / (d - 1))
    result = sweep_exceptional(lambda g: pt_chain(d, g), 0.0, 3.0, 61)
    assert abs(result.critical_estimate - critical) <= 1e-9


@pytest.mark.parametrize(
    "family, lo, hi, critical",
    [
        (lambda g: pt_chain(4, g / 1e12), 0.0, 2e12, 1e12),
        (lambda g: pt_chain(4, g * 1e9), 0.0, 2e-9, 1e-9),
        (lambda g: pt_chain(6, g / 1e12), 0.0, 2.3e12, 1e12),
        (lambda g: pt_chain(6, g * 1e9), 1e-10, 2.3e-9, 1e-9),
    ],
)
def test_sweep_estimate_is_relative_at_any_parameter_scale(family, lo, hi, critical):
    # an absolute 1e-6 stop never ended near 1e12 and was 5% off near 1e-9
    result = sweep_exceptional(family, lo, hi, 21)
    assert abs(result.critical_estimate / critical - 1.0) <= 1e-10


@pytest.mark.parametrize("others", [[-1.0], []])
def test_sweep_without_a_coalescing_pair_bisects_the_flag(others):
    # the eigenvalue leaves the real axis alone at gamma = 0.5
    result = sweep_exceptional(lambda g: np.diag([1.0 + 1j * max(g - 0.5, 0.0), *others]), 0.0, 1.0, 21)
    assert result.critical_method == "bisection"
    flip = result.reality_flags.index(False)
    cell = result.parameter_values[flip - 1], result.parameter_values[flip]
    assert cell[0] <= result.critical_estimate <= cell[1]
    assert result.critical_estimate == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_sweep_estimate_does_not_depend_on_the_matrix_scale(scale):
    # the splitting is taken relative to ||H||, so it neither under- nor overflows
    result = sweep_exceptional(lambda g: scale * pt_chain(4, g), 0.0, 1.93, 21)
    assert result.critical_method == "root"
    assert abs(result.critical_estimate - 1.0) <= 1e-12


def _flag_flips_at_half(g):
    # the eigenvalue leaves the real axis alone at 0.5, so the flag alone is bisected
    return np.diag([1.0 + 1j * max(g - 0.5, 0.0), -1.0])


@pytest.mark.parametrize("tol", [1e-9, 1e-14])
def test_sweep_bisection_crosses_orders_of_magnitude(tol):
    # geometric steps narrow the flip cell [0, 5e298] to the flag's flip,
    # where |Im lambda| / ||H||_F = tol: gamma = 0.5 + sqrt(2) tol
    result = sweep_exceptional(_flag_flips_at_half, 0.0, 1e300, 21, tol=tol)
    assert result.critical_method == "bisection"
    assert result.critical_evaluations < models._MAX_EVALUATIONS
    assert result.critical_estimate == pytest.approx(0.5 + np.sqrt(2.0) * tol, rel=1e-12)


def test_sweep_refinement_is_capped(monkeypatch):
    monkeypatch.setattr(models, "_MAX_EVALUATIONS", 3)
    result = sweep_exceptional(_flag_flips_at_half, 0.0, 1e300, 21)
    assert result.critical_method == "bisection"
    assert result.critical_evaluations == 3
    assert 0.0 < result.critical_estimate < result.parameter_values[1]


GRID = set(np.linspace(0.0, 2.0, 5).tolist())


@pytest.mark.parametrize(
    "family",
    [lambda g: pt_chain(2 if g < 1 else 3, g), lambda g: pt_chain(4 if g in GRID else 3, g)],
    ids=["on the grid", "off the grid"],
)
def test_sweep_refuses_a_family_that_changes_size(family):
    with pytest.raises(DimensionMismatch, match=r"family\(.*\) has shape \(3, 3\)"):
        sweep_exceptional(family, 0.0, 2.0, 5)


def sweep_fields(result):
    return (
        result.parameter_values.tolist(),
        result.reality_flags,
        result.positivity_flags,
        result.critical_estimate,
        result.critical_method,
        result.critical_evaluations,
    )


def test_sweep_in_many_stack_chunks_matches_the_default(monkeypatch):
    # 600 points are three chunks by default and 86 chunks of 7
    def sweep():
        return sweep_fields(sweep_exceptional(lambda g: pt_chain(2, g), 0.0, 2.0, 600))

    default = sweep()
    monkeypatch.setattr(models, "_STACK", 7)
    assert sweep() == default
    assert default[1].count(True) == 300


def test_sweep_refuses_a_size_change_in_a_later_stack_chunk(monkeypatch):
    # the first chunk of 7 points (g <= 6/19) is 2 x 2; g > 0.5 is 3 x 3
    monkeypatch.setattr(models, "_STACK", 7)
    with pytest.raises(DimensionMismatch, match=r"has shape \(3, 3\), not \(2, 2\)"):
        sweep_exceptional(lambda g: pt_chain(2 if g <= 0.5 else 3, g), 0.0, 1.0, 20)
