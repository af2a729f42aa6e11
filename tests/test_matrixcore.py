import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiherm import matrixcore as mc
from quasiherm.dieudonne import solve_metric_space
from quasiherm.errors import (
    BadRange,
    DefectiveMatrix,
    DimensionMismatch,
    ExponentialOverflow,
    InputFormatError,
    NotHermitian,
    SingularMatrix,
)
from quasiherm.factorchain import build_chain, verify_chain, verify_theorem1
from quasiherm.models import (
    parity,
    pt_chain,
    random_qh,
    spectral_reality,
    sweep_exceptional,
    toy_2x2,
    toy_2x2_metric,
)

RNG_SEEDS = range(12)


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


# ---------------------------------------------------------------------------
# hermitian_defect
# ---------------------------------------------------------------------------

def test_defect_identity_is_zero():
    assert mc.hermitian_defect(np.eye(3)) == 0.0


def test_defect_toy_matrix():
    # A - A^dagger has entries +-(1 - 4) off the diagonal
    A = np.array([[0.0, 1.0], [4.0, 0.0]])
    assert mc.hermitian_defect(A) == pytest.approx(3.0, abs=0.0)


def test_defect_antihermitian():
    A = np.array([[0.0, 1j], [1j, 0.0]])
    assert mc.hermitian_defect(A) == pytest.approx(2.0, abs=0.0)


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_symmetrization_has_exactly_zero_defect(seed):
    rng = np.random.default_rng(seed)
    A = random_complex(rng, 5)
    assert mc.hermitian_defect(A + A.conj().T) == 0.0


def test_defect_beyond_the_range_reads_inf():
    # A - A^dagger has entries 3.4e308; the defect is found on the scaled copy, quietly
    A = np.array([[0.0, 1.7e308], [-1.7e308, 0.0]])
    assert mc.hermitian_defect(A) == np.inf
    assert mc.hermitian_defect(2.0**-1000 * A) == 2.0**-999 * 1.7e308


def test_defect_rejects_rectangular():
    with pytest.raises(DimensionMismatch):
        mc.hermitian_defect(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# fro and rel_residual
# ---------------------------------------------------------------------------

#: entries spanning six decades (or exactly zero), so every entry stays a
#: normal float under any power-of-two rescaling by 2**-900 ... 2**900
ENTRY = st.one_of(
    st.just(0.0),
    st.floats(1e-3, 1e3).flatmap(lambda x: st.sampled_from([x, -x])),
)


@st.composite
def rescalable_matrices(draw):
    d = draw(st.integers(1, 6))
    entries = st.lists(ENTRY, min_size=d * d, max_size=d * d)
    re = np.array(draw(entries)).reshape(d, d)
    im = np.array(draw(entries)).reshape(d, d) if draw(st.booleans()) else None
    return re, im


@settings(max_examples=300, deadline=None)
@given(rescalable_matrices(), st.integers(-900, 900))
def test_fro_commutes_with_power_of_two_scaling(parts, k):
    re, im = parts
    if im is None:
        A, scaled = re, np.ldexp(re, k)
    else:
        A, scaled = re + 1j * im, np.ldexp(re, k) + 1j * np.ldexp(im, k)
    assert mc.fro(scaled) == np.ldexp(mc.fro(A), k)


@pytest.mark.parametrize(
    "A, expected",
    [
        ([[3 * 2.0**-1074, 4 * 2.0**-1074]], 5 * 2.0**-1074),   # subnormal peak
        ([[3 * 2.0**1000, 4j * 2.0**1000]], 5 * 2.0**1000),    # squares overflow
        ([[1e200, 1.0], [1e200, -1e200]], np.sqrt(3.0) * 1e200),
        ([[0.0, 0.0]], 0.0),
    ],
)
def test_fro_out_of_range(A, expected):
    assert mc.fro(np.array(A)) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_fro_huge_input_emits_no_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mc.fro([[1e200, 1.0], [1e200, -1e200]])
    assert got == pytest.approx(np.sqrt(3.0) * 1e200, rel=1e-15)


def test_fro_beyond_the_float_range_reads_inf_quietly():
    big = np.finfo(float).max
    assert mc.fro([[big, big]]) == np.inf  # any warning fails the test


@settings(max_examples=100, deadline=None)
@given(rescalable_matrices(), st.sampled_from([None, (-2, -1)]))
def test_unit_scaled_uses_even_exponents(parts, axis):
    re, im = parts
    A = re if im is None else re + 1j * im
    S, e = mc._unit_scaled(A[None] if axis else A, axis=axis)
    assert np.all(e % 2 == 0)
    peak = np.abs(S.view(np.float64)).max() if S.size else 0.0
    assert peak == 0.0 or 0.25 <= peak < 1.0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_eig_commutes_with_power_of_four_scaling(seed, d):
    # why _unit_scaled scales by powers of four: LAPACK's shifts take square roots
    A = random_complex(np.random.default_rng(seed), d)
    base = mc.eig(A)
    for j in (-3, -1, 1, 2, 5):
        got = mc.eig(mc._ldexp(A, 2 * j))
        assert np.array_equal(mc._ldexp(got.eigenvalues, -2 * j), base.eigenvalues)
        assert np.array_equal(got.right_vectors, base.right_vectors)
        assert np.array_equal(got.left_vectors, base.left_vectors)


def test_square_pair_coerces_and_rejects_shape_mismatch():
    A, B = mc.square_pair(np.eye(2), [[1, 2], [3, 4]], "A", "B")
    assert A.dtype == B.dtype == complex
    with pytest.raises(DimensionMismatch, match="A .* vs B"):
        mc.square_pair(np.eye(2), np.eye(3), "A", "B")


def test_rel_residual_zero_numerator_is_zero_and_zero_denominator_is_inf():
    Z = np.zeros((2, 2))
    assert mc.rel_residual(Z, Z, Z) == 0.0
    assert mc.rel_residual(np.eye(2), Z) == np.inf
    assert mc.rel_residual(np.eye(2), 2 * np.eye(2)) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# eig
# ---------------------------------------------------------------------------

def test_eig_diagonal():
    sd = mc.eig(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(sd.eigenvalues, [1.0, 2.0, 3.0], atol=0.0)
    np.testing.assert_allclose(sd.right_vectors, np.eye(3), atol=0.0)
    np.testing.assert_allclose(sd.left_vectors, np.eye(3), atol=0.0)


def test_eig_toy_spectrum():
    # characteristic polynomial lambda^2 = 4
    sd = mc.eig(np.array([[0.0, 1.0], [4.0, 0.0]]))
    np.testing.assert_allclose(sd.eigenvalues, [-2.0, 2.0], atol=1e-14)


def test_eig_jordan_block_is_defective():
    with pytest.raises(DefectiveMatrix):
        mc.eig(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_eig_sorting_is_lexicographic():
    sd = mc.eig(np.diag([2.0, 1.0 + 1j, 1.0 - 1j, -3.0]))
    w = sd.eigenvalues
    assert np.all(np.diff(w.real) >= -1e-15)
    pairs = list(zip(w.real, w.imag))
    assert pairs == sorted(pairs)


def test_eig_gauge_largest_entry_real_positive():
    rng = np.random.default_rng(3)
    sd = mc.eig(random_complex(rng, 6))
    for n in range(6):
        col = sd.right_vectors[:, n]
        top = col[np.argmax(np.abs(col))]
        assert abs(top.imag) < 1e-14
        assert top.real > 0


def test_eig_deterministic_output():
    rng = np.random.default_rng(17)
    A = random_complex(rng, 5)
    first = mc.eig(A)
    second = mc.eig(A)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.right_vectors, second.right_vectors)
    assert np.array_equal(first.left_vectors, second.left_vectors)


@pytest.mark.parametrize("seed", RNG_SEEDS)
@pytest.mark.parametrize("dim", [2, 4, 8])
def test_eig_biorthonormality_and_reconstruction(seed, dim):
    rng = np.random.default_rng(seed)
    A = random_complex(rng, dim)
    sd = mc.eig(A)
    overlap = sd.left_vectors.conj().T @ sd.right_vectors
    assert np.abs(overlap - np.eye(dim)).max() <= 1e-10 * dim
    assert mc.fro(sd.reconstruct() - A) <= 1e-9 * mc.fro(A)


def loop_gauge_eig(A):
    """``eig`` with its former per-column gauge loop: the bitwise reference.

    Returns None where the defect gate fires.
    """
    w, R = np.linalg.eig(np.asarray(A, dtype=complex))
    order = np.lexsort((w.imag, w.real))
    w, R = w[order], R[:, order]
    R = R / np.linalg.norm(R, axis=0)
    for n in range(R.shape[1]):
        pivot = R[np.argmax(np.abs(R[:, n])), n]
        R[:, n] *= np.conj(pivot) / abs(pivot)
    try:
        Rinv = mc.inverse(R)
    except SingularMatrix:
        return None
    if np.any(1.0 / np.linalg.norm(Rinv, axis=1) < mc.DEFECT_OVERLAP_TOL):
        return None
    return w, R, Rinv.conj().T


@st.composite
def eig_inputs(draw):
    """Complex, quasi-Hermitian, gain/loss-chain and degenerate Hermitian inputs."""
    kind = draw(st.sampled_from(["complex", "random_qh", "pt_chain", "degenerate"]))
    d = draw(st.integers(1 if kind in ("complex", "degenerate") else 2, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "complex":
        return random_complex(rng, d)
    if kind == "random_qh":
        return random_qh(d, seed)[0]
    if kind == "pt_chain":
        return pt_chain(d, draw(st.floats(0.0, 2.5)))
    U = np.linalg.qr(random_complex(rng, d))[0]
    return (U * rng.integers(0, 3, d)) @ U.conj().T


@settings(max_examples=300, deadline=None)
@given(eig_inputs())
def test_eig_matches_loop_gauge_bit_for_bit(A):
    reference = loop_gauge_eig(A)
    if reference is None:
        with pytest.raises(DefectiveMatrix):
            mc.eig(A)
        return
    sd = mc.eig(A)
    for got, want in zip((sd.eigenvalues, sd.right_vectors, sd.left_vectors), reference):
        assert np.array_equal(got, want)


@st.composite
def eig_stacks(draw):
    """Stacks of one dimension mixing the ``eig_inputs`` kinds, defective members included."""
    d = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for kind in draw(st.lists(st.sampled_from(["complex", "random_qh", "pt_chain", "jordan"]),
                              min_size=1, max_size=6)):
        if kind == "complex":
            members.append(random_complex(rng, d))
        elif kind == "random_qh":
            members.append(random_qh(d, int(rng.integers(2**32)))[0])
        elif kind == "pt_chain":
            members.append(pt_chain(d, draw(st.sampled_from([0.5, 1.0, 1.5]))))
        else:
            members.append(np.eye(d) + np.eye(d, k=1))
    return np.stack(members)


@settings(max_examples=100, deadline=None)
@given(eig_stacks())
def test_eig_stack_members_match_eig_bit_for_bit(stack):
    w, R, L, overlap, defective = mc.eig_stack(stack)
    for k, A in enumerate(stack):
        try:
            sd = mc.eig(A)
        except DefectiveMatrix:
            assert defective[k]
            continue
        assert not defective[k]
        for got, want in zip((w[k], R[k], L[k]), (sd.eigenvalues, sd.right_vectors, sd.left_vectors)):
            assert np.array_equal(got, want)
        assert 1.0 / overlap[k] == sd.condition_estimate


def test_eig_stack_flags_an_exactly_singular_basis_without_raising():
    # pt_chain(2, 1) is a Jordan block whose computed eigenvectors coincide
    w, _, _, overlap, defective = mc.eig_stack(np.stack([pt_chain(2, 0.5), pt_chain(2, 1.0)]))
    assert defective.tolist() == [False, True]
    assert np.isnan(overlap[1])
    np.testing.assert_allclose(w[0], [-np.sqrt(0.75), np.sqrt(0.75)], rtol=1e-14)


def exceptional_gamma(d):
    """The gain/loss at which ``pt_chain(d, .)`` has its exceptional point."""
    return 1.0 if d % 2 == 0 else np.sqrt((d + 1) / (d - 1))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_exceptional_point_is_defective_at_every_scale(d):
    # with the gate at 1e-12 the verdict followed the rounding: at d = 2 it
    # read real at 20 of these 41 scales, at d = 8 real or complex
    H = pt_chain(d, exceptional_gamma(d))
    for k in range(-20, 21):
        with pytest.raises(DefectiveMatrix):
            spectral_reality(2.0**k * H, 1e-9)


def test_eig_stack_requires_a_stack_of_square_matrices():
    with pytest.raises(DimensionMismatch):
        mc.eig_stack(np.eye(3))
    with pytest.raises(DimensionMismatch):
        mc.eig_stack(np.ones((2, 3, 2)))
    with pytest.raises(InputFormatError):
        mc.eig_stack(np.full((1, 2, 2), np.nan))


@settings(max_examples=200, deadline=None)
@given(eig_inputs())
def test_eig_condition_estimate_is_the_gated_overlap(A):
    try:
        sd = mc.eig(A)
    except DefectiveMatrix:
        return
    overlap = 1.0 / np.linalg.norm(sd.left_vectors.conj().T, axis=1)
    assert sd.condition_estimate == 1.0 / overlap.min()
    cond = np.linalg.cond(sd.right_vectors)
    assert cond / A.shape[0] <= sd.condition_estimate * (1.0 + 1e-9)
    assert sd.condition_estimate <= cond * (1.0 + 1e-12)


@pytest.mark.parametrize("g", [1e-3, 0.1, 0.5, 1.0, 2.0, -3.0, 1e3])
def test_eig_condition_estimate_of_toy_model(g):
    want = (1.0 + g * g) / (2.0 * abs(g))
    assert mc.eig(toy_2x2(g)).condition_estimate == pytest.approx(want, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 16))
def test_eig_condition_estimate_is_one_for_hermitian_input(seed, d):
    G = random_complex(np.random.default_rng(seed), d)
    assert mc.eig((G + G.conj().T) / 2.0).condition_estimate == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# is_positive_definite
# ---------------------------------------------------------------------------

def test_pd_identity():
    flag, lam = mc.is_positive_definite(np.eye(4))
    assert flag and lam == pytest.approx(1.0, abs=1e-14)


def test_pd_toy_metric():
    flag, lam = mc.is_positive_definite(np.diag([4.0, 1.0]))
    assert flag and lam == pytest.approx(1.0, abs=1e-14)


def test_pd_indefinite():
    flag, lam = mc.is_positive_definite(np.diag([1.0, -1.0]))
    assert not flag and lam == pytest.approx(-1.0, abs=1e-14)


def test_pd_requires_hermitian():
    with pytest.raises(NotHermitian, match="defect 1.000e[+]00 "):
        mc.is_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_spectrum_imag_divides_like_rel_residual():
    assert mc.spectrum_imag(np.array([1.0, 2.0 + 0.5j, 3.0 - 1.5j]), 3.0) == (1.5, 0.5)
    assert mc.spectrum_imag(np.array([0.0, 1e-310j]), 0.0) == (1e-310, np.inf)
    assert mc.spectrum_imag(np.array([0.0, 1e-310j]), 2e-310) == (1e-310, 0.5)
    assert mc.spectrum_imag(np.array([2.0, 5.0]), 7.0) == (0.0, 0.0)
    assert mc.spectrum_imag(np.zeros(2), 0.0) == (0.0, 0.0)
    spectra = np.array([[1j, 1.0], [0.0, 0.0], [2j, 0.0]])
    _, ratios = mc.spectrum_imag(spectra, np.array([0.0, 0.0, 4.0]))
    np.testing.assert_array_equal(ratios, [np.inf, 0.0, 0.5])


def test_subnormal_complex_spectrum_is_not_real():
    H = 1e-310 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert spectral_reality(H, 1e-9) == (False, 1e-310)


# ---------------------------------------------------------------------------
# mat_exp
# ---------------------------------------------------------------------------

def test_exp_zero_matrix():
    np.testing.assert_allclose(mc.mat_exp(np.zeros((2, 2))), np.eye(2), atol=1e-15)


def test_exp_diagonal():
    got = mc.mat_exp(np.diag([np.log(2.0), 0.0]))
    np.testing.assert_allclose(got, np.diag([2.0, 1.0]), atol=1e-14)


def test_exp_rotation():
    theta = np.pi / 2.0
    got = mc.mat_exp(np.array([[0.0, theta], [-theta, 0.0]]))
    np.testing.assert_allclose(got, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)


def test_exp_jordan_fallback_matches_closed_form():
    # exp of the 2x2 Jordan block with eigenvalue 1 is e * [[1, 1], [0, 1]]
    got = mc.mat_exp(np.array([[1.0, 1.0], [0.0, 1.0]]))
    want = np.e * np.array([[1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_allclose(got, want, rtol=1e-13)


def eigen_exponential(A):
    """Reference ``sum_n e^{lambda_n} |R_n><L_n|`` from the biorthonormal eig."""
    sd = mc.eig(A)
    return (sd.right_vectors * np.exp(sd.eigenvalues)) @ sd.left_vectors.conj().T


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32])
@pytest.mark.parametrize("seed", range(3))
def test_exp_matches_eigen_exponential_reference(dim, seed):
    rng = np.random.default_rng(100 * dim + seed)
    A = random_complex(rng, dim)
    A *= 3.0 / np.abs(np.linalg.eigvals(A)).max()     # spectral radius 3
    want = eigen_exponential(A)
    assert mc.rel_residual(mc.mat_exp(A) - want, want) <= 1e-13


def test_exp_overflow_raises_typed_error():
    with pytest.raises(ExponentialOverflow):
        mc.mat_exp(np.diag([1000.0, 0.0]))


def test_exp_of_zero_is_exactly_identity():
    np.testing.assert_array_equal(mc.mat_exp(np.zeros((3, 3))), np.eye(3))


@pytest.mark.parametrize("lam", [-3.0, 0.5, 2.0 + 1.5j, 1e-3j])
def test_exp_jordan_block(lam):
    got = mc.mat_exp([[lam, 1.0], [0.0, lam]])
    want = np.exp(lam) * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert mc.rel_residual(got - want, want) <= 1e-15


@pytest.mark.parametrize("c", [1e-3, 0.7, 4.0, 150.0])
def test_exp_nilpotent_shift_is_its_cubic(c):
    N = c * np.eye(4, k=1)
    want = np.eye(4) + N + N @ N / 2.0 + N @ N @ N / 6.0
    assert mc.rel_residual(mc.mat_exp(N) - want, want) <= 1e-14


#: sigma_y; ``exp(-i theta sigma_y)`` is the rotation by theta
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


@pytest.mark.parametrize("theta, degree, squarings", [
    (1e-2, 3, 0), (0.2, 5, 0), (0.9, 7, 0), (2.0, 9, 0), (5.0, 13, 0), (40.0, 13, 3),
])
def test_exp_rotation_at_each_pade_degree(theta, degree, squarings):
    A = -1j * theta * SIGMA_Y
    assert mc._pade_plan(A)[:2] == (degree, squarings)
    rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert np.abs(mc.mat_exp(A) - rotation).max() <= 4e-16 * max(1.0, theta)


def test_exp_plan_scales_exactly_beyond_the_range():
    # ||A||_1 = 3.4e308 = 2**1024.92 is beyond the float range, theta_13 = 2**2.43
    m, s, X = mc._pade_plan(-1j * 1.7e308 * np.ones((2, 2)))
    assert (m, s) == (13, 1023)
    np.testing.assert_array_equal(X, -1j * np.ldexp(1.7e308, -1023) * np.ones((2, 2)))
    assert mc._PADE_THETA[13] / 2 < mc._norm1(X) <= mc._PADE_THETA[13]


def test_exp_tiny_input_is_identity_plus_input():
    A = 1e-300 * np.array([[1.0, 2.0], [-0.5, 0.3j]])
    np.testing.assert_allclose(mc.mat_exp(A), np.eye(2) + A, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("A", [
    1.7e308 * np.eye(2),
    1e300 * random_complex(np.random.default_rng(32), 32) / 32.0,
], ids=["max float", "d=32 at 1e300"])
def test_exp_beyond_the_range_raises_exponential_overflow(A):
    # pytest turns a RuntimeWarning into an error, so none escapes either
    with pytest.raises(ExponentialOverflow):
        mc.mat_exp(A)


def test_exp_of_unresolved_phase_is_finite_or_typed():
    # exp is unitary, but 1023 squarings of its rounding leave no digit of it:
    # what comes back is finite noise or ExponentialOverflow, never another error
    try:
        E = mc.mat_exp(-1j * 1.7e308 * np.ones((2, 2)))
    except ExponentialOverflow:
        return
    assert np.isfinite(E).all()


def test_exp_of_max_float_decay_is_zero():
    np.testing.assert_array_equal(mc.mat_exp(-1.7e308 * np.eye(2)), np.zeros((2, 2)))


@st.composite
def exponential_inputs(draw):
    """``-i random_qh`` or a complex Gaussian at ``||A||_1 <= 100``, or
    ``-i t pt_chain`` at its exceptional point with ``t <= 10``.

    Beyond these sizes the exponential's condition number, not either
    algorithm, sets the distance: at ``||A||_1 ~ 1e3`` both this routine and
    scipy's miss a 50-digit reference by about 1e-12.
    """
    kind = draw(st.sampled_from(["qh", "gaussian", "ep"]))
    dim = draw(st.integers(1 + (kind != "gaussian"), 32))
    size = draw(st.floats(0.0, 1.0))
    if kind == "ep":
        return -10j * size * pt_chain(dim, 1.0)
    seed = draw(st.integers(0, 2**16))
    G = -1j * random_qh(dim, seed)[0] if kind == "qh" else random_complex(
        np.random.default_rng(seed), dim)
    return 100.0 * size * G / mc._norm1(G)


@settings(max_examples=60, deadline=None)
@given(exponential_inputs())
def test_exp_matches_scipy_expm(A):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    want = scipy_linalg.expm(A)
    assert mc.rel_residual(mc.mat_exp(A) - want, want) <= 1e-12


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_exp_inverse_pairing(seed):
    rng = np.random.default_rng(seed)
    A = random_complex(rng, 4)
    A *= 5.0 / mc.fro(A)
    product = mc.mat_exp(A) @ mc.mat_exp(-A)
    assert mc.fro(product - np.eye(4)) <= 1e-9


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------

def test_inverse_identity():
    np.testing.assert_allclose(mc.inverse(np.eye(3)), np.eye(3), atol=0.0)


def test_inverse_diagonal():
    np.testing.assert_allclose(
        mc.inverse(np.diag([4.0, 1.0])), np.diag([0.25, 1.0]), atol=0.0
    )


def test_inverse_parity_is_involution():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(mc.inverse(P), P, atol=0.0)


def test_inverse_singular():
    with pytest.raises(SingularMatrix):
        mc.inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrix):
        mc.inverse(np.zeros((2, 2)))


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_inverse_roundtrip(seed):
    rng = np.random.default_rng(seed)
    A = random_complex(rng, 5) + 3.0 * np.eye(5)
    cond = np.linalg.cond(A)
    assert mc.fro(mc.inverse(mc.inverse(A)) - A) <= 1e-8 * cond**2
    assert mc.fro(A @ mc.inverse(A) - np.eye(5)) <= 1e-10 * cond


def test_inverse_of_an_empty_matrix_is_singular():
    with pytest.raises(SingularMatrix, match="empty"):
        mc.inverse(np.zeros((0, 0)))


def test_inverse_that_overflows_is_singular():
    A = random_complex(np.random.default_rng(0), 3)
    with pytest.raises(SingularMatrix, match="inverse overflows"):
        mc.inverse(2.0**-1070 * A)


def test_inverse_of_huge_well_conditioned_matrix():
    # cond 1; the 1-norm of A itself overflows, and an unscaled elimination
    # returns [[1e-308, 0], [0, 0]]
    A = 1e308 * np.array([[1.0, -1.0], [1.0, 1.0]])
    want = np.array([[1.0, 1.0], [-1.0, 1.0]]) * (0.5 / 1e308)
    np.testing.assert_allclose(mc.inverse(A), want, rtol=1e-14, atol=0.0)


def test_inverse_refuses_an_ill_conditioned_matrix_with_unit_pivots():
    # every LU pivot is 1, but cond_1 = 50 * 2**49 ~ 2.8e16
    A = np.eye(50) - np.triu(np.ones((50, 50)), 1)
    with pytest.raises(SingularMatrix, match="reciprocal condition"):
        mc.inverse(A)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 16),
    st.integers(-500, 500),
    st.booleans(),
)
def test_inverse_commutes_with_power_of_two_scaling(seed, dim, k, rank_deficient):
    rng = np.random.default_rng(seed)
    A = random_complex(rng, dim)
    if rank_deficient:
        A = A[:, : dim - 1] @ A[: dim - 1, :]
    try:
        want = 2.0**-k * mc.inverse(A)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            mc.inverse(2.0**k * A)
        return
    assert mc.fro(mc.inverse(2.0**k * A) - want) <= 1e-15 * mc.fro(want)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def test_matrix_json_roundtrip_bit_exact():
    awkward = np.array(
        [
            [0.1 + (1.0 / 3.0) * 1j, -1e-308 + 0.0j],
            [7.0 / 11.0 - 2.5e300j, np.pi],
        ]
    )
    text = json.dumps(mc.matrix_to_json(awkward))
    back = mc.matrix_from_json(json.loads(text))
    assert np.array_equal(back, awkward)


def test_vector_json_roundtrip_bit_exact():
    v = np.array([0.1, -1.0 / 3.0 + 1e-200j, 2.0**-1074])
    back = mc.vector_from_json(json.loads(json.dumps(mc.vector_to_json(v))))
    assert np.array_equal(back, v)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"dim": 2, "re": [1, 0, 0], "im": [0, 0, 0, 0]},
        {"dim": 0, "re": [], "im": []},
        {"dim": 2, "re": "nope", "im": [0, 0, 0, 0]},
        {"dim": 2.5, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]},
        {"dim": "2", "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]},
        {"dim": True, "re": [1], "im": [0]},
    ],
)
def test_matrix_json_rejects_malformed(obj):
    with pytest.raises(InputFormatError):
        mc.matrix_from_json(obj)


def test_matrix_json_rejects_nonfinite():
    with pytest.raises(InputFormatError):
        mc.matrix_from_json({"dim": 1, "re": [float("nan")], "im": [0.0]})


# ---------------------------------------------------------------------------
# as_tolerance
# ---------------------------------------------------------------------------

def _tolerance_takers():
    chain = build_chain(toy_2x2(2.0), toy_2x2_metric(2.0), [parity(2)])
    return [
        lambda tol: solve_metric_space(toy_2x2(2.0), tol),
        lambda tol: spectral_reality(toy_2x2(2.0), tol),
        lambda tol: sweep_exceptional(lambda g: pt_chain(2, g), 0.0, 2.0, 5, tol=tol),
        lambda tol: verify_chain(chain, tol),
        lambda tol: verify_theorem1(chain, tol),
    ]


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
@pytest.mark.parametrize("taker", range(5))
def test_every_tolerance_taker_refuses_a_bad_tolerance(taker, tol):
    # NaN and -1 failed every relation, 0 passed the toy chain, inf raised ValueError
    with pytest.raises(BadRange, match="tol must be positive and finite"):
        _tolerance_takers()[taker](tol)


def test_as_tolerance_passes_a_good_tolerance_as_a_float():
    assert mc.as_tolerance(np.float32(0.5)) == 0.5
    assert type(mc.as_tolerance(1)) is float
