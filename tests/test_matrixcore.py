import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiherm import matrixcore as mc
from quasiherm.errors import (
    DefectiveMatrix,
    DimensionMismatch,
    ExponentialOverflow,
    InputFormatError,
    NotHermitian,
    SingularMatrix,
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


# ---------------------------------------------------------------------------
# is_positive_definite
# ---------------------------------------------------------------------------

def test_pd_identity():
    flag, lam = mc.is_positive_definite(np.eye(4), 1e-12)
    assert flag and lam == pytest.approx(1.0, abs=1e-14)


def test_pd_toy_metric():
    flag, lam = mc.is_positive_definite(np.diag([4.0, 1.0]), 1e-12)
    assert flag and lam == pytest.approx(1.0, abs=1e-14)


def test_pd_indefinite():
    flag, lam = mc.is_positive_definite(np.diag([1.0, -1.0]), 1e-12)
    assert not flag and lam == pytest.approx(-1.0, abs=1e-14)


def test_pd_requires_hermitian():
    with pytest.raises(NotHermitian):
        mc.is_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-12)


def test_pd_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        mc.is_positive_definite(np.eye(2), 0.0)


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
    ],
)
def test_matrix_json_rejects_malformed(obj):
    with pytest.raises(InputFormatError):
        mc.matrix_from_json(obj)


def test_matrix_json_rejects_nonfinite():
    with pytest.raises(InputFormatError):
        mc.matrix_from_json({"dim": 1, "re": [float("nan")], "im": [0.0]})
