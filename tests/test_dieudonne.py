import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiherm import matrixcore as mc
from quasiherm.dieudonne import (
    check_quasi_hermitian,
    metric_from_weights,
    physical_inner_product,
    solve_metric_space,
)
from quasiherm.errors import (
    BadRange,
    ComplexSpectrum,
    DefectiveMatrix,
    DegenerateSpectrumWarning,
    DimensionMismatch,
    NonPositiveWeight,
    SpanMismatch,
)
from quasiherm.models import pt_chain, random_qh, toy_2x2, toy_2x2_metric

from oracles import null_space

TOY_H = toy_2x2(2.0)
TOY_THETA = toy_2x2_metric(2.0)


def off_cluster(family, X):
    """Largest off-cluster ``|K|`` over the largest ``|K|``, ``K = R^dagger X R``.

    ``L^dagger R = I``, so a Hermitian X is ``sum_b L_b K_b L_b^dagger``, a
    member of the family, exactly when K vanishes off the cluster blocks.
    """
    R = family.spectral.right_vectors
    K = np.abs(R.conj().T @ X @ R)
    labels = np.repeat(np.arange(len(family.cluster_sizes)), family.cluster_sizes)
    return K[labels[:, None] != labels].max(initial=0.0) / K.max()


def assert_oracle_in_family(H, family):
    oracle = null_space(H)
    assert sum(m * m for m in family.cluster_sizes) == len(oracle)
    for B in oracle:
        assert off_cluster(family, B) <= 1e-8


# ---------------------------------------------------------------------------
# solve_metric_space
# ---------------------------------------------------------------------------

def test_solve_hermitian_diagonal():
    family = solve_metric_space(np.diag([1.0, 2.0]))
    assert family.cluster_sizes == (1, 1)
    np.testing.assert_allclose(family.spectral.left_vectors, np.eye(2), atol=1e-14)
    assert off_cluster(family, np.eye(2)) <= 1e-10
    assert_oracle_in_family(np.diag([1.0, 2.0]), family)


def test_solve_toy_model_span():
    # Hand algebra for [[0, 1], [g^2, 0]]: the intertwining relation forces
    # solutions of the form [[g^2 b, c], [c, b]] with real b, c.
    oracle = null_space(TOY_H)
    assert len(oracle) == 2
    for B in oracle:
        assert B[0, 0] == pytest.approx(4.0 * B[1, 1], abs=1e-12)
        assert abs(B[0, 1].imag) < 1e-12
        assert B[0, 1] == pytest.approx(B[1, 0].conjugate(), abs=1e-14)
    family = solve_metric_space(TOY_H)
    assert family.cluster_sizes == (1, 1)
    assert off_cluster(family, TOY_THETA) <= 1e-10
    assert_oracle_in_family(TOY_H, family)


def test_solve_rejects_complex_spectrum():
    with pytest.raises(ComplexSpectrum):
        solve_metric_space(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_solve_degenerate_spectrum_gives_block_family():
    with pytest.warns(DegenerateSpectrumWarning):
        family = solve_metric_space(np.eye(3))
    assert family.degenerate
    # every Hermitian matrix solves the equation for H = I
    assert family.cluster_sizes == (3,)
    assert_oracle_in_family(np.eye(3), family)
    theta = metric_from_weights(family, family.kappa_default)
    assert mc.is_positive_definite(theta)[0]
    assert check_quasi_hermitian(np.eye(3), theta) <= 1e-10
    # one weight per eigenvalue, not per basis element
    with pytest.raises(DimensionMismatch):
        metric_from_weights(family, np.ones(9))


def test_zero_hamiltonian_is_one_cluster():
    with pytest.warns(DegenerateSpectrumWarning):
        family = solve_metric_space(np.zeros((3, 3)))
    assert family.cluster_sizes == (3,)


def test_solve_tol_is_the_reality_test_alone():
    # |Im lambda| / ||H|| = 2.2e-7 passes a 1e-6 reality test; the pair's
    # splitting 8.9e-7 is still far above the clustering's 1e-10 * ||H||
    H = pt_chain(2, 1.0 + 1e-13)
    with pytest.raises(ComplexSpectrum, match="exceeds 1.0e-09"):
        solve_metric_space(H, tol=1e-9)
    assert solve_metric_space(H, tol=1e-6).cluster_sizes == (1, 1)
    assert solve_metric_space(np.diag([1.0, 1.0 + 1e-8]), tol=1e-6).cluster_sizes == (1, 1)


@pytest.mark.filterwarnings("ignore::quasiherm.errors.DegenerateSpectrumWarning")
@pytest.mark.parametrize(
    "H, sizes",
    [
        (np.diag([1.0, 1.0, 2.0]), (2, 1)),
        (random_qh(3, 5)[0], (1, 1, 1)),
        (random_qh(4, 1)[0], (1,) * 4),
        (random_qh(6, 2)[0], (1,) * 6),
    ],
)
def test_clusters_hold_down_to_subnormal_scales(H, sizes):
    # a 1e-300 floor under ||H|| once merged every cluster below it
    for k in range(-1040, 1001, 20):
        assert solve_metric_space(2.0**k * H).cluster_sizes == sizes


def similar_to_diagonal(eigenvalues, seed):
    """``Omega^-1 diag(eigenvalues) Omega`` with singular values of Omega in [1, 3]."""
    d = len(eigenvalues)
    rng = np.random.default_rng(seed)

    def unitary():
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return np.linalg.qr(G)[0]

    omega = (unitary() * rng.uniform(1.0, 3.0, size=d)) @ unitary()
    return np.linalg.solve(omega, np.diag(eigenvalues).astype(complex) @ omega)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 4), min_size=1, max_size=6).filter(lambda m: sum(m) <= 6),
    st.integers(-1000, 1000),
)
def test_cluster_family_spans_the_null_space(seed, multiplicities, k):
    rng = np.random.default_rng(seed)
    levels = np.cumsum(rng.uniform(0.5, 1.5, size=len(multiplicities)))
    H = _ldexp(similar_to_diagonal(np.repeat(levels, multiplicities), seed), k)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateSpectrumWarning)
        family = solve_metric_space(H)
    assert family.degenerate == (max(multiplicities) > 1) == bool(caught)
    assert family.cluster_sizes == tuple(multiplicities)
    assert_oracle_in_family(H, family)
    theta = metric_from_weights(family, family.kappa_default)
    assert mc.is_positive_definite(theta)[0]
    assert check_quasi_hermitian(H, theta) <= 1e-10


@pytest.mark.parametrize(
    "H",
    [
        [[1.0, 1.0], [0.0, 1.0]],
        [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]],
    ],
    ids=["jordan2", "jordan2+same", "jordan2+other"],
)
def test_defective_degenerate_spectrum_still_raises(H):
    with pytest.raises(DefectiveMatrix):
        solve_metric_space(np.array(H))


def test_large_dimension_doubled_eigenvalue():
    eigenvalues = np.concatenate([[0.0], np.arange(63.0)])
    H = similar_to_diagonal(eigenvalues, 64)
    with pytest.warns(DegenerateSpectrumWarning):
        family = solve_metric_space(H)
    assert family.cluster_sizes == (2,) + (1,) * 62
    assert family.span_residual <= 1e-8
    theta = metric_from_weights(family, family.kappa_default)
    assert mc.is_positive_definite(theta)[0]
    assert check_quasi_hermitian(H, theta) <= 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_solution_space_dimension_and_span_agreement(dim):
    for seed in range(8):
        H, _ = random_qh(dim, 1000 * dim + seed)
        family = solve_metric_space(H)
        assert family.cluster_sizes == (1,) * dim
        assert len(null_space(H)) == dim
        assert family.span_residual <= 1e-8


@pytest.mark.parametrize(
    "H",
    [random_qh(d, 500 + d)[0] for d in range(2, 9)]
    + [pt_chain(16, g) for g in (0.5, 0.99, 0.999)],
    ids=[f"random-d{d}" for d in range(2, 9)] + ["pt16-0.5", "pt16-0.99", "pt16-0.999"],
)
def test_spectral_basis_spans_the_null_space(H):
    family = solve_metric_space(H)
    assert family.cluster_sizes == (1,) * H.shape[0]
    assert_oracle_in_family(H, family)


def test_corrupted_left_vector_raises_span_mismatch(monkeypatch):
    H, _ = random_qh(5, 82)
    assert solve_metric_space(H).span_residual <= 1e-12
    exact = mc.eig

    def rotated(A):
        sd = exact(A)
        L = sd.left_vectors.copy()
        u = L[:, 1] - (np.vdot(L[:, 0], L[:, 1]) / np.vdot(L[:, 0], L[:, 0])) * L[:, 0]
        u *= np.linalg.norm(L[:, 0]) / np.linalg.norm(u)
        L[:, 0] = np.cos(1e-6) * L[:, 0] + np.sin(1e-6) * u
        return dataclasses.replace(sd, left_vectors=L)

    monkeypatch.setattr(mc, "eig", rotated)
    with pytest.raises(SpanMismatch):
        solve_metric_space(H)


def assert_same_family(got, want):
    """Every field of two metric families, bit for bit."""
    assert got.cluster_sizes == want.cluster_sizes
    assert got.span_residual == want.span_residual
    for field in dataclasses.fields(got.spectral):
        assert np.asarray(getattr(got.spectral, field.name)).tobytes() == \
            np.asarray(getattr(want.spectral, field.name)).tobytes(), field.name


@st.composite
def real_phase_hamiltonians(draw):
    """``(kind, H)``: random_qh (d <= 16), pt_chain in its real phase, or a
    similarity transform of a spectrum with a repeated level.  No entry is
    tiny: near the subnormal range ``eig`` of H and of its unit-scaled copy
    differ in the last bits (pt_chain(4, 1e-300) does)."""
    kind = draw(st.sampled_from(["random", "chain", "cluster"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "random":
        return kind, random_qh(draw(st.integers(2, 16)), seed)[0]
    if kind == "chain":
        return kind, pt_chain(draw(st.integers(2, 16)), draw(st.floats(1e-6, 0.95) | st.just(0.0)))
    multiplicities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)
                          .filter(lambda m: max(m) > 1))
    levels = np.cumsum(np.random.default_rng(seed).uniform(0.5, 1.5, size=len(multiplicities)))
    return kind, similar_to_diagonal(np.repeat(levels, multiplicities), seed)


@settings(max_examples=80, deadline=None)
@given(real_phase_hamiltonians())
def test_solve_on_its_own_spectral_data_gives_the_same_bits(case):
    kind, H = case
    families, warned = [], []
    for spectral in (None, mc.eig(H)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegenerateSpectrumWarning)
            families.append(solve_metric_space(H, spectral=spectral))
        warned.append([w.category for w in caught])
    assert warned[0] == warned[1] == ([DegenerateSpectrumWarning] if kind == "cluster" else [])
    assert_same_family(families[1], families[0])


def test_spectral_data_of_another_matrix_is_refused():
    H = random_qh(5, 82)[0]
    with pytest.raises(SpanMismatch):
        solve_metric_space(H, spectral=mc.eig(random_qh(5, 83)[0]))
    with pytest.raises(DimensionMismatch):
        solve_metric_space(H, spectral=mc.eig(random_qh(4, 82)[0]))


@pytest.mark.parametrize("dim", [4, 8, 16, 32])
def test_eigensolves_agree_near_the_exceptional_point(dim):
    for gamma in (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999):
        assert solve_metric_space(pt_chain(dim, gamma)).span_residual <= 1e-8, gamma


def test_large_dimension_default_metric():
    H = pt_chain(64, 0.5)
    family = solve_metric_space(H)
    theta = metric_from_weights(family, family.kappa_default)
    assert mc.is_positive_definite(theta)[0]
    assert check_quasi_hermitian(H, theta) <= 1e-10


def test_basis_elements_solve_the_equation():
    for seed in (0, 1):
        H, _ = random_qh(5, seed)
        assert_oracle_in_family(H, solve_metric_space(H))
        for B in null_space(H):
            mc.require_hermitian(B, "null-space element")
            residual = mc.fro(H.conj().T @ B - B @ H)
            assert residual <= 1e-10 * mc.fro(H) * mc.fro(B)


# ---------------------------------------------------------------------------
# metric_from_weights
# ---------------------------------------------------------------------------

def test_weights_hermitian_case_gives_identity():
    family = solve_metric_space(np.diag([1.0, 2.0]))
    theta = metric_from_weights(family, [1.0, 1.0])
    np.testing.assert_allclose(theta, np.eye(2), atol=1e-14)


def test_weights_toy_model_proportional_to_reference():
    family = solve_metric_space(TOY_H)
    theta = metric_from_weights(family, [2.0, 2.0])
    ratio = theta[0, 0].real / TOY_THETA[0, 0].real
    np.testing.assert_allclose(theta, ratio * TOY_THETA, atol=1e-12)
    assert abs(theta[0, 1]) < 1e-12


def test_weights_reject_zero_and_negative():
    family = solve_metric_space(TOY_H)
    with pytest.raises(NonPositiveWeight):
        metric_from_weights(family, [0.0, 1.0])
    with pytest.raises(NonPositiveWeight):
        metric_from_weights(family, [1.0, -2.0])


def test_weights_reject_wrong_length():
    family = solve_metric_space(TOY_H)
    with pytest.raises(DimensionMismatch):
        metric_from_weights(family, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("seed", range(10))
def test_weighted_metric_is_admissible(seed):
    dim = 2 + seed % 5
    H, _ = random_qh(dim, 7000 + seed)
    family = solve_metric_space(H)
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(0.5, 2.0, size=dim)
    theta = metric_from_weights(family, kappa)
    flag, _ = mc.is_positive_definite(theta)
    assert flag
    assert check_quasi_hermitian(H, theta) <= 1e-10


# ---------------------------------------------------------------------------
# check_quasi_hermitian
# ---------------------------------------------------------------------------

def test_qh_identity_observable():
    assert check_quasi_hermitian(np.eye(3), np.diag([1.0, 2.0, 3.0])) == 0.0


def test_qh_toy_model_exact():
    # both H^dagger Theta and Theta H equal [[0, 4], [4, 0]]
    assert check_quasi_hermitian(TOY_H, TOY_THETA) <= 1e-15


def test_qh_nonnormal_counterexample_value():
    # ||L^dagger - L||_F = 2 against ||L||_F ||I||_F = sqrt(2) * sqrt(2)
    got = check_quasi_hermitian(np.diag([1j, 1.0]), np.eye(2))
    assert got == pytest.approx(1.0, abs=1e-15)


def _ldexp(A, k):
    return np.ldexp(A.real, k) + 1j * np.ldexp(A.imag, k)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.booleans(),
    st.integers(-500, 500),
    st.integers(-500, 500),
)
def test_qh_residual_is_invariant_under_power_of_two_scaling(seed, dim, pair, a, b):
    if pair:                       # an admissible pair: residual at rounding level
        L, Theta = random_qh(dim, seed)
    else:
        rng = np.random.default_rng(seed)
        L = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Theta = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    base = check_quasi_hermitian(L, Theta)
    assert check_quasi_hermitian(_ldexp(L, a), Theta) == base
    assert check_quasi_hermitian(L, _ldexp(Theta, b)) == base


def test_qh_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check_quasi_hermitian(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# physical_inner_product
# ---------------------------------------------------------------------------

def test_inner_product_trivial_metric():
    assert physical_inner_product([1.0, 0.0], [1.0, 0.0], np.eye(2)) == 1.0


def test_inner_product_toy_metric():
    got = physical_inner_product([1.0, 1.0], [1.0, 1.0], TOY_THETA)
    assert got == pytest.approx(5.0, abs=1e-14)


def test_inner_product_orthogonal_axes():
    got = physical_inner_product([1.0, 0.0], [0.0, 1.0], TOY_THETA)
    assert got == 0.0


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        physical_inner_product([1.0, 0.0, 0.0], [1.0, 0.0], np.eye(2))


@pytest.mark.parametrize("seed", range(8))
def test_inner_product_hermitian_symmetry_and_positivity(seed):
    rng = np.random.default_rng(seed)
    dim = 4
    H, theta = random_qh(dim, 300 + seed)
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ab = physical_inner_product(a, b, theta)
    ba = physical_inner_product(b, a, theta)
    assert ab == pytest.approx(np.conj(ba), abs=1e-12 * abs(ab))
    diag = physical_inner_product(a, a, theta)
    assert abs(diag.imag) <= 1e-12 * abs(diag)
    assert diag.real > 0

    # conjugate-linearity in the first argument
    scaled = physical_inner_product(2j * a, b, theta)
    assert scaled == pytest.approx(-2j * ab, abs=1e-12 * abs(ab))


@pytest.mark.parametrize("tol", [0.0, np.nan, np.inf])
def test_solve_rejects_nonpositive_or_nonfinite_tol(tol):
    # a complex spectrum: a tolerance that passed here would admit it
    with pytest.raises(BadRange, match="finite"):
        solve_metric_space(pt_chain(4, 1.5), tol=tol)


def test_solve_of_a_matrix_whose_eigenvalue_is_beyond_the_float_range():
    # eigenvalues 0 and 2a = 3.4e308: the clusters are those of [[1, 1], [1, 1]],
    # and the eigenvalue beyond the range reads inf without a warning
    a = 1.7e308
    family = solve_metric_space(np.full((2, 2), a))
    assert family.cluster_sizes == (1, 1)
    assert family.spectral.eigenvalues[-1] == np.inf
