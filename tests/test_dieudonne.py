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
    ComplexSpectrum,
    DefectiveMatrix,
    DegenerateSpectrumWarning,
    DimensionMismatch,
    NonPositiveWeight,
    SpanMismatch,
)
from quasiherm.models import pt_chain, random_qh, toy_2x2, toy_2x2_metric

TOY_H = toy_2x2(2.0)
TOY_THETA = toy_2x2_metric(2.0)


def in_span(M, basis, tol=1e-10):
    """Whether M lies in the real span of the (Hermitian) basis matrices."""
    cols = np.column_stack(
        [np.concatenate([B.real.ravel(), B.imag.ravel()]) for B in basis]
    )
    v = np.concatenate([M.real.ravel(), M.imag.ravel()])
    coef, *_ = np.linalg.lstsq(cols, v, rcond=None)
    return np.linalg.norm(cols @ coef - v) <= tol * max(1.0, np.linalg.norm(v))


# ---------------------------------------------------------------------------
# solve_metric_space
# ---------------------------------------------------------------------------

def test_solve_hermitian_diagonal():
    family = solve_metric_space(np.diag([1.0, 2.0]))
    assert len(family.basis) == 2
    np.testing.assert_allclose(family.basis[0], np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(family.basis[1], np.diag([0.0, 1.0]), atol=1e-14)
    assert in_span(np.eye(2), family.basis)
    assert in_span(np.eye(2), family.oracle_basis)


def test_solve_toy_model_span():
    # Hand algebra for [[0, 1], [g^2, 0]]: the intertwining relation forces
    # solutions of the form [[g^2 b, c], [c, b]] with real b, c.
    family = solve_metric_space(TOY_H)
    assert len(family.oracle_basis) == 2
    for B in family.oracle_basis:
        assert B[0, 0] == pytest.approx(4.0 * B[1, 1], abs=1e-12)
        assert abs(B[0, 1].imag) < 1e-12
        assert B[0, 1] == pytest.approx(B[1, 0].conjugate(), abs=1e-14)
    assert in_span(TOY_THETA, family.oracle_basis)
    assert in_span(TOY_THETA, family.basis)


def test_solve_rejects_complex_spectrum():
    with pytest.raises(ComplexSpectrum):
        solve_metric_space(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_solve_degenerate_spectrum_gives_block_family():
    with pytest.warns(DegenerateSpectrumWarning):
        family = solve_metric_space(np.eye(3))
    assert family.degenerate
    # every Hermitian matrix solves the equation for H = I
    assert len(family.oracle_basis) == 9
    assert len(family.basis) == 9
    theta = metric_from_weights(family, family.kappa_default)
    assert mc.positive_metric(theta)[0]
    assert check_quasi_hermitian(np.eye(3), theta) <= 1e-10
    # one weight per eigenvalue, not per basis element
    with pytest.raises(DimensionMismatch):
        metric_from_weights(family, np.ones(9))


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
)
def test_cluster_family_spans_the_null_space(seed, multiplicities):
    rng = np.random.default_rng(seed)
    levels = np.cumsum(rng.uniform(0.5, 1.5, size=len(multiplicities)))
    H = similar_to_diagonal(np.repeat(levels, multiplicities), seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateSpectrumWarning)
        family = solve_metric_space(H)
    assert family.degenerate == (max(multiplicities) > 1) == bool(caught)
    size = sum(m * m for m in multiplicities)
    assert len(family.basis) == size == len(family.oracle_basis)
    assert span_residual(family.oracle_basis, family.basis) <= 1e-8
    theta = metric_from_weights(family, family.kappa_default)
    assert mc.positive_metric(theta)[0]
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
    assert len(family.basis) == 66
    assert family.span_residual <= 1e-8
    theta = metric_from_weights(family, family.kappa_default)
    assert mc.positive_metric(theta)[0]
    assert check_quasi_hermitian(H, theta) <= 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_solution_space_dimension_and_span_agreement(dim):
    for seed in range(8):
        H, _ = random_qh(dim, 1000 * dim + seed)
        family = solve_metric_space(H)
        assert len(family.oracle_basis) == dim
        assert len(family.basis) == dim
        assert family.span_residual <= 1e-8


def loop_oracle_basis(H, tol=1e-10):
    """Null space of ``X -> H^dagger X - X H`` built one basis matrix at a time."""
    d = H.shape[0]
    herm = []
    for i in range(d):
        E = np.zeros((d, d), dtype=complex)
        E[i, i] = 1.0
        herm.append(E)
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            F = np.zeros((d, d), dtype=complex)
            F[i, j], F[j, i] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
            herm += [E, F]
    cols = [H.conj().T @ E - E @ H for E in herm]
    F = np.column_stack([np.concatenate([C.real.ravel(), C.imag.ravel()]) for C in cols])
    _, svals, Vt = np.linalg.svd(F)
    return [
        sum(c * E for c, E in zip(Vt[k], herm))
        for k in range(len(herm))
        if svals[k] <= tol * svals[0]
    ]


@pytest.mark.parametrize(
    "H",
    [random_qh(2, 71)[0], random_qh(4, 72)[0], random_qh(8, 73)[0], pt_chain(16, 0.5)],
    ids=["d2", "d4", "d8", "d16"],
)
def test_stacked_null_space_matches_loop_reference(H):
    family = solve_metric_space(H)
    reference = loop_oracle_basis(H)
    assert len(family.oracle_basis) == len(reference) == H.shape[0]
    for got, want in zip(family.oracle_basis, reference):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def realcols(X):
    """Stacked matrices as real columns ``(re.ravel(), im.ravel())``."""
    flat = np.asarray(X).reshape(len(X), -1)
    return np.concatenate([flat.real, flat.imag], axis=1).T


def span_residual(first, second):
    """Largest relative distance between either span and the other's projection."""
    if not len(first) or not len(second):
        return np.inf
    A, B = realcols(first), realcols(second)
    worst = 0.0
    for span, other in ((A, B), (B, A)):
        Q = np.linalg.qr(span)[0]
        resid = np.linalg.norm(other - Q @ (Q.T @ other), axis=0)
        worst = max(worst, float((resid / np.linalg.norm(other, axis=0)).max()))
    return worst


@pytest.mark.parametrize(
    "H",
    [random_qh(d, 500 + d)[0] for d in range(2, 9)]
    + [pt_chain(16, g) for g in (0.5, 0.99, 0.999)],
    ids=[f"random-d{d}" for d in range(2, 9)] + ["pt16-0.5", "pt16-0.99", "pt16-0.999"],
)
def test_spectral_basis_spans_the_null_space(H):
    family = solve_metric_space(H)
    assert len(family.oracle_basis) == len(family.basis) == H.shape[0]
    assert span_residual(family.oracle_basis, family.basis) <= 1e-8


def test_nondegenerate_solve_defers_the_null_space():
    family = solve_metric_space(random_qh(6, 81)[0])
    assert "oracle_basis" not in family.__dict__
    assert len(family.oracle_basis) == 6
    assert "oracle_basis" in family.__dict__


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


@pytest.mark.parametrize("dim", [4, 8, 16, 32])
def test_eigensolves_agree_near_the_exceptional_point(dim):
    for gamma in (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999):
        assert solve_metric_space(pt_chain(dim, gamma)).span_residual <= 1e-8, gamma


def test_large_dimension_default_metric():
    H = pt_chain(64, 0.5)
    family = solve_metric_space(H)
    theta = metric_from_weights(family, family.kappa_default)
    assert mc.positive_metric(theta)[0]
    assert check_quasi_hermitian(H, theta) <= 1e-10


def test_basis_elements_solve_the_equation():
    for seed in (0, 1):
        H, _ = random_qh(5, seed)
        family = solve_metric_space(H)
        for B in family.basis + family.oracle_basis:
            assert mc.hermitian_defect(B) <= 1e-12 * max(1.0, mc.entry_norm(B))
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
    flag, _ = mc.is_positive_definite(theta, 1e-12 * max(1.0, mc.entry_norm(theta)))
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
    with pytest.raises(ValueError, match="finite"):
        solve_metric_space(pt_chain(4, 1.5), tol=tol)
