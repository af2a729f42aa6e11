import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiherm import matrixcore as mc
from quasiherm.dieudonne import check_quasi_hermitian, metric_from_weights, solve_metric_space
from quasiherm.errors import (
    FactorizationMismatch,
    NotHermitianParameter,
    NotPositiveDefinite,
    QuasiHermiticityViolation,
    SingularParameter,
    WrongN,
)
from quasiherm.factorchain import (
    ObservableChain,
    build_chain,
    lemma1_observable,
    n3_named_operators,
    verify_chain,
    verify_theorem1,
)
from quasiherm.models import (
    DeterministicRng,
    parity,
    random_hermitian_invertible,
    random_qh,
    toy_2x2,
    toy_2x2_metric,
)

TOY_H = toy_2x2(2.0)
TOY_THETA = toy_2x2_metric(2.0)
TOY_P = parity(2)


def toy_chain():
    return build_chain(TOY_H, TOY_THETA, [TOY_P])


def random_chain(dim, N, seed):
    """Full pipeline draw: Hamiltonian, weighted metric, random parameters."""
    H, _ = random_qh(dim, seed)
    family = solve_metric_space(H)
    rng = DeterministicRng(seed + 99991)
    kappa = [0.5 + 1.5 * rng.uniform() for _ in range(dim)]
    theta = metric_from_weights(family, kappa)
    params = [random_hermitian_invertible(dim, rng) for _ in range(N - 1)]
    return build_chain(H, theta, params)


# ---------------------------------------------------------------------------
# lemma1_observable
# ---------------------------------------------------------------------------

def test_lemma1_identity_parameter_returns_metric():
    np.testing.assert_allclose(
        lemma1_observable(np.eye(2), TOY_THETA), TOY_THETA, atol=0.0
    )


def test_lemma1_parity_parameter_recovers_toy_hamiltonian():
    got = lemma1_observable(TOY_P, TOY_THETA)
    np.testing.assert_allclose(got, TOY_H, atol=0.0)


def test_lemma1_rejects_nonhermitian_parameter():
    M = np.eye(2, dtype=complex)
    M[0, 1] = 1e-3
    with pytest.raises(NotHermitianParameter):
        lemma1_observable(M, TOY_THETA)


@pytest.mark.parametrize("seed", range(10))
def test_lemma1_output_is_quasi_hermitian(seed):
    dim = 2 + seed % 5
    H, _ = random_qh(dim, 500 + seed)
    theta = metric_from_weights(solve_metric_space(H), np.ones(dim))
    rng = DeterministicRng(seed)
    M = random_hermitian_invertible(dim, rng)
    lam = lemma1_observable(M, theta)
    assert check_quasi_hermitian(lam, theta) <= 1e-10


# ---------------------------------------------------------------------------
# build_chain
# ---------------------------------------------------------------------------

def test_build_chain_depth_one():
    chain = build_chain(TOY_H, TOY_THETA, [])
    assert chain.N == 1
    np.testing.assert_allclose(chain.observables[0], np.eye(2), atol=0.0)
    np.testing.assert_allclose(chain.observables[1], TOY_THETA, atol=0.0)
    np.testing.assert_allclose(chain.observables[2], TOY_H, atol=0.0)
    assert len(chain.factors) == 1
    np.testing.assert_allclose(chain.factors[0], TOY_THETA, atol=0.0)


def test_build_chain_toy_depth_two():
    chain = toy_chain()
    C = chain.observables[1]
    np.testing.assert_allclose(C, TOY_H, atol=1e-12)          # charge equals H here
    np.testing.assert_allclose(chain.factors[0], C, atol=1e-12)
    np.testing.assert_allclose(chain.factors[1], TOY_P, atol=1e-12)
    # the charge is exactly parity^-1 times the metric
    np.testing.assert_allclose(C, mc.inverse(TOY_P) @ TOY_THETA, atol=1e-14)


def test_build_chain_depth_three_identity_params():
    chain = build_chain(TOY_H, TOY_THETA, [np.eye(2), np.eye(2)])
    np.testing.assert_allclose(chain.observables[1], TOY_THETA, atol=0.0)
    np.testing.assert_allclose(chain.observables[2], TOY_THETA, atol=0.0)
    np.testing.assert_allclose(chain.factors[0], TOY_THETA, atol=1e-14)
    np.testing.assert_allclose(chain.factors[1], np.eye(2), atol=1e-14)
    np.testing.assert_allclose(chain.factors[2], np.eye(2), atol=1e-14)


def test_build_chain_rejects_singular_parameter():
    with pytest.raises(SingularParameter):
        build_chain(TOY_H, TOY_THETA, [np.zeros((2, 2))])


def test_build_chain_rejects_nonhermitian_parameter():
    M = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NotHermitianParameter):
        build_chain(TOY_H, TOY_THETA, [M])


def test_build_chain_refuses_an_overflowing_pair_at_its_true_residual():
    # L^dagger Theta overflows at this scale; the gate reads the residual of scale 1
    L = np.array([[1.0, 5.0], [0.0, 2.0]])
    with pytest.raises(QuasiHermiticityViolation, match="residual 9.129e-01"):
        build_chain(1e160 * L, 1e160 * np.eye(2), [])


def test_build_chain_refuses_a_broken_pair_at_a_tiny_scale():
    # at 2**-600 the products of entries underflow; unscaled they read residual 0
    H, theta = random_qh(4, 1)
    H = H + 1e-3 * mc.fro(H) * np.eye(4, k=1)
    s = 2.0**-600
    with pytest.raises(QuasiHermiticityViolation):
        build_chain(s * H, s * theta, [])


def test_build_chain_rejects_bad_metric():
    with pytest.raises(QuasiHermiticityViolation):
        build_chain(TOY_H, np.eye(2), [TOY_P])
    with pytest.raises(NotPositiveDefinite):
        build_chain(np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), [np.eye(2)])


@pytest.mark.parametrize("dim,N", [(2, 2), (4, 3), (6, 4), (8, 5)])
def test_factors_recompose_metric(dim, N):
    for seed in range(5):
        chain = random_chain(dim, N, 41 * seed + dim + N)
        resid = mc.fro(chain.suffix_products()[0] - chain.Theta) / mc.fro(chain.Theta)
        assert resid <= 1e-9


@pytest.mark.parametrize("dim,N", [(2, 1), (2, 2), (4, 3), (6, 4), (8, 5)])
def test_closed_form_factors_match_ladder_quotients(dim, N):
    # build_chain takes Z_k in closed form; the definition is Lambda_k Lambda_{k-1}^-1
    for seed in range(5):
        chain = random_chain(dim, N, 43 * seed + dim + N)
        Lam = chain.observables
        for k, Z in enumerate(chain.factors, start=1):
            reference = Lam[k] @ np.linalg.inv(Lam[k - 1])
            assert mc.fro(Z - reference) <= 1e-10 * mc.fro(reference)


def test_depth_two_reduction_matches_charge_formula():
    for seed in range(5):
        chain = random_chain(3, 2, 900 + seed)
        P = chain.suffix_products()[1]
        np.testing.assert_allclose(
            chain.observables[1], mc.inverse(P) @ chain.Theta, atol=1e-12
        )


# ---------------------------------------------------------------------------
# verify_chain
# ---------------------------------------------------------------------------

def test_verify_depth_two_labels():
    report = verify_chain(toy_chain(), 1e-9)
    assert [r.name for r in report.relations] == [
        "able3",
        "able2",
        "able1",
        "herm[Z2..Z1]",
    ]
    assert report.overall_pass
    assert all(r.residual <= 1e-12 for r in report.relations)


def test_verify_depth_three_labels():
    chain = random_chain(3, 3, 11)
    report = verify_chain(chain, 1e-9)
    assert [r.name for r in report.relations] == [
        "bable4",
        "bable3",
        "bable2",
        "bable1",
        "herm[Z3..Z1]",
        "herm[Z3..Z2]",
    ]
    assert report.overall_pass


def test_verify_general_depth_labels():
    report4 = verify_chain(random_chain(3, 4, 12), 1e-9)
    assert [r.name for r in report4.relations][:5] == [
        "deblesep",
        "deble4",
        "deble4b",
        "deble3b",
        "deble1",
    ]
    report5 = verify_chain(random_chain(3, 5, 13), 1e-9)
    assert [r.name for r in report5.relations][:6] == [
        "deblesep",
        "deble4",
        "deble4b",
        "deble3",
        "deble3b",
        "deble1",
    ]
    # N = 6 is the first depth with an unnamed middle rung
    report6 = verify_chain(random_chain(3, 6, 14), 1e-9)
    assert [r.name for r in report6.relations] == [
        "deblesep",
        "deble4",
        "deble4b",
        "deble-mid-k3",
        "deble3",
        "deble3b",
        "deble1",
        *(f"herm[Z6..Z{j + 1}]" for j in range(5)),
    ]
    assert report6.overall_pass


def test_verify_depth_one():
    chain = build_chain(TOY_H, TOY_THETA, [])
    report = verify_chain(chain, 1e-9)
    assert [r.name for r in report.relations] == ["deblesep", "deble1"]
    assert report.overall_pass


@pytest.mark.parametrize("dim,N", [(2, 1), (3, 2), (5, 3), (8, 5)])
def test_verify_passes_on_exact_chains(dim, N):
    for seed in range(5):
        report = verify_chain(random_chain(dim, N, 7 * seed + 100 * N + dim), 1e-9)
        assert report.overall_pass, report.failed()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 5))
def test_ladder_and_theorem1_residuals_property(seed, dim, N):
    chain = random_chain(dim, N, seed)
    for report in (verify_chain(chain, 1e-9), verify_theorem1(chain, 1e-9)):
        assert max(r.residual for r in report.relations) <= 1e-9, report.failed()


def _predicted_failures(chain, corrupt_index):
    """Relations whose operands contain the factor Z_{corrupt_index+1}."""
    N = chain.N
    j = corrupt_index + 1          # 1-based factor number
    report = verify_chain(chain, 1e-9)
    names = [r.name for r in report.relations]
    failing = {names[0]}                         # the Hamiltonian relation uses all Z
    for k in range(1, N):                        # rung k relations use Z_k .. Z_N
        if j >= k:
            failing.add(names[k])
    if j == N:
        failing.add(names[N])                    # the Z_N Hermiticity entry
    for m in range(N - 1):                       # herm[Z_N .. Z_{m+1}]
        if j >= m + 1:
            failing.add(f"herm[Z{N}..Z{m + 1}]")
    return failing


@pytest.mark.parametrize("dim,N,corrupt_index", [
    (2, 2, 0),
    (2, 2, 1),
    (3, 3, 0),
    (3, 3, 1),
    (3, 3, 2),
    (4, 4, 3),
    (4, 5, 2),
])
def test_corruption_flips_exactly_the_expected_relations(dim, N, corrupt_index):
    chain = random_chain(dim, N, 1234 + 17 * corrupt_index + N)
    rng = np.random.default_rng(corrupt_index + 10 * N)
    bump = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    factors = list(chain.factors)
    factors[corrupt_index] = factors[corrupt_index] + 0.1 * mc.fro(
        factors[corrupt_index]
    ) / mc.fro(bump) * bump
    corrupted = ObservableChain(chain.N, chain.dim, chain.observables, tuple(factors))
    report = verify_chain(corrupted, 1e-9)
    assert set(report.failed()) == _predicted_failures(chain, corrupt_index)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_every_stored_matrix_feeds_a_relation(N):
    chain = random_chain(4, N, 2200 + N)
    stored = chain.observables + chain.factors
    assert len(stored) == 2 * N + 2
    rng = np.random.default_rng(N)
    for index, M in enumerate(stored):
        bump = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        changed = list(stored)
        changed[index] = M + 0.1 * mc.fro(M) / mc.fro(bump) * bump
        corrupted = ObservableChain(N, 4, tuple(changed[: N + 2]), tuple(changed[N + 2:]))
        failed = verify_chain(corrupted, 1e-9).failed() + verify_theorem1(corrupted, 1e-9).failed()
        assert failed, f"stored matrix {index} is read by no relation"


def test_overflowing_factor_products_are_a_factorization_mismatch():
    chain = toy_chain()
    huge = ObservableChain(
        chain.N, chain.dim,
        tuple(1e200 * L for L in chain.observables), tuple(1e200 * Z for Z in chain.factors),
    )
    assert all(np.isfinite(M).all() for M in huge.observables + huge.factors)
    for verify in (verify_chain, verify_theorem1):
        with pytest.raises(FactorizationMismatch, match="a product of the chain factors overflows"):
            verify(huge, 1e-9)


def test_an_overflowing_metric_identity_fails_quietly():
    # the factor products stay finite; Lambda_0^dagger times the longest one
    # lies beyond the float range and reads inf, with no RuntimeWarning
    chain = toy_chain()
    huge = ObservableChain(
        chain.N, chain.dim,
        tuple(1e150 * L for L in chain.observables), tuple(1e150 * Z for Z in chain.factors),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = verify_theorem1(huge, 1e-9)
    assert {"metric-identity[k=0]", "metric-identity[k=1]"} <= set(report.failed())
    assert report.residual("metric-identity[k=0]") == np.inf
    assert not np.isnan([r.residual for r in report.relations]).any()


def test_nonhermitian_last_factor_fails_hermiticity_relation():
    chain = toy_chain()
    factors = list(chain.factors)
    factors[1] = factors[1] + np.array([[0.0, 0.2j], [0.2j, 0.0]])
    corrupted = ObservableChain(chain.N, chain.dim, chain.observables, tuple(factors))
    report = verify_chain(corrupted, 1e-9)
    assert "able1" in report.failed()
    assert not report.overall_pass


# ---------------------------------------------------------------------------
# verify_theorem1
# ---------------------------------------------------------------------------

def test_theorem1_toy_charge_is_observable():
    report = verify_theorem1(toy_chain(), 1e-9)
    assert report.residual("qh[Lambda_1]") <= 1e-12
    assert report.residual("metric-identity[k=0]") <= 1e-12
    assert report.overall_pass


def test_report_residual_of_an_unknown_relation_is_a_key_error():
    with pytest.raises(KeyError, match="nope"):
        verify_theorem1(toy_chain(), 1e-9).residual("nope")


def test_theorem1_random_depth_five():
    chain = random_chain(6, 5, 77)
    report = verify_theorem1(chain, 1e-8)
    assert len(report.relations) == 3 * chain.N
    assert report.overall_pass
    assert max(r.residual for r in report.relations) <= 1e-8


@pytest.mark.parametrize("dim,N", [(2, 2), (4, 3), (6, 4), (8, 5)])
def test_theorem1_observables_quasi_hermitian_and_real_spectrum(dim, N):
    for seed in range(4):
        chain = random_chain(dim, N, 3000 + 7 * seed + dim * N)
        for lam in chain.observables:
            assert check_quasi_hermitian(lam, chain.Theta) <= 1e-8
            _, ratio = mc.spectrum_imag(mc.eig(lam).eigenvalues, mc.fro(lam))
            assert ratio <= 1e-8


@pytest.mark.parametrize("dim,N", [(3, 3), (5, 4)])
def test_suffix_product_hermiticity_cascade(dim, N):
    for seed in range(4):
        chain = random_chain(dim, N, 4000 + seed + dim)
        for S in chain.suffix_products():
            assert mc.fro(S - S.conj().T) / mc.fro(S) <= 1e-9


# ---------------------------------------------------------------------------
# n3_named_operators
# ---------------------------------------------------------------------------

def test_n3_identity_params():
    chain = build_chain(TOY_H, TOY_THETA, [np.eye(2), np.eye(2)])
    Q, R = n3_named_operators(chain)
    np.testing.assert_allclose(Q, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(R, TOY_THETA, atol=1e-12)


def test_n3_parity_example():
    # params (Y_3, Z_3) = (I, P) make the quasiparity the parity itself and
    # the renormalized charge the metric
    chain = build_chain(TOY_H, TOY_THETA, [np.eye(2), TOY_P])
    Q, R = n3_named_operators(chain)
    np.testing.assert_allclose(Q, TOY_P, atol=1e-12)
    np.testing.assert_allclose(R, TOY_THETA, atol=1e-12)
    # R is an observable, Q is not
    assert check_quasi_hermitian(R, TOY_THETA) <= 1e-10
    assert check_quasi_hermitian(Q, TOY_THETA) > 1e-4


def test_n3_matches_factors_on_random_chains():
    for seed in range(5):
        chain = random_chain(4, 3, 6000 + seed)
        Q, R = n3_named_operators(chain)
        np.testing.assert_allclose(Q, chain.factors[1], atol=1e-9 * mc.fro(Q))
        np.testing.assert_allclose(R, chain.factors[0], atol=1e-9 * mc.fro(R))
        assert check_quasi_hermitian(R, chain.Theta) <= 1e-8


def test_n3_rejects_other_depths():
    with pytest.raises(WrongN):
        n3_named_operators(toy_chain())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_chain_json_roundtrip_is_bit_exact():
    chain = random_chain(4, 3, 515)
    assert [f.name for f in dataclasses.fields(chain)] == ["N", "dim", "observables", "factors"]
    assert list(chain.to_json()) == ["N", "dim", "observables", "factors"]
    back = ObservableChain.from_json(json.loads(json.dumps(chain.to_json())))
    assert (back.N, back.dim) == (chain.N, chain.dim)
    assert (len(back.observables), len(back.factors)) == (chain.N + 2, chain.N)
    for a, b in zip(back.observables + back.factors, chain.observables + chain.factors):
        assert np.array_equal(a, b)
    before = verify_chain(chain, 1e-9)
    after = verify_chain(back, 1e-9)
    for x, y in zip(before.relations, after.relations):
        assert x.name == y.name
        assert abs(x.residual - y.residual) <= 1e-12


def test_report_json_shape():
    report = verify_chain(toy_chain(), 1e-9)
    payload = report.to_json()
    assert isinstance(payload, list)
    assert set(payload[0]) == {"relation", "residual", "pass"}


def test_chain_rejects_inconsistent_json():
    obj = toy_chain().to_json()
    obj["factors"] = obj["factors"][:1]
    from quasiherm.errors import InputFormatError

    with pytest.raises(InputFormatError):
        ObservableChain.from_json(obj)
