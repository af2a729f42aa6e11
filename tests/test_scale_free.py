"""Scale-free verdicts: every gate treats ``2**k * X`` as it treats X.

A metric is fixed only up to a positive factor, and every tolerance in the
package is relative, so scaling each homogeneous input of a gate by a power
of two (exact in floating point) must leave its verdict or typed error
unchanged and scale each output by the matching power, to rounding.  The
exponent range keeps every product a gate forms finite: k in [-500, 500]
where two scaled operands meet, and [-300, 300] for ``lemma1_observable``,
whose post-check multiplies three.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiherm import matrixcore as mc
from quasiherm.dieudonne import solve_metric_space
from quasiherm.errors import QuasihermError
from quasiherm.evolution import norm_trajectory
from quasiherm.factorchain import build_chain, lemma1_observable, verify_chain, verify_theorem1
from quasiherm.models import (
    DeterministicRng,
    pt_chain,
    random_hermitian_invertible,
    random_qh,
    spectral_reality,
    sweep_exceptional,
)

EXPONENTS = st.integers(-500, 500)
SEEDS = st.integers(0, 2**16)
DIMS = st.integers(2, 5)


def outcome(f, *args):
    """``(result, None)`` of one call, or ``(None, type)`` of its typed error."""
    try:
        return f(*args), None
    except QuasihermError as exc:
        return None, type(exc)


def assert_scales(got, want, power, rtol=1e-12):
    """``got`` equals ``2**power * want`` up to ``rtol`` relative to ``want``."""
    got = np.asarray(got) * 2.0**-power
    assert mc.fro(got - want) <= rtol * mc.fro(want)


def system(dim, seed):
    """A quasi-Hermitian H, its metric witness and two Hermitian parameters."""
    H, theta = random_qh(dim, seed)
    rng = DeterministicRng(seed)
    return H, theta, [random_hermitian_invertible(dim, rng) for _ in range(2)]


def non_hermitian(M):
    """M with one off-diagonal entry moved by its largest entry: relative defect ~1."""
    bad = M.copy()
    bad[0, -1] += mc.entry_norm(M)
    return bad


def broken(case, H, theta, params):
    """The inputs of one verdict: valid, or failing one gate."""
    if case == "parameter":
        params = params[:1] + [non_hermitian(params[1])]
    elif case == "hamiltonian":
        H = H + 1e-6 * mc.fro(H) * np.eye(len(H), k=1)
    elif case == "indefinite":
        theta = -theta
    elif case == "non-hermitian metric":
        theta = non_hermitian(theta)
    return H, theta, params


CASES = st.sampled_from(
    ["valid", "parameter", "hamiltonian", "indefinite", "non-hermitian metric"]
)


@settings(max_examples=60, deadline=None)
@given(EXPONENTS, SEEDS, DIMS, CASES)
def test_positivity_gate(k, seed, dim, case):
    _, theta, _ = broken(case, *system(dim, seed))
    base, error = outcome(mc.is_positive_definite, theta)
    scaled, scaled_error = outcome(mc.is_positive_definite, 2.0**k * theta)
    assert scaled_error is error
    if error is None:
        assert scaled[0] is base[0]
        assert abs(scaled[1] * 2.0**-k - base[1]) <= 1e-12 * mc.entry_norm(theta)


@settings(max_examples=60, deadline=None)
@given(EXPONENTS, SEEDS, DIMS, CASES, st.integers(0, 2))
def test_build_chain(k, seed, dim, case, depth):
    H, theta, params = broken(case, *system(dim, seed))
    params = params[2 - depth:]
    s = 2.0**k
    base, error = outcome(build_chain, H, theta, params)
    chain, scaled_error = outcome(build_chain, s * H, s * theta, [s * M for M in params])
    assert scaled_error is error
    if error is None:
        N = depth + 1
        for got, want, power in zip(chain.observables, base.observables, [0] * N + [k, k]):
            assert_scales(got, want, power)
        for got, want, power in zip(chain.factors, base.factors, [0] * (N - 1) + [k]):
            assert_scales(got, want, power)
        for verify in (verify_chain, verify_theorem1):
            assert verify(chain, 1e-9).overall_pass == verify(base, 1e-9).overall_pass


@settings(max_examples=60, deadline=None)
@given(st.integers(-300, 300), SEEDS, DIMS, CASES)
def test_lemma1_observable(k, seed, dim, case):
    _, theta, params = broken(case, *system(dim, seed))
    s = 2.0**k
    base, error = outcome(lemma1_observable, params[1], theta)
    scaled, scaled_error = outcome(lemma1_observable, s * params[1], s * theta)
    assert scaled_error is error
    if error is None:
        assert_scales(scaled, base, 2 * k)


@settings(max_examples=30, deadline=None)
@given(EXPONENTS, SEEDS, DIMS, CASES)
def test_norm_trajectory(k, seed, dim, case):
    H, theta, _ = broken(case, *system(dim, seed))
    psi0 = DeterministicRng(seed).complex_normal_matrix(dim)[0]
    times = np.linspace(0.0, 2.0, 5)
    s = 2.0**k
    base, error = outcome(norm_trajectory, H, theta, psi0, times)
    scaled, scaled_error = outcome(norm_trajectory, H, s * theta, s * psi0, times)
    assert scaled_error is error
    if error is None:
        assert_scales(scaled.states, base.states, k)
        assert_scales(scaled.dual_states, base.dual_states, 2 * k)
        if abs(k) <= 300:  # the norms scale by 2**(3k)
            assert_scales(scaled.norms, base.norms, 3 * k)
        assert abs(scaled.drift - base.drift) <= 1e-12
        assert abs(scaled.dual_residual - base.dual_residual) <= 1e-12


#: a cluster of equal eigenvalues warns; the warning is not the verdict under test
degenerate_warns = pytest.mark.filterwarnings("ignore::quasiherm.errors.DegenerateSpectrumWarning")
HAMILTONIANS = st.sampled_from(["random", "identity", "broken phase", "defective"])


def hamiltonian(kind, dim, seed):
    if kind == "random":
        return random_qh(dim, seed)[0]
    if kind == "identity":
        return np.eye(dim, dtype=complex)
    if kind == "broken phase":
        return pt_chain(dim, 1.5)
    return np.eye(dim, k=1) + np.eye(dim)  # one Jordan block


@degenerate_warns
@settings(max_examples=60, deadline=None)
@given(EXPONENTS, SEEDS, DIMS, HAMILTONIANS)
def test_solve_metric_space(k, seed, dim, kind):
    H = hamiltonian(kind, dim, seed)
    base, error = outcome(solve_metric_space, H)
    scaled, scaled_error = outcome(solve_metric_space, 2.0**k * H)
    assert scaled_error is error
    if error is None:
        assert scaled.cluster_sizes == base.cluster_sizes
        assert_scales(scaled.spectral.eigenvalues, base.spectral.eigenvalues, k)
        assert_scales(scaled.spectral.left_vectors, base.spectral.left_vectors, 0, rtol=1e-8)
        assert scaled.span_residual <= 1e-8


@settings(max_examples=60, deadline=None)
@given(EXPONENTS, SEEDS, DIMS, HAMILTONIANS)
def test_spectral_reality(k, seed, dim, kind):
    H = hamiltonian(kind, dim, seed)
    base, error = outcome(spectral_reality, H, 1e-9)
    scaled, scaled_error = outcome(spectral_reality, 2.0**k * H, 1e-9)
    assert scaled_error is error
    if error is None:
        assert scaled[0] is base[0]
        assert abs(scaled[1] * 2.0**-k - base[1]) <= 1e-12 * mc.fro(H)


@settings(max_examples=20, deadline=None)
@given(EXPONENTS, st.integers(2, 4))
def test_sweep_exceptional(k, dim):
    # The grid holds the exceptional point of the even chains at 1.
    def sweep(s):
        return sweep_exceptional(lambda g: s * pt_chain(dim, g), 0.0, 2.0, 9)

    base, scaled = sweep(1.0), sweep(2.0**k)
    assert scaled.reality_flags == base.reality_flags
    assert scaled.positivity_flags == base.positivity_flags
    assert scaled.critical_method == base.critical_method
    assert abs(scaled.critical_estimate - base.critical_estimate) <= 1e-9
