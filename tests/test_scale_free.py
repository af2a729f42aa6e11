"""Scale-free verdicts: every gate treats ``2**k * X`` as it treats X.

A metric is fixed only up to a positive factor, and every tolerance in the
package is relative, so scaling each homogeneous input of a gate by a power
of two must leave its verdict or typed error unchanged and scale each output
by the matching power, to rounding.  The gates keep their arithmetic inside
the float range by one rule (``matrixcore._unit_scaled``), so k runs over
every exponent at which ``2**k * X`` is exact: finite, with no bit lost to
the subnormal range, from the bottom binades to the top ones.  Only the
outputs limit it: an output is compared where its own scaling is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiherm import matrixcore as mc
from quasiherm.dieudonne import check_quasi_hermitian, solve_metric_space
from quasiherm.errors import QuasihermError
from quasiherm.evolution import norm_trajectory
from quasiherm.factorchain import build_chain, lemma1_observable, verify_chain, verify_theorem1
from quasiherm.models import (
    DeterministicRng,
    parity,
    pt_chain,
    random_hermitian_invertible,
    random_qh,
    spectral_reality,
    sweep_exceptional,
)
from quasiherm.symmetry import check_pt_symmetry

SEEDS = st.integers(0, 2**16)
DIMS = st.integers(2, 5)


def scaled(X, k):
    """``2**k * X`` part by part, also where the float ``2.0**k`` is out of range."""
    X = np.ascontiguousarray(X, dtype=complex)
    return np.ldexp(X.view(np.float64), k).view(complex)


def exact_exponents(*arrays) -> tuple[int, int]:
    """The least and the greatest k at which ``2**k * X`` is exact for every X.

    A nonzero part m * 2**p (m in [1/2, 1)) stays finite for k <= 1024 - p,
    and keeps its lowest set bit, 2**(p - 53 + z) with z trailing zeros of
    its 53-bit mantissa, for k >= -1021 - p - z.
    """
    parts = np.concatenate([scaled(X, 0).view(np.float64).ravel() for X in arrays])
    mantissa, p = np.frexp(np.abs(parts[parts != 0.0]))
    low = [-1021 - int(q) - ((m & -m).bit_length() - 1)
           for m, q in zip((mantissa * 2.0**53).astype(np.int64).tolist(), p)]
    return max(low), 1024 - int(p.max())


def is_exact(X, k) -> bool:
    """Whether ``2**k * X`` is finite and scales back to X bit for bit."""
    with np.errstate(over="ignore"):
        there = scaled(X, k)
    return bool(np.isfinite(there).all() and np.array_equal(scaled(there, -k), scaled(X, 0)))


def exponent(data, *arrays) -> int:
    """A k at which every one of ``arrays`` scales exactly, drawn over the
    whole range and over its lowest and its top 13 binades."""
    lo, hi = exact_exponents(*arrays)
    return data.draw(st.one_of(
        st.integers(lo, hi), st.integers(lo, lo + 12), st.integers(hi - 12, hi)
    ))


def outcome(f, *args):
    """``(result, None)`` of one call, or ``(None, type)`` of its typed error."""
    try:
        return f(*args), None
    except QuasihermError as exc:
        return None, type(exc)


def assert_scales(got, want, power, rtol=1e-12):
    """``got`` equals ``2**power * want`` up to ``rtol`` relative to ``want``,
    wherever ``2**power * want`` is exact."""
    if is_exact(want, power):
        assert mc.fro(scaled(got, -power) - want) <= rtol * mc.fro(want)


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
@given(st.data(), SEEDS, DIMS, CASES)
def test_positivity_gate(data, seed, dim, case):
    _, theta, _ = broken(case, *system(dim, seed))
    k = exponent(data, theta)
    base, error = outcome(mc.is_positive_definite, theta)
    got, scaled_error = outcome(mc.is_positive_definite, scaled(theta, k))
    assert scaled_error is error
    if error is None:
        assert got[0] is base[0]
        if is_exact(base[1], k):
            assert abs(np.ldexp(got[1], -k) - base[1]) <= 1e-12 * mc.entry_norm(theta)


@settings(max_examples=80, deadline=None)
@given(st.data(), SEEDS, DIMS, st.sampled_from([0.0, 1e-6, 1e-3]))
def test_check_quasi_hermitian(data, seed, dim, defect):
    # each operand at its own scale; a pair broken by 1e-6 or 1e-3 of ||H|| stays refused
    H, theta = random_qh(dim, seed)
    H = H + defect * mc.fro(H) * np.eye(dim, k=1)
    j, k = exponent(data, H), exponent(data, theta)
    base = check_quasi_hermitian(H, theta)
    got = check_quasi_hermitian(scaled(H, j), scaled(theta, k))
    assert abs(got - base) <= 1e-12 * max(base, 1e-4)
    assert (got <= 1e-10) is (base <= 1e-10) is (defect == 0.0)


@settings(max_examples=60, deadline=None)
@given(st.data(), SEEDS, DIMS, CASES, st.integers(0, 2))
def test_build_chain(data, seed, dim, case, depth):
    H, theta, params = broken(case, *system(dim, seed))
    params = params[2 - depth:]
    k = exponent(data, H, theta, *params)
    base, error = outcome(build_chain, H, theta, params)
    chain, scaled_error = outcome(
        build_chain, scaled(H, k), scaled(theta, k), [scaled(M, k) for M in params]
    )
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
@given(st.data(), SEEDS, DIMS, CASES)
def test_lemma1_observable(data, seed, dim, case):
    # the product M Theta scales by 2**(2k): k is limited to where it stays exact
    _, theta, params = broken(case, *system(dim, seed))
    lo, hi = exact_exponents(params[1], theta)
    plo, phi = exact_exponents(params[1] @ theta)
    k = data.draw(st.integers(max(lo, -(-plo // 2)), min(hi, phi // 2)))
    base, error = outcome(lemma1_observable, params[1], theta)
    got, scaled_error = outcome(lemma1_observable, scaled(params[1], k), scaled(theta, k))
    assert scaled_error is error
    if error is None:
        assert_scales(got, base, 2 * k)


@settings(max_examples=30, deadline=None)
@given(st.data(), SEEDS, DIMS, CASES)
def test_norm_trajectory(data, seed, dim, case):
    # states, duals and norms scale by 2**k, 2**(2k) and 2**(3k), each compared where exact
    H, theta, _ = broken(case, *system(dim, seed))
    psi0 = DeterministicRng(seed).complex_normal_matrix(dim)[0]
    times = np.linspace(0.0, 2.0, 5)
    k = exponent(data, theta, psi0)
    base, error = outcome(norm_trajectory, H, theta, psi0, times)
    got, scaled_error = outcome(norm_trajectory, H, scaled(theta, k), scaled(psi0, k), times)
    assert scaled_error is error
    if error is None:
        assert_scales(got.states, base.states, k)
        assert_scales(got.dual_states, base.dual_states, 2 * k)
        assert_scales(got.norms, base.norms, 3 * k)
        assert abs(got.drift - base.drift) <= 1e-12
        assert abs(got.dual_residual - base.dual_residual) <= 1e-12


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
@settings(max_examples=80, deadline=None)
@given(st.data(), SEEDS, DIMS, HAMILTONIANS)
def test_solve_metric_space(data, seed, dim, kind):
    H = hamiltonian(kind, dim, seed)
    k = exponent(data, H)
    base, error = outcome(solve_metric_space, H)
    got, scaled_error = outcome(solve_metric_space, scaled(H, k))
    assert scaled_error is error
    if error is None:
        assert got.cluster_sizes == base.cluster_sizes
        assert_scales(got.spectral.eigenvalues, base.spectral.eigenvalues, k)
        assert_scales(got.spectral.left_vectors, base.spectral.left_vectors, 0, rtol=1e-8)
        assert got.span_residual <= 1e-8


@settings(max_examples=80, deadline=None)
@given(st.data(), SEEDS, DIMS, HAMILTONIANS)
def test_spectral_reality(data, seed, dim, kind):
    H = hamiltonian(kind, dim, seed)
    k = exponent(data, H)
    base, error = outcome(spectral_reality, H, 1e-9)
    got, scaled_error = outcome(spectral_reality, scaled(H, k), 1e-9)
    assert scaled_error is error
    if error is None:
        assert got[0] is base[0]
        if is_exact(base[1], k):
            assert abs(np.ldexp(got[1], -k) - base[1]) <= 1e-12 * mc.fro(H)


@settings(max_examples=60, deadline=None)
@given(st.data(), SEEDS, DIMS, st.booleans())
def test_check_pt_symmetry(data, seed, dim, symmetric):
    H = pt_chain(dim, 0.5) if symmetric else random_qh(dim, seed)[0]
    P = parity(dim)
    j, k = exponent(data, H), exponent(data, P)
    base = check_pt_symmetry(H, P)
    assert abs(check_pt_symmetry(scaled(H, j), scaled(P, k)) - base) <= 1e-12 * max(base, 1e-4)


@settings(max_examples=20, deadline=None)
@given(st.integers(-1021, 1022), st.integers(2, 4))
def test_sweep_exceptional(k, dim):
    # The grid holds the exceptional point of the even chains at 1.  The range
    # is where 2**k * pt_chain(dim, g) is exact for every g in [1/2, 2], the
    # parameters that the refinement probes at full precision.
    def sweep(k):
        return sweep_exceptional(lambda g: scaled(pt_chain(dim, g), k), 0.0, 2.0, 9)

    base, got = sweep(0), sweep(k)
    assert got.reality_flags == base.reality_flags
    assert got.positivity_flags == base.positivity_flags
    assert got.critical_method == base.critical_method
    assert abs(got.critical_estimate - base.critical_estimate) <= 1e-9
