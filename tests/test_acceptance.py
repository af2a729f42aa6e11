"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from quasiherm import matrixcore as mc
from quasiherm.dieudonne import (
    check_quasi_hermitian,
    metric_from_weights,
    solve_metric_space,
)
from quasiherm.errors import NotHermitianParameter
from quasiherm.evolution import norm_trajectory, propagate, propagate_dual
from quasiherm.factorchain import (
    ObservableChain,
    build_chain,
    lemma1_observable,
    verify_chain,
)
from quasiherm.models import (
    DeterministicRng,
    parity,
    pt_chain,
    random_hermitian_invertible,
    random_qh,
    sweep_exceptional,
    toy_2x2,
    toy_2x2_metric,
)
from quasiherm.symmetry import check_pct_symmetry

from oracles import null_space

SEEDS_PER_CELL = 50
DEPTHS = (1, 2, 3, 4, 5)
DIMS = (2, 3, 4, 5, 6, 7, 8)


def _verdict(criterion, passed, detail):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def _build_system(dim, depth, seed):
    H, _ = random_qh(dim, seed)
    family = solve_metric_space(H, tol=1e-10)
    rng = DeterministicRng(seed + 777_000_001)
    kappa = [0.5 + 1.5 * rng.uniform() for _ in range(dim)]
    theta = metric_from_weights(family, kappa)
    params = [random_hermitian_invertible(dim, rng) for _ in range(depth - 1)]
    return build_chain(H, theta, params)


@pytest.fixture(scope="session")
def chain_ensemble():
    """All chains of the criterion-1 grid, built once and timed."""
    start = time.perf_counter()
    chains = []
    for depth in DEPTHS:
        for dim in DIMS:
            for i in range(SEEDS_PER_CELL):
                seed = 1_000_000 * depth + 10_000 * dim + i
                chains.append(_build_system(dim, depth, seed))
    return chains, time.perf_counter() - start


def random_state(rng, dim):
    return np.array([rng.normal() + 1j * rng.normal() for _ in range(dim)])


@pytest.fixture(scope="session")
def evolution_triples():
    """20 admissible (H, Theta, psi0) triples for the evolution criteria."""
    triples = []
    for i in range(20):
        dim = 2 + i % 7
        H, _ = random_qh(dim, 600_000 + i)
        family = solve_metric_space(H, tol=1e-10)
        rng = DeterministicRng(900_000 + i)
        kappa = [0.5 + 1.5 * rng.uniform() for _ in range(dim)]
        theta = metric_from_weights(family, kappa)
        triples.append((H, theta, random_state(rng, dim)))
    return triples


def test_criterion_1_theorem1_suite(chain_ensemble):
    chains, build_seconds = chain_ensemble
    start = time.perf_counter()
    worst_qh = 0.0
    worst_imag = 0.0
    for chain in chains:
        for lam in chain.observables:
            worst_qh = max(worst_qh, check_quasi_hermitian(lam, chain.Theta))
            _, ratio = mc.spectrum_imag(mc.eig(lam).eigenvalues, mc.fro(lam))
            worst_imag = max(worst_imag, float(ratio))
    elapsed = build_seconds + (time.perf_counter() - start)
    _verdict(
        1,
        worst_qh <= 1e-8 and worst_imag <= 1e-8 and elapsed < 60.0,
        f"{len(chains)} systems, max qh residual {worst_qh:.2e}, "
        f"max relative |Im eig| {worst_imag:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_ladder_suite(chain_ensemble):
    chains, _ = chain_ensemble
    worst = 0.0
    for chain in chains:
        report = verify_chain(chain, 1e-9)
        worst = max(worst, max(r.residual for r in report.relations))
        if not report.overall_pass:
            _verdict(2, False, f"ladder failure: {report.failed()}")

    # injected corruption: perturbing one factor must flip exactly the
    # relations whose operands contain it
    corrupt_checks = 0
    for chain in (chains[180], chains[1000], chains[-1]):
        names = [r.name for r in verify_chain(chain, 1e-9).relations]
        for index in range(chain.N):
            j = index + 1
            expected = {names[0]}
            expected.update(names[k] for k in range(1, chain.N) if j >= k)
            if j == chain.N:
                expected.add(names[chain.N])
            expected.update(
                f"herm[Z{chain.N}..Z{m + 1}]" for m in range(chain.N - 1) if j >= m + 1
            )
            rng = np.random.default_rng(j)
            bump = rng.standard_normal((chain.dim, chain.dim)) + 1j * rng.standard_normal(
                (chain.dim, chain.dim)
            )
            factors = list(chain.factors)
            factors[index] = factors[index] + 0.1 * mc.fro(factors[index]) / mc.fro(
                bump
            ) * bump
            corrupted = ObservableChain(chain.N, chain.dim, chain.observables, tuple(factors))
            got = set(verify_chain(corrupted, 1e-9).failed())
            assert got == expected, (got, expected)
            corrupt_checks += 1
    _verdict(
        2,
        worst <= 1e-9,
        f"max ladder residual {worst:.2e} on {len(chains)} chains, "
        f"{corrupt_checks} corruption patterns verified",
    )


def test_criterion_3_depth_two_reduction():
    H = toy_2x2(2.0)
    theta = toy_2x2_metric(2.0)
    P = parity(2)
    chain = build_chain(H, theta, [P])
    charge = chain.observables[1]
    charge_error = np.abs(charge - np.array([[0.0, 1.0], [4.0, 0.0]])).max()
    uhols = check_quasi_hermitian(charge, theta)
    pct = check_pct_symmetry(H, P, charge)
    _verdict(
        3,
        charge_error <= 1e-12 and uhols <= 1e-12 and pct <= 1e-12,
        f"charge error {charge_error:.2e}, observability residual {uhols:.2e}, "
        f"conjugate-form residual {pct:.2e}",
    )


def test_criterion_4_metric_space_dimension():
    worst_span = 0.0
    for i in range(20):
        dim = 2 + i % 5
        H, _ = random_qh(dim, 400_000 + i)
        family = solve_metric_space(H, tol=1e-10)
        assert len(null_space(H)) == dim, dim
        worst_span = max(worst_span, family.span_residual)
    _verdict(
        4,
        worst_span <= 1e-8,
        f"20 systems, solution-space dimension always = dim, "
        f"worst span residual {worst_span:.2e}",
    )


def test_criterion_5_unitarity(evolution_triples):
    times = np.linspace(0.0, 10.0, 101)
    worst_drift = 0.0
    for H, theta, psi0 in evolution_triples:
        record = norm_trajectory(H, theta, psi0, times)
        worst_drift = max(worst_drift, record.drift)

    # control: the naive identity metric on a genuinely non-Hermitian H
    H, _, psi0 = evolution_triples[0]
    assert mc.hermitian_defect(H) > 1e-2 * mc.entry_norm(H)
    norms = np.array([np.linalg.norm(propagate(H, psi0, t)) ** 2 for t in times])
    control_drift = np.abs(norms - norms[0]).max() / norms[0]
    _verdict(
        5,
        worst_drift <= 1e-8 and control_drift >= 1e-2,
        f"worst drift {worst_drift:.2e} on 20 triples, "
        f"control drift {control_drift:.2e}",
    )


def test_criterion_6_dual_equation(evolution_triples):
    worst = 0.0
    for H, theta, psi0 in evolution_triples:
        for t in (0.5, 2.0, 10.0):
            dual = propagate_dual(H, theta, psi0, t)
            want = theta @ propagate(H, psi0, t)
            worst = max(
                worst, float(np.linalg.norm(dual - want) / np.linalg.norm(want))
            )
    _verdict(
        6,
        worst <= 1e-9,
        f"worst relative dual/forward mismatch {worst:.2e} on 20 triples x 3 times",
    )


def test_criterion_7_exceptional_point_sweep():
    start = time.perf_counter()
    result = sweep_exceptional(lambda g: pt_chain(2, g), 0.0, 2.0, 21)
    elapsed = time.perf_counter() - start
    error = abs(result.critical_estimate - 1.0)
    _verdict(
        7,
        error <= 1e-5 and elapsed < 5.0,
        f"critical estimate {result.critical_estimate:.7f} "
        f"(|error| {error:.1e}), {elapsed:.2f}s",
    )


def test_criterion_8_lemma1_sampling():
    worst_hermitian = 0.0
    best_nonhermitian = np.inf
    for i in range(100):
        dim = 2 + i % 5
        H, _ = random_qh(dim, 500_000 + i)
        family = solve_metric_space(H, tol=1e-10)
        rng = DeterministicRng(42_000 + i)
        kappa = [0.5 + 1.5 * rng.uniform() for _ in range(dim)]
        theta = metric_from_weights(family, kappa)

        M = random_hermitian_invertible(dim, rng)
        lam = lemma1_observable(M, theta)
        worst_hermitian = max(worst_hermitian, check_quasi_hermitian(lam, theta))

        G = np.array(
            [[rng.normal() + 1j * rng.normal() for _ in range(dim)] for _ in range(dim)]
        )
        assert mc.hermitian_defect(G) > 1e-2
        with pytest.raises(NotHermitianParameter):
            lemma1_observable(G, theta)
        best_nonhermitian = min(
            best_nonhermitian, check_quasi_hermitian(G @ theta, theta)
        )
    _verdict(
        8,
        worst_hermitian <= 1e-10 and best_nonhermitian > 1e-4,
        f"worst Hermitian-parameter residual {worst_hermitian:.2e}, "
        f"smallest non-Hermitian-parameter residual {best_nonhermitian:.2e}",
    )
