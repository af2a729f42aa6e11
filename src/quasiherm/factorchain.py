"""Observable chains built on a factorized metric.

Given a Hamiltonian H, an admissible metric Theta and Hermitian invertible
operator parameters M_1 ... M_{N-1}, the chain assembles the observable
ladder

    Lambda_0 = I,
    Lambda_k = M_k^-1 Theta      (k = 1 ... N-1),
    Lambda_N = Theta,
    Lambda_{N+1} = H,

and the metric factors Z_k = Lambda_k Lambda_{k-1}^-1, taken in the closed
form

    Z_1 = M_1^-1 Theta,   Z_k = M_k^-1 M_{k-1}   (k = 2 ... N-1),   Z_N = M_{N-1}

(Z_1 = Theta at N = 1), so that Theta = Z_N Z_{N-1} ... Z_1 holds by
construction from the parameter inverses the ladder already needs.  The
parameters then coincide with the suffix products M_k = Z_N ... Z_{k+1},
which is what makes every ladder relation an identity for Hermitian
parameters, and the observables with the prefix products
Lambda_k = Z_k ... Z_1.

A chain stores each matrix once, the ladder and the factors: H and Theta are
its last two observables, and M_k is ``suffix_products()[k]``.
``verify_chain`` and ``verify_theorem1`` recompute every product from the
factors and read every stored matrix, so they act as independent checks.

Parameter order: ``build_chain``'s ``params[0]`` is the deepest parameter
(the one inverted in Lambda_1) and ``params[-1]`` equals Z_N.  Worked N = 4
example: with ``params = (M_1, M_2, M_3)`` the observables are Lambda_1 =
M_1^-1 Theta, Lambda_2 = M_2^-1 Theta, Lambda_3 = M_3^-1 Theta, and the
factors satisfy Z_4 = M_3, Z_4 Z_3 = M_2, Z_4 Z_3 Z_2 = M_1, Z_4 Z_3 Z_2 Z_1 = Theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import matrixcore as mc
from .dieudonne import check_quasi_hermitian, require_quasi_hermitian
from .errors import (
    FactorizationMismatch,
    InputFormatError,
    NotHermitianParameter,
    SingularMatrix,
    SingularParameter,
    WrongN,
)

#: relative tolerance for the factor-recomposition invariant
RECOMPOSE_TOL = 1e-9


@dataclass(frozen=True)
class Relation:
    """One named residual compared against a tolerance."""

    name: str
    residual: float
    passed: bool

    def to_json(self) -> dict:
        return {"relation": self.name, "residual": self.residual, "pass": self.passed}


@dataclass(frozen=True)
class VerificationReport:
    """Named residuals for a batch of checked relations."""

    relations: tuple[Relation, ...]
    tol: float

    @property
    def overall_pass(self) -> bool:
        """Whether every relation passed."""
        return all(r.passed for r in self.relations)

    def residual(self, name: str) -> float:
        for r in self.relations:
            if r.name == name:
                return r.residual
        raise KeyError(name)

    def failed(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.relations if not r.passed)

    def to_json(self) -> list[dict]:
        return [r.to_json() for r in self.relations]


@dataclass(frozen=True)
class ObservableChain:
    """Factorized metric with its closed-form observable ladder.

    ``observables`` runs Lambda_0 ... Lambda_{N+1}; ``factors`` runs
    Z_1 ... Z_N, with ``H`` = Lambda_{N+1} and ``Theta`` = Lambda_N.
    Instances are immutable; verification of distinct chains can proceed
    concurrently.
    """

    N: int
    dim: int
    observables: tuple[np.ndarray, ...]
    factors: tuple[np.ndarray, ...]

    @property
    def H(self) -> np.ndarray:
        return self.observables[-1]

    @property
    def Theta(self) -> np.ndarray:
        return self.observables[-2]

    def _products(self, factors, step) -> list[np.ndarray]:
        """The identity and its running ``step`` products with ``factors``."""
        with np.errstate(over="ignore", invalid="ignore"):
            products = list(accumulate(factors, step, initial=np.eye(self.dim, dtype=complex)))
        if not np.isfinite(products).all():
            raise FactorizationMismatch("a product of the chain factors overflows")
        return products

    def suffix_products(self) -> list[np.ndarray]:
        """Suffix products S_k = Z_N ... Z_{k+1} for k = 0 ... N-1.

        S_0 is the full recomposed metric and S_{N-1} = Z_N; for a valid
        chain S_k coincides with the parameter M_k (with M_0 = Theta).
        """
        return self._products(reversed(self.factors), np.matmul)[:0:-1]

    def prefix_products(self) -> list[np.ndarray]:
        """Prefix products P_k = Z_k ... Z_1 for k = 1 ... N, P_k at index k - 1.

        P_N is the full recomposed metric; for a valid chain P_k coincides
        with the observable Lambda_k.
        """
        return self._products(self.factors, lambda P, Z: Z @ P)[1:]

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "dim": self.dim,
            "observables": [mc.matrix_to_json(L) for L in self.observables],
            "factors": [mc.matrix_to_json(Z) for Z in self.factors],
        }

    @staticmethod
    def from_json(obj) -> "ObservableChain":
        """Read a chain object; keys other than the four fields are ignored."""
        try:
            N = mc.json_int(obj["N"], "chain N")
            dim = mc.json_int(obj["dim"], "chain dim")
            observables = tuple(mc.matrix_from_json(m) for m in obj["observables"])
            factors = tuple(mc.matrix_from_json(m) for m in obj["factors"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"bad chain object: {exc}") from exc
        if N < 1 or len(observables) != N + 2 or len(factors) != N:
            raise InputFormatError("chain object has inconsistent sequence lengths")
        if any(M.shape != (dim, dim) for M in observables + factors):
            raise InputFormatError("chain object has inconsistent matrix dimensions")
        return ObservableChain(N, dim, observables, factors)


def lemma1_observable(M, Theta) -> np.ndarray:
    """Eligible observable ``Lambda = M Theta`` for Hermitian M.

    Hermiticity of M is the whole requirement: the product is then
    automatically quasi-Hermitian with respect to Theta, which this function
    re-checks after the fact.  The product is taken on the ``_unit_scaled``
    copies, so no partial sum overflows where the product itself is in range.
    """
    Mm, Tm = mc.square_pair(M, Theta, "M", "Theta")
    mc.require_hermitian(Mm, "observable parameter", NotHermitianParameter)
    mc.require_positive_metric(Tm)
    (S, e), (T, f) = mc._unit_scaled(Mm), mc._unit_scaled(Tm)
    Lam = mc._ldexp(S @ T, -e - f)  # beyond the float range: inf, refused below
    require_quasi_hermitian(Lam, Tm, "post-hoc check of M Theta")
    return Lam


def build_chain(H, Theta, params) -> ObservableChain:
    """Assemble the observable ladder and extract the metric factors.

    Parameters
    ----------
    H : array_like
        Hamiltonian, quasi-Hermitian with respect to ``Theta`` (gated at
        residual ``dieudonne.QH_GATE``).
    Theta : array_like
        Hermitian positive-definite metric.
    params : sequence of array_like
        N-1 Hermitian invertible operator parameters, deepest first (the
        parameter inverted in Lambda_1) and ending with Z_N.

    The factors are derived as Z_k = Lambda_k Lambda_{k-1}^-1 (in the closed
    form of the module docstring) rather than supplied, which makes the whole
    consistency ladder hold by construction and keeps ``verify_chain`` an
    independent check.
    """
    Hm, Tm = mc.square_pair(H, Theta, "H", "Theta")
    dim = Hm.shape[0]
    Ms = [mc.square_pair(Hm, M, "H", f"params[{i}]")[1] for i, M in enumerate(params)]
    for i, M in enumerate(Ms):
        mc.require_hermitian(M, f"params[{i}]", NotHermitianParameter)
    mc.require_positive_metric(Tm)
    require_quasi_hermitian(Hm, Tm, "H with Theta")

    N = len(Ms) + 1
    inverses = []
    for i, M in enumerate(Ms):
        try:
            inverses.append(mc.inverse(M))
        except SingularMatrix as exc:
            raise SingularParameter(f"params[{i}] is numerically singular") from exc
    ident = np.eye(dim, dtype=complex)
    observables = [ident, *(Minv @ Tm for Minv in inverses), Tm, Hm]
    factors = [
        observables[1],
        *(inverses[k] @ Ms[k - 1] for k in range(1, N - 1)),
        *Ms[-1:],
    ]

    chain = ObservableChain(N, dim, tuple(observables), tuple(factors))
    recompose = mc.rel_residual(chain.suffix_products()[0] - Tm, Tm)
    if not recompose <= RECOMPOSE_TOL:
        raise FactorizationMismatch(
            f"factor product misses the metric by {recompose:.3e}"
        )
    return chain


def _rel(name: str, residual: float, tol: float) -> Relation:
    return Relation(name, float(residual), bool(residual <= tol))


def _ladder_label(k: int, N: int) -> str:
    """Equation tag for the k-th intertwining rung at depth N."""
    if N == 2:
        return "able2"
    if N == 3:
        return {1: "bable3", 2: "bable2"}[k]
    if k == 1:
        return "deble4"
    if k == N - 1:
        return "deble3b"
    if k == 2:
        return "deble4b"
    if k == N - 2:
        return "deble3"
    return f"deble-mid-k{k}"          # unnamed middle rungs, N >= 6 only


def _hamiltonian_label(N: int) -> str:
    return {2: "able3", 3: "bable4"}.get(N, "deblesep")


def _hermiticity_label(N: int) -> str:
    return {2: "able1", 3: "bable1"}.get(N, "deble1")


def verify_chain(chain: ObservableChain, tol: float) -> VerificationReport:
    """Check every consistency relation of the factor ladder.

    All quantities are recomputed from ``chain.factors`` (the metric as the
    full factor product), so a corrupted factor flips exactly the relations
    in which it appears.  Relation names are the source equation tags:
    able3/able2/able1 at N = 2, bable4...bable1 at N = 3, and the deble
    family otherwise, plus one Hermiticity entry per proper suffix product.
    """
    tol = mc.as_tolerance(tol)
    N = chain.N
    factors = chain.factors
    suffixes = chain.suffix_products()
    # Z_N ... Z_1 intertwines H, and rung k intertwines Z_k with Z_N ... Z_{k+1}
    rungs = [(_hamiltonian_label(N), chain.H)] + [
        (_ladder_label(k, N), factors[k - 1]) for k in range(1, N)
    ]
    relations = [
        _rel(name, check_quasi_hermitian(L, S), tol)
        for (name, L), S in zip(rungs, suffixes)
    ]
    # Hermiticity of Z_N, then of each longer suffix product Z_N ... Z_{j+1}
    herm = [(_hermiticity_label(N), factors[-1])] + [
        (f"herm[Z{N}..Z{j + 1}]", suffixes[j]) for j in range(N - 1)
    ]
    relations += [_rel(name, mc.rel_residual(S - S.conj().T, S), tol) for name, S in herm]

    return VerificationReport(tuple(relations), float(tol))


def verify_theorem1(chain: ObservableChain, tol: float) -> VerificationReport:
    """Check the observable ladder against its defining products.

    For each k = 1 ... N the report carries the quasi-Hermiticity residual of
    Lambda_k and the distance between Lambda_k and the recomposed product
    Z_k ... Z_1; the intermediate identities Lambda_k^dagger M_k = Theta
    (with M_k the suffix products, M_0 the recomposed metric) are included
    for k = 0 ... N-1.
    """
    tol = mc.as_tolerance(tol)
    Theta = chain.Theta
    relations = []
    for k, (Lam, P) in enumerate(zip(chain.observables[1:], chain.prefix_products()), 1):
        relations.append(_rel(f"qh[Lambda_{k}]", check_quasi_hermitian(Lam, Theta), tol))
        relations.append(_rel(f"product[Lambda_{k}]", mc.rel_residual(Lam - P, Lam), tol))

    for k, (Lam, S) in enumerate(zip(chain.observables, chain.suffix_products())):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the relation
            residual = mc.rel_residual(Lam.conj().T @ S - Theta, Theta)
        relations.append(_rel(f"metric-identity[k={k}]", residual, tol))

    return VerificationReport(tuple(relations), float(tol))


def n3_named_operators(chain: ObservableChain) -> tuple[np.ndarray, np.ndarray]:
    """Quasiparity Q and renormalized charge R of a depth-3 chain.

    Takes Y_3 = Z_3 Z_2 from the suffix products of the factors and returns
    Q = Z_3^-1 Y_3 (equal to Z_2, not an observable in general) and
    R = Y_3^-1 Theta (equal to Z_1, always quasi-Hermitian).
    """
    if chain.N != 3:
        raise WrongN(f"defined for N = 3 chains, got N = {chain.N}")
    Z1, Z2, Z3 = chain.factors
    Y3 = chain.suffix_products()[1]
    Q = mc.inverse(Z3) @ Y3
    R = mc.inverse(Y3) @ chain.Theta
    for got, want, what in ((Q, Z2, "Q"), (R, Z1, "R")):
        drift = mc.rel_residual(got - want, want)
        if not drift <= RECOMPOSE_TOL:
            raise FactorizationMismatch(f"{what} misses its factor by {drift:.3e}")
    return Q, R
