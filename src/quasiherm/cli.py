"""Command-line front end.

Subcommands cover the whole pipeline: ``analyze`` (spectrum and reality),
``metric`` (solution family and default metric), ``chain`` (build and verify
an observable ladder), ``verify`` (re-check a serialized chain), ``evolve``
(dual propagation with norm certificate), ``sweep`` (phase boundary of the
lattice family) and ``suite`` (seeded random-ensemble property run).

Exit status: 0 when every check passes the configured tolerance, 1 on a
verification or numerical failure (e.g. ``ExponentialOverflow``), 2 on input
or parse errors, operand shape mismatches included.  Reports are deterministic
byte for byte for fixed inputs and seed; wall-clock metadata goes to stderr
only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import matrixcore as mc
from .dieudonne import check_quasi_hermitian, metric_from_weights, solve_metric_space
from .errors import InputError, InputFormatError, QuasihermError
from .evolution import norm_trajectory
from .factorchain import ObservableChain, build_chain, verify_chain, verify_theorem1
from .models import (
    DeterministicRng,
    pt_chain,
    random_hermitian_invertible,
    random_qh,
    spectral_reality,
    sweep_exceptional,
)

#: offset mixed into CLI seeds so weight/parameter draws differ from random_qh
_DRAW_SEED_OFFSET = 0x5EED
#: the flags parsed by ``_finite``, whose values may be negative
_FLOAT_FLAGS = ("--tol", "--t-max", "--range-lo", "--range-hi")


def _finite(text: str) -> float:
    """argparse type for float flags: NaN and +-inf are input errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _join_float_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag VALUE`` as ``--flag=VALUE`` for the float flags (or a
    prefix of exactly one, which argparse takes as its abbreviation).

    argparse takes a value such as ``-1e-3`` for an option unless it matches
    a negative-number pattern that differs between Python versions.
    """
    joined: list[str] = []
    for token in argv:
        if joined and sum(flag.startswith(joined[-1]) for flag in _FLOAT_FLAGS) == 1:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiherm",
        description="metric operators and observable chains for "
        "quasi-Hermitian Hamiltonians",
    )
    parser.set_defaults(format="json")  # for the commands that have no CSV form
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, *, needs_input=True, csv=False):
        p.set_defaults(run=run)  # main calls run(args): (exit code, body, CSV builder or None)
        if needs_input:
            p.add_argument("--input", required=True, help="matrix JSON file")
        p.add_argument("--tol", type=_finite, default=1e-9, help="pass tolerance")
        p.add_argument("--out", default=None, help="report file (default stdout)")
        if csv:
            p.add_argument(
                "--format", choices=("json", "csv"), default="json", help="report format"
            )

    p = sub.add_parser("analyze", help="eigenvalues and spectral reality")
    common(p, _cmd_analyze, csv=True)

    p = sub.add_parser("metric", help="metric solution family and default metric")
    common(p, _cmd_metric)

    p = sub.add_parser("chain", help="build and verify an observable chain")
    common(p, _cmd_chain)
    p.add_argument("--params", default=None, help="JSON array of parameter matrices")
    p.add_argument("--n-factors", type=int, default=2, help="metric factor count N")
    p.add_argument("--seed", type=int, default=0, help="seed for random parameters")

    p = sub.add_parser("verify", help="re-verify a serialized chain")
    common(p, _cmd_verify)

    p = sub.add_parser("evolve", help="propagate the dual pair and certify the norm")
    common(p, _cmd_evolve, csv=True)
    p.add_argument("--state", required=True, help="initial state vector JSON file")
    p.add_argument("--t-max", type=_finite, default=10.0, help="final time")
    p.add_argument("--samples", type=int, default=101, help="number of time samples")

    p = sub.add_parser("sweep", help="reality/positivity sweep of the lattice family")
    common(p, _cmd_sweep, needs_input=False, csv=True)
    p.add_argument("--dim", type=int, default=2, help="lattice size of the family")
    p.add_argument("--range-lo", type=_finite, required=True, help="sweep start")
    p.add_argument("--range-hi", type=_finite, required=True, help="sweep end")
    p.add_argument("--samples", type=int, default=21, help="grid points")

    p = sub.add_parser("suite", help="seeded random-ensemble property run")
    common(p, _cmd_suite, needs_input=False)
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--samples", type=int, default=20, help="number of systems")
    p.add_argument("--n-factors", type=int, default=3, help="largest chain depth")

    return parser


def _emit(args, report: dict, to_csv) -> None:
    """Write the JSON report (NaN and +-inf as null) or ``to_csv()`` to --out or stdout."""
    if args.format == "csv":
        payload = to_csv()
    else:
        try:
            payload = json.dumps(report, indent=2, allow_nan=False) + "\n"
        except ValueError:  # only a non-finite float is refused
            report = json.loads(json.dumps(report), parse_constant=lambda _: None)
            payload = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _default_metric(H, tol: float):
    family = solve_metric_space(H, tol=tol)
    theta = metric_from_weights(family, family.kappa_default)
    return family, theta


def _verified(chain, tol: float, /, **body):
    """``body`` with the ladder and Theorem 1 reports of ``chain``; exit 0
    when both pass."""
    reports = {"ladder": verify_chain(chain, tol), "theorem1": verify_theorem1(chain, tol)}
    for key, rep in reports.items():
        body[key] = {"tol": rep.tol, "overall_pass": rep.overall_pass, "relations": rep.to_json()}
    return (0 if all(rep.overall_pass for rep in reports.values()) else 1), body, None


def _cmd_analyze(args):
    H = mc.load_matrix(args.input)
    real, max_imag = spectral_reality(H, args.tol)
    sd = mc.eig(H)
    body = {
        "dim": int(H.shape[0]),
        "hermitian_defect": mc.hermitian_defect(H),
        "eigenvalues": [{"re": float(w.real), "im": float(w.imag)} for w in sd.eigenvalues],
        "condition_estimate": sd.condition_estimate,
        "spectral_reality": bool(real),
        "max_imag": max_imag,
    }
    rows = ([w.real, w.imag] for w in sd.eigenvalues)
    return (0 if real else 1), body, lambda: mc.csv_text(["re", "im"], rows)


def _cmd_metric(args):
    H = mc.load_matrix(args.input)
    family, theta = _default_metric(H, args.tol)
    positive, lam_min = mc.is_positive_definite(theta)
    residual = check_quasi_hermitian(H, theta)
    body = {
        "family": family.to_json(),
        "solution_space_dim": sum(m * m for m in family.cluster_sizes),
        "span_residual": family.span_residual,
        "degenerate": family.degenerate,
        "default_metric": mc.matrix_to_json(theta),
        "positive_definite": bool(positive),
        "smallest_eigenvalue": lam_min,
        "qh_residual": residual,
    }
    return (0 if positive and residual <= args.tol else 1), body, None


def _load_params(path) -> list[np.ndarray]:
    arr = mc.read_json(path, "params")
    if not isinstance(arr, list):
        raise InputFormatError("params file must hold a JSON array of matrices")
    return [mc.matrix_from_json(obj) for obj in arr]


def _cmd_chain(args):
    H = mc.load_matrix(args.input)
    if args.n_factors < 1:
        raise InputFormatError("--n-factors must be at least 1")
    _, theta = _default_metric(H, args.tol)
    if args.params:
        params = _load_params(args.params)
        if len(params) != args.n_factors - 1:
            raise InputFormatError(
                f"need {args.n_factors - 1} parameters for N={args.n_factors}, "
                f"got {len(params)}"
            )
    else:
        rng = DeterministicRng(args.seed + _DRAW_SEED_OFFSET)
        params = [random_hermitian_invertible(H.shape[0], rng) for _ in range(args.n_factors - 1)]
    chain = build_chain(H, theta, params)
    return _verified(chain, args.tol, chain=chain.to_json())


def _cmd_verify(args):
    obj = mc.read_json(args.input, "chain")
    if isinstance(obj, dict) and "chain" in obj:
        obj = obj["chain"]          # accept whole `chain` command reports
    return _verified(ObservableChain.from_json(obj), args.tol)


def _cmd_evolve(args):
    H = mc.load_matrix(args.input)
    psi0 = mc.load_vector(args.state)
    if args.samples < 2 or args.t_max <= 0:
        raise InputFormatError("--samples must be >= 2 and --t-max positive")
    _, theta = _default_metric(H, args.tol)
    times = np.linspace(0.0, args.t_max, args.samples)
    record = norm_trajectory(H, theta, psi0, times)
    body = {"metric": mc.matrix_to_json(theta), "trajectory": record.to_json()}
    code = 0 if record.drift <= args.tol and record.dual_residual <= args.tol else 1
    return code, body, record.to_csv


def _cmd_sweep(args):
    result = sweep_exceptional(
        lambda g: pt_chain(args.dim, g), args.range_lo, args.range_hi, args.samples, tol=args.tol
    )
    return 0, {"dim": args.dim, "summary": result.to_json()}, result.to_csv


#: the worst residuals a suite run reports, in report order
_SUITE_RESIDUALS = ("ladder", "theorem1", "spectrum_imag", "norm_drift", "dual_residual")


def _cmd_suite(args):
    if args.samples < 1 or args.n_factors < 1:
        raise InputFormatError("--samples and --n-factors must be positive")
    dims = (2, 3, 4, 5, 6)
    worst = [0.0] * len(_SUITE_RESIDUALS)
    systems = []
    for i in range(args.samples):
        seed = args.seed + i
        dim = dims[i % len(dims)]
        depth = 1 + i % args.n_factors
        H, _ = random_qh(dim, seed)
        family = solve_metric_space(H, tol=args.tol)
        rng = DeterministicRng(seed + _DRAW_SEED_OFFSET)
        kappa = [0.5 + 1.5 * rng.uniform() for _ in range(dim)]
        theta = metric_from_weights(family, kappa)
        params = [random_hermitian_invertible(dim, rng) for _ in range(depth - 1)]
        chain = build_chain(H, theta, params)
        ladder = verify_chain(chain, args.tol)
        theorem = verify_theorem1(chain, args.tol)
        spectrum_imag = max(
            mc.spectrum_imag(mc.eig(Lam).eigenvalues, mc.fro(Lam))[1]
            for Lam in chain.observables
        )
        psi0 = np.array([rng.normal() + 1j * rng.normal() for _ in range(dim)])
        record = norm_trajectory(H, theta, psi0, np.linspace(0.0, 5.0, 21))
        residuals = [[r.residual for r in rep.relations] for rep in (ladder, theorem)]
        residuals += [spectrum_imag], [record.drift], [record.dual_residual]
        worst = [max(w, *values) for w, values in zip(worst, residuals)]
        systems.append(
            {"seed": seed, "dim": dim, "N": depth,
             "ladder_pass": ladder.overall_pass, "theorem1_pass": theorem.overall_pass}
        )
    ok = all(v <= args.tol for v in worst)
    ok = ok and all(s["ladder_pass"] and s["theorem1_pass"] for s in systems)
    body = {"systems": systems, "worst_residuals": dict(zip(_SUITE_RESIDUALS, worst)), "pass": ok}
    return (0 if ok else 1), body, None


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    started = time.perf_counter()
    try:
        if args.tol <= 0:
            raise InputFormatError("--tol must be positive")
        code, body, to_csv = args.run(args)
        _emit(args, {"command": args.command, "tol": args.tol, **body}, to_csv)
    except InputError as exc:
        print(f"quasiherm: input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"quasiherm: i/o error: {exc}", file=sys.stderr)
        return 2
    except QuasihermError as exc:
        print(f"quasiherm: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    print(f"quasiherm {args.command}: finished in {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
