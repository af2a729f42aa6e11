"""The four benchmark workloads: inputs from a seed, one item, its gates.

Every workload is a closed loop with one caller.  ``make(name, seed,
workdir)`` does the set-up (import plus input generation); ``run_item(i)``
runs item ``i`` and returns its residuals, raising ``GateFailure`` when a
gate is exceeded.  Library functions are always looked up through their
module at call time, so the tracer's rebinding is seen.

Why these four (see also BENCHMARK.json):

* ``ensemble``: many tiny matrices, where Python overhead, scalar RNG draws,
  small-d LAPACK and BLAS-thread contention dominate;
* ``dynamics``: ``mat_exp``/``eig`` per time sample dominates; the metric
  solve, the chain and the RNG are bypassed;
* ``sweep``: the O(d^6) null-space metric solve at d = 16 dominates;
* ``cli_cold``: interpreter start, imports, argparse and JSON I/O of one cold
  CLI process dominate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from quasiherm import dieudonne, evolution, factorchain, models
from quasiherm import matrixcore as mc

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
GATE = 1e-8
VERIFY_TOL = 1e-9
#: seed offset of the weight/parameter draws, as in the acceptance fixture
DRAW_OFFSET = 777_000_001
#: a hung CLI child is killed after this many seconds and counts as failed
CHILD_TIMEOUT = 120.0
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class GateFailure(Exception):
    """An item's result missed one of its correctness gates."""


def _seeds(seed, count: int) -> list[int]:
    """``count`` library seeds drawn from the workload seed (an int or a tuple)."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**62, count)]


def _weyl(start: float, step: float, i: int) -> float:
    """Point ``i`` of a seeded Weyl sequence in [0, 1).

    Consecutive items cover the interval evenly, so the mix of grid sizes a
    run sees does not depend on how many items fit into it.
    """
    return (start + i * step) % 1.0


class Ensemble:
    """One system of the criterion-1 grid (d = 2..8, N = 1..5) per item."""

    cycle = 35
    in_process = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def system(self, i: int) -> tuple[int, int, int]:
        """(d, N, system seed) of item ``i``: the grid cycles, seeds never repeat."""
        cell = i % self.cycle
        return 2 + cell % 7, 1 + cell // 7, _seeds([self.seed, i], 1)[0]

    def run_item(self, i: int) -> dict:
        d, N, seed = self.system(i)
        H, _ = models.random_qh(d, seed)
        family = dieudonne.solve_metric_space(H, tol=1e-10)
        rng = models.DeterministicRng(seed + DRAW_OFFSET)
        kappa = [0.5 + 1.5 * rng.uniform() for _ in range(d)]
        theta = dieudonne.metric_from_weights(family, kappa)
        params = [models.random_hermitian_invertible(d, rng) for _ in range(N - 1)]
        chain = factorchain.build_chain(H, theta, params)
        ladder = factorchain.verify_chain(chain, VERIFY_TOL)
        theorem = factorchain.verify_theorem1(chain, VERIFY_TOL)
        imag = 0.0
        for lam in chain.observables:
            eigenvalues = mc.eig(lam).eigenvalues
            imag = max(imag, float(np.abs(eigenvalues.imag).max()) / np.linalg.norm(lam))
        result = {
            "ladder": max(r.residual for r in ladder.relations),
            "theorem1": max(r.residual for r in theorem.relations),
            "spectrum_imag": imag,
        }
        if not (ladder.overall_pass and theorem.overall_pass and imag <= GATE):
            raise GateFailure(f"d={d} N={N} seed={seed}: {result}")
        return result


class Dynamics:
    """One 101-sample ``norm_trajectory`` on [0, 10] for each of d = 4, 16, 32 per item.

    The three trajectories form one item so that its latency does not hinge
    on the d = 16 solve alone, whose BLAS threading makes it the most
    variable of the three.
    """

    dims = (4, 16, 32)
    cycle = 1
    in_process = True

    def __init__(self, seed: int, workdir: Path):
        self.times = np.linspace(0.0, 10.0, 101)
        self.systems = []
        for d, s in zip(self.dims, _seeds(seed, len(self.dims))):
            H, theta = models.random_qh(d, s)
            rng = np.random.default_rng(s)
            psi0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            self.systems.append((H, theta, psi0))

    def run_item(self, i: int) -> dict:
        result = {"drift": 0.0, "dual_residual": 0.0}
        for H, theta, psi0 in self.systems:
            record = evolution.norm_trajectory(H, theta, psi0, self.times)
            if not (record.drift <= GATE and record.dual_residual <= GATE):
                raise GateFailure(
                    f"d={H.shape[0]}: drift {record.drift:.3e}, "
                    f"dual residual {record.dual_residual:.3e}"
                )
            result["drift"] = max(result["drift"], record.drift)
            result["dual_residual"] = max(result["dual_residual"], record.dual_residual)
        return result


class Sweep:
    """One ``sweep_exceptional(pt_chain(16, .), lo, hi, 21)`` per item.

    ``lo`` in [0, 0.2] and ``hi`` in [1.5, 2.5] follow seeded Weyl sequences,
    so the grids (and their number of real-phase points) differ per item.
    The exceptional point of the family is at gamma = 1.
    """

    cycle = 1
    in_process = True
    dim = 16
    samples = 21

    def __init__(self, seed: int, workdir: Path):
        self.lo0, self.hi0 = np.random.default_rng(seed).random(2)

    def grid(self, i: int) -> tuple[float, float]:
        lo = 0.2 * _weyl(self.lo0, GOLDEN, i)
        hi = 1.5 + _weyl(self.hi0, np.sqrt(2.0) - 1.0, i)
        return lo, hi

    def run_item(self, i: int) -> dict:
        lo, hi = self.grid(i)
        sweep = models.sweep_exceptional(
            lambda g: models.pt_chain(self.dim, g), lo, hi, self.samples
        )
        error = abs(sweep.critical_estimate - 1.0) if sweep.critical_estimate is not None else np.inf
        unsafe = sum(r and not p for r, p in zip(sweep.reality_flags, sweep.positivity_flags))
        if error > 1e-5 or unsafe:
            raise GateFailure(
                f"lo={lo!r} hi={hi!r}: critical error {error:.3e}, "
                f"{unsafe} real-phase points without a positive metric"
            )
        return {"critical_error": error}


class CliCold:
    """One cold ``python -m quasiherm.cli`` process per item, cycling the subcommands."""

    dim = 6
    in_process = False

    def __init__(self, seed: int, workdir: Path):
        import quasiherm.cli  # noqa: F401  (importing the CLI is part of its set-up)

        self.workdir = Path(workdir)
        s = _seeds(seed, 5)
        H, _ = models.random_qh(self.dim, s[0])
        rng = np.random.default_rng(s[1])
        psi0 = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        family = dieudonne.solve_metric_space(H, tol=1e-10)
        theta = dieudonne.metric_from_weights(family, family.kappa_default)
        draws = models.DeterministicRng(s[2])
        params = [models.random_hermitian_invertible(self.dim, draws) for _ in range(2)]
        chain = factorchain.build_chain(H, theta, params)
        lo, hi = 0.2 * rng.random(), 1.5 + rng.random()
        files = {"H.json": mc.matrix_to_json(H), "psi.json": mc.vector_to_json(psi0),
                 "chain.json": chain.to_json()}
        for name, obj in files.items():
            (self.workdir / name).write_text(json.dumps(obj))
        H_path, psi_path, chain_path = (str(self.workdir / name) for name in files)
        self.commands = [
            ["analyze", "--input", H_path],
            ["metric", "--input", H_path],
            ["chain", "--input", H_path, "--n-factors", "3", "--seed", str(s[3] % 2**31)],
            ["verify", "--input", chain_path],
            ["evolve", "--input", H_path, "--state", psi_path],
            ["sweep", "--dim", "2", "--range-lo", repr(lo), "--range-hi", repr(hi)],
            ["suite", "--seed", str(s[4] % 2**31), "--samples", "20"],
        ]
        self.cycle = len(self.commands)
        self.reference: dict[int, bytes] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.peak_rss_kb = 0

    def spawn(self, argv: list[str]) -> tuple[int, bytes, bytes, float]:
        """Run one child to completion: (exit code, stdout, stderr, spawn time)."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_bytes(), err_path.read_bytes(), started

    def run_item(self, i: int, tracer=None, item_span: int | None = None) -> dict:
        k = i % self.cycle
        args = self.commands[k]
        if tracer is None:
            argv = [sys.executable, "-m", "quasiherm.cli", *args]
        else:
            trace_path = self.workdir / "child-trace.json"
            argv = [sys.executable, str(CHILD), "cli", str(trace_path), *args]
        code, out, err, started = self.spawn(argv)
        if tracer is not None and code == 0:
            tracer.adopt(json.loads(trace_path.read_text()), item_span, started)
        if code != 0:
            raise GateFailure(f"{args[0]} exited {code}: {err.decode(errors='replace')[-300:]}")
        reference = self.reference.setdefault(k, out)
        if out != reference:
            raise GateFailure(f"{args[0]} stdout differs from its first call")
        return {}


WORKLOADS = {"ensemble": Ensemble, "dynamics": Dynamics, "sweep": Sweep, "cli_cold": CliCold}


def make(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)
