"""Benchmark of the quasiherm pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  ``--workload all`` runs every workload in turn, each in its own
process.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics of an untraced closed loop of ``S`` seconds, with ``--trace 1`` the
per-item layer metrics of a separate traced pass.  The line before it is the
full report: failure fraction, tail percentile and sample count, worst
residuals, the environment and, for a traced run, the single-thread
reference trace.  Spans are written under ``.bench_build/traces``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
TRACES = BUILD / "traces"
WORKLOAD_NAMES = ("ensemble", "dynamics", "sweep", "cli_cold")
#: set-ups timed per run; setup_s is their median
SETUP_REPEATS = 5
#: share of --seconds spent on the untraced pass of a traced run; the traced
#: pass and the single-thread pass then repeat the same items
TRACE_SHARE = 0.35
#: the single-thread reference trace sets these in its child only
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MAX_ERRORS = 5
#: warm-up items run untimed before the first pass, indexed from here so that
#: they draw other inputs than the measured items
WARMUP_BASE = 1 << 40

sys.path.insert(0, str(SRC))


@dataclass
class Loop:
    """What one closed-loop pass measured."""

    latencies: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    worst: dict = field(default_factory=dict)
    wall: float = 0.0

    @property
    def items(self) -> int:
        return len(self.latencies)


def run_loop(wl, *, seconds: float | None = None, items: int | None = None, tracer=None) -> Loop:
    """Run items one after another, for ``items`` items or about ``seconds``.

    A timed loop stops at a cycle boundary when one more cycle would overrun
    ``seconds``, so every run sees the workload's item mix in whole cycles.
    """
    from tracer import ITEM

    loop = Loop()
    start = cycle_start = time.perf_counter()
    i = 0
    while True:
        if items is not None:
            if i >= items:
                break
        elif i and i % wl.cycle == 0:
            now = time.perf_counter()
            if (now - start) + (now - cycle_start) > seconds:
                break
            cycle_start = now
        began = time.perf_counter()
        span = tracer.open(ITEM) if tracer else None
        try:
            if tracer and not wl.in_process:
                result = wl.run_item(i, tracer, span)
            else:
                result = wl.run_item(i)
        except Exception as exc:  # every failed item is counted; the loop goes on
            loop.errors.append(f"item {i}: {type(exc).__name__}: {exc}")
        else:
            for key, value in result.items():
                loop.worst[key] = max(loop.worst.get(key, value), value)
        finally:
            if tracer:
                tracer.close(span)
        loop.latencies.append(time.perf_counter() - began)
        i += 1
    loop.wall = time.perf_counter() - start
    return loop


def prepare(name: str, seed: int, workdir: Path):
    """Set up a workload, then run one untimed cycle of warm-up items in process.

    The first items of a process pay for lazily loaded LAPACK kernels and the
    BLAS thread pool; a user running many items pays that once.  A cold CLI
    process pays it on every item, so ``cli_cold`` is not warmed.
    """
    import workloads

    wl = workloads.make(name, seed, workdir)
    if wl.in_process:
        for i in range(wl.cycle):
            try:
                wl.run_item(WARMUP_BASE + i)
            except Exception:  # a failing item is counted when the loop meets it
                pass
    return wl


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten items beyond it.

    With fewer than eleven items no percentile qualifies and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_seconds(name: str, seed: int, workdir: Path) -> float:
    """Time one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "setup", name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measured_run(name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, Loop, dict]:
    setups = [setup_seconds(name, seed, workdir) for _ in range(SETUP_REPEATS)]
    wl = prepare(name, seed, workdir)
    loop = run_loop(wl, seconds=seconds)
    tail_value, percentile = tail(loop.latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if wl.in_process else wl.peak_rss_kb
    metrics = {
        "items_per_s": (loop.items / loop.wall, "1/s"),
        "item_p50_ms": (1e3 * statistics.median(loop.latencies), "ms"),
        "item_tail_ms": (1e3 * tail_value, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    extra = {
        "item_tail": {"percentile": percentile, "samples": loop.items},
        "setup_samples_s": setups,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, loop, extra


def traced_pass(name: str, seed: int, items: int, workdir: Path, wl=None,
                untraced_wall: float | None = None, spans_file: Path | None = None):
    """Run ``items`` items with every layer traced; return (layer metrics, loop)."""
    from tracer import Tracer, layer_metrics

    wl = wl or prepare(name, seed, workdir)
    tracer = Tracer()
    if wl.in_process:
        tracer.install()
    try:
        loop = run_loop(wl, items=items, tracer=tracer)
    finally:
        tracer.uninstall()
    if spans_file is not None:
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps(tracer.dump()))
    return layer_metrics(tracer, loop.items, loop.wall, untraced_wall), loop


def traced_run(name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, Loop, dict]:
    wl = prepare(name, seed, workdir)
    untraced = run_loop(wl, seconds=TRACE_SHARE * seconds)
    stem = f"{name}-seed{seed}"
    metrics, traced = traced_pass(name, seed, untraced.items, workdir, wl,
                                  untraced.wall, TRACES / f"{stem}.json")
    single_dir = workdir / "single-thread"
    single_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", name, str(seed),
         str(untraced.items), str(single_dir), str(TRACES / f"{stem}-1thread.json")],
        capture_output=True, text=True, timeout=120, env={**os.environ, **SINGLE_THREAD},
    )
    if proc.returncode == 0:
        single = json.loads(proc.stdout.splitlines()[-1])
    else:  # its items are the ones the parent already ran and counted
        single = {"error": proc.stderr[-500:]}
    loop = Loop(untraced.latencies + traced.latencies, untraced.errors + traced.errors,
                {**untraced.worst, **traced.worst}, untraced.wall + traced.wall)
    extra = {
        "traced_items": traced.items,
        "single_thread": {"env": SINGLE_THREAD, "metrics": single},
        "spans_files": [str(Path(".bench_build/traces") / f"{stem}{s}.json") for s in ("", "-1thread")],
    }
    return metrics, loop, extra


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (none in a plain copy)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}

    return {
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "quasiherm").glob("*.py"))
        ),
    }


def run_all(args) -> int:
    """Run every workload in its own process and merge their last lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quasiherm" / "__init__.py").is_file():
        print(f"bench: no quasiherm sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        run = traced_run if args.trace else measured_run
        metrics, loop, extra = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(loop.errors)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": loop.items,
        "failed_frac": {"value": failed / loop.items, "unit": "ratio"},
        **extra,
        "worst_residuals": loop.worst,
        "errors": loop.errors[:MAX_ERRORS],
        "environment": environment(),
    }
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": loop.items, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
