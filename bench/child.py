"""Child-process entry points of the benchmark.

    python3 bench/child.py setup WORKLOAD SEED WORKDIR
        time one set-up (import plus input generation) in a fresh interpreter
        and print {"setup_s": ...};
    python3 bench/child.py cli TRACE_FILE ARGS...
        run ``quasiherm.cli.main(ARGS)`` with every layer traced, leave the
        report on stdout and write the spans to TRACE_FILE;
    python3 bench/child.py trace WORKLOAD SEED ITEMS WORKDIR SPANS_FILE
        run ITEMS traced items in this process, print their layer metrics
        and write the spans to SPANS_FILE (used for the single-thread
        reference trace, whose BLAS thread variables the parent sets in this
        child's environment only).

Only ``run.py`` starts these.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(workload: str, seed: str, workdir: str) -> None:
    import workloads

    workloads.make(workload, int(seed), Path(workdir))
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}))


def cli(trace_file: str, *argv: str) -> int:
    began = time.perf_counter()
    import quasiherm.cli

    imported = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = quasiherm.cli.main(list(argv))
    sys.stdout.flush()
    child = {"started": STARTED, "import": [began, imported], **tracer.dump()}
    Path(trace_file).write_text(json.dumps(child))
    return code


def trace(workload: str, seed: str, items: str, workdir: str, spans_file: str) -> int:
    import run

    metrics, loop = run.traced_pass(
        workload, int(seed), int(items), Path(workdir), spans_file=Path(spans_file)
    )
    print(json.dumps(metrics))
    return 1 if loop.errors else 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    result = {"setup": setup, "cli": cli, "trace": trace}[mode](*rest)
    sys.exit(result or 0)
