"""Tracer that wraps the public functions of the quasiherm package from outside.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper in *every* ``quasiherm`` module namespace that holds the
original.  Patching only the defining module is not enough: ``models`` and
``cli`` import ``solve_metric_space`` and friends by name, so a wrapper placed
on ``dieudonne.solve_metric_space`` alone would see none of the solves a
sweep makes.

Spans are kept in memory as ``[name, parent, start, end]`` lists (the span id
is the list index) and written out by the caller at the end of a run.  A few
hot methods are counted instead of spanned, which keeps the overhead of the
random-number draws low.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

#: the layers; ``symmetry`` is left out because no pipeline or CLI path calls it
LAYERS = ("matrixcore", "dieudonne", "factorchain", "evolution", "models", "cli")
#: library layers whose summed self time is reported as ``<layer>.self_s``
LIBRARY_LAYERS = LAYERS[:-1]
ITEM = "bench.item"

#: per-layer metric names and units, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "models.rng.draws": "count",
    "models.random_qh.self_s": "s",
    "models.random_hermitian_invertible.self_s": "s",
    "models.random_qh.accept_ratio": "ratio",
    "dieudonne.solve_metric_space.calls": "count",
    "dieudonne.solve_metric_space.self_s": "s",
    "dieudonne.metric_from_weights.self_s": "s",
    "factorchain.build_chain.self_s": "s",
    "factorchain.verify_chain.self_s": "s",
    "factorchain.verify_theorem1.self_s": "s",
    "evolution.norm_trajectory.self_s": "s",
    "matrixcore.mat_exp.calls": "count",
    "matrixcore.mat_exp.self_s": "s",
    "matrixcore.mat_exp.pade_frac": "ratio",
    "matrixcore.eig.calls": "count",
    "matrixcore.eig.self_s": "s",
    "matrixcore.inverse.calls": "count",
    "matrixcore.inverse.self_s": "s",
    "matrixcore.is_positive_definite.self_s": "s",
    "models.sweep_exceptional.self_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LIBRARY_LAYERS},
    "trace.overhead_frac": "ratio",
    "trace.untraced_frac": "ratio",
}


class Tracer:
    """Span recorder plus call counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else None, 0.0, 0.0])
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid][2] = start
                spans[sid][3] = clock()
                stack.pop()

        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions of every loaded layer module."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"quasiherm.{layer}")
            if module is None:
                continue
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "quasiherm" and not modname.startswith("quasiherm."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(module, attr, wrappers[value])

        import scipy.linalg

        from quasiherm.models import DeterministicRng

        self._set(scipy.linalg, "expm", self._counted("scipy.expm", scipy.linalg.expm))
        self._set(DeterministicRng, "normal", self._counted("rng.draws", DeterministicRng.normal))
        self._set(DeterministicRng, "uniform", self._counted("rng.draws", DeterministicRng.uniform))
        self._patch_draw_attempts(DeterministicRng)

    def _patch_draw_attempts(self, rng_class) -> None:
        """Count the ``h`` and ``Omega`` draws ``random_qh`` makes, accepted or not.

        ``random_qh`` draws ``h`` with ``hermitian_matrix`` (which itself calls
        ``complex_normal_matrix``) and ``Omega`` with ``complex_normal_matrix``;
        a draw counts when the innermost open span is ``random_qh``.
        """
        hermitian, complex_normal = rng_class.hermitian_matrix, rng_class.complex_normal_matrix
        inside_hermitian = [0]

        def hermitian_matrix(rng, d):
            if self._current() == "models.random_qh":
                self.counts["random_qh.attempts"] += 1
            inside_hermitian[0] += 1
            try:
                return hermitian(rng, d)
            finally:
                inside_hermitian[0] -= 1

        def complex_normal_matrix(rng, d):
            if not inside_hermitian[0] and self._current() == "models.random_qh":
                self.counts["random_qh.attempts"] += 1
            return complex_normal(rng, d)

        self._set(rng_class, "hermitian_matrix", hermitian_matrix)
        self._set(rng_class, "complex_normal_matrix", complex_normal_matrix)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- merging a child process's trace ---------------------------------

    def adopt(self, child: dict, item: int, spawned: float) -> None:
        """Append the spans of a traced CLI child under item span ``item``.

        ``child`` is what ``child.py cli`` writes: its start time, the import
        interval and its own spans and counts.  ``perf_counter`` reads the
        system-wide monotonic clock on Linux, so parent and child times compare.
        """
        self.spans.append(["cli.interpreter", item, spawned, child["started"]])
        self.spans.append(["cli.import", item, *child["import"]])
        offset = len(self.spans)
        for name, parent, start, end in child["spans"]:
            self.spans.append([name, item if parent is None else parent + offset, start, end])
        self.counts.update(child["counts"])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def layer_metrics(tracer: Tracer, items: int, traced_wall: float,
                  untraced_wall: float | None = None) -> dict:
    """Per-item layer metrics from one traced pass of ``items`` items."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_time: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    covered = 0.0
    for sid, (name, parent, start, end) in enumerate(spans):
        self_time[name] += end - start - child_time[sid]
        calls[name] += 1
        if parent is not None and spans[parent][0] == ITEM:
            covered += end - start

    counts = tracer.counts
    totals = {
        "models.rng.draws": counts["rng.draws"],
        "cli.interpreter_s": self_time["cli.interpreter"],
        "cli.import_s": self_time["cli.import"],
    }
    for name in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            totals[name] = calls[base]
        elif kind == "self_s" and base in LIBRARY_LAYERS:
            totals[name] = sum(t for n, t in self_time.items() if n.startswith(base + "."))
        elif kind == "self_s":
            totals[name] = self_time[base]
    metrics = {name: total / items for name, total in totals.items()}

    attempts = counts["random_qh.attempts"]
    metrics["models.random_qh.accept_ratio"] = (
        2 * calls["models.random_qh"] / attempts if attempts else 0.0
    )
    exps = calls["matrixcore.mat_exp"]
    metrics["matrixcore.mat_exp.pade_frac"] = counts["scipy.expm"] / exps if exps else 0.0
    metrics["trace.untraced_frac"] = 1.0 - covered / traced_wall
    if untraced_wall is not None:
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in LAYER_METRICS.items()
        if name in metrics
    }
