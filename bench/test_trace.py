"""Checks of the benchmark's own tracer and span attribution.

    python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

from quasiherm import cli, dieudonne, models  # noqa: E402


def test_install_rebinds_every_namespace_and_uninstall_restores():
    original = dieudonne.solve_metric_space
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = dieudonne.solve_metric_space
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert models.solve_metric_space is wrapped
        assert cli.solve_metric_space is wrapped
    finally:
        tracer.uninstall()
    assert dieudonne.solve_metric_space is original
    assert models.solve_metric_space is original
    assert cli.solve_metric_space is original


def _spans_per_item(wl, i: int) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        wl.run_item(i)
    finally:
        tracer.uninstall()
    return tracer


def _calls(tracer: Tracer, name: str) -> int:
    return sum(span[0] == name for span in tracer.spans)


def test_ensemble_makes_n_plus_three_eig_calls_per_system(tmp_path):
    wl = workloads.make("ensemble", 3, tmp_path)
    for i in range(wl.cycle):
        _, N, _ = wl.system(i)
        assert _calls(_spans_per_item(wl, i), "matrixcore.eig") == N + 3


def test_sweep_solves_once_per_real_phase_grid_point(tmp_path):
    wl = workloads.make("sweep", 3, tmp_path)
    lo, hi = wl.grid(0)
    real = sum(models.sweep_exceptional(lambda g: models.pt_chain(wl.dim, g), lo, hi,
                                        wl.samples).reality_flags)
    assert real >= 2
    assert _calls(_spans_per_item(wl, 0), "dieudonne.solve_metric_space") == real


def test_dynamics_makes_two_mat_exp_calls_per_sample(tmp_path):
    wl = workloads.make("dynamics", 3, tmp_path)
    spans = _spans_per_item(wl, 0).spans
    trajectories = [sid for sid, span in enumerate(spans) if span[0] == "evolution.norm_trajectory"]
    assert len(trajectories) == len(wl.dims)
    for sid in trajectories:
        exps = sum(span[0] == "matrixcore.mat_exp" and span[1] == sid for span in spans)
        assert exps == 2 * len(wl.times)


def test_cli_child_spans_reach_the_parent_trace(tmp_path):
    metrics, loop = run.traced_pass("cli_cold", 3, 1, tmp_path)
    assert not loop.errors
    # item 0 is `analyze`: one eig in spectral_reality, one in the command
    assert metrics["matrixcore.eig.calls"]["value"] == 2
    assert metrics["cli.import_s"]["value"] > 0
    assert metrics["cli.main.self_s"]["value"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_reports_untraced_fraction(name, tmp_path):
    metrics, loop = run.traced_pass(name, 3, 1, tmp_path, untraced_wall=1.0)
    assert not loop.errors
    assert 0.0 <= metrics["trace.untraced_frac"]["value"] < 1.0
    assert "trace.overhead_frac" in metrics


def test_benchmark_json_lists_the_reported_layer_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_tail_has_ten_items_beyond_it():
    latencies = [float(x) for x in range(1, 41)]
    value, percentile = run.tail(latencies)
    assert sum(x > value for x in latencies) == 10
    assert percentile == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)
