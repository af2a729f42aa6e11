import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasiherm import errors
from quasiherm import matrixcore as mc
from quasiherm.cli import main
from quasiherm.errors import DegenerateSpectrumWarning
from quasiherm.evolution import TrajectoryRecord
from quasiherm.factorchain import ObservableChain, build_chain
from quasiherm.models import parity, pt_chain, random_qh, toy_2x2, toy_2x2_metric

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def toy_file(tmp_path):
    return write_json(tmp_path / "toy.json", mc.matrix_to_json(toy_2x2(2.0)))


@pytest.fixture
def parity_params_file(tmp_path):
    return write_json(tmp_path / "params.json", [mc.matrix_to_json(parity(2))])


def run(argv):
    return main(argv)


def write_json(path, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def json_and_csv(argv, tmp_path):
    """The JSON report and the CSV rows (header first) of one command run twice."""
    as_json, as_csv = tmp_path / "report.json", tmp_path / "report.csv"
    assert run(argv + ["--out", str(as_json)]) == 0
    assert run(argv + ["--format", "csv", "--out", str(as_csv)]) == 0
    rows = [line.split(",") for line in as_csv.read_text().splitlines()]
    return json.loads(as_json.read_text()), rows


def assert_same_floats(cells, values):
    """Each CSV cell reads back to its JSON value bit for bit (sign of zero included)."""
    assert len(cells) == len(values)
    assert [float(c).hex() for c in cells] == [float(v).hex() for v in values]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_toy(toy_file, tmp_path):
    out = tmp_path / "report.json"
    assert run(["analyze", "--input", toy_file, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    eigs = [complex(e["re"], e["im"]) for e in report["eigenvalues"]]
    np.testing.assert_allclose(eigs, [-2.0, 2.0], atol=1e-12)
    assert report["spectral_reality"] is True


def test_analyze_broken_phase_exits_one(tmp_path):
    path = write_json(tmp_path / "broken.json", mc.matrix_to_json(pt_chain(2, 1.5)))
    assert run(["analyze", "--input", path]) == 1


def test_analyze_csv_format(tmp_path):
    H, _ = random_qh(5, 3)
    path = write_json(tmp_path / "H.json", mc.matrix_to_json(H))
    report, rows = json_and_csv(["analyze", "--input", path], tmp_path)
    assert rows[0] == ["re", "im"]
    assert len(rows) == 6
    for part, column in (("re", 0), ("im", 1)):
        assert_same_floats([r[column] for r in rows[1:]], [e[part] for e in report["eigenvalues"]])


def test_analyze_garbage_input_exits_two(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert run(["analyze", "--input", str(path)]) == 2


def test_analyze_missing_file_exits_two(tmp_path):
    assert run(["analyze", "--input", str(tmp_path / "absent.json")]) == 2


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_metric_toy(toy_file, tmp_path):
    out = tmp_path / "metric.json"
    assert run(["metric", "--input", toy_file, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["solution_space_dim"] == 2
    assert report["family"]["cluster_sizes"] == [1, 1]
    assert report["positive_definite"] is True
    assert report["qh_residual"] <= 1e-10
    theta = mc.matrix_from_json(report["default_metric"])
    assert abs(theta[0, 1]) < 1e-12
    assert theta[0, 0].real == pytest.approx(4.0 * theta[1, 1].real, rel=1e-10)


def test_metric_report_of_a_large_cluster_stays_small(tmp_path):
    # I_24's family has 576 dimensions; the report holds O(d^2) numbers
    path = write_json(tmp_path / "H.json", mc.matrix_to_json(np.eye(24)))
    out = tmp_path / "metric.json"
    with pytest.warns(DegenerateSpectrumWarning):
        assert run(["metric", "--input", path, "--out", str(out)]) == 0
    assert out.stat().st_size < 1_000_000
    report = json.loads(out.read_text())
    family, theta = report["family"], mc.matrix_from_json(report["default_metric"])
    assert (report["solution_space_dim"], family["cluster_sizes"]) == (576, [24])
    L = mc.matrix_from_json(family["left_vectors"])
    assert mc.fro((L * family["kappa_default"]) @ L.conj().T - theta) <= 1e-12 * mc.fro(theta)


def test_metric_broken_phase_exits_one(tmp_path):
    path = write_json(tmp_path / "broken.json", mc.matrix_to_json(pt_chain(2, 1.5)))
    assert run(["metric", "--input", path]) == 1


@pytest.mark.parametrize("command", ["metric", "chain", "evolve"])
def test_every_command_judges_reality_at_its_tol(tmp_path, capsys, command):
    # |Im lambda| / ||H|| = 2.2e-7: complex at the default --tol 1e-9, real at 1e-6
    H = write_json(tmp_path / "near.json", mc.matrix_to_json(pt_chain(2, 1.0 + 1e-13)))
    psi = write_json(tmp_path / "psi.json", mc.vector_to_json([1.0, 0.0]))
    argv = [command, "--input", H] + (["--state", psi] if command == "evolve" else [])
    assert run(argv) == 1
    assert "ComplexSpectrum: max |Im eigenvalue| 4.470e-07 exceeds 1.0e-09 * ||H||" in (
        capsys.readouterr().err
    )
    assert run(["analyze", "--input", H, "--tol", "1e-6"]) == 0
    capsys.readouterr()
    # real, as analyze says; the metric then fails its positivity gate
    assert run(argv + ["--tol", "1e-6"]) == 1
    captured = capsys.readouterr()
    assert "ComplexSpectrum" not in captured.err
    assert '"positive_definite": false' in captured.out or "NotPositiveDefinite" in captured.err


# ---------------------------------------------------------------------------
# chain / verify
# ---------------------------------------------------------------------------

def test_chain_toy_with_parity_parameter(toy_file, parity_params_file, tmp_path):
    out = tmp_path / "chain.json"
    code = run(
        [
            "chain",
            "--input",
            toy_file,
            "--params",
            parity_params_file,
            "--n-factors",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ladder"]["overall_pass"] is True
    assert report["theorem1"]["overall_pass"] is True
    names = [r["relation"] for r in report["ladder"]["relations"]]
    assert names[:3] == ["able3", "able2", "able1"]
    assert all(r["residual"] <= 1e-9 for r in report["ladder"]["relations"])
    # the emitted charge is parity^-1 times the emitted metric
    theta = mc.matrix_from_json(report["chain"]["observables"][-2])
    charge = mc.matrix_from_json(report["chain"]["observables"][1])
    np.testing.assert_allclose(charge, mc.inverse(parity(2)) @ theta, atol=1e-13)


def test_chain_random_params_roundtrip_through_verify(toy_file, tmp_path):
    chain_out = tmp_path / "chain.json"
    assert (
        run(
            [
                "chain",
                "--input",
                toy_file,
                "--n-factors",
                "4",
                "--seed",
                "3",
                "--out",
                str(chain_out),
            ]
        )
        == 0
    )
    emitted = json.loads(chain_out.read_text())
    verify_out = tmp_path / "verify.json"
    assert (
        run(["verify", "--input", str(chain_out), "--out", str(verify_out)]) == 0
    )
    reverified = json.loads(verify_out.read_text())
    first = {r["relation"]: r["residual"] for r in emitted["ladder"]["relations"]}
    second = {r["relation"]: r["residual"] for r in reverified["ladder"]["relations"]}
    assert first.keys() == second.keys()
    for name in first:
        assert abs(first[name] - second[name]) <= 1e-12


def test_verify_corrupted_factor_fails_hermiticity_tag(toy_file, tmp_path):
    chain_out = tmp_path / "chain.json"
    run(
        [
            "chain",
            "--input",
            toy_file,
            "--n-factors",
            "4",
            "--seed",
            "1",
            "--out",
            str(chain_out),
        ]
    )
    report = json.loads(chain_out.read_text())
    chain_obj = report["chain"]
    last = chain_obj["factors"][-1]
    bumped = np.array(last["im"]).reshape(2, 2)
    bumped[0, 1] += 0.25      # breaks Hermiticity of Z_N only
    chain_obj["factors"][-1]["im"] = [float(x) for x in bumped.ravel()]
    corrupted_path = write_json(tmp_path / "corrupted.json", chain_obj)
    verify_out = tmp_path / "verify.json"
    assert run(["verify", "--input", corrupted_path, "--out", str(verify_out)]) == 1
    reverified = json.loads(verify_out.read_text())
    failed = [
        r["relation"] for r in reverified["ladder"]["relations"] if not r["pass"]
    ]
    assert "deble1" in failed


def test_verify_zero_factor_fails_its_relations(toy_file, tmp_path):
    chain_out = tmp_path / "chain.json"
    assert run(["chain", "--input", toy_file, "--n-factors", "3", "--out", str(chain_out)]) == 0
    chain_obj = json.loads(chain_out.read_text())["chain"]
    chain_obj["factors"][0] = mc.matrix_to_json(np.zeros((2, 2)))
    zeroed = write_json(tmp_path / "zeroed.json", chain_obj)
    verify_out = tmp_path / "verify.json"
    assert run(["verify", "--input", zeroed, "--out", str(verify_out)]) == 1
    report = json.loads(verify_out.read_text())
    failed = [r["relation"] for r in report["theorem1"]["relations"] if not r["pass"]]
    assert {"product[Lambda_1]", "metric-identity[k=0]"} <= set(failed)


def test_verify_ignores_the_keys_of_older_chain_files(toy_file, tmp_path, capsys):
    report = tmp_path / "chain.json"
    assert run(["chain", "--input", toy_file, "--n-factors", "3", "--out", str(report)]) == 0
    chain_obj = json.loads(report.read_text())["chain"]
    current = write_json(tmp_path / "current.json", chain_obj)
    chain = ObservableChain.from_json(chain_obj)
    params = chain.suffix_products()[1:]
    params[0] = 7 * params[0]
    older = write_json(tmp_path / "older.json", {
        **chain_obj, "H": chain_obj["observables"][-1], "Theta": chain_obj["observables"][-2],
        "params": [mc.matrix_to_json(M) for M in params],
    })
    capsys.readouterr()
    assert run(["verify", "--input", current]) == 0
    expected = capsys.readouterr().out
    assert run(["verify", "--input", older]) == 0
    assert capsys.readouterr().out == expected


def verify_scaled_toy_chain(tmp_path, scale):
    """``verify`` in a fresh interpreter (default warning filters) on the toy
    chain with every stored entry times ``scale``."""
    chain = build_chain(toy_2x2(2.0), toy_2x2_metric(2.0), [parity(2)]).to_json()
    for matrix in chain["observables"] + chain["factors"]:
        matrix["re"] = [scale * x for x in matrix["re"]]
        matrix["im"] = [scale * x for x in matrix["im"]]
    path = write_json(tmp_path / "huge.json", chain)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "quasiherm.cli", "verify", "--input", path],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_verify_of_overflowing_factor_products_exits_one(tmp_path):
    proc = verify_scaled_toy_chain(tmp_path, 1e200)
    assert proc.returncode == 1, proc.stderr
    assert "quasiherm: FactorizationMismatch: a product of the chain factors overflows" in proc.stderr
    assert "Warning" not in proc.stderr


def test_verify_of_an_overflowing_metric_identity_exits_one_quietly(tmp_path):
    # the factor products stay finite; Lambda_0^dagger times the longest one does not
    proc = verify_scaled_toy_chain(tmp_path, 1e150)
    assert proc.returncode == 1, proc.stderr
    assert "Warning" not in proc.stderr
    relations = json.loads(proc.stdout)["theorem1"]["relations"]
    assert not any(r["pass"] for r in relations if r["relation"].startswith("metric-identity"))


def test_non_finite_report_numbers_are_written_as_null(tmp_path):
    proc = verify_scaled_toy_chain(tmp_path, 1e150)
    assert proc.returncode == 1, proc.stderr

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads(proc.stdout, parse_constant=refuse)
    relations = report["ladder"]["relations"] + report["theorem1"]["relations"]
    residuals = {r["relation"]: r["residual"] for r in relations}
    assert residuals["metric-identity[k=0]"] is None


@pytest.mark.parametrize(
    "field, value",
    [("N", "x"), ("dim", "two")] + [(f, v) for f in ("N", "dim") for v in (2.5, "2", True)],
)
def test_verify_non_integer_header_exits_two(toy_file, tmp_path, field, value, capsys):
    chain_out = tmp_path / "chain.json"
    assert run(["chain", "--input", toy_file, "--out", str(chain_out)]) == 0
    chain_obj = json.loads(chain_out.read_text())["chain"]
    chain_obj[field] = value
    bad = write_json(tmp_path / "bad.json", chain_obj)
    assert run(["verify", "--input", bad]) == 2
    assert "input error: InputFormatError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, entries",
    [
        ("analyze", [[1e200, 1.0], [1e200, -1e200]]),
        ("metric", [[1e200, 1.0], [1e200, -1e200]]),
        ("chain", [[1e200, 1.0], [1e200, -1e200]]),
        ("chain", [[1e-300, 1e-310], [0.0, 2e-300]]),
    ],
    ids=["analyze-huge", "metric-huge", "chain-huge", "chain-tiny"],
)
def test_extreme_entry_scales_pass(command, entries, tmp_path):
    path = write_json(tmp_path / "H.json", mc.matrix_to_json(np.array(entries)))
    assert run([command, "--input", path, "--out", str(tmp_path / "out.json")]) == 0


def test_metric_large_dimension_passes(tmp_path):
    path = write_json(tmp_path / "H.json", mc.matrix_to_json(pt_chain(64, 0.5)))
    out = tmp_path / "metric.json"
    assert run(["metric", "--input", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["solution_space_dim"] == 64
    assert report["span_residual"] <= 1e-8


@pytest.mark.parametrize("command", ["metric", "chain", "evolve"])
@pytest.mark.parametrize("diagonal", [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0]], ids=["I3", "1-1-2"])
def test_degenerate_spectrum_passes(command, diagonal, tmp_path):
    argv = evolve_files(tmp_path, np.diag(diagonal), [1.0, 0.5, -0.25])
    if command != "evolve":
        argv = [command, *argv[1:3]]
    with pytest.warns(DegenerateSpectrumWarning):
        assert run(argv + ["--out", str(tmp_path / "out.json")]) == 0


def test_chain_wrong_param_count_exits_two(toy_file, parity_params_file):
    assert (
        run(
            [
                "chain",
                "--input",
                toy_file,
                "--params",
                parity_params_file,
                "--n-factors",
                "3",
            ]
        )
        == 2
    )


def test_chain_wrong_sized_param_exits_two(toy_file, tmp_path, capsys):
    params = write_json(tmp_path / "params.json", [mc.matrix_to_json(parity(3))])
    argv = ["chain", "--input", toy_file, "--params", params]
    assert run(argv) == 2
    assert "input error: DimensionMismatch" in capsys.readouterr().err


REPORTS = {
    "analyze": ["analyze", "--input", "{H}"],
    "metric": ["metric", "--input", "{H}"],
    "chain": ["chain", "--input", "{H}", "--n-factors", "3", "--seed", "5"],
    "verify": ["verify", "--input", "{chain}"],
    "evolve": ["evolve", "--input", "{H}", "--state", "{psi}", "--samples", "11"],
    "sweep": ["sweep", "--range-lo", "0", "--range-hi", "2", "--samples", "5"],
    "suite": ["suite", "--samples", "3"],
}


@pytest.mark.parametrize(
    "command, form",
    [(c, "json") for c in REPORTS] + [(c, "csv") for c in ("analyze", "evolve", "sweep")],
)
def test_chain_reports_are_deterministic(tmp_path, command, form):
    H, _ = random_qh(3, 2)
    files = {"H": write_json(tmp_path / "H.json", mc.matrix_to_json(H)),
             "psi": write_json(tmp_path / "psi.json", mc.vector_to_json(np.ones(3))),
             "chain": str(tmp_path / "chain.json")}
    assert run(["chain", "--input", files["H"], "--out", files["chain"]]) == 0
    argv = [arg.format(**files) for arg in REPORTS[command]] + ["--format", form] * (form == "csv")
    first, second = tmp_path / "a.out", tmp_path / "b.out"
    assert run(argv + ["--out", str(first)]) == 0
    assert run(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("command, form", [("analyze", "json"), ("sweep", "csv")])
def test_unwritable_out_is_an_io_error(toy_file, tmp_path, capsys, command, form):
    argv = [arg.format(H=toy_file) for arg in REPORTS[command]] + ["--format", form]
    assert run(argv + ["--out", str(tmp_path / "missing" / "report")]) == 2
    captured = capsys.readouterr()
    assert "quasiherm: i/o error" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_toy(toy_file, tmp_path):
    state = write_json(tmp_path / "state.json", mc.vector_to_json(np.array([1.0, 0.0])))
    out = tmp_path / "evolve.json"
    code = run(
        [
            "evolve",
            "--input",
            toy_file,
            "--state",
            state,
            "--t-max",
            "10",
            "--samples",
            "101",
            "--tol",
            "1e-8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["trajectory"]["drift"] <= 1e-8
    assert len(report["trajectory"]["times"]) == 101


def test_evolve_csv(toy_file, tmp_path):
    state = write_json(tmp_path / "state.json", mc.vector_to_json(np.array([1.0, 1.0])))
    out = tmp_path / "traj.csv"
    code = run(
        [
            "evolve",
            "--input",
            toy_file,
            "--state",
            state,
            "--samples",
            "11",
            "--tol",
            "1e-8",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("t,norm,re_psi0")
    assert len(lines) == 12

    H, _ = random_qh(3, 4)
    argv = evolve_files(tmp_path, H, [1.0, -2.5j, 1e-3]) + ["--samples", "11"]
    report, rows = json_and_csv(argv, tmp_path)
    trajectory = report["trajectory"]
    assert rows[0] == ["t", "norm"] + [f"{p}_psi{j}" for j in range(3) for p in ("re", "im")]
    assert_same_floats([r[0] for r in rows[1:]], trajectory["times"])
    assert_same_floats([r[1] for r in rows[1:]], trajectory["norms"])
    for row, state in zip(rows[1:], trajectory["states"], strict=True):
        assert_same_floats(row[2::2], state["re"])
        assert_same_floats(row[3::2], state["im"])


def test_evolve_json_builds_no_csv(tmp_path, monkeypatch):
    def refuse(record):
        raise AssertionError("CSV text built for a JSON report")

    monkeypatch.setattr(TrajectoryRecord, "to_csv", refuse)
    argv = evolve_files(tmp_path, toy_2x2(2.0), [1.0, 1.0]) + ["--samples", "11"]
    assert run(argv + ["--tol", "1e-8", "--out", str(tmp_path / "out.json")]) == 0


def evolve_files(tmp_path, H, psi):
    matrix = write_json(tmp_path / "H.json", mc.matrix_to_json(np.asarray(H)))
    state = write_json(tmp_path / "psi.json", mc.vector_to_json(np.asarray(psi)))
    return ["evolve", "--input", matrix, "--state", state]


def test_evolve_wrong_state_length_exits_two(tmp_path, capsys):
    argv = evolve_files(tmp_path, toy_2x2(2.0), [1.0, 0.0, 0.0])
    assert run(argv) == 2
    assert "input error: DimensionMismatch" in capsys.readouterr().err


def test_evolve_beyond_phase_resolution_exits_one(tmp_path, capsys):
    # ||H|| t ~ 1e101 resolves no phase of exp(-iHt): its squarings overflow
    H, _ = random_qh(6, 1)
    argv = evolve_files(tmp_path, 1e100 * H, np.ones(6))
    assert run(argv + ["--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert "ExponentialOverflow" in err
    assert "input error" not in err


#: ``random_qh(6, 1)`` scaled by these factors, in increasing order
EVOLVE_SCALES = [1.0, 1e2, 1e4, *(10.0**k for k in range(5, 13)), 1e50, 1e100, 1e200, 1e300]


def test_evolve_verdict_is_monotone_in_scale(tmp_path):
    # once ||H|| t is past what the drift gate resolves, no larger scale passes again;
    # each scale runs in a fresh interpreter where a numpy RuntimeWarning is an error
    H, _ = random_qh(6, 1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    codes = []
    for scale in EVOLVE_SCALES:
        argv = evolve_files(tmp_path, scale * H, np.ones(6)) + ["--out", os.devnull]
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", RUN_COMMANDS, json.dumps([argv])],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        codes += json.loads(proc.stdout)
    assert codes[0] == 0 and codes[-1] == 1
    assert codes == sorted(codes), dict(zip(EVOLVE_SCALES, codes))


@pytest.mark.parametrize("scale, code", [(1e-160, 0), (0.0, 2)], ids=["tiny", "zero"])
def test_evolve_state_scale(tmp_path, capsys, scale, code):
    H, _ = random_qh(4, 5)
    argv = evolve_files(tmp_path, H, scale * np.ones(4))
    assert run(argv + ["--out", str(tmp_path / "out.json")]) == code
    assert ("input error: ZeroState" in capsys.readouterr().err) == (code == 2)


def test_evolve_overflowing_exponential_exits_one(tmp_path, capsys):
    argv = evolve_files(tmp_path, [[1e200, 1.0], [1e200, -1e200]], [1.0, 0.0])
    assert run(argv + ["--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert "ExponentialOverflow" in err
    assert "input error" not in err


# ---------------------------------------------------------------------------
# sweep / suite
# ---------------------------------------------------------------------------

def test_sweep_lattice(tmp_path):
    out = tmp_path / "sweep.json"
    code = run(
        [
            "sweep",
            "--dim",
            "2",
            "--range-lo",
            "0",
            "--range-hi",
            "2",
            "--samples",
            "21",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["summary"]["critical_estimate"] - 1.0) <= 1e-5


def test_sweep_summary_says_how_the_estimate_was_made(tmp_path):
    out = tmp_path / "sweep.json"
    args = ["sweep", "--dim", "2", "--range-lo", "0", "--range-hi", "2", "--out", str(out)]
    assert run(args) == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["critical_method"] == "root"
    assert summary["critical_evaluations"] == 0  # the grid point 1.0 is the crossing
    assert abs(summary["critical_estimate"] - 1.0) <= 1e-15


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        [
            "sweep",
            "--range-lo",
            "0",
            "--range-hi",
            "2",
            "--samples",
            "5",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "parameter,reality,positivity"
    assert len(lines) == 6

    argv = ["sweep", "--dim", "3", "--range-lo", "-1e-3", "--range-hi", "2.3", "--samples", "7"]
    report, rows = json_and_csv(argv, tmp_path)
    summary = report["summary"]
    assert_same_floats([r[0] for r in rows[1:]], summary["parameter_values"])
    for column, key in ((1, "reality_flags"), (2, "positivity_flags")):
        cells = [r[column] for r in rows[1:]]
        assert set(cells) <= {"0", "1"}
        assert cells == [str(int(flag)) for flag in summary[key]]


def test_sweep_bad_range_exits_two():
    assert run(["sweep", "--range-lo", "2", "--range-hi", "0", "--samples", "5"]) == 2


def test_nonpositive_tolerance_exits_two(toy_file):
    assert run(["analyze", "--input", toy_file, "--tol", "-1"]) == 2


def test_suite_small_run(tmp_path):
    out = tmp_path / "suite.json"
    code = run(
        [
            "suite",
            "--seed",
            "0",
            "--samples",
            "6",
            "--n-factors",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert len(report["systems"]) == 6
    assert max(report["worst_residuals"].values()) <= 1e-9


# ---------------------------------------------------------------------------
# typed input errors: each exits 2 through errors.InputError
# ---------------------------------------------------------------------------

def test_exit_two_errors_are_the_input_errors():
    inputs = {name for name, cls in vars(errors).items()
              if isinstance(cls, type) and issubclass(cls, errors.InputError)}
    assert inputs == {"InputError", "InputFormatError", "BadRange", "BadDimension",
                      "DimensionMismatch", "ZeroParameter", "ZeroState"}


def edited_chain(tmp_path, toy_file, edit):
    """A ``chain`` report's chain object, changed by ``edit``, as a file."""
    report = tmp_path / "chain.json"
    assert run(["chain", "--input", toy_file, "--out", str(report)]) == 0
    chain = json.loads(report.read_text())["chain"]
    edit(chain)
    return write_json(tmp_path / "edited.json", chain)


def nan_state(tmp_path):
    nan = {"dim": 2, "re": [1.0, float("nan")], "im": [0.0, 0.0]}
    return write_json(tmp_path / "psi.json", nan)


def factor_3x3(chain):
    chain["factors"][0] = mc.matrix_to_json(np.eye(3))


#: case -> (argv from the tmp dir and the toy matrix file, phrase of the message)
INPUT_ERRORS = {
    "params-object": (
        lambda tmp, toy: ["chain", "--input", toy, "--params", write_json(tmp / "o.json", {})],
        "must hold a JSON array",
    ),
    "chain-n-factors-0": (
        lambda tmp, toy: ["chain", "--input", toy, "--n-factors", "0"], "at least 1"
    ),
    "suite-samples-0": (lambda tmp, toy: ["suite", "--samples", "0"], "must be positive"),
    "suite-n-factors-0": (lambda tmp, toy: ["suite", "--n-factors", "0"], "must be positive"),
    "evolve-nan-state": (
        lambda tmp, toy: ["evolve", "--input", toy, "--state", nan_state(tmp)], "non-finite"
    ),
    "verify-no-factors": (
        lambda tmp, toy: ["verify", "--input", edited_chain(tmp, toy, lambda c: c.pop("factors"))],
        "bad chain object",
    ),
    "verify-n-zero": (
        lambda tmp, toy: ["verify", "--input", edited_chain(
            tmp, toy, lambda c: c.update(N=0, observables=c["observables"][:2], factors=[])
        )],
        "inconsistent sequence lengths",
    ),
    "verify-3x3-factor": (
        lambda tmp, toy: ["verify", "--input", edited_chain(tmp, toy, factor_3x3)],
        "inconsistent matrix dimensions",
    ),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_input_error_exits_two(case, toy_file, tmp_path, capsys):
    argv, message = INPUT_ERRORS[case]
    args = argv(tmp_path, toy_file)
    capsys.readouterr()
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "quasiherm: input error: InputFormatError:" in err
    assert message in err


# ---------------------------------------------------------------------------
# flag validation and exit-code properties
# ---------------------------------------------------------------------------

def exit_code(argv):
    """``main``'s status, including argparse's exit on a refused flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("analyze", "--tol", "nan"),
        ("suite", "--tol", "inf"),
        ("evolve", "--t-max", "inf"),
        ("evolve", "--t-max", "nan"),
        ("sweep", "--range-hi", "inf"),
        ("sweep", "--range-lo", "nan"),
    ],
)
def test_nonfinite_value_exits_two_naming_its_flag(tmp_path, capsys, command, flag, value):
    evolve = evolve_files(tmp_path, toy_2x2(2.0), [1.0, 0.0])
    valid = {
        "analyze": ["analyze", "--input", evolve[2]],
        "evolve": evolve,
        "sweep": ["sweep", "--range-lo", "0", "--range-hi", "2"],
        "suite": ["suite", "--samples", "1"],
    }[command]
    assert exit_code(valid + [flag, value]) == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: {value!r} is not a finite number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, values, code, message",
    [
        ("sweep", ["--range-lo", "-1e-3", "--range-hi", "2"], 0, None),
        ("sweep", ["--range-lo", "-2E0", "--range-hi", "-1e-3"], 0, None),
        ("sweep", ["--range-l", "-1e-3", "--range-h", "2"], 0, None),
        ("sweep", ["--range-lo", "0", "--range-hi", "1", "--tol", "-1e-3"], 2,
         "--tol must be positive"),
        ("evolve", ["--t-max", "-1e-3"], 2, "--t-max positive"),
    ],
)
def test_negative_exponent_form_is_a_flag_value(tmp_path, capsys, command, values, code, message):
    argv = evolve_files(tmp_path, toy_2x2(2.0), [1.0, 0.0]) if command == "evolve" else [command]
    assert exit_code(argv + values + ["--out", os.devnull]) == code
    err = capsys.readouterr().err
    assert "expected one argument" not in err
    if message:
        assert message in err


@pytest.mark.parametrize("command", ["metric", "chain", "verify", "suite"])
def test_format_is_refused_where_no_csv_exists(toy_file, capsys, command):
    argv = [command] + ([] if command == "suite" else ["--input", toy_file])
    assert exit_code(argv + ["--format", "csv"]) == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


MALFORMED = {
    "truncated re": lambda obj: {**obj, "re": obj["re"][:-1]},
    "dim mismatch": lambda obj: {**obj, "dim": obj["dim"] + 1},
    "missing im": lambda obj: {"dim": obj["dim"], "re": obj["re"]},
    "nan entry": lambda obj: {**obj, "re": [float("nan")] + obj["re"][1:]},
    "float dim": lambda obj: {**obj, "dim": float(obj["dim"])},
    "string dim": lambda obj: {**obj, "dim": str(obj["dim"])},
}


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 8),
    st.integers(1, 5),
    st.sampled_from(sorted(MALFORMED)),
    st.sampled_from(["analyze", "metric", "chain"]),
)
def test_exit_codes_property(seed, dim, N, malformation, command):
    H, _ = random_qh(dim, seed)
    with tempfile.TemporaryDirectory() as tmp:
        matrix, chain, bad = (os.path.join(tmp, f) for f in ("H.json", "chain.json", "bad.json"))
        write_json(matrix, mc.matrix_to_json(H))
        quiet = ["--out", os.devnull]
        assert main(["analyze", "--input", matrix] + quiet) == 0
        argv = ["chain", "--input", matrix, "--n-factors", str(N), "--seed", str(seed)]
        assert main(argv + ["--out", chain]) == 0
        assert main(["verify", "--input", chain] + quiet) == 0

        # each of the 2N + 2 stored matrices feeds some relation
        report = mc.read_json(chain, "chain")
        stored = report["chain"]["observables"] + report["chain"]["factors"]
        matrix = stored[seed % len(stored)]
        matrix["re"][0] += 0.1 * max(map(abs, matrix["re"] + matrix["im"]))
        write_json(chain, report)
        assert main(["verify", "--input", chain] + quiet) == 1

        write_json(bad, MALFORMED[malformation](mc.matrix_to_json(H)))
        assert main([command, "--input", bad] + quiet) == 2


# ---------------------------------------------------------------------------
# adversarial valid inputs in a fresh interpreter
# ---------------------------------------------------------------------------

#: runs ``main`` on each argv of a JSON list and prints the exit codes
RUN_COMMANDS = """
import json, sys
from quasiherm.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""

ADVERSARIAL = {
    "1x1": [[2.0]],
    "zero": np.zeros((2, 2)),
    "jordan": [[1.0, 1.0], [0.0, 1.0]],
    "identity": np.eye(3),
    "mixed diagonal": np.diag([1e-300, 1e300]),
    "subnormal": toy_2x2(2.0) * 2.0**-1060,
    "exact EP2": pt_chain(2, 1.0),
    "exact EP3": [[2j, 1.0, 0.0], [2.0, 0.0, 1.0], [0.0, 2.0, -2j]],  # nilpotent
    "max float": np.full((2, 2), 1.7e308),  # eigenvalue 3.4e308 is beyond the range
    "max float skew": [[0.0, 1.7e308], [-1.7e308, 0.0]],  # Hermitian defect 3.4e308
}
QH_4_3 = random_qh(4, 3)[0]
#: ``random_qh(4, 3) * 2**k`` over every k from all-zero entries up to the top binade
SCALED_QH = st.integers(-1100, 1024 - int(np.frexp(np.abs(QH_4_3.view(float)))[1].max())).map(
    lambda k: np.ldexp(QH_4_3.view(float), k).view(complex)
)


@settings(max_examples=8, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(list(ADVERSARIAL.values())), SCALED_QH), max_size=3))
@example(list(ADVERSARIAL.values()))
def test_adversarial_inputs_exit_cleanly(matrices):
    # each command exits 0, 1 or 2 with a strict JSON report, and no numpy warning escapes
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for i, H in enumerate([random_qh(3, 1)[0], *matrices]):
            H = np.asarray(H, dtype=complex)
            matrix = write_json(os.path.join(tmp, f"H{i}.json"), mc.matrix_to_json(H))
            state = write_json(os.path.join(tmp, f"psi{i}.json"),
                               mc.vector_to_json(np.linspace(1.0, 2.0, len(H))))
            for command in ("analyze", "metric", "chain", "evolve"):
                argv = [command, "--input", matrix, "--out", os.path.join(tmp, f"{command}{i}")]
                runs.append(argv + ["--state", state] * (command == "evolve"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", RUN_COMMANDS, json.dumps(runs)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        codes = json.loads(proc.stdout)
        assert codes[:4] == [0, 0, 0, 0]  # the plain quasi-Hermitian system passes
        assert set(codes) <= {0, 1, 2}

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        for argv in runs:
            if os.path.exists(argv[4]):
                with open(argv[4]) as fh:
                    json.load(fh, parse_constant=refuse)
