"""The package and the CLI commands that compute no exponential load no scipy.

Each check runs in a fresh interpreter, since the test process itself has
scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quasiherm import matrixcore as mc
from quasiherm.models import random_qh

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: runs ``main`` on each (name, argv) pair and reports exit code and scipy state
RUN_COMMANDS = """
import json, sys
from quasiherm.cli import main
seen = {name: [main(argv), "scipy" in sys.modules] for name, argv in json.loads(sys.argv[1])}
print(json.dumps(seen))
"""


def fresh_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["quasiherm", "quasiherm.cli"])
def test_import_loads_no_scipy(module):
    out = fresh_python("-c", f"import sys, {module}; print('scipy' in sys.modules)")
    assert out.strip() == "False"


def test_only_an_exponential_loads_scipy(tmp_path):
    H, _ = random_qh(3, 1)
    matrix, state, chain = (str(tmp_path / f) for f in ("H.json", "psi.json", "chain.json"))
    Path(matrix).write_text(json.dumps(mc.matrix_to_json(H)))
    Path(state).write_text(json.dumps(mc.vector_to_json(np.ones(3))))
    quiet = ["--out", os.devnull]
    commands = [
        ("analyze", ["analyze", "--input", matrix] + quiet),
        ("metric", ["metric", "--input", matrix] + quiet),
        ("chain", ["chain", "--input", matrix, "--n-factors", "3", "--out", chain]),
        ("verify", ["verify", "--input", chain] + quiet),
        ("sweep", ["sweep", "--dim", "2", "--range-lo", "0", "--range-hi", "2"] + quiet),
        ("evolve", ["evolve", "--input", matrix, "--state", state] + quiet),
    ]
    seen = json.loads(fresh_python("-c", RUN_COMMANDS, json.dumps(commands)))
    assert seen == {
        "analyze": [0, False],
        "metric": [0, False],
        "chain": [0, False],
        "verify": [0, False],
        "sweep": [0, False],
        "evolve": [0, True],
    }
