"""The package and every CLI command run on numpy alone: scipy is a test oracle.

Each check runs in a fresh interpreter, since the test process itself may
have scipy loaded.
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


def seven_commands(tmp_path):
    """(name, argv) of each subcommand on small inputs, all of which exit 0."""
    H, _ = random_qh(3, 1)
    matrix, state, chain = (str(tmp_path / f) for f in ("H.json", "psi.json", "chain.json"))
    Path(matrix).write_text(json.dumps(mc.matrix_to_json(H)))
    Path(state).write_text(json.dumps(mc.vector_to_json(np.ones(3))))
    quiet = ["--out", os.devnull]
    return [
        ("analyze", ["analyze", "--input", matrix] + quiet),
        ("metric", ["metric", "--input", matrix] + quiet),
        ("chain", ["chain", "--input", matrix, "--n-factors", "3", "--out", chain]),
        ("verify", ["verify", "--input", chain] + quiet),
        ("sweep", ["sweep", "--dim", "2", "--range-lo", "0", "--range-hi", "2"] + quiet),
        ("evolve", ["evolve", "--input", matrix, "--state", state] + quiet),
        ("suite", ["suite", "--samples", "3"] + quiet),
    ]


def test_no_command_loads_scipy(tmp_path):
    commands = seven_commands(tmp_path)
    seen = json.loads(fresh_python("-c", RUN_COMMANDS, json.dumps(commands)))
    assert seen == {name: [0, False] for name, _ in commands}


def test_every_command_runs_where_scipy_cannot_be_imported(tmp_path):
    # a None entry in sys.modules makes every ``import scipy...`` raise ImportError
    commands = seven_commands(tmp_path)
    blocked = 'import sys; sys.modules["scipy"] = None\n' + RUN_COMMANDS
    seen = json.loads(fresh_python("-c", blocked, json.dumps(commands)))
    assert {name: code for name, (code, _) in seen.items()} == {name: 0 for name, _ in commands}
