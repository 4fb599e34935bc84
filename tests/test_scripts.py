"""The example scripts run end to end against the public API.

Each script runs in a fresh interpreter from an empty working directory,
so it can rely on nothing but the installed package and its own paths.
The dephasing report's verdicts are pinned literally: the static qubit's
condition holds at every T, the driven one only on the window 5 <= T <= 10.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name, args", [
    ("lz_time_sweep.py", ["--points", "3", "--t-max", "64"]),
    ("frozen_shortcut_demo.py", []),
])
def test_script_exits_zero(tmp_path, name, args):
    assert run_script(name, args, tmp_path)


def test_dephasing_report_verdicts(tmp_path):
    out = run_script("dephasing_jordan_report.py", [], tmp_path)
    driven = out.split("== transverse-driven dephasing qubit ==")[1]
    lines = driven.splitlines()
    assert "first satisfying T: 5.0" in lines
    assert "last satisfying T before failure: 10.0" in lines
    for pair, label in (("(0, 1)", "decaying"), ("(0, 2)", "decaying"),
                        ("(0, 3)", "decaying"), ("(1, 2)", "finite-window"),
                        ("(1, 3)", "finite-window"),
                        ("(2, 3)", "oscillatory-RL")):
        assert f"pair {pair}: {label}" in lines
