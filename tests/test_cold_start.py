"""Which modules a command loads: scipy stays off the common paths.

Loading the package is the largest single cost of a short run, and scipy
is most of it.  Each case starts a fresh interpreter, runs commands
through ``cli.main`` and reports the scipy modules in ``sys.modules``
afterwards; sweeps are also held to load no process pool.  This checks
what is imported, not how long it takes, so it does not depend on the
speed of the machine.  A static scan backs this up: no module of the
package imports scipy at module level.  The bare
``import adiakit.cli`` is also held to a fixed set of package modules and
kept free of the numpy and standard-library parts that only some paths
use.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import adiakit

SRC = Path(adiakit.__file__).resolve().parents[1]
SCENARIOS = Path(__file__).resolve().parents[1] / "scripts" / "scenarios"
LZ = str(SCENARIOS / "landau_zener.json")
DEPHASING = str(SCENARIOS / "dephasing_qubit.json")

# an amplitude-damped, transversely driven qubit: four distinct
# eigenvalues of L(s) all along the schedule, so every Jordan block is 1x1
DAMPED_QUBIT = {
    "schema": 1,
    "kind": "open",
    "dimension": 2,
    "hamiltonian_terms": [
        {"matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
         "envelope": {"kind": "constant", "value": 1.0}},
        {"matrix": [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
         "envelope": {"kind": "linear", "start": 0.2, "end": 0.6}},
    ],
    "lindblad_terms": [
        {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
         "envelope": {"kind": "constant", "value": 0.5}},
    ],
    "initial_state": [[[0.7, 0.0], [0.2, 0.1]], [[0.2, -0.1], [0.3, 0.0]]],
    "total_time": 10.0,
    "T_grid": [2.0, 20.0],
    "grid_points": 101,
    "output": {"format": "json"},
}

# an amplitude-damped qubit driven at its exceptional point, scaled by
# (1 + 0.2 s)^2: L(s) keeps one defective 2x2 Jordan block all along
DEFECTIVE_QUBIT = {
    "schema": 1,
    "kind": "open",
    "dimension": 2,
    "hamiltonian_terms": [
        {"matrix": [[[0.0, 0.0], [0.125, 0.0]], [[0.125, 0.0], [0.0, 0.0]]],
         "envelope": {"kind": "polynomial", "coeffs": [1.0, 0.4, 0.04]}},
    ],
    "lindblad_terms": [
        {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
         "envelope": {"kind": "linear", "start": 1.0, "end": 1.2}},
    ],
    "initial_state": [[[0.8, 0.0], [0.1, 0.0]], [[0.1, 0.0], [0.2, 0.0]]],
    "total_time": 6.0,
    "grid_points": 101,
    "output": {"format": "json"},
}

RUNNER = """
import json, sys
import numpy as np
import adiakit.cli as cli
from adiakit.closed import coefficient_dynamics
commands, flows = json.loads(sys.argv[1])
codes = [cli.main(argv) for argv in commands]
for path, T, points in flows:
    with open(path) as fh:
        spec = cli.parse_scenario(json.load(fh)).spec
    coefficient_dynamics(spec, T, [1.0, 0.0], np.linspace(0.0, 1.0, points))
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def loaded_after(commands, flows=(), package="scipy"):
    """Exit codes of ``commands`` and the modules of ``package`` loaded
    after them and after the coefficient flows ``(scenario, T, grid
    points)``, all in one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", RUNNER,
                           json.dumps([commands, flows])],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], {m for m in result["modules"]
                             if m == package or m.startswith(package + ".")}


def test_import_loads_no_scipy():
    assert loaded_after([]) == ([], set())


# the package modules `import adiakit.cli` loads, exactly: the Magnus
# engine (`adiakit._magnus`) is not among them, as every flow imports it at
# first use, nor is the Runge-Kutta reference of the tests.  The Jordan
# track's stitch is loaded with open_system: imported at first use, its
# compile in mid-run raised the resident peak of `jordan --grid 4001` on
# the generated open4 scenario (seed 7) from 114 to 142 MB
IMPORTED = {"adiakit", "adiakit._jordan_stitch", "adiakit.cli",
            "adiakit.closed", "adiakit.consistency", "adiakit.errors",
            "adiakit.numkit", "adiakit.open_system", "adiakit.schedules"}
# loaded at first use if at all: polynomial envelopes, a sweep pool, scipy
NOT_ON_IMPORT = ("numpy.polynomial", "numpy.fft", "numpy.random",
                 "concurrent.futures", "multiprocessing", "scipy")


def test_import_path_adds_nothing():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\nimport adiakit.cli\n"
         "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout))
    assert not {m for m in modules for name in NOT_ON_IMPORT
                if m == name or m.startswith(name + ".")}
    package = {m for m in modules if m.split(".")[0] == "adiakit"}
    assert package == IMPORTED


def test_closed_commands_load_no_scipy(tmp_path):
    out = str(tmp_path / "out")
    commands = [[verb, LZ, "--out", out]
                for verb in ("evolve", "check", "consistency")]
    commands.append(["sweep", LZ, "--T-min", "4", "--T-max", "64",
                     "--points", "3", "--jobs", "1", "--out", out])
    codes, scipy = loaded_after(commands)
    assert codes == [0, 0, 0, 0]
    assert scipy == set()


def test_sweeps_start_no_process_pool(tmp_path):
    # every sweep row runs in the calling interpreter
    out = str(tmp_path / "out")
    commands = [["sweep", scenario, "--T-min", "1", "--T-max", "50",
                 "--points", "3", "--out", out]
                for scenario in (LZ, DEPHASING)]
    codes, pool = loaded_after(commands, package="concurrent.futures.process")
    assert codes == [0, 0]
    assert pool == set()


def test_dense_closed_work_loads_no_scipy(tmp_path):
    # the coefficient flow fits its splines with numpy alone
    out = str(tmp_path / "out.json")
    commands = [["evolve", LZ, "--grid", "4001", "--out", out],
                ["wu", LZ, "--T", "20", "--order", "3", "--grid", "1001",
                 "--out", out],
                ["spectrum", LZ, "--out", out]]
    codes, scipy = loaded_after(commands, [(LZ, 40.0, 4001)])
    assert codes == [0, 0, 0]
    assert scipy == set()


def test_singleton_block_open_commands_load_no_scipy(tmp_path):
    path = tmp_path / "damped.json"
    path.write_text(json.dumps(DAMPED_QUBIT))
    out = str(tmp_path / "out.json")
    codes, scipy = loaded_after([["jordan", str(path), "--out", out],
                                 ["check", str(path), "--out", out]])
    assert codes == [0, 0]
    assert scipy == set()
    with open(out) as fh:
        assert set(json.load(fh)["results"]["block_sizes"]) == {1}


def test_semisimple_cluster_commands_load_no_scipy(tmp_path):
    # the dephasing qubit has a two-fold eigenvalue 0 whose eig vectors
    # span its eigenspace: the cluster needs no Schur form
    out = str(tmp_path / "out.json")
    codes, scipy = loaded_after([["jordan", DEPHASING, "--out", out],
                                 ["check", DEPHASING, "--out", out]])
    assert codes == [0, 0]
    assert scipy == set()


def test_clustered_jordan_loads_only_linalg(tmp_path):
    # a defective cluster takes the Schur path, and nothing else of scipy
    # is needed
    path = tmp_path / "defective.json"
    path.write_text(json.dumps(DEFECTIVE_QUBIT))
    out = str(tmp_path / "out.json")
    codes, scipy = loaded_after([["jordan", str(path), "--out", out]])
    assert codes == [0]
    assert "scipy.linalg" in scipy
    assert not any(m.startswith(("scipy.optimize", "scipy.integrate"))
                   for m in scipy)
    with open(out) as fh:
        assert sorted(json.load(fh)["results"]["block_sizes"]) == [1, 1, 2]


def module_level_scipy_imports(root):
    """``file:line`` of every scipy import under ``root`` that runs when
    its module is imported, i.e. one outside any function body."""
    found = []
    for path in sorted(Path(root).rglob("*.py")):
        nodes = [ast.parse(path.read_text(), filename=str(path))]
        while nodes:
            for node in ast.iter_child_nodes(nodes.pop()):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    continue
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    names = []
                if any(n == "scipy" or n.startswith("scipy.") for n in names):
                    found.append(f"{path.relative_to(root)}:{node.lineno}")
                nodes.append(node)
    return sorted(found)


def test_no_module_level_scipy_import():
    assert module_level_scipy_imports(SRC / "adiakit") == []


def test_scan_finds_planted_imports(tmp_path):
    (tmp_path / "lazy.py").write_text(
        "def f():\n    import scipy.linalg\n    return scipy.linalg\n")
    (tmp_path / "eager.py").write_text(
        "import numpy\nif True:\n    from scipy.interpolate import PPoly\n"
        "class A:\n    import scipy as sp\n")
    assert module_level_scipy_imports(tmp_path) == ["eager.py:3",
                                                    "eager.py:5"]


def rk45_importers(root):
    """``file:line`` of every import of ``_rk45``, at any depth, in the
    modules under ``root`` other than ``_rk45.py`` itself."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "_rk45.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}"
                                               for alias in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "_rk45" for n in names):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_runge_kutta_stays_a_test_reference(tmp_path):
    # the program solves every flow with the Magnus engine; the stepper
    # is the reference the tests compare it against
    assert rk45_importers(SRC / "adiakit") == []
    (tmp_path / "a.py").write_text("def f():\n    from . import _rk45\n")
    (tmp_path / "b.py").write_text("from adiakit._rk45 import integrate\n")
    (tmp_path / "c.py").write_text("import adiakit._rk45 as rk\n")
    (tmp_path / "_rk45.py").write_text("from . import _magnus\n")
    assert rk45_importers(tmp_path) == ["a.py:2", "b.py:1", "c.py:1"]
