"""The command line contract under non-finite and out-of-range numbers.

Every number that reaches an integrator must be finite: the scenario's
``total_time``, each ``T_grid`` entry, both tolerances, the ``--T`` flag.
Each is refused at the parse boundary with exit 2 and a stderr JSON that
names the field.  Inputs that pass the boundary but leave the stepper
nothing to work with end in exit 3, within a bounded time, instead of
spinning forever.
"""

import json
import math
import subprocess
import sys

import pytest

from adiakit.cli import main

LZ_DOC = {
    "schema": 1,
    "kind": "closed",
    "pipeline": "evolve",
    "model": {"name": "landau_zener", "params": {"a": 1.0, "delta": 0.25}},
    "total_time": 8.0,
    "grid_points": 21,
    "tolerances": {"rtol": 1e-8, "atol": 1e-10},
    "output": {"format": "csv"},
}

DEPHASING_DOC = {
    "schema": 1,
    "kind": "open",
    "model": {"name": "dephasing_qubit",
              "params": {"omega": 2.0, "gamma": 0.2}},
    "initial_state": [[[0.6, 0.0], [0.25, 0.1]], [[0.25, -0.1], [0.4, 0.0]]],
    "total_time": 10.0,
    "T_grid": [1.0, 5.0],
    "grid_points": 21,
    "output": {"format": "json"},
}


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    # json writes NaN and Infinity as bare tokens, which json.loads reads
    path.write_text(json.dumps(doc))
    return str(path)


def field_of(stderr):
    return json.loads(stderr)["details"]["field"]


def run_cli(args, timeout=10):
    """Run the console entry point in a fresh interpreter, time-bounded."""
    return subprocess.run([sys.executable, "-m", "adiakit.cli"] + args,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("doc, field", [
    (dict(LZ_DOC, total_time=math.inf), "total_time"),
    (dict(LZ_DOC, total_time=math.nan), "total_time"),
    (dict(LZ_DOC, total_time=10 ** 400), "total_time"),
    (dict(LZ_DOC, total_time="8"), "total_time"),
    (dict(DEPHASING_DOC, T_grid=[1.0, math.nan]), "T_grid"),
    (dict(DEPHASING_DOC, T_grid=[1.0, math.inf]), "T_grid"),
    (dict(LZ_DOC, tolerances={"rtol": math.nan, "atol": 1e-10}),
     "tolerances"),
    (dict(LZ_DOC, tolerances={"rtol": 1e-8, "atol": math.inf}),
     "tolerances"),
    (dict(LZ_DOC, tolerances={"rtol": "tight", "atol": 1e-10}),
     "tolerances"),
], ids=["total_time-inf", "total_time-nan", "total_time-huge-int",
        "total_time-string", "T_grid-nan", "T_grid-inf", "rtol-nan",
        "atol-inf", "rtol-string"])
def test_non_finite_scenario_field_exit_two(tmp_path, capsys, doc, field):
    path = write_doc(tmp_path, doc)
    verb = "check" if doc["kind"] == "open" else "evolve"
    assert main([verb, path, "--out", str(tmp_path / "out")]) == 2
    assert field_of(capsys.readouterr().err) == field


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2"])
def test_bad_T_flag_exit_two(tmp_path, capsys, value):
    path = write_doc(tmp_path, LZ_DOC)
    assert main(["evolve", path, f"--T={value}",
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert field_of(capsys.readouterr().err) == "T"


def test_bad_T_flag_on_open_check_exit_two(tmp_path, capsys):
    path = write_doc(tmp_path, DEPHASING_DOC)
    assert main(["check", path, "--T", "nan",
                 "--out", str(tmp_path / "out.json")]) == 2
    assert field_of(capsys.readouterr().err) == "T"


@pytest.mark.parametrize("jobs", ["-1", "0"])
def test_sweep_jobs_below_one_exit_two(tmp_path, capsys, jobs):
    path = write_doc(tmp_path, LZ_DOC)
    assert main(["sweep", path, "--T-min", "4", "--T-max", "8",
                 "--points", "2", "--jobs", jobs,
                 "--out", str(tmp_path / "sweep.csv")]) == 2
    assert field_of(capsys.readouterr().err) == "jobs"


@pytest.mark.parametrize("flag, field", [("--T-max", "T_max"),
                                         ("--T-min", "T_min")])
def test_sweep_non_finite_range_exit_two(tmp_path, capsys, flag, field):
    path = write_doc(tmp_path, LZ_DOC)
    args = {"--T-min": "4", "--T-max": "8"}
    args[flag] = "inf" if flag == "--T-max" else "nan"
    assert main(["sweep", path, "--T-min", args["--T-min"],
                 "--T-max", args["--T-max"], "--points", "2", "--jobs", "1",
                 "--out", str(tmp_path / "sweep.csv")]) == 2
    assert field_of(capsys.readouterr().err) == field


def test_infinite_total_time_terminates(tmp_path):
    path = write_doc(tmp_path, dict(LZ_DOC, total_time=math.inf))
    proc = run_cli(["evolve", path, "--out", str(tmp_path / "out.csv")])
    assert proc.returncode in (2, 3)
    json.loads(proc.stderr)


def test_tolerances_below_float_range_terminate(tmp_path):
    path = write_doc(tmp_path, dict(LZ_DOC, tolerances={"rtol": 1e-300,
                                                        "atol": 1e-300}))
    proc = run_cli(["evolve", path, "--out", str(tmp_path / "out.csv")])
    assert proc.returncode in (2, 3)
    err = json.loads(proc.stderr)
    assert err["error"] == "StiffnessError"
    assert err["details"]["s"] == 0.0


def explicit_doc(envelope):
    """A 1x1 closed scenario with explicit terms and the given envelope."""
    return {"schema": 1, "kind": "closed", "dimension": 1,
            "hamiltonian_terms": [{"matrix": [[[1.0, 0.0]]],
                                   "envelope": envelope}],
            "initial_state": [[1.0, 0.0]], "total_time": 1.0,
            "grid_points": 5}


def with_params(doc, **params):
    model = dict(doc["model"], params=dict(doc["model"]["params"], **params))
    return dict(doc, model=model)


@pytest.mark.parametrize("doc, field", [
    (with_params(LZ_DOC, a=math.nan), "model.params.a"),
    (with_params(LZ_DOC, a="x"), "model.params.a"),
    (with_params(LZ_DOC, delta=math.inf), "model.params.delta"),
    (with_params(LZ_DOC, delta=True), "model.params.delta"),
    (with_params(LZ_DOC, a=10 ** 400), "model.params.a"),
    (explicit_doc({"kind": "constant", "value": math.nan}),
     "hamiltonian_terms[0].envelope.value"),
    (explicit_doc({"kind": "linear", "start": 0.0, "end": -math.inf}),
     "hamiltonian_terms[0].envelope.end"),
    (explicit_doc({"kind": "polynomial", "coeffs": [0.0, math.nan]}),
     "hamiltonian_terms[0].envelope.coeffs"),
    (explicit_doc({"kind": "sinusoid", "amplitude": 1.0, "frequency": "2",
                   "phase": 0.0, "offset": 0.0}),
     "hamiltonian_terms[0].envelope.frequency"),
    (with_params(DEPHASING_DOC, gamma_envelope={"kind": "constant",
                                                "value": math.inf}),
     "model.params.gamma_envelope.value"),
], ids=["param-nan", "param-string", "param-inf", "param-bool",
        "param-huge-int", "envelope-nan", "envelope-inf",
        "envelope-coeff-nan", "envelope-string", "model-envelope-inf"])
def test_bad_model_or_envelope_parameter_exit_two(tmp_path, capsys, doc,
                                                  field):
    path = write_doc(tmp_path, doc)
    verb = "check" if doc["kind"] == "open" else "evolve"
    assert main([verb, path, "--out", str(tmp_path / "out")]) == 2
    assert field_of(capsys.readouterr().err) == field
