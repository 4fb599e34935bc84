"""The command line contract under non-finite and out-of-range numbers.

Every number that reaches an integrator must be finite: the scenario's
``total_time``, each ``T_grid`` entry, both tolerances, the ``--T`` flag,
model and envelope parameters, and every matrix entry.  Each is refused at
the parse boundary with exit 2 and a stderr JSON that names the field.
Inputs that pass the boundary but leave the stepper nothing to work with
end in exit 3, within a bounded time, instead of spinning forever.

The same boundary checks an open initial state against the master
solver's own limits, refuses grids and sweeps above the work bounds, and
turns every command line error into the same one stderr JSON object.
Caps are tested just above their limits, which are refused before
anything is allocated; no test runs a huge value.
A total time whose planned integrator steps exceed the step budget is
refused before the first step, and a dense grid's peak memory is
measured in a child process.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from adiakit import _magnus, cli
from adiakit.cli import main, parse_scenario
from adiakit.errors import InputError

from test_open_fast_path import generated

SCENARIOS = Path(__file__).resolve().parents[1] / "scripts" / "scenarios"

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


@pytest.mark.parametrize("jobs", ["2", 1.5, True])
def test_sweep_jobs_not_an_integer_refused(tmp_path, jobs):
    # the scenario path does not exist: the check must come before it is read
    with pytest.raises(InputError) as info:
        cli.sweep_total_time(str(tmp_path / "missing.json"), 4.0, 8.0, 2,
                             jobs=jobs)
    assert info.value.details["field"] == "jobs"


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


def test_step_demand_refused_up_front(tmp_path, capsys):
    # about 1.7e9 planned steps for the bundled drive at T = 1e9: refused
    # from the plan, where the stepper would have run for hours
    start = time.monotonic()
    assert main(["evolve", str(SCENARIOS / "landau_zener.json"), "--T",
                 "1e9", "--out", str(tmp_path / "out.csv")]) == 3
    assert time.monotonic() - start < 2.0
    err = json.loads(capsys.readouterr().err)   # one object, no traceback
    assert err["error"] == "StiffnessError"
    assert err["details"]["s"] == 0.0
    assert err["details"]["steps"] > _magnus.MAX_STEPS
    assert not (tmp_path / "out.csv").exists()


def test_qubit_master_step_demand_refused_up_front(tmp_path, capsys):
    # the bundled dephasing qubit at T = 1e9: the Magnus plan of its master
    # equation exceeds the budget, where the stepper ran out of it only
    # after a million steps
    start = time.monotonic()
    assert main(["evolve", str(SCENARIOS / "dephasing_qubit.json"), "--T",
                 "1e9", "--out", str(tmp_path / "out.csv")]) == 3
    assert time.monotonic() - start < 2.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StiffnessError"
    assert err["details"]["s"] == 0.0
    assert err["details"]["steps"] > _magnus.MAX_STEPS
    assert not (tmp_path / "out.csv").exists()


def test_larger_master_step_demand_refused_up_front(tmp_path, capsys):
    # generated open4 (D = 4, n = 16) at T = 1e9: the engine refuses the
    # plan before the first step, where the stepper ran its million steps
    # for over a minute
    path = tmp_path / "open4.json"
    path.write_text(json.dumps(generated("open4", 7)))
    start = time.monotonic()
    assert main(["evolve", str(path), "--T", "1e9",
                 "--out", str(tmp_path / "out.csv")]) == 3
    assert time.monotonic() - start < 2.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StiffnessError"
    assert err["details"]["s"] == 0.0
    assert err["details"]["steps"] > _magnus.MAX_STEPS
    assert not (tmp_path / "out.csv").exists()


def test_overflowed_coefficients_give_infinite_bounds(tmp_path):
    # at T = 5000 the growth exp(-T int lambda) of the oscillating blocks
    # passes the overflow cap: their stripped coefficients are infinite,
    # and so is every bound they feed, never NaN and without a warning,
    # though the couplings into the conserved blocks are exactly zero
    out = tmp_path / "check.json"
    proc = run_cli(["check", str(SCENARIOS / "dephasing_qubit.json"),
                    "--T", "5000", "--out", str(out)], timeout=60)
    assert proc.returncode == 0
    assert "Warning" not in proc.stderr
    text = out.read_text()
    assert "NaN" not in text
    tcond = json.loads(text)["results"]["time_condition"]
    assert tcond["satisfied_all"] == [False]
    assert tcond["bounds"] == {key: [math.inf]
                               for key in ("0,0", "1,0", "2,0", "3,0")}


def test_overflowed_compensation_warns_nothing(tmp_path):
    # generated qubit_driven at T = 10000: a finite stripped coefficient
    # times its growth passes the float range in the regime labels; the
    # product reads inf, "not compensated", and stderr stays empty
    path = tmp_path / "qubit_driven.json"
    path.write_text(json.dumps(generated("qubit_driven", 7)))
    proc = run_cli(["check", str(path), "--T", "10000",
                    "--out", str(tmp_path / "check.json")], timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""


# peak resident memory of `evolve --grid 100001` on the bundled Landau-Zener
# scenario above that of the bare import, in KiB: 100,300 with the
# Runge-Kutta stepper and a CSV writer that held the table as text, about
# 37,400 with the Magnus engine and a streaming writer
EVOLVE_100001_PEAK_KIB = 100_300

PEAK_RUNNER = """
import resource, sys
import adiakit.cli as cli
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = cli.main(["evolve", sys.argv[1], "--grid", "100001", "--out",
                 sys.argv[2]])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
def test_dense_evolve_peak_memory(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RUNNER, str(SCENARIOS /
                                                "landau_zener.json"),
         str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120)
    code, peak = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert peak <= EVOLVE_100001_PEAK_KIB


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
    (with_params(LZ_DOC, a=[[[1.0, 0.0]]]), "model.params.a"),
    (explicit_doc({"kind": []}), "hamiltonian_terms[0].envelope"),
    (explicit_doc({"kind": "linear", "start": 0.0}),
     "hamiltonian_terms[0].envelope"),
    (with_params(DEPHASING_DOC, omega_envelope=5),
     "model.params.omega_envelope"),
], ids=["param-nan", "param-string", "param-inf", "param-bool",
        "param-huge-int", "envelope-nan", "envelope-inf",
        "envelope-coeff-nan", "envelope-string", "model-envelope-inf",
        "param-matrix", "envelope-kind-list", "envelope-missing-param",
        "model-envelope-number"])
def test_bad_model_or_envelope_parameter_exit_two(tmp_path, capsys, doc,
                                                  field):
    path = write_doc(tmp_path, doc)
    verb = "check" if doc["kind"] == "open" else "evolve"
    assert main([verb, path, "--out", str(tmp_path / "out")]) == 2
    assert field_of(capsys.readouterr().err) == field


SIGMA_Z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
ONE = {"kind": "constant", "value": 1.0}
OPEN_TERMS_DOC = {
    "schema": 1, "kind": "open", "dimension": 2,
    "hamiltonian_terms": [{"matrix": SIGMA_Z, "envelope": ONE}],
    "lindblad_terms": [{"matrix": SIGMA_Z, "envelope": ONE}],
    "initial_state": DEPHASING_DOC["initial_state"],
    "total_time": 1.0, "grid_points": 5,
}
INTERP_DOC = {
    "schema": 1, "kind": "closed",
    "model": {"name": "linear_interp",
              "params": {"h0": SIGMA_Z,
                         "h1": [[[0.0, 0.0], [1.0, 0.0]],
                                [[1.0, 0.0], [0.0, 0.0]]]}},
    "total_time": 1.0, "grid_points": 5,
}


def with_entry(matrix, row, col, value):
    """A copy of an [re, im] matrix with the real part of one entry set."""
    out = [[list(pair) for pair in r] for r in matrix]
    out[row][col][0] = value
    return out


def with_term_matrix(doc, name, matrix):
    return dict(doc, **{name: [dict(doc[name][0], matrix=matrix)]})


@pytest.mark.parametrize("doc, field", [
    (with_term_matrix(OPEN_TERMS_DOC, "lindblad_terms",
                      with_entry(SIGMA_Z, 0, 1, math.nan)),
     "lindblad_terms[0].matrix"),
    (with_term_matrix(OPEN_TERMS_DOC, "hamiltonian_terms",
                      with_entry(SIGMA_Z, 1, 1, math.inf)),
     "hamiltonian_terms[0].matrix"),
    (with_term_matrix(OPEN_TERMS_DOC, "hamiltonian_terms",
                      with_entry(SIGMA_Z, 0, 0, True)),
     "hamiltonian_terms[0].matrix"),
    (with_term_matrix(OPEN_TERMS_DOC, "hamiltonian_terms",
                      with_entry(SIGMA_Z, 0, 1, 1.0)),
     "hamiltonian_terms[0].matrix"),
    (with_term_matrix(OPEN_TERMS_DOC, "lindblad_terms", [[[1.0, 0.0]]]),
     "lindblad_terms[0].matrix"),
    (dict(OPEN_TERMS_DOC, initial_state=with_entry(
        DEPHASING_DOC["initial_state"], 0, 0, -math.inf)), "initial_state"),
    (dict(LZ_DOC, initial_state=[[True, 0.0], [0.0, 0.0]]), "initial_state"),
    (with_params(INTERP_DOC, h0=with_entry(SIGMA_Z, 0, 0, math.nan)),
     "model.params.h0"),
    (with_params(INTERP_DOC, h0=with_entry(SIGMA_Z, 0, 1, 1.0)),
     "model.params.h0"),
    (with_params(INTERP_DOC, h0=5.0), "model.params.h0"),
    (with_params(INTERP_DOC, h1=[[[1.0, 0.0]]]), "model.params.h1"),
    (dict(OPEN_TERMS_DOC, lindblad_terms=5), "lindblad_terms"),
], ids=["lindblad-nan", "hamiltonian-inf", "hamiltonian-bool",
        "hamiltonian-not-hermitian", "lindblad-wrong-dimension",
        "open-state-inf", "closed-state-bool", "h0-nan",
        "h0-not-hermitian", "h0-number", "h1-wrong-dimension",
        "lindblad-terms-not-a-list"])
def test_bad_matrix_or_term_list_exit_two(tmp_path, capsys, doc, field):
    path = write_doc(tmp_path, doc)
    verb = "jordan" if doc["kind"] == "open" else "spectrum"
    assert main([verb, path, "--out", str(tmp_path / "out")]) == 2
    assert field_of(capsys.readouterr().err) == field


def test_model_parameter_named_name_is_ignored(tmp_path):
    """Unknown model parameters are ignored, a key called ``name``
    included: it does not collide with the model name."""
    path = write_doc(tmp_path, with_params(LZ_DOC, name=0))
    assert main(["evolve", path, "--out", str(tmp_path / "out.csv")]) == 0


@pytest.mark.parametrize("order", [-1, 4, 1.5, True])
def test_bad_wu_order_exit_two(tmp_path, capsys, order):
    """Out of range, not an integer, or a bool (which would run as 1):
    refused, from the command line and from the API alike."""
    path = write_doc(tmp_path, LZ_DOC)
    out = str(tmp_path / "wu.json")
    if type(order) is int:
        assert main(["wu", path, "--order", str(order), "--out", out]) == 2
        assert field_of(capsys.readouterr().err) == "order"
    assert cli.run_scenario(path, "wu", T=5.0, order=order, out=out) == 2
    assert field_of(capsys.readouterr().err) == "order"


def with_state_entry(row, col, delta):
    """DEPHASING_DOC with ``delta`` added to one entry of the state."""
    state = [[list(pair) for pair in r] for r in DEPHASING_DOC["initial_state"]]
    state[row][col][0] += delta
    return dict(DEPHASING_DOC, initial_state=state)


@pytest.mark.parametrize("doc", [
    with_state_entry(0, 0, 5e-9),
    with_state_entry(0, 1, 5e-9),
    dict(DEPHASING_DOC, initial_state=[[[1.0 + 5e-9, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [-5e-9, 0.0]]]),
], ids=["trace", "hermiticity", "positivity"])
def test_open_state_off_by_5e9_refused_at_parse(tmp_path, capsys, doc):
    """The scenario's density matrix meets the master solver's 1e-10
    limits at the parse boundary, so the refusal names the field."""
    path = write_doc(tmp_path, doc)
    assert main(["evolve", path, "--out", str(tmp_path / "out")]) == 2
    assert field_of(capsys.readouterr().err) == "initial_state"


def test_generated_scenarios_all_accepted():
    """Every scenario the benchmark generates for seeds 0-99 passes the
    parse boundary, initial state included, and so does every bundled one
    at the 4001 grid points the benchmark runs."""
    gen_path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", gen_path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for family in gen.FAMILIES:
        for seed in range(100):
            parse_scenario(gen.generate(family, seed))
    for path in SCENARIOS.glob("*.json"):
        parse_scenario(dict(json.loads(path.read_text()), grid_points=4001))


@pytest.mark.parametrize("argv, field", [
    (["sweep", "{path}", "--T-min", "abc", "--T-max", "2", "--points", "2"],
     "T_min"),
    (["sweep", "{path}", "--T-min", "1", "--T-max", "2"], "points"),
    (["evolve", "{path}", "--bogus", "3"], "bogus"),
    (["evolve", "{path}", "--format", "xml"], "format"),
    (["evolve", "{path}", "--grid", "1.5"], "grid"),
    (["evolve"], "scenario"),
    (["integrate", "{path}"], "command"),
], ids=["bad-float", "missing-flag", "unknown-flag", "bad-choice",
        "bad-int", "missing-scenario", "unknown-verb"])
def test_flag_errors_are_one_json_object(tmp_path, capsys, argv, field):
    path = write_doc(tmp_path, LZ_DOC)
    assert main([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert field_of(captured.err) == field
    assert "usage" not in captured.err and not captured.out


def test_flag_error_from_console_has_no_usage_text(tmp_path):
    path = write_doc(tmp_path, LZ_DOC)
    proc = run_cli(["sweep", path, "--T-min", "abc", "--T-max", "2",
                    "--points", "2"])
    assert proc.returncode == 2
    assert field_of(proc.stderr) == "T_min"
    assert "usage" not in proc.stderr and "Traceback" not in proc.stderr


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def just_over_grid_cap(doc):
    n = 2 if doc["kind"] == "closed" else 4     # D = 2 in both documents
    return cli.MAX_GRID_ENTRIES // (n * n) + 1


@pytest.mark.parametrize("doc", [LZ_DOC, DEPHASING_DOC], ids=["closed",
                                                             "open"])
def test_grid_just_over_cap_refused(tmp_path, capsys, doc):
    """The stacked per-point matrices are bounded before any is built,
    whether the grid comes from the scenario or from --grid."""
    over = just_over_grid_cap(doc)
    verb = "jordan" if doc["kind"] == "open" else "spectrum"
    path = write_doc(tmp_path, dict(doc, grid_points=over))
    assert main([verb, path, "--out", str(tmp_path / "out")]) == 2
    assert field_of(capsys.readouterr().err) == "grid_points"
    path = write_doc(tmp_path, doc)
    assert main([verb, path, "--grid", str(over),
                 "--out", str(tmp_path / "out")]) == 2
    assert field_of(capsys.readouterr().err) == "grid_points"


@pytest.mark.parametrize("points", [2.5, "3", True],
                         ids=["float", "string", "bool"])
def test_sweep_points_not_an_integer_refused(tmp_path, monkeypatch, capsys,
                                             points):
    """A non-integer or boolean point count is refused with the field
    named before the scenario is read, not with a raw TypeError."""
    path = write_doc(tmp_path, LZ_DOC)
    loaded = []
    monkeypatch.setattr(cli, "_load_scenario",
                        lambda *args: loaded.append(args))
    assert cli._exit_code(
        lambda: cli.sweep_total_time(path, 4, 8, points)) == 2
    assert field_of(capsys.readouterr().err) == "points"
    assert not loaded


def test_sweep_points_just_over_cap_refused(tmp_path, capsys):
    path = write_doc(tmp_path, LZ_DOC)
    assert main(["sweep", path, "--T-min", "4", "--T-max", "8",
                 "--points", str(cli.MAX_SWEEP_POINTS + 1), "--jobs", "1",
                 "--out", str(tmp_path / "sweep.csv")]) == 2
    assert field_of(capsys.readouterr().err) == "points"
