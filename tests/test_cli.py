"""Command line surface: scenario parsing, pipelines, sweeps, reports.

Pipelines run against the same small models used elsewhere in the suite,
so the numbers landing in CSV and report files can be checked against the
library calls directly.  Exit codes and the machine readable stderr
objects are part of the contract and are asserted literally.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from adiakit import __version__, cli
from adiakit.cli import (
    emit_report,
    main,
    parse_scenario,
    run_scenario,
    sweep_total_time,
)
from adiakit.errors import InputError
from adiakit.open_system import integrate_master
from adiakit.schedules import make_model

LZ_DOC = {
    "schema": 1,
    "kind": "closed",
    "pipeline": "evolve",
    "model": {"name": "landau_zener", "params": {"a": 1.0, "delta": 0.25}},
    "total_time": 8.0,
    "grid_points": 201,
    "tolerances": {"rtol": 1e-8, "atol": 1e-10},
    "output": {"format": "csv"},
}

DEPHASING_DOC = {
    "schema": 1,
    "kind": "open",
    "model": {"name": "dephasing_qubit", "params": {"omega": 2.0, "gamma": 0.2}},
    "initial_state": [[[0.6, 0.0], [0.25, 0.1]], [[0.25, -0.1], [0.4, 0.0]]],
    "total_time": 10.0,
    "grid_points": 201,
    "output": {"format": "json"},
}

STATIC_DOC = {
    "schema": 1,
    "kind": "closed",
    "dimension": 2,
    "hamiltonian_terms": [{
        "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        "envelope": {"kind": "constant", "value": 1.0},
    }],
    "total_time": 5.0,
    "grid_points": 64,
    "output": {"format": "json"},
}


SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "scripts" / "scenarios"


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestParseScenario:
    def test_model_scenario(self):
        sc = parse_scenario(LZ_DOC)
        assert sc.kind == "closed"
        assert sc.spec.dimension == 2
        assert sc.total_time == 8.0
        assert sc.grid_points == 201
        assert sc.pipeline == "evolve"

    def test_explicit_terms_scenario(self):
        sc = parse_scenario(STATIC_DOC)
        assert sc.spec.kind == "closed"
        H = sum(env.value(0.3) * M for M, env in sc.spec.hamiltonian_terms)
        assert np.allclose(H, np.diag([1.0, -1.0]))

    def test_open_initial_state(self):
        sc = parse_scenario(DEPHASING_DOC)
        assert sc.initial_state.shape == (2, 2)
        assert sc.initial_state[0, 1] == 0.25 + 0.1j

    def test_wrong_schema_version(self):
        with pytest.raises(InputError, match="schema"):
            parse_scenario(dict(LZ_DOC, schema=2))

    def test_unknown_field_named(self):
        with pytest.raises(InputError, match="bogus"):
            parse_scenario(dict(LZ_DOC, bogus=1))

    def test_unknown_model(self):
        doc = dict(LZ_DOC, model={"name": "nope", "params": {}})
        with pytest.raises(InputError, match="model"):
            parse_scenario(doc)

    def test_kind_contradicts_model(self):
        with pytest.raises(InputError, match="kind"):
            parse_scenario(dict(LZ_DOC, kind="open"))

    def test_grid_points_too_small(self):
        with pytest.raises(InputError, match="grid_points"):
            parse_scenario(dict(LZ_DOC, grid_points=1))

    def test_descending_T_grid(self):
        with pytest.raises(InputError, match="ascending"):
            parse_scenario(dict(DEPHASING_DOC, T_grid=[5.0, 1.0]))

    def test_unnormalized_closed_state(self):
        doc = dict(LZ_DOC, initial_state=[[2.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InputError, match="normalized"):
            parse_scenario(doc)

    def test_open_state_bad_trace(self):
        bad = [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]]
        with pytest.raises(InputError, match="trace"):
            parse_scenario(dict(DEPHASING_DOC, initial_state=bad))

    def test_tolerance_key_rejected(self):
        doc = dict(LZ_DOC, tolerances={"rtol": 1e-8, "xtol": 1.0})
        with pytest.raises(InputError, match="tolerances"):
            parse_scenario(doc)

    def test_not_an_object(self):
        with pytest.raises(InputError):
            parse_scenario([1, 2, 3])


class TestBundledScenarios:
    @pytest.mark.parametrize("name", ["landau_zener", "dephasing_qubit",
                                      "rotating_field"])
    def test_parses(self, name):
        with open(SCENARIO_DIR / f"{name}.json") as fh:
            sc = parse_scenario(json.load(fh))
        assert sc.pipeline is not None

    def test_landau_zener_runs(self, tmp_path):
        out = str(tmp_path / "traj.csv")
        code = run_scenario(str(SCENARIO_DIR / "landau_zener.json"),
                            out=out)
        assert code == 0
        header = (tmp_path / "traj.csv").read_text().splitlines()[0]
        assert header.startswith("s,t,")


class TestRunScenario:
    def test_evolve_exit_zero_and_header(self, tmp_path):
        path = write_doc(tmp_path, "lz.json", LZ_DOC)
        out = str(tmp_path / "traj.csv")
        assert run_scenario(path, out=out) == 0
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0].startswith("s,t,")
        assert len(lines) == 202
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == 0.0

    def test_open_evolve_header(self, tmp_path):
        doc = dict(DEPHASING_DOC, output={"format": "csv"})
        path = write_doc(tmp_path, "deph.json", doc)
        out = str(tmp_path / "rho.csv")
        assert run_scenario(path, "evolve", out=out) == 0
        header = (tmp_path / "rho.csv").read_text().splitlines()[0]
        assert header == "s,t,re00,im00,re01,im01,re10,im10,re11,im11"

    def test_nonhermitian_closed_exit_two(self, tmp_path, capsys):
        doc = dict(STATIC_DOC)
        doc["hamiltonian_terms"] = [{
            "matrix": [[[0.0, 0.0], [1.0, 0.5]], [[0.0, 0.0], [0.0, 0.0]]],
            "envelope": {"kind": "constant", "value": 1.0},
        }]
        path = write_doc(tmp_path, "bad.json", doc)
        assert run_scenario(path, "spectrum") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert "Hermitian" in err["message"]

    def test_gap_closure_exit_three_names_midpoint(self, tmp_path, capsys):
        doc = dict(LZ_DOC)
        doc["model"] = {"name": "landau_zener",
                        "params": {"a": 1.0, "delta": 0.0}}
        doc["grid_points"] = 1001
        path = write_doc(tmp_path, "lz0.json", doc)
        assert run_scenario(path, "check",
                            out=str(tmp_path / "x.json")) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DegeneracyError"
        assert "0.5" in err["message"]
        assert err["details"]["s"] == 0.5

    def test_open_grouping_change_exit_three(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "kind": "open",
            "dimension": 2,
            "hamiltonian_terms": [{
                "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                           [[0.0, 0.0], [-1.0, 0.0]]],
                "envelope": {"kind": "linear", "start": -1.0, "end": 1.0},
            }],
            "grid_points": 201,
            "output": {"format": "json"},
        }
        path = write_doc(tmp_path, "cross.json", doc)
        assert run_scenario(path, "jordan",
                            out=str(tmp_path / "x.json")) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CrossingError"
        assert "0.5" in err["message"]

    def test_static_check_reports_zero_ratio(self, tmp_path):
        path = write_doc(tmp_path, "static.json", STATIC_DOC)
        out = str(tmp_path / "check.json")
        assert run_scenario(path, "check", out=out) == 0
        report = load_report(out)
        assert report["results"]["max_ratio"] == 0
        assert report["results"]["satisfied"] is True

    def test_jordan_dephasing_block_sizes(self, tmp_path):
        path = write_doc(tmp_path, "deph.json", DEPHASING_DOC)
        out = str(tmp_path / "jordan.json")
        assert run_scenario(path, "jordan", out=out) == 0
        report = load_report(out)
        assert report["results"]["block_sizes"] == [1, 1, 1, 1]
        assert report["results"]["residual_max"] < 1e-10

    def test_check_time_condition_block(self, tmp_path):
        doc = dict(DEPHASING_DOC, T_grid=[1.0, 10.0])
        path = write_doc(tmp_path, "deph.json", doc)
        out = str(tmp_path / "check.json")
        assert run_scenario(path, "check", out=out) == 0
        results = load_report(out)["results"]
        assert results["block_sizes"] == [1, 1, 1, 1]
        tc = results["time_condition"]
        assert tc["T_grid"] == [1.0, 10.0]
        assert tc["satisfied_all"] == [True, True]
        assert tc["threshold_T"] == 1.0
        assert set(results["regimes"].values()) <= {
            "guaranteed", "decaying", "oscillatory-RL"}

    def test_wu_errors_shrink_with_order(self, tmp_path):
        doc = dict(LZ_DOC, grid_points=2001)
        path = write_doc(tmp_path, "lz.json", doc)
        out = str(tmp_path / "wu.json")
        assert run_scenario(path, "wu", T=20.0, order=2, out=out) == 0
        errors = load_report(out)["results"]["final_errors"]
        assert len(errors) == 3
        assert errors[0] > errors[1] > errors[2]

    def test_consistency_report_payload(self, tmp_path):
        doc = {
            "schema": 1,
            "kind": "closed",
            "model": {"name": "rotating_field",
                      "params": {"b": 1.0, "theta": np.pi / 2}},
            "total_time": 50.0 * np.pi,
            "grid_points": 256,
            "output": {"format": "json"},
        }
        path = write_doc(tmp_path, "rot.json", doc)
        out = str(tmp_path / "cons.json")
        assert run_scenario(path, "consistency", out=out) == 0
        results = load_report(out)["results"]
        assert results["max_witness"] > 0.99
        assert results["min_fid_proper"] > 0.99
        assert results["min_fid_illegal"] < 0.01

    def test_reruns_byte_identical(self, tmp_path):
        # the open runs go through the stacked Jordan stitch
        dephasing = str(SCENARIO_DIR / "dephasing_qubit.json")
        for path, pipeline in ((write_doc(tmp_path, "lz.json", LZ_DOC),
                                "check"),
                               (dephasing, "jordan"), (dephasing, "check")):
            out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
            assert run_scenario(path, pipeline, out=out1) == 0
            assert run_scenario(path, pipeline, out=out2) == 0
            assert (tmp_path / "a.json").read_bytes() == \
                (tmp_path / "b.json").read_bytes()

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert run_scenario(str(tmp_path / "nope.json")) == 2
        json.loads(capsys.readouterr().err)

    def test_unparseable_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_scenario(str(path)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"

    def test_unparseable_json_in_sweep_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_bytes(b"{not json \xff")
        assert main(["sweep", str(path), "--T-min", "1", "--T-max", "2",
                     "--points", "2", "--out", str(tmp_path / "s.csv")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    def test_no_pipeline_anywhere(self, tmp_path, capsys):
        doc = dict(STATIC_DOC)
        path = write_doc(tmp_path, "static.json", doc)
        assert run_scenario(path) == 2
        err = json.loads(capsys.readouterr().err)
        assert "pipeline" in err["message"]

    def test_grid_override(self, tmp_path):
        path = write_doc(tmp_path, "lz.json", LZ_DOC)
        out = str(tmp_path / "traj.csv")
        assert run_scenario(path, "spectrum", grid=11, out=out) == 0
        assert len((tmp_path / "traj.csv").read_text().splitlines()) == 12

    def test_csv_uses_lf_and_dot_decimal(self, tmp_path):
        path = write_doc(tmp_path, "lz.json", LZ_DOC)
        out = str(tmp_path / "traj.csv")
        run_scenario(path, "spectrum", out=out)
        raw = (tmp_path / "traj.csv").read_bytes()
        assert b"\r" not in raw
        assert b"," in raw and b";" not in raw.splitlines()[1]


class TestSweep:
    def test_infidelity_collapse_on_log_grid(self, tmp_path):
        path = write_doc(tmp_path, "lz.json", LZ_DOC)
        out = str(tmp_path / "sweep.csv")
        rows = sweep_total_time(path, 8.0, 400.0, 3, "log", out=out)
        Ts = [row[0] for row in rows]
        assert Ts == sorted(Ts)
        assert Ts[0] == pytest.approx(8.0) and Ts[-1] == pytest.approx(400.0)
        assert rows[-1][1] <= rows[0][1] / 100.0
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header == "T,infidelity,condition_ratio,bound_satisfied"

    def test_ratio_halves_when_time_doubles(self, tmp_path):
        path = write_doc(tmp_path, "lz.json", LZ_DOC)
        rows = sweep_total_time(path, 8.0, 16.0, 2, "linear", jobs=1)
        assert rows[1][2] == pytest.approx(rows[0][2] / 2.0, rel=1e-12)

    def test_open_sweep_trace_preserved(self, tmp_path):
        path = write_doc(tmp_path, "deph.json", DEPHASING_DOC)
        rows = sweep_total_time(path, 1.0, 50.0, 2, "linear", jobs=1)
        assert all(np.isfinite(row[1]) for row in rows)
        spec = make_model("dephasing_qubit", omega=2.0, gamma=0.2)
        rho0 = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]])
        for T, _, _, _ in rows:
            traj = integrate_master(spec, T, rho0)
            traces = traj.states.reshape(-1, 2, 2).trace(axis1=1, axis2=2)
            assert np.max(np.abs(traces - 1.0)) <= 1e-9

    @pytest.mark.parametrize("doc", [LZ_DOC, DEPHASING_DOC],
                             ids=["lz", "dephasing"])
    def test_sweep_starts_no_process(self, tmp_path, monkeypatch, doc):
        def refuse():
            raise AssertionError("a sweep started a process")

        monkeypatch.setattr(os, "fork", refuse)
        path = write_doc(tmp_path, "scenario.json", doc)
        assert main(["sweep", path, "--T-min", "1", "--T-max", "50",
                     "--points", "3",
                     "--out", str(tmp_path / "sweep.csv")]) == 0

    def test_bad_spacing(self, tmp_path):
        path = write_doc(tmp_path, "lz.json", LZ_DOC)
        with pytest.raises(InputError, match="spacing"):
            sweep_total_time(path, 1.0, 2.0, 2, "cubic")

    def test_bad_range_and_points(self, tmp_path):
        path = write_doc(tmp_path, "lz.json", LZ_DOC)
        with pytest.raises(InputError):
            sweep_total_time(path, 5.0, 2.0, 3)
        with pytest.raises(InputError):
            sweep_total_time(path, 1.0, 2.0, 1)


class TestEmitReport:
    def test_versioned_envelope(self):
        raw = b'{"schema": 1}'
        text = emit_report({"x": 1.0}, raw, {"rtol": 1e-8, "atol": 1e-10})
        doc = json.loads(text)
        assert doc["report_version"] == 1
        assert doc["tool_version"] == __version__
        assert doc["scenario_sha256"] == hashlib.sha256(raw).hexdigest()
        assert doc["results"] == {"x": 1.0}

    def test_key_order_stable(self):
        a = emit_report({"b": 1, "a": 2}, b"x", None)
        b = emit_report({"a": 2, "b": 1}, b"x", None)
        assert a == b
        assert a.index('"a"') < a.index('"b"')

    def test_trailing_newline(self):
        assert emit_report({}, b"", None).endswith("}\n")


class TestOneWriter:
    """A table reads the same whichever format writes it."""

    @pytest.mark.parametrize("verb, doc", [
        ("evolve", LZ_DOC), ("evolve", DEPHASING_DOC),
        ("spectrum", LZ_DOC), ("spectrum", DEPHASING_DOC),
    ], ids=["evolve-closed", "evolve-open", "spectrum-closed",
            "spectrum-open"])
    def test_json_rows_equal_csv_rows(self, tmp_path, verb, doc):
        path = write_doc(tmp_path, "doc.json", doc)
        csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
        assert main([verb, path, "--format", "csv",
                     "--out", str(csv_out)]) == 0
        assert main([verb, path, "--format", "json",
                     "--out", str(json_out)]) == 0
        header, *lines = csv_out.read_text().splitlines()
        results = load_report(json_out)["results"]
        assert results["columns"] == header.split(",")
        assert results["rows"] == [[float(x) for x in line.split(",")]
                                   for line in lines]

    def test_consistency_csv_columns_equal_json_points(self, tmp_path):
        path = write_doc(tmp_path, "lz.json", LZ_DOC)
        csv_out, json_out = tmp_path / "c.csv", tmp_path / "c.json"
        assert main(["consistency", path, "--format", "csv",
                     "--out", str(csv_out)]) == 0
        assert main(["consistency", path, "--format", "json",
                     "--out", str(json_out)]) == 0
        header, *lines = csv_out.read_text().splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines]
        points = load_report(json_out)["results"]["points"]
        assert set(header.split(",")) == set(points[0])
        for k, name in enumerate(header.split(",")):
            assert [row[k] for row in rows] == [p[name] for p in points]


class TestMain:
    def test_spectrum_verb(self, tmp_path):
        path = write_doc(tmp_path, "static.json", STATIC_DOC)
        out = str(tmp_path / "spec.csv")
        assert main(["spectrum", path, "--out", out, "--format",
                     "csv"]) == 0
        assert (tmp_path / "spec.csv").read_text().splitlines()[0] == "s,E0,E1"

    def test_evolve_json_format(self, tmp_path):
        path = write_doc(tmp_path, "lz.json", LZ_DOC)
        out = str(tmp_path / "traj.json")
        assert main(["evolve", path, "--out", out, "--format", "json"]) == 0
        results = load_report(out)["results"]
        assert results["columns"][:2] == ["s", "t"]
        assert len(results["rows"]) == 201

    def test_sweep_verb(self, tmp_path):
        path = write_doc(tmp_path, "lz.json", LZ_DOC)
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", path, "--T-min", "4", "--T-max", "8",
                     "--points", "2", "--spacing", "linear", "--jobs", "1",
                     "--out", out]) == 0
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3

    def test_error_path_returns_three(self, tmp_path, capsys):
        doc = dict(LZ_DOC)
        doc["model"] = {"name": "landau_zener",
                        "params": {"a": 1.0, "delta": 0.0}}
        doc["grid_points"] = 1001
        path = write_doc(tmp_path, "lz0.json", doc)
        assert main(["check", path, "--out", str(tmp_path / "x.json")]) == 3
        json.loads(capsys.readouterr().err)

    def test_default_output_dir_env(self, tmp_path, monkeypatch):
        outdir = tmp_path / "results"
        outdir.mkdir()
        monkeypatch.setenv("ADIAKIT_OUTPUT_DIR", str(outdir))
        doc = dict(STATIC_DOC)
        doc.pop("output")
        path = write_doc(tmp_path, "static.json", doc)
        assert main(["spectrum", path]) == 0
        assert (outdir / "spectrum.csv").exists()

    def test_console_entry_point(self, tmp_path):
        path = write_doc(tmp_path, "static.json", STATIC_DOC)
        out = str(tmp_path / "check.json")
        proc = subprocess.run(
            [sys.executable, "-m", "adiakit.cli", "check", path,
             "--out", out],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert load_report(out)["results"]["max_ratio"] == 0
