"""Scenario files in, analysis artifacts out.

One subcommand per analysis verb.  A scenario is a small JSON document
(``"schema": 1``) naming the generator, the initial state, the schedule,
and where results should land; every pipeline reads one and writes either
a CSV table or a versioned JSON report.  Reports carry the sha256 of the
scenario file, the tool version, and the tolerances in force, with sorted
keys throughout, so rerunning an unchanged scenario reproduces the output
byte for byte.

Exit codes: 0 on success, 2 for schema, input and flag problems (the
stderr JSON names the field or flag), 3 when a numerical routine refuses
(degeneracies, crossings, conditioning); the stderr JSON then carries the
module error and its details.
"""

import argparse
import functools
import hashlib
import json
import numbers
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .closed import (
    _track_propagator,
    adiabatic_condition_ratio,
    adiabatic_state,
    fidelity,
    integrate_schrodinger,
    min_time_estimate,
    track_spectrum,
    wu_expansion,
)
from .consistency import consistency_report
from .errors import (
    AdiakitError,
    ConfigError,
    DomainError,
    InputError,
    ShapeError,
)
from .numkit import _finite_number, is_hermitian, matrix_from_json
from .open_system import (
    _check_density,
    classify_regime,
    coupling_tensor,
    expand_jordan_coefficients,
    integrate_master,
    jordan_track,
    open_condition_metric,
    open_time_condition,
    unitary_embedding_jordan,
)
from .schedules import (
    MODEL_NAMES,
    GeneratorSpec,
    envelope_from_json,
    make_model,
)

__all__ = [
    "Scenario",
    "parse_scenario",
    "run_scenario",
    "sweep_total_time",
    "emit_report",
    "main",
]

SCHEMA_VERSION = 1

# Work bounds checked at the parse boundary: the entries of the stacked
# per-point matrices of a grid (n x n with n = D closed, D^2 open; 256 MiB
# of complex entries per stacked array), and the T values of one sweep.
MAX_GRID_ENTRIES = 2 ** 24
MAX_SWEEP_POINTS = 1000

_SCHEMA_ERRORS = (InputError, ConfigError, ShapeError, DomainError)

_TOP_LEVEL_FIELDS = {
    "schema", "kind", "pipeline", "model", "dimension",
    "hamiltonian_terms", "lindblad_terms", "initial_state", "total_time",
    "T_grid", "grid_points", "tolerances", "output",
}


@dataclass(frozen=True)
class Scenario:
    """One parsed scenario: generator, state, schedule, output routing."""

    spec: GeneratorSpec
    pipeline: str
    initial_state: np.ndarray
    total_time: float
    T_grid: tuple
    grid_points: int
    rtol: float
    atol: float
    out_path: str
    out_format: str

    @property
    def kind(self) -> str:
        return self.spec.kind

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_points)


def _field(data, name, expected, where):
    value = data[name]
    if not isinstance(value, expected):
        raise InputError(f"{where}.{name} must be a {expected.__name__}",
                         field=name)
    return value


def _coerce_model_params(params, where):
    out = {}
    for key, value in params.items():
        label, field = f"{where}.model.params.{key}", f"model.params.{key}"
        if key.endswith("_envelope"):
            out[key] = envelope_from_json(value, label, field)
        elif key in ("h0", "h1"):
            matrix = matrix_from_json(value, field)
            if not (matrix.shape[0] == matrix.shape[1]
                    and is_hermitian(matrix, 1e-12)):
                raise InputError(f"{label} must be a Hermitian matrix",
                                 field=field)
            out[key] = matrix
        else:
            out[key] = _finite_number(value, label, field)
    return out


def _parse_terms(data, name, where):
    terms = []
    for k, item in enumerate(data):
        label = f"{where}.{name}[{k}]"
        if not (isinstance(item, dict)
                and set(item) == {"matrix", "envelope"}):
            raise InputError(
                f"{label} must be an object with 'matrix' and 'envelope'",
                field=name)
        field = f"{name}[{k}]"
        terms.append((matrix_from_json(item["matrix"], f"{field}.matrix"),
                      envelope_from_json(item["envelope"],
                                         f"{label}.envelope",
                                         f"{field}.envelope")))
    return tuple(terms)


def _parse_initial_state(data, spec, where):
    if spec.kind == "closed":
        vec = matrix_from_json([data], "initial_state").reshape(-1)
        if vec.size != spec.dimension:
            raise InputError(
                f"{where}.initial_state needs {spec.dimension} components, "
                f"got {vec.size}", field="initial_state")
        if abs(np.linalg.norm(vec) - 1.0) > 1e-6:
            raise InputError(f"{where}.initial_state is not normalized",
                             field="initial_state")
        return vec
    return _check_density(matrix_from_json(data, "initial_state"),
                          spec.dimension, f"{where}.initial_state",
                          field="initial_state")


def parse_scenario(data, where: str = "scenario") -> Scenario:
    """Validate a scenario document field by field."""
    if not isinstance(data, dict):
        raise InputError(f"{where} must be a JSON object")
    unknown = set(data) - _TOP_LEVEL_FIELDS
    if unknown:
        raise InputError(f"{where} has unknown fields {sorted(unknown)}",
                         fields=sorted(unknown))
    if data.get("schema") != SCHEMA_VERSION:
        raise InputError(
            f"{where}.schema must be {SCHEMA_VERSION}, "
            f"got {data.get('schema')!r}", field="schema")

    if "model" in data:
        block = _field(data, "model", dict, where)
        if set(block) - {"name", "params"} or "name" not in block:
            raise InputError(f"{where}.model needs 'name' and optional "
                             "'params'", field="model")
        if block["name"] not in MODEL_NAMES:
            raise InputError(
                f"{where}.model.name must be one of {sorted(MODEL_NAMES)}",
                field="model")
        params = block.get("params", {})
        if not isinstance(params, dict):
            raise InputError(f"{where}.model.params must be an object",
                             field="model")
        spec = make_model(block["name"], **_coerce_model_params(params, where))
    else:
        for required in ("kind", "dimension", "hamiltonian_terms"):
            if required not in data:
                raise InputError(
                    f"{where}.{required} is required without a model block",
                    field=required)
        spec = GeneratorSpec(
            _field(data, "dimension", int, where),
            _field(data, "kind", str, where),
            _parse_terms(_field(data, "hamiltonian_terms", list, where),
                         "hamiltonian_terms", where),
            _parse_terms(_field(data, "lindblad_terms", list, where)
                         if "lindblad_terms" in data else [],
                         "lindblad_terms", where))
    if "kind" in data and data["kind"] != spec.kind:
        raise InputError(
            f"{where}.kind is {data['kind']!r} but the generator is "
            f"{spec.kind!r}", field="kind")

    pipeline = data.get("pipeline")
    if pipeline is not None and pipeline not in PIPELINES:
        raise InputError(f"{where}.pipeline must be one of {PIPELINES}",
                         field="pipeline")

    initial = None
    if "initial_state" in data:
        initial = _parse_initial_state(data["initial_state"], spec, where)

    total_time = None
    if "total_time" in data:
        total_time = _finite_number(data["total_time"], f"{where}.total_time",
                                    "total_time", positive=True)
    T_grid = None
    if "T_grid" in data:
        values = _field(data, "T_grid", list, where)
        if not values:
            raise InputError(f"{where}.T_grid must hold positive numbers",
                             field="T_grid")
        T_grid = tuple(_finite_number(v, f"{where}.T_grid[{k}]", "T_grid",
                                      positive=True)
                       for k, v in enumerate(values))
        if list(T_grid) != sorted(T_grid):
            raise InputError(f"{where}.T_grid must be ascending",
                             field="T_grid")

    grid_points = data.get("grid_points", 201)
    n = spec.dimension ** (1 if spec.kind == "closed" else 2)
    if not (isinstance(grid_points, int)
            and 2 <= grid_points <= MAX_GRID_ENTRIES // (n * n)):
        raise InputError(f"{where}.grid_points must be an integer from 2 to "
                         f"{MAX_GRID_ENTRIES // (n * n)}", field="grid_points")

    tol = data.get("tolerances", {})
    if not isinstance(tol, dict) or set(tol) - {"rtol", "atol"}:
        raise InputError(f"{where}.tolerances allows only rtol and atol",
                         field="tolerances")
    rtol = _finite_number(tol.get("rtol", 1e-8), f"{where}.tolerances.rtol",
                          "tolerances", positive=True)
    atol = _finite_number(tol.get("atol", 1e-10), f"{where}.tolerances.atol",
                          "tolerances", positive=True)

    out = data.get("output", {})
    if not isinstance(out, dict) or set(out) - {"path", "format"}:
        raise InputError(f"{where}.output allows only path and format",
                         field="output")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise InputError(f"{where}.output.format must be csv or json",
                         field="output")

    return Scenario(spec, pipeline, initial, total_time, T_grid,
                    grid_points, rtol, atol, out.get("path"), fmt)


def emit_report(results, scenario_bytes=None, tolerances=None) -> str:
    """Wrap pipeline results in the versioned, reproducible report form."""
    doc = {
        "report_version": 1,
        "tool_version": __version__,
        "scenario_sha256": (hashlib.sha256(scenario_bytes).hexdigest()
                            if scenario_bytes is not None else None),
        "tolerances": tolerances,
        "results": results,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_csv(path, columns, rows, cell=repr):
    """One line per row of Python floats, or of values ``cell`` formats,
    written as it is formatted, so no copy of the table is held as text."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(cell, row)) + "\n")


def _cell(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    return repr(float(x))


def _table(columns, *blocks):
    """``(columns, float array)``: the blocks side by side, each complex
    block as adjacent re/im columns."""
    return columns, np.column_stack([
        np.ascontiguousarray(b).view(float) if np.iscomplexobj(b) else b
        for b in blocks])


def _re_im(labels):
    return [f"{part}{label}" for label in labels for part in ("re", "im")]


def _default_state(sc, track=None):
    if sc.initial_state is not None:
        return sc.initial_state
    if sc.kind == "closed":
        return track.vectors[0, :, 0]
    raise InputError("open-system pipelines need an initial_state",
                     field="initial_state")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_time(sc, T_flag):
    T = T_flag if T_flag is not None else sc.total_time
    if T is None:
        raise InputError("no total time: set total_time in the scenario "
                         "or pass --T", field="total_time")
    return float(T)


def _open_track(sc, grid):
    analytic = (None if sc.spec.lindblad_terms
                else unitary_embedding_jordan(sc.spec))
    return jordan_track(sc.spec, grid, analytic=analytic)


# ----------------------------------------------------------------- pipelines
# Each maps (scenario, --T, --order) to (table, report), either one None:
# _execute alone writes them, the table as CSV or as {"columns", "rows"}.

def _pipe_spectrum(sc, T, order):
    grid = sc.grid()
    if sc.kind == "closed":
        track = track_spectrum(sc.spec, grid)
        columns = ["s"] + [f"E{n}" for n in range(track.dim)]
        return _table(columns, grid, track.energies), None
    track = _open_track(sc, grid)
    return _table(["s"] + _re_im(range(track.nblocks)), grid,
                  track.lambdas), None


def _pipe_evolve(sc, T, order):
    grid = sc.grid()
    T = _require_time(sc, T)
    tol = (sc.rtol, sc.atol)
    if sc.kind == "closed":
        track = track_spectrum(sc.spec, grid)
        traj = integrate_schrodinger(sc.spec, T, _default_state(sc, track),
                                     grid, tol)
        columns = (["s", "t"] + [f"E{n}" for n in range(track.dim)]
                   + _re_im(range(track.dim)))
        return _table(columns, grid, traj.times, track.energies,
                      traj.states), None
    traj = integrate_master(sc.spec, T, _default_state(sc), grid, tol)
    D = sc.spec.dimension
    columns = ["s", "t"] + _re_im(f"{a}{b}" for a in range(D)
                                  for b in range(D))
    return _table(columns, grid, traj.times, traj.states), None


def _open_coefficients(sc, grid, track, T):
    """The stripped block coefficients of one master-equation solve at T."""
    traj = integrate_master(sc.spec, T, _default_state(sc), grid,
                            (sc.rtol, sc.atol))
    return expand_jordan_coefficients(traj, track, T)


def _pipe_check(sc, T, order):
    grid = sc.grid()
    if sc.kind == "closed":
        T = _require_time(sc, T)
        track = track_spectrum(sc.spec, grid)
        cond = adiabatic_condition_ratio(track, sc.spec, T)
        estimate = min_time_estimate(track, sc.spec, 0)
        return None, {
            "total_time": T,
            "max_ratio": cond.max_ratio,
            "max_pair": list(cond.max_pair),
            "ratios": {f"{n},{k}": v for (n, k), v in cond.ratios.items()},
            "satisfied": bool(cond.max_ratio < 1.0),
            "min_time_estimate": {"T_est": estimate.T_est, "F": estimate.F,
                                  "G": estimate.G},
        }
    track = _open_track(sc, grid)
    couplings = coupling_tensor(track, sc.spec)
    cond = open_condition_metric(track, sc.spec, couplings=couplings)
    results = {
        "block_sizes": list(track.sizes),
        "max_metric": cond.max_metric,
        "max_key": list(cond.max_key),
        "metrics": {",".join(map(str, key)): val
                    for key, val in cond.metrics.items()},
    }
    T_values = sc.T_grid if T is None else (T,)
    if sc.initial_state is not None and T_values:
        coeffs_at = functools.cache(
            lambda T: _open_coefficients(sc, grid, track, T))
        tcond = open_time_condition(track, sc.spec, coeffs_at, T_values,
                                    couplings=couplings)
        results["time_condition"] = {
            "T_grid": list(tcond.T_grid),
            "satisfied_all": list(tcond.satisfied_all),
            "threshold_T": tcond.threshold_T,
            "crossover_T": tcond.crossover_T,
            "bounds": {f"{a},{i}": list(v)
                       for (a, i), v in tcond.bounds.items()},
        }
        labels = classify_regime(track, coeffs_at(T_values[-1]), sc.spec,
                                 couplings=couplings)
        results["regimes"] = {f"{a},{b}": lab
                              for (a, b), lab in labels.items()}
    return None, results


def _pipe_wu(sc, T, order):
    if sc.kind != "closed":
        raise ConfigError("the expansion pipeline needs a closed system")
    order = 2 if order is None else order
    if not (_is_integer(order) and 0 <= order <= 3):
        raise InputError(f"order must be an integer in 0..3, got {order!r}",
                         field="order")
    T, order = _require_time(sc, T), int(order)
    expansion = wu_expansion(sc.spec, T, order, sc.grid())
    exact = _track_propagator(sc.spec, T, expansion.track)
    errors = [float(np.linalg.norm(expansion.partial_sum(m)[-1] - exact[-1]))
              for m in range(order + 1)]
    return None, {
        "total_time": T,
        "order": order,
        "grid_points": sc.grid_points,
        "final_errors": errors,
    }


def _pipe_jordan(sc, T, order):
    if sc.kind != "open":
        raise ConfigError("the block-structure pipeline needs an open "
                          "system")
    track = _open_track(sc, sc.grid())
    return None, {**track.export(), "block_sizes": list(track.sizes),
                  "clusters": list(track.clusters),
                  "residual_max": track.residual_max}


def _pipe_consistency(sc, T, order):
    if sc.kind != "closed":
        raise ConfigError("the consistency pipeline needs a closed system")
    report = consistency_report(sc.spec, _require_time(sc, T), sc.grid(),
                                tol=(sc.rtol, sc.atol))
    table = _table(["s", "w", "r", "fid_proper", "fid_illegal"],
                   report.grid, report.w, report.r, report.fid_proper,
                   report.fid_illegal)
    return table, report.to_json()


_PIPELINE_FUNCS = {
    "spectrum": _pipe_spectrum,
    "evolve": _pipe_evolve,
    "check": _pipe_check,
    "wu": _pipe_wu,
    "jordan": _pipe_jordan,
    "consistency": _pipe_consistency,
}

PIPELINES = (*_PIPELINE_FUNCS, "sweep")


# --------------------------------------------------------------------- sweep

def _sweep_point(sc, grid, track, couplings, T):
    """One sweep row.

    Every T shares the parsed scenario, its grid and track, and for an
    open scenario the coupling tensor.
    """
    if sc.kind == "closed":
        traj = integrate_schrodinger(sc.spec, T, track.vectors[0, :, 0],
                                     grid, (sc.rtol, sc.atol))
        reference = adiabatic_state(track, T, 1.0, 0)
        infidelity = 1.0 - fidelity(
            reference, traj.states[-1] / np.linalg.norm(traj.states[-1]))
        ratio = adiabatic_condition_ratio(track, sc.spec, T).max_ratio
        return T, infidelity, ratio, bool(ratio < 1.0)
    coeffs = _open_coefficients(sc, grid, track, T)
    drift = 0.0
    scale = 1e-300
    for curve in coeffs.p.values():
        finite = curve[np.isfinite(curve)]
        if finite.size:
            drift = max(drift, float(np.max(np.abs(finite - finite[0]))))
            scale = max(scale, float(np.max(np.abs(finite))))
    tcond = open_time_condition(track, sc.spec, coeffs, (T,),
                                couplings=couplings)
    bound = max(v[0] for v in tcond.bounds.values())
    ratio = bound / T if np.isfinite(bound) else np.inf
    return T, drift / scale, ratio, bool(tcond.satisfied_all[0])


def sweep_total_time(path, T_min, T_max, points, spacing: str = "log",
                     jobs: int = None, out: str = None):
    """Run the same scenario at many total times and tabulate the outcome.

    Returns rows (T, infidelity, condition ratio, bound satisfied) sorted
    by T; for open systems the infidelity column reports the worst
    relative drift of the stripped block coefficients, the quantity the
    adiabatic statement actually bounds.  The rows are computed in this
    process, in T order.

    ``jobs`` is still accepted and validated (an integer >= 1), but it
    changes nothing: the benchmark's traced sweeps pass ``--jobs 1``, and
    the parameter and the flag go once they stop doing so (ROADMAP item 9).
    """
    if spacing not in ("linear", "log"):
        raise InputError(f"spacing must be linear or log, got {spacing!r}",
                         field="spacing")
    T_min = _finite_number(T_min, "T_min", "T_min", positive=True)
    T_max = _finite_number(T_max, "T_max", "T_max", positive=True)
    if not T_max > T_min:
        raise InputError("need 0 < T_min < T_max", field="T_min")
    if not (_is_integer(points) and 2 <= points <= MAX_SWEEP_POINTS):
        raise InputError(f"points must be an integer in 2.."
                         f"{MAX_SWEEP_POINTS}, got {points!r}", field="points")
    if jobs is not None and not (_is_integer(jobs) and jobs >= 1):
        raise InputError(f"jobs must be an integer >= 1, got {jobs!r}",
                         field="jobs")
    _, sc = _load_scenario(path)
    grid = sc.grid()
    if sc.kind == "closed":
        track, couplings = track_spectrum(sc.spec, grid), None
    else:
        _default_state(sc)
        track = _open_track(sc, grid)
        couplings = coupling_tensor(track, sc.spec)
    space = np.geomspace if spacing == "log" else np.linspace
    rows = [_sweep_point(sc, grid, track, couplings, T)
            for T in space(T_min, T_max, points).tolist()]
    if out is not None:
        _write_csv(out, ["T", "infidelity", "condition_ratio",
                         "bound_satisfied"], rows, _cell)
    return rows


# ----------------------------------------------------------------- dispatch

def _resolve_out(out_flag, scenario_path, name):
    """--out, else the scenario's output path, else ``name`` in the
    ADIAKIT_OUTPUT_DIR directory (default: the working directory)."""
    return out_flag or scenario_path or os.path.join(
        os.environ.get("ADIAKIT_OUTPUT_DIR", "."), name)


def _exit_code(run) -> int:
    """Call ``run`` and map its outcome to the process exit code.

    0 on success; 2 for schema, input and command line errors and
    unreadable files; 3 when a numerical routine refuses.  A failure is
    also written to stderr as one JSON object with the error name, message
    and details.
    """
    try:
        run()
        return 0
    except (*_SCHEMA_ERRORS, OSError) as exc:
        code, error = 2, exc
    except AdiakitError as exc:
        code, error = 3, exc
    details = dict(getattr(error, "details", {}) or {})
    print(json.dumps({"error": type(error).__name__, "message": str(error),
                      "details": details}, sort_keys=True, default=str),
          file=sys.stderr)
    return code


def _load_scenario(path, grid_points=None):
    """The raw bytes of a scenario file and the parsed :class:`Scenario`,
    with ``grid_points``, when given, in place of the document's."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        raise InputError(f"scenario is not valid JSON: {exc}") from exc
    if grid_points is not None and isinstance(doc, dict):
        doc["grid_points"] = grid_points
    return raw, parse_scenario(doc)


def _execute(path, verb, T, grid_points, order, out, fmt):
    raw, sc = _load_scenario(path, grid_points)
    if T is not None:
        T = _finite_number(T, "--T", "T", positive=True)
    verb = verb or sc.pipeline
    if verb is None:
        raise InputError("scenario names no pipeline and none was given "
                         "on the command line", field="pipeline")
    if verb == "sweep":
        raise InputError("use the sweep subcommand for total-time sweeps",
                         field="pipeline")
    fmt = fmt or sc.out_format
    table, report = _PIPELINE_FUNCS[verb](sc, T, order)
    out = _resolve_out(out, sc.out_path, f"{verb}.{fmt}")
    if table is not None and fmt == "csv":
        _write_csv(out, table[0], table[1].tolist())
        return out
    if report is None:
        report = {"columns": table[0], "rows": table[1].tolist()}
    _write_text(out, emit_report(report, raw,
                                 {"rtol": sc.rtol, "atol": sc.atol}))
    return out


def run_scenario(path, pipeline: str = None, T: float = None,
                 grid: int = None, order: int = None, out: str = None,
                 fmt: str = None) -> int:
    """Execute one scenario end to end; returns the process exit code."""
    return _exit_code(lambda: _execute(path, pipeline, T, grid, order, out,
                                       fmt))


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with an :class:`InputError` that names the
    flag, so the refusal reaches :func:`_exit_code` like any other."""

    def error(self, message):
        named = re.search(r"(?:argument|option:|required:|arguments:) "
                          r"([^\s,:]+)", message)
        if named is None:
            raise InputError(message)
        raise InputError(message,
                         field=named[1].lstrip("-").replace("-", "_"))


def main(argv=None) -> int:
    parser = _Parser(
        prog="adiakit",
        description="Slow-drive analyses for closed and open quantum "
                    "systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in _PIPELINE_FUNCS:
        p = sub.add_parser(verb)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--T", type=float, default=None,
                       help="total evolution time override")
        p.add_argument("--grid", type=int, default=None,
                       help="number of schedule grid points")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        if verb == "wu":
            p.add_argument("--order", type=int, default=None,
                           help="highest transition order to sum")

    sweep = sub.add_parser("sweep")
    sweep.add_argument("scenario")
    sweep.add_argument("--T-min", type=float, required=True)
    sweep.add_argument("--T-max", type=float, required=True)
    sweep.add_argument("--points", type=int, required=True)
    sweep.add_argument("--spacing", choices=("linear", "log"),
                       default="log")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="accepted and ignored: rows run in this process")
    sweep.add_argument("--out", default=None)

    def run():
        ns = parser.parse_args(argv)
        if ns.command == "sweep":
            sweep_total_time(ns.scenario, ns.T_min, ns.T_max, ns.points,
                             ns.spacing, ns.jobs,
                             _resolve_out(ns.out, None, "sweep.csv"))
        else:
            _execute(ns.scenario, ns.command, ns.T, ns.grid,
                     getattr(ns, "order", None), ns.out, ns.format)

    return _exit_code(run)


if __name__ == "__main__":
    sys.exit(main())
