"""The four workloads: a fixed job list each, built from a seed.

A job is plain JSON so the worker process can run it and the parent can
check its outputs without importing the program:

``argv``     arguments for ``adiakit.cli.main`` (or ``call`` for the one
             entry point no subcommand reaches, ``coefficient_dynamics``);
``verb``     the subcommand, which names the job's span in a traced run;
``outputs``  files the job writes, read back by the reference checks;
``check``    what :mod:`reference` compares the outputs against.

Sweeps carry no ``--jobs`` flag, so the timed run uses the program's
default pool size; the traced run appends ``--jobs 1``.
"""

import json
import os

import numpy as np

import gen

BUNDLED = ("scripts", "scenarios")


def _write(workdir, name, doc):
    path = os.path.join(workdir, "scenarios", name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def _bundled(checkout, name):
    path = os.path.join(checkout, *BUNDLED, name + ".json")
    with open(path) as fh:
        return path, json.load(fh)


class _Builder:
    def __init__(self, workdir):
        self.workdir = workdir
        self.jobs = []
        os.makedirs(os.path.join(workdir, "scenarios"), exist_ok=True)
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)

    def out(self, name):
        return os.path.join(self.workdir, "out", name)

    def cli(self, name, verb, scenario, extra, out, check):
        self.jobs.append({"name": name, "verb": verb,
                          "argv": [verb, scenario] + list(extra)
                          + ["--out", out],
                          "outputs": [out], "check": check})

    def sweep(self, name, scenario, doc, T_min, T_max, points, check):
        out = self.out(name + ".csv")
        T_values = [float(T) for T in np.geomspace(T_min, T_max, points)]
        self.cli(name, "sweep", scenario,
                 ["--T-min", repr(T_min), "--T-max", repr(T_max),
                  "--points", str(points)], out,
                 dict(check, doc=doc, T_values=T_values))


def closed_scan(b, seed, checkout):
    """How long must T be: sweeps to T = 1024 and checks at a few T."""
    lz_path, lz = _bundled(checkout, "landau_zener")
    rf_path, rf = _bundled(checkout, "rotating_field")
    c4 = gen.generate("closed4", seed)
    c4_path = _write(b.workdir, "closed4", c4)
    b.sweep("sweep_lz", lz_path, lz, 4.0, 1024.0, 5, {"type": "closed_sweep"})
    b.sweep("sweep_rf", rf_path, rf, 4.0, 256.0, 5, {"type": "closed_sweep"})
    b.sweep("sweep_c4", c4_path, c4, 4.0, 1024.0, 5, {"type": "closed_sweep"})
    for name, path, doc, T in (("check_lz", lz_path, lz, 100.0),
                               ("check_rf", rf_path, rf, 50.0),
                               ("check_c4", c4_path, c4, 50.0)):
        b.cli(name, "check", path, ["--T", repr(T)], b.out(name + ".json"),
              {"type": "closed_check", "doc": doc, "T": T})


def closed_dense(b, seed, checkout):
    """Output-bound integration and the large reports."""
    lz_path, lz = _bundled(checkout, "landau_zener")
    rf_path, rf = _bundled(checkout, "rotating_field")
    c4 = gen.generate("closed4", seed)
    c4_path = _write(b.workdir, "closed4", c4)
    # 4001 output points: every step is clipped to the output grid, so
    # both integrations take about one step per point (64 steps would do
    # for the endpoints alone)
    b.cli("evolve_lz", "evolve", lz_path, ["--grid", "4001"],
          b.out("evolve_lz.csv"),
          {"type": "closed_evolve", "doc": lz, "T": lz["total_time"],
           "grid_points": 4001})
    out = b.out("coeff_lz.npy")
    b.jobs.append({"name": "coeff_lz", "verb": "coefficient_dynamics",
                   "call": {"scenario": lz_path, "T": 40.0,
                            "grid_points": 4001, "a0": [1.0, 0.0],
                            "out": out},
                   "outputs": [out],
                   "check": {"type": "coefficient_flow", "doc": lz,
                             "T": 40.0, "grid_points": 4001}})
    b.cli("wu_lz", "wu", lz_path,
          ["--T", "20.0", "--order", "3", "--grid", "1001"],
          b.out("wu_lz.json"),
          {"type": "wu", "doc": lz, "T": 20.0, "order": 3})
    b.cli("spectrum_c4", "spectrum", c4_path,
          ["--grid", "2001", "--format", "csv"], b.out("spectrum_c4.csv"),
          {"type": "spectrum", "doc": c4, "grid_points": 2001})
    for fmt in ("json", "csv"):
        name = "consistency_rf_" + fmt
        b.cli(name, "consistency", rf_path, ["--format", fmt],
              b.out(f"{name}.{fmt}"),
              {"type": "consistency", "doc": rf, "format": fmt,
               "T": rf["total_time"]})


def _open_jobs(b, tag, path, doc, T_min, T_max, points):
    b.cli("jordan_" + tag, "jordan", path, [], b.out(f"jordan_{tag}.json"),
          {"type": "jordan", "doc": doc})
    b.cli("check_" + tag, "check", path, [], b.out(f"check_{tag}.json"),
          {"type": "open_check", "doc": doc})
    b.cli("evolve_" + tag, "evolve", path, ["--format", "csv"],
          b.out(f"evolve_{tag}.csv"),
          {"type": "open_evolve", "doc": doc, "T": doc["total_time"]})
    b.sweep("sweep_" + tag, path, doc, T_min, T_max, points,
            {"type": "open_sweep",
             "check_report": b.out(f"check_{tag}.json")})


def open_qubit(b, seed, checkout):
    """Tiny open generators: Python overhead and a clustered eigenvalue."""
    for family in ("qubit_static", "qubit_driven"):
        doc = gen.generate(family, seed)
        _open_jobs(b, family, _write(b.workdir, family, doc), doc,
                   1.0, 100.0, 5)


def open_generic(b, seed, checkout):
    """A generic D=4 Lindbladian (16 singleton blocks) and a D=8 solve."""
    doc = gen.generate("open4", seed)
    _open_jobs(b, "open4", _write(b.workdir, "open4", doc), doc,
               2.0, 20.0, 3)
    doc8 = gen.generate("open8", seed)
    b.cli("evolve_open8", "evolve", _write(b.workdir, "open8", doc8),
          ["--format", "csv"], b.out("evolve_open8.csv"),
          {"type": "open_evolve", "doc": doc8, "T": doc8["total_time"]})


WORKLOADS = {f.__name__: f for f in (closed_scan, closed_dense, open_qubit,
                                     open_generic)}


def build(workload, seed, workdir, checkout):
    """Write the workload's scenario files and return its job list."""
    b = _Builder(workdir)
    WORKLOADS[workload](b, seed, checkout)
    return b.jobs
