"""Runs one workload's job list in a fresh interpreter.

Started by ``run.py``; imports the program from the checkout's ``src``
and nothing else of the benchmark except :mod:`tracer`.  Every mode
records the time ``import adiakit.cli`` took, a ``setup_s`` sample.
Modes:

setup   nothing more.
cold    one pass over the job list; exec to its end is a ``cold_s``
        sample.
timed   the first pass is again a cold sample; passes then repeat back
        to back, one client, until the window ends, with tracing off and
        the program's default sweep pool.
trace   every sweep runs with ``--jobs 1`` so all layer calls happen in
        this process; after one warm-up pass, each job runs untraced and
        then traced; the tracing overhead is the sum over jobs of the
        median over such pairs of traced minus untraced time.

The result goes to a JSON file; the outputs of the last pass stay on
disk for the parent to check against its references.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
sys.path.insert(0, SRC)

# setup_s: the import every CLI invocation pays, before anything else is
# imported that would warm it
_t0 = time.perf_counter()
import adiakit.cli  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

MODULES = ("adiakit", "adiakit.cli", "adiakit._rk45", "adiakit.schedules",
           "adiakit.numkit", "adiakit.closed", "adiakit.open_system",
           "adiakit.consistency")


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest(), os.path.getsize(path)


class Runner:
    def __init__(self, jobs, serial_sweeps):
        import importlib

        import numpy as np
        self.np = np
        self.modules = {name: importlib.import_module(name)
                        for name in MODULES}
        self.jobs = jobs
        self.serial_sweeps = serial_sweeps
        self.tracer = None

    def _run_job(self, job):
        cli = self.modules["adiakit.cli"]
        if "argv" in job:
            argv = list(job["argv"])
            if self.serial_sweeps and job["verb"] == "sweep":
                argv += ["--jobs", "1"]
            return cli.main(argv) == 0, None
        call = job["call"]
        with open(call["scenario"]) as fh:
            spec = cli.parse_scenario(json.load(fh)).spec
        closed = self.modules["adiakit.closed"]
        flow = closed.coefficient_dynamics(
            spec, call["T"], call["a0"],
            self.np.linspace(0.0, 1.0, call["grid_points"]))
        return True, flow

    def run_job(self, job):
        """One job: ok, seconds, output digests."""
        span = None
        if self.tracer is not None and "argv" in job:
            span = self.tracer.open("cli." + job["verb"])
        t0 = time.perf_counter()
        try:
            ok, flow = self._run_job(job)
        except SystemExit as exc:   # argparse refusing the argv
            ok, flow = exc.code == 0, None
        except Exception:
            traceback.print_exc()
            ok, flow = False, None
        seconds = time.perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
        if flow is not None:
            self.np.save(job["call"]["out"], flow.reconstruct())
        digests, nbytes = [], 0
        for path in job["outputs"]:
            if os.path.exists(path):
                digest, size = _digest(path)
                digests.append(digest)
                nbytes += size
            else:
                digests.append(None)
        return {"name": job["name"], "ok": bool(ok), "seconds": seconds,
                "digests": digests, "bytes": nbytes if "argv" in job else 0}

    def run_pass(self):
        """One pass over the job list."""
        return [self.run_job(job) for job in self.jobs]

    def run_pair(self, tracer):
        """One untraced and one traced pass, interleaved job by job: each
        job runs untraced, then at once traced, so the pair sees the same
        machine speed."""
        plain, traced = [], []
        for job in self.jobs:
            plain.append(self.run_job(job))
            tracer.install()
            self.tracer = tracer
            try:
                traced.append(self.run_job(job))
            finally:
                tracer.uninstall()
                self.tracer = None
        return plain, traced


def _wall(p):
    return sum(j["seconds"] for j in p)


def cold(runner, spawned):
    passes = [runner.run_pass()]
    return passes, {"cold_s": time.monotonic() - spawned}


def timed(runner, seconds, spawned):
    passes = [runner.run_pass()]
    cold_s = time.monotonic() - spawned
    deadline = time.monotonic() + seconds
    # at least two timed passes; after that, start a pass only if half of
    # it fits in the window, so the window overruns by half a pass at most
    while (len(passes) < 3
           or time.monotonic() + _wall(passes[-1]) / 2 < deadline):
        passes.append(runner.run_pass())
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return passes, {"cold_s": cold_s, "walls": [_wall(p) for p in passes[1:]],
                    "maxrss_kb": maxrss_kb}


def traced(runner, seconds, spans_path):
    import tracer as tracing

    passes = [runner.run_pass()]
    deadline = time.monotonic() + seconds
    plain, traced_walls, layer, self_s, spans = [], [], [], [], []
    diffs = []      # per pair, per job: traced minus untraced seconds
    while len(traced_walls) < 2 or time.monotonic() < deadline:
        tracer = tracing.Tracer(runner.modules)
        p, t = runner.run_pair(tracer)
        passes += [p, t]
        diffs.append([b["seconds"] - a["seconds"] for a, b in zip(p, t)])
        plain.append(_wall(p))
        traced_walls.append(_wall(t))
        m, self_times = tracer.metrics()
        m["cli.report_bytes"] = sum(j["bytes"] for j in t)
        layer.append(m)
        self_s.append(self_times)
        spans.append(tracer.spans)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "passes": spans}, fh)
    # like wall_s, a sum over jobs of per-job medians
    overhead = sum(statistics.median(d) for d in zip(*diffs))
    return passes, {"plain_walls": plain, "traced_walls": traced_walls,
                    "overhead_s": overhead,
                    "overhead_frac": overhead / statistics.median(plain),
                    "layer": layer, "self_s": self_s,
                    "deterministic": list(tracing.DETERMINISTIC)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--mode", choices=("setup", "cold", "timed", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    import adiakit
    if not os.path.abspath(adiakit.__file__).startswith(SRC + os.sep):
        print(f"adiakit imported from {adiakit.__file__}, not from the "
              "checkout", file=sys.stderr)
        return 2
    if args.mode == "setup":
        with open(args.result, "w") as fh:
            json.dump({"import_s": IMPORT_S}, fh)
        return 0
    with open(args.jobs) as fh:
        jobs = json.load(fh)

    runner = Runner(jobs, serial_sweeps=args.mode == "trace")
    if args.mode == "trace":
        passes, extra = traced(runner, args.seconds, args.spans)
    elif args.mode == "timed":
        passes, extra = timed(runner, args.seconds, args.spawned)
    else:
        passes, extra = cold(runner, args.spawned)
    result = dict(extra, import_s=IMPORT_S, passes=passes)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
