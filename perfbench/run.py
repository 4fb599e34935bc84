#!/usr/bin/env python3
"""The adiakit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload closed_scan --seed 1 \
        --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory.  A run generates the workload's inputs from the seed
(``gen.py``, ``jobs.py``), runs the job list in fresh worker processes
(``worker.py``: a closed loop, one client, jobs issued back to back),
checks every output against an independent reference computed after the
workers have exited (``reference.py``), and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

setup_s      median over the five worker interpreters (``WORKERS``) of
             ``import adiakit.cli``, the cost every CLI invocation pays
cold_s       median over the cold and the timed worker of exec to the end
             of the first pass over the job list
wall_s       the job list in a warm process: the sum over jobs of each
             job's median time across the timed passes
peak_rss_mb  ``ru_maxrss`` of the timed worker
err_digits   -log10 of the worst deviation from a reference divided by
             the tolerance the check states (``err_max``, printed in the
             details; above 1, i.e. below 0 digits, the job fails)
pass_frac    jobs that ran and matched their reference over jobs
             attempted

With ``--trace 1`` they are the per-layer ones that ``BENCHMARK.json``
lists, including the tracing overhead; ``tracer.MOVES`` says which
end-to-end metric and workload each should move.  The lines before the
last hold the environment record and the run's details; the same record,
and the spans of a traced run, are written under
``.bench_build/perfbench/results``.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import jobs as workloads
import reference
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
BUILD = os.path.join(CHECKOUT, ".bench_build", "perfbench")

# The workers of a run with --trace 0, in order: import-only interpreters
# between the others spread the setup_s samples over the run.
WORKERS = ("setup", "cold", "setup", "timed", "setup")
# all workers together must end in time for the references and for the
# run to exit within 180 s
WORKERS_DEADLINE = 160.0


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _run(argv, timeout):
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, cwd=CHECKOUT, start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode


def environment(seed):
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]
        except (TypeError, KeyError):
            return None
        return f"{dep['blas'].get('name')} {dep['blas'].get('version')}"

    commit = None
    head = os.path.join(CHECKOUT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(CHECKOUT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(CHECKOUT, "src", "adiakit",
                                       "cli.py")):
        return _fail(f"no program sources under {CHECKOUT}/src")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(BUILD, f"{tag}-{os.getpid()}")
    try:
        jobs = workloads.build(args.workload, args.seed, workdir, CHECKOUT)
    except OSError as exc:
        return _fail(f"cannot build the inputs: {exc}")
    try:
        return _measure(args, jobs, workdir, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, jobs, workdir, tag):
    env = environment(args.seed)
    print(json.dumps({"environment": env}))
    jobs_path = os.path.join(workdir, "jobs.json")
    with open(jobs_path, "w") as fh:
        json.dump(jobs, fh)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    spans_path = os.path.join(BUILD, "results", tag + "-spans.json")
    modes = ["trace"] if args.trace else WORKERS
    deadline = time.monotonic() + WORKERS_DEADLINE
    workers = []
    for k, mode in enumerate(modes):
        result_path = os.path.join(workdir, f"worker{k}.json")
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--jobs", jobs_path, "--mode", mode,
                "--seconds", repr(args.seconds), "--result", result_path,
                "--spans", spans_path]
        spawned = time.monotonic()
        try:
            code = _run(argv + ["--spawned", repr(spawned)],
                        max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            return _fail(f"the workers did not finish within "
                         f"{WORKERS_DEADLINE} s")
        if code != 0:
            return _fail(f"{mode} worker exited with {code}")
        with open(result_path) as fh:
            workers.append(json.load(fh))
    worker = next(w for w in reversed(workers) if "passes" in w)

    # correctness: the last pass's outputs against the references, and
    # every pass must have written the same bytes as the first
    passes = [p for w in workers for p in w.get("passes", [])]
    verdicts, err_max, failed_jobs = {}, 0.0, set()
    for k, job in enumerate(jobs):
        runs = [p[k] for p in passes]
        ok, err, notes = reference.check(job)
        if not all(r["ok"] for r in runs):
            ok, notes = False, notes + ["the program reported a failure"]
        if any(r["digests"] != runs[0]["digests"] for r in runs):
            ok, notes = False, notes + ["outputs differ between passes"]
        err_max = max(err_max, err)
        verdicts[job["name"]] = {"ok": ok, "err": err, "notes": notes}
        if not ok:
            failed_jobs.add(job["name"])
    attempted = len(jobs) * len(passes)
    failed = len(failed_jobs) * len(passes)
    correct = not failed_jobs

    if args.trace:
        metrics, detail = _layer_metrics(worker)
        correct = correct and not detail["counter_mismatch"]
    else:
        timed = worker["passes"][1:]
        job_medians = {job["name"]: statistics.median(p[k]["seconds"]
                                                      for p in timed)
                       for k, job in enumerate(jobs)}
        setup = [w["import_s"] for w in workers]
        cold = [w["cold_s"] for w in workers if "cold_s" in w]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cold_s": {"value": statistics.median(cold), "unit": "s"},
            "wall_s": {"value": sum(job_medians.values()), "unit": "s"},
            "peak_rss_mb": {"value": worker["maxrss_kb"] / 1024.0,
                            "unit": "MB"},
            "err_digits": {"value": -math.log10(max(err_max, 1e-16)),
                           "unit": "digits"},
            "pass_frac": {"value": 1.0 - failed / attempted,
                          "unit": "ratio"},
        }
        detail = {"err_max": err_max, "setup_samples": setup,
                  "cold_samples": cold, "wall_samples": worker["walls"],
                  "wall_count": len(timed), "job_medians": job_medians}
    record = {"environment": env, "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace,
              "jobs": verdicts, "detail": detail, "metrics": metrics}
    with open(os.path.join(BUILD, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for name, v in verdicts.items():
        if not v["ok"]:
            print(f"FAILED {name}: {'; '.join(v['notes'])}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _per_layer_units():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def _layer_metrics(worker):
    layer = worker["layer"]
    units = _per_layer_units()
    mismatch = sorted(name for name in worker["deterministic"]
                      if len({m[name] for m in layer}) > 1)
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = worker["overhead_s"]
        else:
            value = statistics.median(m[name] for m in layer)
        metrics[name] = {"value": value, "unit": unit}
    detail = {"plain_walls": worker["plain_walls"],
              "traced_walls": worker["traced_walls"],
              "overhead_pairs": len(worker["traced_walls"]),
              "overhead_frac": worker["overhead_frac"],
              "counter_mismatch": mismatch,
              "self_s": worker["self_s"],
              "note": "sweeps ran with --jobs 1 so every layer call was "
                      "traced in one process",
              "moves": {name: tracer.MOVES[name] for name in units}}
    if mismatch:
        print(f"counters differ between traced passes: {mismatch}",
              file=sys.stderr)
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
