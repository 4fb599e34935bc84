"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces the public functions of each adiakit module, in every
adiakit module that holds a reference to them (``from .closed import
track_spectrum`` binds a second name in ``cli``), with a wrapper that
records a span: name, start, end and the span that was open when it
started.  Counters come from public return values (integrator steps and
RHS evaluations, track grid sizes) and from call counts of a few public
methods.  Spans stay in memory until the run writes them out.

Nothing here changes what the program computes: the worker checks that a
traced pass writes the same bytes as an untraced one.
"""

import hashlib
import time
from collections import Counter

import numpy as np

# (module, attribute, span name): functions timed as spans
SPANS = (
    ("adiakit.cli", "parse_scenario", "cli.parse"),
    ("adiakit._rk45", "integrate", "rk45"),
    ("adiakit.closed", "track_spectrum", "closed.track"),
    ("adiakit.closed", "integrate_schrodinger", "closed.integrate"),
    ("adiakit.closed", "adiabatic_condition_ratio", "closed.condition"),
    ("adiakit.closed", "min_time_estimate", "closed.condition"),
    ("adiakit.closed", "wu_expansion", "closed.wu"),
    ("adiakit.closed", "instantaneous_propagator", "closed.propagator"),
    ("adiakit.closed", "coefficient_dynamics", "closed.coeff_flow"),
    ("adiakit.numkit", "jordan_decompose", "numkit.jordan"),
    ("adiakit.open_system", "jordan_track", "open.track"),
    ("adiakit.open_system", "integrate_master", "open.master"),
    ("adiakit.open_system", "expand_jordan_coefficients", "open.expand"),
    ("adiakit.open_system", "open_condition_metric", "open.metric"),
    ("adiakit.open_system", "open_time_condition", "open.time_condition"),
    ("adiakit.open_system", "classify_regime", "open.regime"),
    ("adiakit.consistency", "consistency_report", "consistency.report"),
)

# (module, class, method, counter): calls counted, not timed, because a
# wrapper around work this small would distort its time
COUNTED = (
    ("adiakit.schedules", "Envelope", "value", "schedules.envelope_evals"),
    ("adiakit.schedules", "Envelope", "derivative",
     "schedules.envelope_evals"),
    ("adiakit.open_system", "SuperAssembler", "matrix",
     "open.supermatrix_builds"),
    ("adiakit.open_system", "SuperAssembler", "derivative",
     "open.derivative_builds"),
)

VERBS = ("spectrum", "evolve", "check", "wu", "jordan", "consistency",
         "sweep")


# For each per-layer metric of BENCHMARK.json, the end-to-end metric and
# workload an optimisation of that layer should move.
MOVES = {
    "cli.parse_s": "wall_s on closed_scan and the open sweeps, which re-parse "
                   "the scenario for every T",
    "cli.self_s": "wall_s on closed_dense (row building, reports)",
    "cli.report_bytes": "wall_s on closed_dense",
    "cli.spectrum_s": "wall_s on closed_dense",
    "cli.evolve_s": "wall_s on closed_dense and open_generic",
    "cli.check_s": "wall_s on open_qubit and open_generic",
    "cli.wu_s": "wall_s on closed_dense",
    "cli.jordan_s": "wall_s on open_generic",
    "cli.consistency_s": "wall_s on closed_dense",
    "cli.sweep_s": "wall_s on closed_scan, open_qubit, open_generic",
    "schedules.envelope_evals": "wall_s on closed_scan",
    "rk45.calls": "wall_s on closed_dense (propagator columns)",
    "rk45.steps": "wall_s on closed_scan (T-uniform stepping)",
    "rk45.rhs_evals": "wall_s on closed_scan",
    "rk45.s": "wall_s on closed_dense and closed_scan",
    "rk45.rhs_s": "wall_s on open_generic (cheaper master RHS)",
    "rk45.steps_per_point": "wall_s on closed_dense (dense output); no change "
                            "on the large-T entries of closed_scan",
    "closed.track_calls": "wall_s on closed_scan",
    "closed.track_points": "wall_s on closed_scan",
    "closed.track_s": "wall_s on closed_scan",
    "closed.track_redundancy": "wall_s on closed_scan (compute the track "
                               "once)",
    "closed.integrate_s": "wall_s on closed_scan and closed_dense",
    "closed.condition_s": "wall_s on closed_scan",
    "closed.wu_s": "wall_s on closed_dense",
    "closed.propagator_s": "wall_s on closed_dense",
    "closed.coeff_flow_s": "wall_s on closed_dense",
    "numkit.jordan_calls": "wall_s on open_generic",
    "numkit.jordan_s": "wall_s on open_generic (singleton fast path); no "
                       "change on open_qubit",
    "open.track_calls": "wall_s on open_qubit and open_generic",
    "open.track_points": "wall_s on open_qubit and open_generic",
    "open.track_s": "wall_s on open_qubit and open_generic",
    "open.track_redundancy": "wall_s on open_qubit and open_generic (sweeps)",
    "open.master_s": "wall_s on open_generic",
    "open.supermatrix_builds": "wall_s on open_generic",
    "open.derivative_builds": "wall_s on open_generic (check builds dL/ds "
                              "three times)",
    "open.expand_s": "wall_s and peak_rss_mb on open_generic",
    "open.metric_s": "wall_s and peak_rss_mb on open_generic",
    "open.time_condition_s": "wall_s and peak_rss_mb on open_generic",
    "open.regime_s": "wall_s on open_generic",
    "consistency.report_s": "wall_s on closed_dense",
    "trace.overhead_s": "none: per job, the median over pairs of traced "
                        "minus untraced time, summed; both with --jobs 1",
}

# Counters that must repeat exactly between two traced passes.
DETERMINISTIC = ("rk45.calls", "rk45.steps", "rk45.rhs_evals",
                 "numkit.jordan_calls", "closed.track_calls",
                 "closed.track_points", "open.track_calls",
                 "open.track_points", "open.supermatrix_builds",
                 "open.derivative_builds", "schedules.envelope_evals")


def _spec_key(spec, grid):
    """Content key of a (generator spec, grid) pair, for redundancy counts."""
    h = hashlib.sha256()
    h.update(f"{spec.kind}/{spec.dimension}".encode())
    for terms in (spec.hamiltonian_terms, spec.lindblad_terms):
        for M, env in terms:
            h.update(np.ascontiguousarray(M).tobytes())
            h.update(repr(env).encode())
        h.update(b"|")
    h.update(np.ascontiguousarray(grid, dtype=float).tobytes())
    return h.hexdigest()


class Tracer:
    """Spans and counters of one traced pass; install, run, uninstall."""

    def __init__(self, modules):
        self.modules = modules      # name -> imported adiakit module
        self.spans = []             # [name, start, end, parent]
        self.counts = Counter()
        self.times = Counter()      # accumulated non-span times
        self.keys = {"closed.track": [], "open.track": []}
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------ spans
    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "rk45":
                args = (tracer._timed_rhs(args[0]),) + args[1:]
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            tracer._observe(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_rhs(self, rhs):
        times = self.times
        clock = time.perf_counter

        def timed(s, y):
            t0 = clock()
            try:
                return rhs(s, y)
            finally:
                times["rk45.rhs_s"] += clock() - t0

        return timed

    def _count(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args, kwargs, result):
        if name == "rk45":
            self.counts["rk45.steps"] += result.steps
            self.counts["rk45.rhs_evals"] += result.rhs_evals
            self.counts["rk45.points"] += len(result.s) - 1
        elif name in self.keys:
            self.counts[name + "_points"] += result.grid.size
            spec = args[0] if args else kwargs["spec"]
            self.keys[name].append(_spec_key(spec, result.grid))

    # ------------------------------------------------------ patching
    def install(self):
        for modname, attr, name in SPANS:
            original = getattr(self.modules[modname], attr)
            wrapper = self._wrap(original, name)
            for mod in self.modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for modname, cls, method, counter in COUNTED:
            klass = getattr(self.modules[modname], cls)
            original = klass.__dict__[method]
            self._undo.append((klass, method, original))
            setattr(klass, method, self._count(original, counter))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # ------------------------------------------------------- results
    def metrics(self):
        """The per-layer metrics of everything recorded so far, and the
        self time of every span name: its spans' durations minus the time
        their child spans cover."""
        total, self_time, calls = Counter(), Counter(), Counter()
        child = Counter()
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for sid, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            # a layer's time counts once even where its spans nest
            if not self._inside(sid, name):
                total[name] += end - start
            self_time[name] += end - start - child[sid]

        m = {f"cli.{verb}_s": total["cli." + verb] for verb in VERBS}
        m["cli.parse_s"] = total["cli.parse"]
        m["cli.self_s"] = sum(self_time["cli." + verb] for verb in VERBS)
        m["schedules.envelope_evals"] = self.counts["schedules.envelope_evals"]
        m["rk45.calls"] = calls["rk45"]
        m["rk45.steps"] = self.counts["rk45.steps"]
        m["rk45.rhs_evals"] = self.counts["rk45.rhs_evals"]
        m["rk45.s"] = total["rk45"]
        m["rk45.rhs_s"] = self.times["rk45.rhs_s"]
        points = self.counts["rk45.points"]
        m["rk45.steps_per_point"] = (self.counts["rk45.steps"] / points
                                     if points else 0.0)
        for layer in ("closed", "open"):
            track = layer + ".track"
            keys = self.keys[track]
            m[track + "_calls"] = calls[track]
            m[track + "_points"] = self.counts[track + "_points"]
            m[track + "_s"] = total[track]
            m[track + "_redundancy"] = (len(keys) / len(set(keys))
                                        if keys else 0.0)
        for name in ("integrate", "condition", "wu", "propagator",
                     "coeff_flow"):
            m[f"closed.{name}_s"] = total["closed." + name]
        m["numkit.jordan_calls"] = calls["numkit.jordan"]
        m["numkit.jordan_s"] = total["numkit.jordan"]
        m["open.master_s"] = total["open.master"]
        m["open.supermatrix_builds"] = self.counts["open.supermatrix_builds"]
        m["open.derivative_builds"] = self.counts["open.derivative_builds"]
        for name in ("expand", "metric", "time_condition", "regime"):
            m[f"open.{name}_s"] = total["open." + name]
        m["consistency.report_s"] = total["consistency.report"]
        return m, dict(self_time)

    def _inside(self, sid, name):
        parent = self.spans[sid][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
