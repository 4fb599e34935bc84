"""Explicit Dormand-Prince 5(4) stepper with PI step-size control: the
reference the tests compare every engine flow against, which no module of
the program imports.  Steps are clipped to land on every output point;
the embedded fourth-order solution enters only through the difference
weights ``_E``; the seventh stage is the next step's first.  A step below
``1e-14`` times the span or not a number, and running out of the step
budget ``MAX_STEPS``, raise :class:`StiffnessError` with the s reached.
"""

from __future__ import annotations

import math

import numpy as np

from ._magnus import MAX_STEPS, IntegrationResult
from .errors import InputError, StiffnessError

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0,
     0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])


def _rms(x) -> float:
    return float(np.sqrt(np.mean(np.abs(x) ** 2)))


def _initial_step(rhs, t0, y0, f0, direction, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = rhs(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def integrate(rhs, y0, s_eval, rtol: float = 1e-8,
              atol: float = 1e-10) -> IntegrationResult:
    """Integrate ``dy/ds = rhs(s, y)`` through the points of ``s_eval``.

    ``s_eval`` must be strictly increasing; integration starts at
    ``s_eval[0]`` and the solution is recorded at every entry.  In the
    result, ``steps`` counts every attempted step, ``rejected`` those the
    error control threw away, and ``rhs_evals`` is ``6 * steps + 2``;
    ``min_step`` is the smallest accepted step and ``s_at_min_step`` the s
    it started from, leaving out steps cut short to land on an output point
    and those grown from one by the largest factor, 10; only if every step
    was cut, the smallest of them.  Raises
    :class:`StiffnessError` when the controller drives the step below
    ``1e-14`` times the span or to NaN, and when ``MAX_STEPS`` steps do
    not reach the last point.
    """
    pts = np.asarray(s_eval, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise InputError("s_eval needs at least a start and an end point")
    if np.any(np.diff(pts) <= 0):
        raise InputError("s_eval must be strictly increasing")
    y = np.asarray(y0, dtype=complex).copy()
    if y.ndim != 1:
        raise InputError(f"state must be one-dimensional, got shape {y.shape}")

    span = float(pts[-1] - pts[0])
    h_floor = 1e-14 * span
    t = float(pts[0])
    out = np.empty((pts.size, y.size), dtype=complex)
    out[0] = y
    K = np.empty((7, y.size), dtype=complex)
    K_heads = [K[:j] for j in range(7)]  # views: the stages before stage j
    facold = 1e-4
    last_rejected = False
    steps = rejected = 0
    budget = MAX_STEPS
    # (cut, h, s) of the reported step: cut steps only as the fallback
    smallest, cut = (True, math.inf, math.nan), False

    with np.errstate(over="ignore", invalid="ignore"):
        f = rhs(t, y)
        h = min(_initial_step(rhs, t, y, f, 1.0, rtol, atol), span)
        ay = np.abs(y)
        for i in range(1, pts.size):
            target = float(pts[i])
            while t < target - 1e-14 * span:
                if h > target - t:
                    h, cut = target - t, True
                if not h >= h_floor:
                    raise StiffnessError(
                        f"step size collapsed to {h:.3e} at s = {t:.6f}",
                        s=t, step=float(h))
                if steps >= budget:
                    raise StiffnessError(
                        f"step budget of {budget} exhausted at "
                        f"s = {t:.6f}", s=t, steps=steps)
                hA = h * _A
                K[0] = f
                for j in range(1, 7):
                    ynew = y + hA[j, :j] @ K_heads[j]
                    K[j] = rhs(t + _C[j] * h, ynew)
                # the 7th stage node is b-weighted (FSAL): ynew is the step
                ay_new = np.abs(ynew)
                x = ((h * _E) @ K) / (atol + rtol * np.maximum(ay, ay_new))
                err = math.sqrt(np.vdot(x, x).real / x.size)
                if not err < math.inf:
                    err = math.inf
                steps += 1
                if err <= 1.0:
                    smallest = min(smallest, (cut, h, t))
                    t = t + h
                    y, ay, f = ynew, ay_new, K[6]
                    if err == 0.0:
                        factor = 10.0
                    else:
                        factor = min(10.0, max(0.2, 0.9 * facold ** 0.04
                                               * err ** -0.17))
                    if last_rejected:
                        factor = min(1.0, factor)
                    facold = max(err, 1e-4)
                    h = h * factor
                    cut = cut and factor == 10.0
                    last_rejected = False
                else:
                    h = h * max(0.2, 0.9 * err ** -0.2)
                    cut = False
                    rejected += 1
                    last_rejected = True
            out[i] = y
            t = target
    return IntegrationResult(pts, out, steps, 6 * steps + 2, rejected,
                             *smallest[1:])
