"""Fourth-order Magnus propagator for the linear flow y' = A(s) y.

One step of length h from t takes A at the two Gauss points
t + (1/2 -+ sqrt(3)/6) h and exponentiates

    Omega = (h/2) (A1 + A2) + (sqrt(3) h^2 / 12) [A2, A1]

(Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151, section 5;
Iserles & Norsett, Phil. Trans. R. Soc. A 357 (1999) 983).  For an
anti-Hermitian A(s), a Schroedinger flow, the exponential is one
Hermitian eigendecomposition of i Omega, so every step is unitary to
rounding.  Any other A(s), such as the T L(s) of a master equation,
takes the stacked Pade-13 scaling-and-squaring exponential
``numkit.expm``.  Nothing runs per step in Python: the generator is
evaluated at the nodes of a whole chunk of steps in one call, the chunk
is exponentiated in one stacked call, the steps of each output interval
are multiplied pairwise, and the interval products are chained with one
matrix product per output point.  Chunks hold at most
``numkit._STACK_ENTRIES`` matrix entries, and products are kept only at
output points.

Step control is deterministic.  Each output interval first gets the
fewest equal steps whose phase, ``width`` times the step, stays below
``_THETA``; ``width`` bounds the spectral width of i A over the span,
or for a generator that is not anti-Hermitian its spectral norm.  In
one stacked pass every interval is then solved with those steps and with
twice as many, and both solutions are chained through the output points.
Their difference carries the local estimates of all intervals along the
flow and sums them; divided by 15 it estimates the error of the finer
solution (order four), which has to stay within ``atol + rtol``.
Otherwise the intervals whose own estimate exceeds their share of the
tolerance, in proportion to their length, are solved again with their
steps multiplied by the factor that fourth order asks for to bring the
summed estimate to half the tolerance.  Chunks of output intervals are
controlled one after another, each against the share of its own length.
The returned solution is the extrapolation (16 fine - coarse) / 15 of
every interval, for an anti-Hermitian generator made unitary again by
one Newton-Schulz step: the step is symmetric, so its error has even
powers of h only and the extrapolation is of order six, well inside the
estimate that the finer solution meets.  Without that step the
extrapolation keeps every linear invariant that both its factors keep,
such as the trace of a density matrix, since its weights sum to one.

Both plans are checked against ``_rk45.MAX_STEPS`` before any exponential
of them is taken; :class:`StiffnessError` then reports the start s of the
output interval where the budget runs out and the steps planned.
"""

from __future__ import annotations

import numpy as np

from . import _rk45
from .errors import StiffnessError
from .numkit import _STACK_ENTRIES, expm

_NODE = 3 ** 0.5 / 6            # Gauss nodes at 1/2 -+ _NODE
_BRACKET = 3 ** 0.5 / 12        # weight of the commutator term
# largest phase of one coarse step by the width bound, which for the
# bundled drives is one and a half to twice the true spectral width
_THETA = 3.0
# step-doubling estimate of the finer solution: (coarse - fine) / 15
_RICHARDSON = 15.0


def _check_budget(starts, counts, done=0):
    """Refuse a plan of ``counts`` steps per interval, after ``done``
    steps already taken, that would exceed ``MAX_STEPS`` (or is not
    finite); the error names the interval start where it runs out."""
    total = done + np.cumsum(counts)
    budget = _rk45.MAX_STEPS
    if not total[-1] <= budget:     # also catches NaN and inf
        j = int(np.argmax(~(total <= budget)))
        s = float(starts[j])
        raise StiffnessError(
            f"the planned {total[-1]:.6g} Magnus steps exceed the budget "
            f"of {budget} at s = {s:.6f}", s=s, steps=float(total[-1]))


def _exponentials(generator, t, h, unitary):
    """exp(Omega) of the steps of length ``h`` from ``t``, stacked; by
    ``eigh`` if the generator is anti-Hermitian (``unitary``), else by
    the Pade kernel."""
    m = t.size
    A = generator(np.concatenate([t + (0.5 - _NODE) * h,
                                  t + (0.5 + _NODE) * h]))
    if not np.isfinite(A).all():
        raise StiffnessError("the generator is not finite at a Magnus "
                             "node", s=float(t[0]))
    A1, A2 = A[:m], A[m:]
    hh = h[:, None, None]
    omega = 0.5 * hh * (A1 + A2) + _BRACKET * hh * hh * (A2 @ A1 - A1 @ A2)
    if not unitary:
        return expm(omega)
    w, V = np.linalg.eigh(1j * omega)
    # I + V (exp(-i w) - 1) V^H, with exp(-i w) - 1 free of cancellation:
    # the rounding of V V^H then enters scaled by |w|, which keeps long
    # products unitary to rounding
    E = (V * (-2.0 * np.sin(0.5 * w) ** 2 - 1j * np.sin(w))[:, None, :]
         ) @ V.conj().swapaxes(1, 2)
    E[:, range(w.shape[1]), range(w.shape[1])] += 1.0
    return E


def _run_products(E, counts):
    """Products of consecutive runs of ``counts`` factors in ``E``, the
    later factor on the left, by pairwise halving inside every run."""
    while counts.max() > 1:
        starts = np.cumsum(counts) - counts
        local = np.arange(E.shape[0]) - np.repeat(starts, counts)
        head = local % 2 == 0
        paired = head & (local + 1 < np.repeat(counts, counts))
        left = np.flatnonzero(paired)
        halved = E[head]
        halved[paired[head]] = E[left + 1] @ E[left]
        E, counts = halved, (counts + 1) // 2
    return E


def _products(generator, starts, lengths, counts, n, chunk, unitary):
    """For every interval j, the product of ``counts[j]`` equal steps
    across [starts[j], starts[j] + lengths[j]], in chunks of steps."""
    ends = np.cumsum(counts)
    first = ends - counts
    P = np.empty((counts.size, n, n), dtype=complex)
    for k0 in range(0, int(ends[-1]), chunk):
        k = np.arange(k0, min(k0 + chunk, int(ends[-1])))
        j = np.searchsorted(ends, k, side="right")
        h = lengths[j] / counts[j]
        E = _exponentials(generator, starts[j] + (k - first[j]) * h, h,
                          unitary)
        runs = np.flatnonzero(np.diff(j, prepend=-1))
        parts = _run_products(E, np.diff(np.append(runs, k.size)))
        if k0 > first[j[0]]:    # the interval began in the last chunk
            parts[0] = parts[0] @ P[j[0]]
        P[j[runs]] = parts
    return P


def _chain(P, y):
    """States after every interval of the q solutions whose interval
    products are ``P[:, 0..q-1]``, all started from ``y`` (shape (n, k))."""
    states = np.empty(P.shape[:2] + y.shape, dtype=complex)
    for j in range(P.shape[0]):     # one product per output point
        y = np.matmul(P[j], y, out=states[j])
    return states


def _pairs(generator, starts, lengths, coarse, n, chunk, unitary):
    """Per interval: the products of ``coarse`` steps and of twice as
    many, and their extrapolation (16 fine - coarse) / 15, which removes
    the h^4 term of the error of the symmetric fourth-order step; if the
    flow is ``unitary``, one Newton-Schulz step takes the extrapolation
    back to a unitary."""
    P = np.empty((coarse.size, 3, n, n), dtype=complex)
    P[:, 0] = _products(generator, starts, lengths, coarse, n, chunk,
                        unitary)
    P[:, 1] = _products(generator, starts, lengths, 2 * coarse, n, chunk,
                        unitary)
    X = (16.0 * P[:, 1] - P[:, 0]) / _RICHARDSON
    if unitary:
        X = 1.5 * X - 0.5 * X @ (X.conj().swapaxes(1, 2) @ X)
    P[:, 2] = X
    return P


def propagate(generator, width: float, s_eval, y0, rtol: float,
              atol: float, unitary: bool = True) -> _rk45.IntegrationResult:
    """Solve y' = A(s) y through the points of ``s_eval``.

    ``generator`` maps a 1-d array of s to the stack of A(s), each n x n;
    if ``unitary``, every A(s) is anti-Hermitian and ``width`` bounds the
    spectral width of i A(s) on the span, else ``width`` bounds the
    spectral norm of A(s).  ``y0`` is a state of shape (n,) or a block of
    columns, shape (n, k); ``s_eval`` must be strictly increasing.

    In the result, ``steps`` counts the steps of the finer solution,
    ``rhs_evals`` every evaluation of A (two per step, the coarser
    solution's included), ``rejected`` the intervals solved again, and
    ``min_step`` is the smallest step and ``s_at_min_step`` the start of
    its interval.
    """
    pts = np.asarray(s_eval, dtype=float)
    y0 = np.asarray(y0, dtype=complex)
    n = y0.shape[0]
    lengths = np.diff(pts)
    coarse = np.maximum(1.0, np.ceil(width * lengths / _THETA))
    _check_budget(pts, 2 * coarse)
    coarse = coarse.astype(np.int64)
    share = (atol + rtol) * lengths / float(pts[-1] - pts[0])
    chunk = max(1, _STACK_ENTRIES // (n * n))
    out = np.empty((pts.size, n, y0.size // n), dtype=complex)
    out[0] = y0.reshape(n, -1)
    steps = evals = rejected = 0
    min_step, s_min = np.inf, np.nan
    for a in range(0, lengths.size, chunk):
        b = min(a + chunk, lengths.size)
        starts, L, c = pts[a:b], lengths[a:b], coarse[a:b]
        P = _pairs(generator, starts, L, c, n, chunk, unitary)
        evals += 6 * int(c.sum())
        states = _chain(P, out[a])
        # the difference of the two solutions carries every local estimate
        # along the flow and sums them: it is 15 times the finer one's error
        summed = float(np.max(np.linalg.norm(states[:, 0] - states[:, 1],
                                             axis=(1, 2)))) / _RICHARDSON
        allowed = float(share[a:b].sum())
        if summed > allowed:
            # refine the intervals whose own estimate exceeds their share,
            # all by the factor that brings the sum to half the tolerance
            over = (np.linalg.norm(P[:, 0] - P[:, 1], axis=(1, 2))
                    / _RICHARDSON > share[a:b])
            redo = np.flatnonzero(over) if over.any() else np.arange(L.size)
            more = np.ceil(c[redo] * (2.0 * summed / allowed) ** 0.25)
            _check_budget(starts[redo], 2 * more,
                          steps + 2 * int(c.sum()) - 2 * int(c[redo].sum()))
            c[redo] = more.astype(np.int64)
            P[redo] = _pairs(generator, starts[redo], L[redo], c[redo], n,
                             chunk, unitary)
            evals += 6 * int(c[redo].sum())
            rejected += redo.size
            states = _chain(P[:, 2:], out[a])
        out[a + 1:b + 1] = states[:, -1]
        steps += 2 * int(c.sum())
        h = L / (2 * c)
        i = int(np.argmin(h))
        if h[i] < min_step:
            min_step, s_min = float(h[i]), float(starts[i])
    return _rk45.IntegrationResult(pts, out.reshape((pts.size,) + y0.shape),
                                   steps, evals, rejected, min_step, s_min)
