"""Fourth-order Magnus propagator for the linear flow y' = A(s) y.

One step of length h from t takes A at the two Gauss points
t + (1/2 -+ sqrt(3)/6) h and exponentiates

    Omega = (h/2) (A1 + A2) + (sqrt(3) h^2 / 12) [A2, A1]

(Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151, section 5;
Iserles & Norsett, Phil. Trans. R. Soc. A 357 (1999) 983).  For an
anti-Hermitian A(s), a Schroedinger flow, the exponential is one
Hermitian eigendecomposition of i Omega, or for a two-level flow its
closed form in i Omega = a I + b.sigma, so every step is unitary to
rounding.  Any other A(s) up to size ``_PADE_MAX_DIM``, the T L(s) of a
qubit, takes the stacked Pade-13 exponential ``numkit.expm``.  These run
no Python per step: the generator is evaluated at the nodes of a chunk
of steps in one call, the chunk is exponentiated in one stacked call,
the steps of each output interval are multiplied pairwise (2 x 2
products entry by entry), and the interval products are chained with
one matrix product per output point.
Chunks hold at most ``numkit._STACK_ENTRIES`` matrix entries.  A larger
A(s) never has its exponential formed: each step applies it to the state
by a Taylor polynomial whose degree and scaling a bound on the norm of
Omega fixes (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488); the
Omega of a chunk of steps, across output intervals, is planned at once.

Step control is deterministic, one rule for both kinds of exponential.
Each output interval first gets the fewest equal steps whose phase,
``width`` times the step, stays below ``_THETA``; ``width`` bounds the
spectral width of i A over the span, or for a generator that is not
anti-Hermitian its spectral norm.  A run of intervals is solved with
those steps and with twice as many, both solutions chained through its
output points.  Their difference carries the local estimates along the
flow and sums them; divided by 15 it estimates the error of the finer
solution (order four), which has to stay within the run's share of
``atol + rtol``.  Otherwise the intervals whose own estimate exceeds
their share are solved again with their steps multiplied by the factor
that fourth order asks for to bring the summed estimate to half the
tolerance.  A run of formed exponentials is a chunk of intervals, each
estimated by the difference of its two products and refined alone; a
run of applied ones keeps states only, so it is the whole grid, each
interval is estimated by what it adds to the difference, and the run is
solved again from its first refined interval.  The result is the
extrapolation (16 fine - coarse) / 15, for an anti-Hermitian generator
made unitary again by one Newton-Schulz step: the step is symmetric, so
its error has even powers of h only and the extrapolation is of order
six, well inside the estimate that the finer solution meets.  Without
that step the extrapolation keeps every linear invariant that both its
factors keep, such as the trace of a density matrix, since its weights
sum to one; so does a Taylor polynomial of Omega, whose powers all
annihilate the trace.

Both plans are checked against ``MAX_STEPS`` before any exponential of
them is taken; :class:`StiffnessError` then reports the start s of the
output interval where the budget runs out and the steps planned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StiffnessError
from .numkit import _STACK_ENTRIES, expm
from .schedules import _weighted_sum

# far above the ~12k steps of the largest solve in the benchmark
MAX_STEPS = 1_000_000

_NODE = 3 ** 0.5 / 6            # Gauss nodes at 1/2 -+ _NODE
_BRACKET = 3 ** 0.5 / 12        # weight of the commutator term
# largest phase of one coarse step by the width bound, which for the
# bundled drives is one and a half to twice the true spectral width
_THETA = 3.0
# step-doubling estimate of the finer solution: (coarse - fine) / 15
_RICHARDSON = 15.0
# largest n whose general exponential is formed (README, "Integrators")
_PADE_MAX_DIM = 4
# Al-Mohy & Higham (2011), table 3.1: the largest norm of A for which the
# Taylor polynomial of degree m = 1..55 meets exp(A) to a backward error
# of the unit roundoff 2^-53
_TAYLOR_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2,
    8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1,
    9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86,
    3.08, 3.31, 3.54, 3.78, 4.01, 4.25, 4.50, 4.74, 4.99, 5.25, 5.50, 5.76,
    6.02, 6.28, 6.54, 6.81, 7.08, 7.35, 7.62, 7.89, 8.16, 8.44, 8.71, 8.99,
    9.27, 9.55, 9.83, 10.1])
_DEGREES = np.arange(1, _TAYLOR_THETA.size + 1)
_INV_FACTORIAL = np.cumprod(np.append(1.0, 1.0 / _DEGREES))


@dataclass
class IntegrationResult:
    """Solution at the output points and the work that produced it:
    ``steps`` counts the steps of the finer solution, ``rhs_evals`` every
    evaluation of the generator (two per step, the coarser solution's
    included), ``rejected`` the output intervals solved again; ``min_step``
    is the smallest step and ``s_at_min_step`` where its interval starts."""

    s: np.ndarray
    y: np.ndarray
    steps: int
    rhs_evals: int
    rejected: int
    min_step: float
    s_at_min_step: float


def _check_budget(starts, counts, done=0):
    """Refuse a plan of ``counts`` steps per interval, after ``done``
    steps already taken, that would exceed ``MAX_STEPS`` (or is not
    finite); the error names the interval start where it runs out."""
    total = done + np.cumsum(counts)
    budget = MAX_STEPS
    if not total[-1] <= budget:     # also catches NaN and inf
        j = int(np.argmax(~(total <= budget)))
        s = float(starts[j])
        raise StiffnessError(
            f"the planned {total[-1]:.6g} Magnus steps exceed the budget "
            f"of {budget} at s = {s:.6f}", s=s, steps=float(total[-1]))


def _mul(A, B):
    """A @ B for stacks of n x n matrices; for n = 2 entry by entry, eight
    products of whole stacks where a stacked matmul pays a call per
    matrix."""
    if A.shape[-1] != 2:
        return A @ B
    C = np.empty(np.broadcast_shapes(A.shape, B.shape), dtype=complex)
    for i in range(2):
        for k in range(2):
            C[..., i, k] = (A[..., i, 0] * B[..., 0, k]
                            + A[..., i, 1] * B[..., 1, k])
    return C


def _expm1i(x):
    """exp(-i x) - 1 free of cancellation: the rounding of what it scales
    enters scaled by |x|, which keeps long products unitary to rounding."""
    return -2.0 * np.sin(0.5 * x) ** 2 - 1j * np.sin(x)


def _two_level(H):
    """exp(-i H) of a stack of Hermitian 2 x 2 H, from the triangle that
    ``eigh`` reads.  With H = a I + b.sigma and r = |b| the eigenvalues are
    a -+ r, the projectors (I -+ b.sigma / r) / 2, and

        exp(-i H) = I + g I + c b.sigma,   c = -i exp(-i a) sin(r) / r,

    g = exp(-i a) cos(r) - 1 = (exp(-i a) - 1) cos(r) - 2 sin(r / 2)^2
    free of cancellation.  Both take the phase exp(-i a) from one a, so
    the rounding of a large a moves the phase alone, and ``np.sinc``
    takes sin(r) / r to 1 at r = 0 with no branch."""
    d0, d1, low = H[:, 0, 0].real, H[:, 1, 1].real, H[:, 1, 0]
    a, z = 0.5 * (d0 + d1), 0.5 * (d0 - d1)
    r = np.sqrt(z * z + low.real ** 2 + low.imag ** 2)
    phase = _expm1i(a)
    g = phase * np.cos(r) - 2.0 * np.sin(0.5 * r) ** 2
    c = -1j * (1.0 + phase) * np.sinc(r / np.pi)
    E = np.empty(H.shape, dtype=complex)
    E[:, 0, 0] = 1.0 + (g + c * z)
    E[:, 1, 1] = 1.0 + (g - c * z)
    E[:, 1, 0] = c * low
    E[:, 0, 1] = c * low.conj()
    return E


def _exponentials(generator, t, h, unitary):
    """exp(Omega) of the steps of length ``h`` from ``t``, stacked; if the
    generator is anti-Hermitian (``unitary``) in closed form for n = 2 and
    by ``eigh`` above, else by the Pade kernel."""
    m = t.size
    A = generator(np.concatenate([t + (0.5 - _NODE) * h,
                                  t + (0.5 + _NODE) * h]))
    if not np.isfinite(A).all():
        raise StiffnessError("the generator is not finite at a Magnus "
                             "node", s=float(t[0]))
    A1, A2 = A[:m], A[m:]
    n, hh = A.shape[1], h[:, None, None]
    omega = 0.5 * hh * (A1 + A2) + _BRACKET * hh * hh * (_mul(A2, A1)
                                                         - _mul(A1, A2))
    if not unitary:
        return expm(omega)
    if n == 2:
        return _two_level(1j * omega)
    w, V = np.linalg.eigh(1j * omega)
    # I + V (exp(-i w) - 1) V^H
    E = (V * _expm1i(w)[:, None, :]) @ V.conj().swapaxes(1, 2)
    E[:, range(n), range(n)] += 1.0
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
        halved[paired[head]] = _mul(E[left + 1], E[left])
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


def _formed(generator, n, chunk, unitary):
    """The solve of a run of output intervals, exponentials formed: per
    interval the products of ``coarse`` steps, of twice as many and their
    extrapolation, chained from ``y``; a refinement forms them again for
    the intervals in ``redo`` and chains the extrapolations only."""
    if not unitary:
        factor, weights, parts, _ = generator

        def generator(s):
            return factor * _weighted_sum(s, weights(s), parts, n)

    P = None

    def solve(starts, lengths, coarse, y, redo=None):
        nonlocal P
        j = slice(None) if redo is None else redo
        if redo is None:
            P = np.empty((coarse.size, 3, n, n), dtype=complex)
        for q in range(2):
            P[j, q] = _products(generator, starts[j], lengths[j],
                                (q + 1) * coarse[j], n, chunk, unitary)
        X = (16.0 * P[j, 1] - P[j, 0]) / _RICHARDSON
        if unitary:     # one Newton-Schulz step
            X = 1.5 * X - 0.5 * _mul(X, _mul(X.conj().swapaxes(1, 2), X))
        P[j, 2] = X
        local = np.linalg.norm(P[:, 0] - P[:, 1], axis=(1, 2))
        # chained, every solution at once; refined, the extrapolation only
        Q = P if redo is None else P[:, 2:]
        states = np.empty(Q.shape[:2] + y.shape, dtype=complex)
        for i in range(len(Q)):     # one product per output point
            y = np.matmul(Q[i], y, out=states[i])
        return states, local, coarse[j]

    return solve


def _omegas(factor, weights, parts, fixed, n):
    """The map from steps of length ``h`` from ``t`` to their Omega / s,
    Taylor degree m and scaling s (the fewest products m s for a bound on
    the 1-norm of Omega), stacked, for A(s) = factor sum_k w_k(s) P_k.
    The parts in ``fixed`` fold into one first.  [A2, A1] is sum_{k,l}
    (w_k(s2) w_l(s1) - w_k(s1) w_l(s2)) P_k P_l, so Omega is one weighted
    sum of the parts and their products, which are formed here once."""
    first = weights(np.zeros(1))
    moving = [k for k in range(len(parts)) if k not in fixed]
    folded = _weighted_sum(0.0, [w[0] if k in fixed else 0.0
                                 for k, w in enumerate(first)], parts, n)
    P = factor * np.concatenate([folded[None], parts[moving]])
    K = len(P)
    B = np.concatenate([P, (P[:, None] @ P[None]).reshape(K * K, n, n)])
    norms = np.abs(B).sum(axis=1).max(axis=1)
    B = B.reshape(len(B), n * n)

    def plan(t, h):
        m = t.size
        nodes = weights(np.concatenate([t + (0.5 - _NODE) * h,
                                        t + (0.5 + _NODE) * h]))
        W = np.ones((2 * m, K))
        for col, k in enumerate(moving, 1):
            W[:, col] = nodes[k]
        G = W[m:, :, None] * W[:m, None, :]
        coef = np.concatenate([0.5 * h[:, None] * (W[:m] + W[m:]),
                               _BRACKET * (h * h)[:, None]
                               * (G - G.swapaxes(1, 2)).reshape(m, K * K)],
                              axis=1)
        bound = np.abs(coef) @ norms
        if not np.isfinite(bound).all():
            raise StiffnessError("the generator is not finite at a Magnus "
                                 "node", s=float(t[0]))
        scaling = np.maximum(1.0, np.ceil(bound[:, None] / _TAYLOR_THETA))
        best = np.argmin(_DEGREES * scaling, axis=1)
        scaling = scaling[np.arange(m), best]
        return ((coef / scaling[:, None]) @ B).reshape(m, n, n), best + 1, \
            scaling.astype(int)

    return plan


def _applied(terms, shape, chunk):
    """The solve of a run of output intervals, exponentials applied: the
    coarse and fine chains of states from ``y`` and their extrapolation; a
    refinement solves again from the first interval in ``redo`` on."""
    plan = _omegas(*terms, shape[0])
    powers = np.empty((_INV_FACTORIAL.size,) + shape, dtype=complex)
    flat, rows = powers.reshape(len(powers), -1), list(powers)
    states = None

    def solve(starts, lengths, coarse, y, redo=None):
        nonlocal states
        a = 0 if redo is None else int(redo[0])
        x, c = [states[a - 1, 2] if a else y] * 2, coarse[a:]
        # slot 2 j holds the c[j] steps of the coarse chain in interval j,
        # slot 2 j + 1 the 2 c[j] of the fine one
        per = np.stack([c, 2 * c], axis=1).ravel()
        slot = np.repeat(np.arange(per.size), per)
        k = np.arange(slot.size) - np.repeat(np.cumsum(per) - per, per)
        h = np.repeat(lengths[a:], 2)[slot] / per[slot]
        t = np.repeat(starts[a:], 2)[slot] + k * h
        ends, slot = np.empty((per.size,) + shape, complex), slot.tolist()
        for k0 in range(0, len(slot), chunk):
            O, degree, scaling = plan(t[k0:k0 + chunk], h[k0:k0 + chunk])
            for i, (Oi, m, s) in enumerate(zip(O, degree.tolist(),
                                               scaling.tolist()), k0):
                v = x[slot[i] % 2]
                for _ in range(s):
                    rows[0][...] = v
                    for q in range(1, m + 1):
                        Oi.dot(rows[q - 1], out=rows[q])
                    v = (_INV_FACTORIAL[:m + 1] @ flat[:m + 1]).reshape(shape)
                x[slot[i] % 2] = ends[slot[i]] = v
        rough, fine = ends[0::2], ends[1::2]
        run = np.stack([rough, fine, (16.0 * fine - rough) / _RICHARDSON], 1)
        states = np.concatenate([states[:a], run]) if a else run
        # an interval's own estimate: what it adds to the difference
        d = states[:, 0] - states[:, 1]
        d = np.diff(d, axis=0, prepend=0 * d[:1])
        return states, np.linalg.norm(d, axis=(1, 2)), c

    return solve


def propagate(generator, width: float, s_eval, y0, rtol: float,
              atol: float) -> IntegrationResult:
    """Solve y' = A(s) y through the points of ``s_eval``.

    ``generator`` maps a 1-d array of s to the stack of A(s), each n x n
    and anti-Hermitian, ``width`` bounding the spectral width of i A(s);
    or it is the terms ``(factor, weights, parts, fixed)`` of any other
    A(s) = factor sum_k weights(s)[k] parts[k], ``fixed`` listing the k
    whose weight is constant, ``width`` bounding its spectral norm.  ``y0``
    is a state of shape (n,) or a block of columns, shape (n, k);
    ``s_eval`` must be strictly increasing.
    """
    pts = np.asarray(s_eval, dtype=float)
    y0 = np.asarray(y0, dtype=complex)
    n = y0.shape[0]
    lengths = np.diff(pts)
    coarse = np.maximum(1.0, np.ceil(width * lengths / _THETA))
    _check_budget(pts, 2 * coarse)
    coarse = coarse.astype(np.int64)
    share = (atol + rtol) * lengths / float(pts[-1] - pts[0])
    out = np.empty((pts.size, n, y0.size // n), dtype=complex)
    out[0] = y0.reshape(n, -1)
    unitary = callable(generator)
    chunk = max(1, _STACK_ENTRIES // (n * n))
    if unitary or n <= _PADE_MAX_DIM:
        solve, span = _formed(generator, n, chunk, unitary), chunk
    else:   # a run holds states only, so one run takes the whole grid
        solve, span = _applied(generator, out.shape[1:], chunk), lengths.size
    evals = rejected = 0
    for a in range(0, lengths.size, span):
        b = min(a + span, lengths.size)
        starts, L, c = pts[a:b], lengths[a:b], coarse[a:b]
        states, local, solved = solve(starts, L, c, out[a])
        evals += 6 * int(solved.sum())
        # the difference of the two solutions carries every local estimate
        # along the flow and sums them: it is 15 times the finer one's error
        summed = float(np.max(np.linalg.norm(states[:, 0] - states[:, 1],
                                             axis=(1, 2)))) / _RICHARDSON
        allowed = float(share[a:b].sum())
        if summed > allowed:
            # refine the intervals whose own estimate exceeds their share,
            # all by the factor that brings the sum to half the tolerance
            over = local / _RICHARDSON > share[a:b]
            redo = np.flatnonzero(over) if over.any() else np.arange(L.size)
            more = np.ceil(c[redo] * (2.0 * summed / allowed) ** 0.25)
            _check_budget(starts[redo], 2 * more,
                          2 * int(coarse[:b].sum() - c[redo].sum()))
            c[redo] = more.astype(np.int64)
            states, _, solved = solve(starts, L, c, out[a], redo)
            evals += 6 * int(solved.sum())
            rejected += redo.size
        out[a + 1:b + 1] = states[:, -1]
    h = lengths / (2 * coarse)
    i = int(np.argmin(h))
    return IntegrationResult(pts, out.reshape((pts.size,) + y0.shape),
                             2 * int(coarse.sum()), evals, rejected,
                             float(h[i]), float(pts[i]))
