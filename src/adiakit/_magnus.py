"""Fourth-order Magnus propagator for the linear flow y' = A(s) y.

One step of length h from t takes A at the two Gauss points
t + (1/2 -+ sqrt(3)/6) h and exponentiates

    Omega = (h/2) (A1 + A2) + (sqrt(3) h^2 / 12) [A2, A1]

(Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151, section 5;
Iserles & Norsett, Phil. Trans. R. Soc. A 357 (1999) 983).  Where A(s)
comes as terms factor sum_k w_k(s) P_k, Omega is one weighted sum of the
parts and their pairwise products, which are formed once per solve;
otherwise A is evaluated at the nodes of a chunk of steps in one call.
The exponential takes three forms:

* an anti-Hermitian A(s), a Schroedinger flow, of two levels: the closed
  form in i Omega = a I + b.sigma;
* an anti-Hermitian A(s) of one or three and more levels, and any A(s)
  up to size ``_FORMED_MAX_DIM``, the T L(s) of a qubit: the phase of the
  trace split off and a Taylor polynomial of the rest, evaluated in real
  arithmetic on its 2n x 2n real embedding and squared back, degree and
  squarings from a 1-norm bound (Al-Mohy & Higham, SIAM J. Sci. Comput.
  33 (2011) 488, whose table of bounds serves every Taylor polynomial
  here); neither of these calls LAPACK;
* any larger A(s) never has its exponential formed: each step applies it
  to the state by a Taylor polynomial whose degree and scaling the norm
  bound fixes; the Omega of a chunk of steps, across output intervals,
  is planned at once.

So every step of a Schroedinger flow is unitary to rounding.  The formed
paths run no Python per step: a chunk of steps is exponentiated in one
stacked call, the steps of each output interval are multiplied pairwise
(2 x 2 products entry by entry), and the interval products are chained
with one matrix product per output point.  Chunks hold at most
``numkit._STACK_ENTRIES`` matrix entries.

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
from .numkit import _STACK_ENTRIES
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
_FORMED_MAX_DIM = 4
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
# Paterson-Stockmeyer: blocks of p powers, and the products for degree m
_PS_BLOCK = np.ceil(np.sqrt(_DEGREES)).astype(int)
_PS_PRODUCTS = _PS_BLOCK - 2 + -(-_DEGREES // _PS_BLOCK)
# for each count of products the highest degree it reaches
_PS_DEGREES = _DEGREES[np.diff(_PS_PRODUCTS, append=np.inf) > 0][::-1]


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
    """exp(-i H) of a stack of Hermitian 2 x 2 H, from its lower triangle
    and the real part of its diagonal.  With H = a I + b.sigma and
    r = |b| the eigenvalues are a -+ r, the projectors (I -+ b.sigma / r)
    / 2, and

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


def _taylor(omega, work=None):
    """exp(Omega) of a stack of complex n x n Omega without LAPACK, and the
    workspace it used.

    The phase exp(i Im tr Omega / n) splits off, as in ``_two_level``, and
    the rest X, whose real part is that of Omega, enters its real
    embedding R = [[Re X, -Im X], [Im X, Re X]], whose products are those
    of X.  Each matrix takes the Taylor polynomial of degree m of R / 2^j
    squared j times, with (m, j) the fewest products for its own 1-norm
    bound within the table, the polynomial by ``_paterson_stockmeyer``; so
    a matrix of a stack comes out bit for bit as it would alone.  The
    matrices of one (m, j) go in sub-chunks of ``_STACK_ENTRIES`` entries
    of R.  R and the stacks of the polynomial live in ``work``, a flat
    buffer that grows when a stack needs more; a solve hands it from
    chunk to chunk, since a fresh one pays for mapping its pages every
    time (on a 2-vCPU x86_64 box 2.3 of the 6.7 ms that the polynomials
    of 4,096 closed4 steps took)."""
    k, n = omega.shape[:2]
    N = 2 * n
    tau = np.trace(omega, axis1=1, axis2=2).imag / n
    rest = omega.imag.copy()
    rest[:, range(n), range(n)] -= tau[:, None]
    # the 1-norm of R: a column of R holds a column of X, Re and Im apart
    entries = np.abs(omega.real) + np.abs(rest)
    bound = np.max(sum(entries[:, i] for i in range(n)), axis=1)
    halvings = np.ceil(np.log2(np.maximum(
        1.0, bound[:, None] / _TAYLOR_THETA[_PS_DEGREES - 1])))
    best = np.argmin(_PS_PRODUCTS[_PS_DEGREES - 1] + halvings, axis=1)
    plan = best + _PS_DEGREES.size * halvings[np.arange(k), best].astype(int)
    keys = np.unique(plan)
    sub = min(k, max(1, _STACK_ENTRIES // (N * N)))
    p = int(np.max(_PS_BLOCK[_PS_DEGREES[keys % _PS_DEGREES.size] - 1]))
    size = (k + sub * (2 * p + 2)) * N * N
    if work is None or work.size < size:
        work = np.empty(size)
    R = work[:k * N * N].reshape(k, N, N)
    R[:, :n, :n] = R[:, n:, n:] = omega.real
    R[:, n:, :n] = rest
    R[:, :n, n:] = -rest
    for key in keys.tolist():
        j, m = divmod(key, _PS_DEGREES.size)
        m, at = int(_PS_DEGREES[m]), np.flatnonzero(plan == key)
        for a in range(0, at.size, sub):
            i = at[a:a + sub]
            P, spare = _paterson_stockmeyer(np.ldexp(R[i], -j), m,
                                            work[R.size:])
            for _ in range(j):
                P, spare = np.matmul(P, P, out=spare), P
            R[i] = P
    E = np.empty(omega.shape, dtype=complex)
    E.real, E.imag = R[:, :n, :n], R[:, n:, :n]
    E *= np.exp(1j * tau)[:, None, None]
    return E, work


def _paterson_stockmeyer(X, m, work):
    """sum_{k <= m} X^k / k! for a real stack X (Paterson & Stockmeyer,
    SIAM J. Comput. 2 (1973) 60): the powers X^0 .. X^p, p = ceil(sqrt m),
    weighted into blocks by one small product per matrix, and Horner's
    rule in X^p over the blocks; ``_PS_PRODUCTS[m - 1]`` products of X's
    size in all.  ``work`` holds at least 2 p + 2 stacks the size of X;
    the sum and a spare stack of its size come back as views into it."""
    p, (k, N) = int(_PS_BLOCK[m - 1]), X.shape[:2]
    blocks = -(-m // p)
    W = work[:(p + 1) * X.size].reshape((p + 1,) + X.shape)
    B = work[W.size:W.size + blocks * X.size].reshape((blocks,) + X.shape)
    spare = work[W.size + B.size:W.size + B.size + X.size].reshape(X.shape)
    W[0] = np.eye(N)
    W[1] = X
    for q in range(2, p + 1):
        np.matmul(W[q - 1], X, out=W[q])
    # block b weights X^q by 1/(p b + q)!, q < p, the top block X^p too
    b, q = np.arange(blocks)[:, None], np.arange(p + 1)
    degree = p * b + q
    C = np.where((degree <= m) & ((q < p) | (b == blocks - 1)),
                 _INV_FACTORIAL[np.minimum(degree, m)], 0.0)
    np.matmul(C, W.reshape(p + 1, k, N * N).transpose(1, 0, 2),
              out=B.reshape(blocks, k, N * N).transpose(1, 0, 2))
    P = B[-1]
    for b in range(blocks - 2, -1, -1):
        P, spare = np.matmul(W[p], P, out=spare), P
        P += B[b]
    return P, spare


def _kernel(n, unitary):
    """The exponential of a stack of Omega for one solve: for an
    anti-Hermitian generator of two levels the closed form, for any other
    ``_taylor``, which keeps one workspace for the solve."""
    if unitary and n == 2:
        return lambda omega: _two_level(1j * omega)
    work = None

    def taylor(omega):
        nonlocal work
        E, work = _taylor(omega, work)
        return E

    return taylor


def _exponentials(omegas, t, h, kernel):
    """exp(Omega) of the steps of length ``h`` from ``t``, stacked, by the
    solve's ``kernel``."""
    return kernel(omegas(t, h))


def _node_omegas(generator):
    """The map from steps of length ``h`` from ``t`` to their Omega, from
    the generator at both Gauss nodes of every step in one call."""
    def omegas(t, h):
        m = t.size
        A = generator(np.concatenate([t + (0.5 - _NODE) * h,
                                      t + (0.5 + _NODE) * h]))
        if not np.isfinite(A).all():
            raise StiffnessError("the generator is not finite at a Magnus "
                                 "node", s=float(t[0]))
        A1, A2 = A[:m], A[m:]
        hh = h[:, None, None]
        return 0.5 * hh * (A1 + A2) + _BRACKET * hh * hh * (_mul(A2, A1)
                                                            - _mul(A1, A2))

    return omegas


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


def _products(omegas, kernel, starts, lengths, counts, n, chunk):
    """For every interval j, the product of ``counts[j]`` equal steps
    across [starts[j], starts[j] + lengths[j]], in chunks of steps."""
    ends = np.cumsum(counts)
    first = ends - counts
    P = np.empty((counts.size, n, n), dtype=complex)
    for k0 in range(0, int(ends[-1]), chunk):
        k = np.arange(k0, min(k0 + chunk, int(ends[-1])))
        j = np.searchsorted(ends, k, side="right")
        h = lengths[j] / counts[j]
        E = _exponentials(omegas, starts[j] + (k - first[j]) * h, h, kernel)
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
    the intervals in ``redo`` and chains the extrapolations only.  The
    Omega of terms comes from their assembly, that of a callable
    generator from its values at the nodes."""
    omegas = (_node_omegas(generator) if callable(generator)
              else _assembled(generator, n))
    kernel = _kernel(n, unitary)

    P = None

    def solve(starts, lengths, coarse, y, redo=None):
        nonlocal P
        j = slice(None) if redo is None else redo
        if redo is None:
            P = np.empty((coarse.size, 3, n, n), dtype=complex)
        for q in range(2):
            P[j, q] = _products(omegas, kernel, starts[j], lengths[j],
                                (q + 1) * coarse[j], n, chunk)
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


def _assembly(factor, weights, parts, fixed, n):
    """Omega of steps of A(s) = factor sum_k w_k(s) P_k as one weighted
    sum.  The parts in ``fixed`` fold into one first.  [A2, A1] is
    sum_{k,l} (w_k(s2) w_l(s1) - w_k(s1) w_l(s2)) P_k P_l, so Omega weights
    the parts and their products, which are formed here once.  Returns
    the map from steps of length ``h`` from ``t`` to their real weight
    rows and a bound on the 1-norm of their Omega, and the weighted
    basis, one row of n * n entries per matrix."""
    first = weights(np.zeros(1))
    moving = [k for k in range(len(parts)) if k not in fixed]
    folded = _weighted_sum(0.0, [w[0] if k in fixed else 0.0
                                 for k, w in enumerate(first)], parts, n)
    P = factor * np.concatenate([folded[None], parts[moving]])
    K = len(P)
    B = np.concatenate([P, (P[:, None] @ P[None]).reshape(K * K, n, n)])
    norms = np.abs(B).sum(axis=1).max(axis=1)

    def rows(t, h):
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
        return coef, bound

    return rows, B.reshape(len(B), n * n)


def _assembled(terms, n):
    """The map from steps of length ``h`` from ``t`` to their Omega, the
    real weight row of each step from ``_assembly`` times its basis.  One
    small product per step: OpenBLAS splits one tall product over its
    threads, which on a busy 2-vCPU box took 4-8 ms for 4,096 closed4
    steps against 0.3 ms as a stack."""
    rows, B = _assembly(*terms, n)
    flat = B.view(float)

    def omegas(t, h):
        return np.matmul(rows(t, h)[0][:, None], flat).view(complex).reshape(
            t.size, n, n)

    return omegas


def _omegas(factor, weights, parts, fixed, n):
    """The map from steps of length ``h`` from ``t`` to their Omega / s,
    Taylor degree m and scaling s (the fewest products m s for a bound on
    the 1-norm of Omega), stacked, for A(s) = factor sum_k w_k(s) P_k,
    from ``_assembly``."""
    rows, B = _assembly(factor, weights, parts, fixed, n)

    def plan(t, h):
        coef, bound = rows(t, h)
        scaling = np.maximum(1.0, np.ceil(bound[:, None] / _TAYLOR_THETA))
        best = np.argmin(_DEGREES * scaling, axis=1)
        scaling = scaling[np.arange(t.size), best]
        return ((coef / scaling[:, None]) @ B).reshape(t.size, n, n), \
            best + 1, scaling.astype(int)

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
    or it is the terms ``(factor, weights, parts, fixed)`` of A(s) =
    factor sum_k weights(s)[k] parts[k] with real weights, ``fixed``
    listing the k whose weight is constant.  An imaginary factor marks
    Hermitian parts, so A(s) is anti-Hermitian and ``width`` bounds the
    spectral width of i A(s) (a Schroedinger flow, -i T H(s)); any other
    factor gives a general A(s), ``width`` bounding its spectral norm.
    ``y0`` is a state of shape (n,) or a block of columns, shape (n, k);
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
    unitary = callable(generator) or generator[0].real == 0
    chunk = max(1, _STACK_ENTRIES // (n * n))
    if unitary or n <= _FORMED_MAX_DIM:
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
