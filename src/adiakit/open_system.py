"""Dissipative generators in superoperator form and their Jordan structure.

Density matrices are flattened row by row, so the coherent part of the
generator is -i (H x I - I x H^T) and each jump operator G contributes
G x conj(G) - (G*G x I + I x (G*G)^T) / 2.  All structural statements --
eigenvalue curves, block signatures, adiabaticity metrics -- refer to the
Jordan decomposition of this matrix, not to its (generally incomplete)
eigenbasis.

Two bookkeeping conventions matter downstream.  Left chain vectors are the
rows of the inverse similarity, dual to the right chains under the plain
dot product, which is exactly the Hilbert-Schmidt pairing once the
conjugation is folded into the row.  And every accumulated exponent is
stored as an integral over the schedule variable s; the total time T
multiplies it only at evaluation points, so one track serves any T.

Every master equation is solved by the Magnus engine
:mod:`adiakit._magnus`, imported at first use as in :mod:`adiakit.closed`.
The Jordan track glues its grid together with
:mod:`adiakit._jordan_stitch`.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .closed import Trajectory, _validate_grid
from .errors import (
    ConditioningError,
    ConfigError,
    CrossingError,
    InputError,
)
from .numkit import (
    _cluster_labels,
    _decompose_stack,
    _stack_labels,
    cumulative_trapezoid,
    is_hermitian,
)
from ._jordan_stitch import _stitch
from .schedules import GeneratorSpec, _weighted_sum, eval_generator

__all__ = [
    "build_supermatrix",
    "SuperAssembler",
    "integrate_master",
    "unitary_embedding_jordan",
    "JordanTrack",
    "jordan_track",
    "JordanCoefficients",
    "expand_jordan_coefficients",
    "coupling_tensor",
    "OpenCondition",
    "open_condition_metric",
    "condition_term_count",
    "OpenTimeCondition",
    "open_time_condition",
    "time_term_count",
    "classify_regime",
]

_EXP_CAP = 700.0  # largest real exponent handed to np.exp


def _coherent_part(H):
    D = H.shape[0]
    eye = np.eye(D)
    return -1j * (np.kron(H, eye) - np.kron(eye, H.T))


def _jump_part(G):
    D = G.shape[0]
    eye = np.eye(D)
    GG = G.conj().T @ G
    return (np.kron(G, G.conj())
            - 0.5 * np.kron(GG, eye)
            - 0.5 * np.kron(eye, GG.T))


def build_supermatrix(H, gammas=()):
    """Assemble the generator matrix from H and a list of jump operators."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InputError(f"Hamiltonian must be square, got shape {H.shape}")
    if not is_hermitian(H, 1e-12):
        raise InputError("Hamiltonian part must be Hermitian to 1e-12")
    L = _coherent_part(H)
    for G in gammas:
        G = np.asarray(G, dtype=complex)
        if G.shape != H.shape:
            raise InputError(
                f"jump operator shape {G.shape} does not match {H.shape}")
        L = L + _jump_part(G)
    return L


class SuperAssembler:
    """Precomputed Kronecker blocks of L(s) for one generator spec.

    Each Hamiltonian term contributes a fixed matrix scaled by its
    envelope; each jump term is quadratic in its envelope because the
    operator enters the dissipator twice.  The derivative follows by the
    product rule on the envelopes, so no supermatrix is ever differenced.
    """

    def __init__(self, spec: GeneratorSpec):
        if spec.kind != "open":
            raise ConfigError("supermatrix assembly needs an open-kind spec")
        self.dim = spec.dimension ** 2
        hterms, jterms = spec.hamiltonian_terms, spec.lindblad_terms
        # one stack, filled part by part so no second copy is ever held
        self._parts = np.empty((len(hterms) + len(jterms), self.dim,
                                self.dim), dtype=complex)
        for k, (M, _) in enumerate(hterms):
            self._parts[k] = _coherent_part(M)
        for k, (M, _) in enumerate(jterms, len(hterms)):
            self._parts[k] = _jump_part(M)
        self._henvs = [env for _, env in hterms]
        self._jenvs = [env for _, env in jterms]

    def _weights(self, s):
        """Each part's weight at s: its envelope, squared for a jump."""
        return ([env.value(s) for env in self._henvs]
                + [env.value(s) ** 2 for env in self._jenvs])

    def matrix(self, s) -> np.ndarray:
        """L(s); for an array of s, the stack of L at every entry.

        Term by term the arithmetic is that of one point, so the stack
        equals the per-point matrices bit for bit.
        """
        return _weighted_sum(s, self._weights(s), self._parts, self.dim)

    def generator(self, T: float):
        """T L(s) as the terms ``(T, weights, parts, fixed)`` of
        :func:`adiakit._magnus.propagate`, ``fixed`` the parts of constant
        envelope, and a bound on its spectral norm on [0, 1]: T times the
        sum of each part's norm (for a coherent part the spectral width of
        its H) times the largest modulus of its weight."""
        bounds = ([env.bound() for env in self._henvs]
                  + [env.bound() ** 2 for env in self._jenvs])
        norms = np.linalg.norm(self._parts, 2, axis=(1, 2))
        width = T * float(np.dot(norms, bounds))
        fixed = [k for k, env in enumerate(self._henvs + self._jenvs)
                 if env.kind == "constant"]
        return (T, self._weights, self._parts, fixed), width

    def derivative(self, s) -> np.ndarray:
        """dL/ds, stacked like :meth:`matrix` for an array of s."""
        weights = ([env.derivative(s) for env in self._henvs]
                   + [2.0 * env.value(s) * env.derivative(s)
                      for env in self._jenvs])
        return _weighted_sum(s, weights, self._parts, self.dim)


def _check_density(rho, D, label="initial state", **details):
    """``rho`` as a complex D x D array if it is Hermitian, of unit trace
    and positive semidefinite within 1e-10; else an :class:`InputError`
    that carries ``details``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (D, D):
        raise InputError(f"{label} must be {D}x{D}, got {rho.shape}",
                         **details)
    if not is_hermitian(rho, 1e-10):
        raise InputError(f"{label} must be Hermitian to 1e-10", **details)
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise InputError(f"{label} must have unit trace to 1e-10", **details)
    lowest = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    if lowest < -1e-10:
        raise InputError(f"{label} has negative eigenvalue {lowest:.3e}",
                         **details)
    return rho


def integrate_master(spec: GeneratorSpec, T: float, rho0, grid=None,
                     tol=(1e-8, 1e-10)) -> Trajectory:
    """Propagate d|rho>>/ds = T L(s) |rho>> from a validated initial state.

    The initial density matrix must be Hermitian, unit trace, and positive
    semidefinite within 1e-10; along the trajectory these properties are
    left to the integrator and can be inspected afterwards.

    The Magnus engine :func:`adiakit._magnus.propagate` solves it, with
    ``tol`` as its (relative, absolute) pair; every step keeps the trace.
    A total time whose planned steps exceed ``_magnus.MAX_STEPS`` is
    refused before the first step.
    """
    asm = SuperAssembler(spec)
    if not T > 0:
        raise InputError(f"total time must be positive, got {T}")
    rho0 = _check_density(rho0, spec.dimension)
    g = np.linspace(0.0, 1.0, 201) if grid is None else _validate_grid(grid)
    rtol, atol = tol
    from . import _magnus
    res = _magnus.propagate(*asm.generator(T), g, rho0.reshape(-1), rtol,
                            atol)
    return Trajectory(g, res.y, float(T), rtol, atol, res.steps,
                      res.rhs_evals, res.rejected, res.min_step,
                      res.s_at_min_step)


def unitary_embedding_jordan(spec: GeneratorSpec):
    """Analytic Jordan decomposition for a generator with no jump terms.

    The supermatrix of a closed system is normal, with eigenvalues
    -i (E_n - E_k) and orthonormal eigenvectors vec(|n><k|), so the
    decomposition can be written down from one Hermitian eigenproblem.
    Returns the ``analytic`` callable of :func:`jordan_track`, which
    decomposes a whole grid from one stacked ``eigh`` of H and takes the
    residuals from one stacked L: singleton blocks sorted by (Re lam,
    Im lam) descending, ties in (n, k) order, and S^-1 = S^H.
    """
    if spec.kind != "open" or spec.lindblad_terms:
        raise ConfigError(
            "the embedding factory applies to open specs without jump terms")
    asm = SuperAssembler(spec)
    D = spec.dimension

    def decompose(g):
        N, n = g.size, D * D
        energies, vecs = np.linalg.eigh(eval_generator(spec, g))
        lam = (-1j * (energies[:, :, None] - energies[:, None, :])).reshape(
            N, n)
        # column (n, k) is vec(|n><k|) = kron(v_n, conj(v_k))
        S = (vecs[:, :, None, :, None]
             * vecs.conj()[:, None, :, None, :]).reshape(N, n, n)
        order = np.lexsort((-lam.imag, -lam.real), axis=-1)
        lam = np.take_along_axis(lam, order, axis=1)
        S = np.take_along_axis(S, order[:, None, :], axis=2)
        Si = S.conj().transpose(0, 2, 1)
        R = Si @ asm.matrix(g) @ S
        R[:, np.arange(n), np.arange(n)] -= lam
        return (lam, np.ones((N, n), dtype=int), S, Si,
                np.max(np.abs(R), axis=(1, 2)), [None] * N)

    return decompose


@dataclass(frozen=True)
class JordanTrack:
    """Jordan structure of L(s) stitched into continuous curves.

    Block b keeps the same index at every grid point: ``lambdas[i, b]`` is
    its eigenvalue curve and ``sizes[b]`` its size, ``similarity`` and
    ``similarity_inv`` stack the aligned S and S^-1 of every point, shape
    (N, n, n), ``residuals[i]`` is the decomposition residual at point i,
    and ``lamint`` accumulates the eigenvalue integrals over s.
    ``clusters`` groups blocks that share an eigenvalue everywhere;
    adiabaticity statements only compare blocks from different groups.

    Derived: block b spans the columns ``offsets[b]:offsets[b + 1]`` of S
    (rows of S^-1) at every point, and ``residual_max`` is the largest
    residual.
    """

    grid: np.ndarray
    lambdas: np.ndarray
    sizes: tuple
    clusters: tuple
    lamint: np.ndarray
    residuals: np.ndarray = field(repr=False, compare=False)
    similarity: np.ndarray = field(repr=False, compare=False)
    similarity_inv: np.ndarray = field(repr=False, compare=False)

    @property
    def offsets(self) -> tuple:
        return (0, *np.cumsum(self.sizes).tolist())

    @property
    def residual_max(self) -> float:
        return float(np.max(self.residuals))

    @property
    def nblocks(self) -> int:
        return len(self.sizes)

    @property
    def dim(self) -> int:
        return self.similarity.shape[1]

    @property
    def signature(self) -> tuple:
        return tuple(sorted(self.sizes, reverse=True))

    def export(self) -> dict:
        sizes = list(self.sizes)
        pairs = np.stack([self.lambdas.real, self.lambdas.imag], axis=-1)
        points = [{"s": s, "eigenvalues": eigenvalues, "block_sizes": sizes,
                   "residual": residual}
                  for s, eigenvalues, residual in zip(
                      self.grid.tolist(), pairs.tolist(),
                      self.residuals.tolist())]
        return {"signature": list(self.signature), "points": points}


def _partition(labels):
    groups = {}
    for b, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(b)
    return {frozenset(members) for members in groups.values()}


def _first_collision(lambdas, pairs, tol):
    """First (pair, interval) where two eigenvalue curves come within tol.

    Each curve is linear on a grid interval, so the closest approach of a
    pair over interval i sits at the clamped minimiser t of
    |f0 + t df|.  Pairs are scanned in the given order and intervals in
    grid order; returns (pair index, interval, t, distance) or None.
    """
    a, b = np.array(pairs, dtype=int).reshape(-1, 2).T
    f = (lambdas[:, a] - lambdas[:, b]).T          # (pairs, points)
    f0 = f[:, :-1]
    df = f[:, 1:] - f0
    denom = np.abs(df) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(denom == 0.0, 0.0,
                     np.clip(-(f0 * df.conj()).real / denom, 0.0, 1.0))
    dist = np.abs(f0 + t * df)
    hits = dist < tol
    if not hits.any():
        return None
    p = int(np.argmax(hits.any(axis=1)))
    i = int(np.argmax(hits[p]))
    return p, i, float(t[p, i]), float(dist[p, i])


def jordan_track(spec: GeneratorSpec, grid, cluster_tol: float = 1e-7,
                 rank_tol: float = 1e-9, cond_cap: float = 1e12,
                 collision_tol: float = 1e-8, analytic=None) -> JordanTrack:
    """Decompose L(s) on the grid and glue the blocks into labelled curves.

    L is assembled for the whole grid at once and decomposed in one
    stacked pass.  Blocks are then matched to the previous point by
    eigenvalue distance, with the block size and the overlap of leading
    vectors breaking ties, and each chain is rephased so its leading
    vector stays aligned (a semisimple cluster is rotated as a whole),
    stacked over the grid; only a point whose match is not clear takes a
    per-point assignment (:func:`_stitch`).
    The first failing grid point raises: a failed decomposition there,
    then a change of block count, of block signature or of eigenvalue
    grouping (:class:`CrossingError` naming the schedule point).  After
    that, any close approach of curves from different groups raises
    :class:`CrossingError`.

    ``analytic`` may replace the numerical decomposition for a generator
    whose structure is known in closed form, as
    :func:`unitary_embedding_jordan` does: a callable that maps the grid
    to ``(lam, size, S, Si, residual, errors)`` as
    :func:`adiakit.numkit._decompose_stack` returns them.  Either way the
    grid is decomposed in one call.
    """
    g = _validate_grid(grid)
    if analytic is None:
        lam, size, S, Si, residual, errors = _decompose_stack(
            SuperAssembler(spec).matrix(g), cluster_tol, rank_tol, cond_cap)
    else:
        lam, size, S, Si, residual, errors = analytic(g)
    if errors[0] is not None:
        raise errors[0]
    count = np.count_nonzero(size, axis=1)
    nb = int(count[0])
    sizes = tuple(size[0, :nb].tolist())
    clusters = _cluster_labels(lam[0, :nb], cluster_tol)

    bad = (count != nb) | np.not_equal(errors, None)
    end = int(np.argmax(bad[1:])) + 1 if bad[1:].any() else g.size
    failure = None
    if end < g.size:
        failure = errors[end] or CrossingError(
            f"block count changed from {nb} to {count[end]} at "
            f"s = {g[end]:.6f}", s=float(g[end]))
    _, lambdas, mismatch = _stitch(g, lam[:end, :nb], size[:end, :nb], S,
                                   Si)
    failure = mismatch or failure

    # grouping is checked on the aligned points before the first failure,
    # which it precedes
    patterns, which = _stack_labels(lambdas, cluster_tol)
    base = _partition(clusters)
    changed = [p for p, labels in enumerate(patterns)
               if _partition(labels) != base]
    if changed:
        i = int(np.argmax(np.isin(which, changed)))
        raise CrossingError(f"eigenvalue grouping changed at s = {g[i]:.6f}",
                            s=float(g[i]))
    if failure is not None:
        raise failure

    pairs = [(a, b) for a in range(nb) for b in range(a + 1, nb)
             if clusters[a] != clusters[b]]
    hit = _first_collision(lambdas, pairs, collision_tol)
    if hit is not None:
        p, i, t, dist = hit
        a, b = pairs[p]
        s_hit = float(g[i] + t * (g[i + 1] - g[i]))
        raise CrossingError(
            f"eigenvalue curves of blocks {a} and {b} approach "
            f"within {dist:.2e} near s = {s_hit:.6f}",
            s=s_hit, pair=(a, b), distance=dist)

    return JordanTrack(g, lambdas, sizes, clusters,
                       cumulative_trapezoid(lambdas, g), residual, S, Si)


@dataclass(frozen=True)
class JordanCoefficients:
    """Block-resolved expansion of a state trajectory.

    ``raw[(b, j)]`` is the bare left-chain projection of |rho(s)>>;
    ``p[(b, j)]`` removes the accumulated eigenvalue exponential and doubles
    it, the quantity whose drift the time conditions bound.  Entries whose
    exponent overflows are set to inf, never NaN, whatever the projection
    there; reconstruction uses the raw projections, which never involve the
    exponential.
    """

    grid: np.ndarray
    total_time: float
    p: dict
    raw: dict
    track: JordanTrack = field(repr=False)

    def reconstruct(self) -> np.ndarray:
        coeffs = np.stack([self.raw[key] for key in _chain_keys(self.track)],
                          axis=1)
        return np.einsum("ikc,ic->ik", self.track.similarity, coeffs)


def _chain_keys(jtrack):
    """(block, chain position) of every column of S, in column order."""
    return [(b, j) for b, size in enumerate(jtrack.sizes) for j in range(size)]


def expand_jordan_coefficients(rho_traj: Trajectory, jtrack: JordanTrack,
                               T: float) -> JordanCoefficients:
    """Project a trajectory onto the left chains and strip the exponentials."""
    if not np.array_equal(rho_traj.grid, jtrack.grid):
        raise InputError("trajectory and track grids differ")
    proj = np.einsum("ick,ik->ic", jtrack.similarity_inv, rho_traj.states)
    keys = _chain_keys(jtrack)
    expo = -T * jtrack.lamint[:, [blk for blk, _ in keys]]
    over = expo.real > _EXP_CAP
    p = np.where(over, np.inf, 2.0 * np.exp(np.where(over, 0, expo)) * proj)
    return JordanCoefficients(jtrack.grid, float(T),
                              {key: p[:, c] for c, key in enumerate(keys)},
                              {key: proj[:, c] for c, key in enumerate(keys)},
                              jtrack)


def coupling_tensor(jtrack: JordanTrack, spec: GeneratorSpec) -> np.ndarray:
    """S^-1 dL/ds S at every track point, shape (N, n, n).

    The ``(a, b)`` block, rows ``offsets[a]:offsets[a + 1]`` and columns
    ``offsets[b]:offsets[b + 1]`` of the track, pairs the left chains of
    block a with the right chains of block b through dL/ds.  Every
    condition and regime routine reads its couplings from this one
    tensor; build it once per track and hand it to each of them.
    """
    dLs = SuperAssembler(spec).derivative(jtrack.grid)
    return jtrack.similarity_inv @ dLs @ jtrack.similarity


def condition_term_count(n_alpha: int, i: int, j: int) -> int:
    """Number of summands in the per-pair adiabaticity metric."""
    if n_alpha < 1 or not (0 <= i < n_alpha) or j < 0:
        raise InputError(
            f"invalid chain indices n_alpha={n_alpha}, i={i}, j={j}")
    return math.comb(n_alpha - i + 1 + j, 1 + j) - 1


def time_term_count(n_alpha: int, n_beta: int, i: int, Lambda: int) -> int:
    """Number of summands in the per-coefficient time condition."""
    if min(n_alpha, n_beta) < 1 or not (0 <= i < n_alpha) or Lambda < 0:
        raise InputError(
            f"invalid indices n_alpha={n_alpha}, n_beta={n_beta}, i={i}")
    return Lambda * (math.comb(n_alpha + n_beta - i + 1, n_beta)
                     - n_beta - 1)


def _pairs(jtrack):
    """Ordered block pairs whose eigenvalue groups differ: index arrays
    (a, b), grouped by block sizes (n_a, n_b) and a-major within a group,
    so that each size class is a contiguous run."""
    groups, sizes = np.asarray(jtrack.clusters), np.asarray(jtrack.sizes)
    a, b = np.nonzero(groups[:, None] != groups[None, :])
    order = np.lexsort((sizes[b], sizes[a]))
    return a[order], b[order]


def _require_separated(jtrack, a, b):
    """The differences lambda_b - lambda_a of the pairs, shape (N, P); a
    :class:`ConditioningError` names the first pair, a-major, and the
    first s where one falls below 1e-10."""
    omega = jtrack.lambdas[:, b] - jtrack.lambdas[:, a]
    small = np.abs(omega) < 1e-10
    if small.any():
        hit = np.flatnonzero(small.any(axis=0))
        k = hit[np.lexsort((b[hit], a[hit]))[0]]
        s = float(jtrack.grid[np.argmax(small[:, k])])
        pair = (int(a[k]), int(b[k]))
        raise ConditioningError(
            f"eigenvalue difference of blocks {pair[0]} and {pair[1]} is "
            f"below 1e-10 at s = {s:.6f}; the condition metric diverges",
            s=s, pair=pair)
    return omega


def _size_classes(jtrack, C, a, b):
    """The pairs of :func:`_pairs` by block sizes (n_a, n_b).  Yields, per
    class, the slice of its pairs, the columns of S spanned by their
    target and source blocks, shapes (P, n_a) and (P, n_b), and the
    (N, P, n_a, n_b) stack of their coupling blocks of C."""
    sizes, offsets = np.asarray(jtrack.sizes), np.asarray(jtrack.offsets)
    for na, nb in sorted(set(zip(sizes[a].tolist(), sizes[b].tolist()))):
        idx = np.flatnonzero((sizes[a] == na) & (sizes[b] == nb))
        pairs = slice(idx[0], idx[-1] + 1)
        rows = offsets[a[pairs], None] + np.arange(na)
        cols = offsets[b[pairs], None] + np.arange(nb)
        yield pairs, rows, cols, C[:, rows[:, :, None], cols[:, None, :]]


def _grid_derivative(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Central differences along axis 0, one-sided at the ends."""
    out = np.empty_like(values)
    denom = (grid[2:] - grid[:-2]).reshape((-1,) + (1,) * (values.ndim - 1))
    out[1:-1] = (values[2:] - values[:-2]) / denom
    out[0] = (values[1] - values[0]) / (grid[1] - grid[0])
    out[-1] = (values[-1] - values[-2]) / (grid[-1] - grid[-2])
    return out


def _chain_terms(B, omega, p=None, osc=None, grid=None):
    """The summands of the chain sums of one size class, stacked over its
    P pairs.

    ``B`` is the (N, P, n_a, n_b) stack of coupling blocks and ``omega``
    the (N, P) differences lambda_b - lambda_a.  For target position i and
    source position j the sum runs over transition tuples; they collapse
    to a binomial weight per total shift (pp, sig), because each summand
    depends on a tuple only through its sum.  Without ``p`` the summand is
    the metric's B[..., i + pp - 1, j - sig] / omega^(pp + sig).  Given
    the source coefficients ``p`` (N, P, n_b) and the oscillation ``osc``
    = exp(T (Lambda_b - Lambda_a)) on ``grid``, it is the time bracket
    V(0) - V osc + int_0^s osc dV of V = p_j B[...] / omega^(pp + sig + 1).

    Yields (i, j, signed weight, summand, integral part of the bracket or
    None), one (N, P) summand at a time.
    """
    na, nb = B.shape[2:]
    for i, j in np.ndindex(na, nb):
        for pp in range(1, na - i + 1):
            for sig in range(j + 1):
                sign = math.comb(sig + pp - 1, pp - 1) * (-1.0) ** sig
                coupling = B[..., i + pp - 1, j - sig]
                if p is None:
                    yield i, j, sign, coupling / omega ** (pp + sig), None
                    continue
                V = p[..., j] * coupling
                V /= omega ** (pp + sig + 1)
                part = cumulative_trapezoid(
                    osc * _grid_derivative(V, grid), grid)
                yield i, j, sign, V[0] - V * osc + part, part


@dataclass(frozen=True)
class OpenCondition:
    """Per-(alpha, beta, i, j) adiabaticity metric values and their bounds.

    ``metrics`` holds the exact nested sums, ``simplified`` the count-times-
    largest-term bound that dominates each of them, and ``counts`` the
    number of summands entering the nested sum.
    """

    metrics: dict
    simplified: dict
    counts: dict
    max_metric: float
    max_key: tuple


def open_condition_metric(jtrack: JordanTrack, spec: GeneratorSpec,
                          couplings=None) -> OpenCondition:
    """Evaluate the block-to-block adiabaticity metric on the track grid.

    For source block beta and target chain position i of block alpha, each
    summand couples a left chain vector of alpha to a right chain vector of
    beta through dL/ds and divides by a power of the eigenvalue difference;
    the metric is the worst absolute value of the signed sum over the grid.
    Every block pair is evaluated at once, one stacked pass per class of
    block sizes.  ``couplings`` is :func:`coupling_tensor` of the track,
    built here when not given.
    """
    C = coupling_tensor(jtrack, spec) if couplings is None else couplings
    a, b = _pairs(jtrack)
    omega = _require_separated(jtrack, a, b)
    entries = []
    for pairs, _, _, B in _size_classes(jtrack, C, a, b):
        total = np.zeros(B.shape[2:] + B.shape[:2], dtype=complex)
        largest = np.zeros(B.shape[2:] + B.shape[1:2])
        for i, j, sign, term, _ in _chain_terms(B, omega[:, pairs]):
            total[i, j] += sign * term
            np.maximum(largest[i, j], np.max(np.abs(term), axis=0),
                       out=largest[i, j])
        peak = np.max(np.abs(total), axis=2)
        for (ii, jj, col), value in np.ndenumerate(peak):
            k = pairs.start + col
            entries.append(((int(a[k]), int(b[k]), ii, jj), float(value),
                            condition_term_count(B.shape[2], ii, jj),
                            float(largest[ii, jj, col])))

    metrics, simplified, counts = {}, {}, {}
    worst, worst_key = 0.0, None
    for key, value, count, big in sorted(entries):
        metrics[key], counts[key], simplified[key] = value, count, count * big
        if value >= worst:
            worst, worst_key = value, key
    return OpenCondition(metrics, simplified, counts, worst, worst_key)


@dataclass(frozen=True)
class OpenTimeCondition:
    """Total-time bounds per coefficient (alpha, i) over a grid of T values.

    ``bounds[(a, i)][k]`` is the right-hand side the total time must beat
    at ``T_grid[k]`` (scaled by eta for the verdict), ``integral_terms``
    isolates the oscillatory integral contribution, and ``simplified`` is
    the count-times-largest-term bound.  ``threshold_T`` is the smallest
    grid value satisfying every coefficient condition; ``crossover_T`` is
    the last satisfying value before a later failure, when the condition
    holds only on a finite window.
    """

    T_grid: tuple
    eta: float
    bounds: dict
    integral_terms: dict
    simplified: dict
    satisfied: dict
    satisfied_all: tuple
    threshold_T: float
    crossover_T: float


def open_time_condition(jtrack: JordanTrack, spec: GeneratorSpec, coeffs,
                        T_grid, eta: float = 10.0,
                        couplings=None) -> OpenTimeCondition:
    """Evaluate the time condition for every coefficient over T_grid.

    ``coeffs`` is either one :class:`JordanCoefficients` used for every T
    or a callable T -> JordanCoefficients for self-consistent evaluation.
    A real part of the accumulated exponent beyond the overflow cap, or a
    non-finite coefficient of a source block, makes the bound infinite
    rather than raising.  Per T, every block pair is evaluated at once,
    one stacked pass per class of block sizes.  ``couplings`` is
    :func:`coupling_tensor` of the track, built here when not given.
    """
    T_vals = tuple(float(T) for T in T_grid)
    if not T_vals or any(T <= 0 for T in T_vals):
        raise InputError("T_grid must hold positive total times")
    g = jtrack.grid
    C = coupling_tensor(jtrack, spec) if couplings is None else couplings
    a, b = _pairs(jtrack)
    omega = _require_separated(jtrack, a, b)
    classes = list(_size_classes(jtrack, C, a, b))
    keys = _chain_keys(jtrack)
    owner = np.array([blk for blk, _ in keys], dtype=int)
    nterms = np.zeros(len(keys))
    for _, rows, cols, _ in classes:
        na, nb = rows.shape[1], cols.shape[1]
        counts = [time_term_count(na, nb, i, 1) for i in range(na)]
        # not np.add.at: numpy 2.4.6's ufunc.at writes garbage when its
        # values broadcast along the first axis of 2-D indices
        nterms += np.bincount(rows.ravel(), np.tile(counts, len(rows)),
                              len(keys))

    # bounds, integral terms and simplified bounds, per T and coefficient
    out = np.empty((3, len(T_vals), len(keys)))
    for k, T in enumerate(T_vals):
        cset = coeffs(T) if callable(coeffs) else coeffs
        p = np.stack([cset.p[key] for key in keys], axis=1)
        finite = np.isfinite(p).all(axis=0)
        expo = T * (jtrack.lamint[:, b] - jtrack.lamint[:, a])
        # an exponent past the cap, or a source block with a non-finite
        # coefficient, makes every bound of the target block infinite; the
        # pairs of such a target then add nothing
        blocked = ((np.max(expo.real, axis=0) > _EXP_CAP)
                   | ~np.logical_and.reduceat(finite, jtrack.offsets[:-1])[b])
        expo[:, np.isin(a, a[blocked])] = -np.inf
        osc = np.exp(expo, out=expo)
        p = np.where(finite, p, 0.0)
        total = np.zeros((len(keys), g.size), dtype=complex)
        integral = np.zeros_like(total)
        largest = np.zeros(len(keys))
        for pairs, rows, cols, B in classes:
            for i, _, sign, term, part in _chain_terms(
                    B, omega[:, pairs], p[:, cols], osc[:, pairs], g):
                np.add.at(total, rows[:, i], (sign * term).T)
                np.add.at(integral, rows[:, i], (sign * part).T)
                np.maximum.at(largest, rows[:, i],
                              np.max(np.abs(term), axis=0))
        out[:, k] = np.where(np.isin(owner, a[blocked]), np.inf,
                             [np.max(np.abs(total), axis=1),
                              np.max(np.abs(integral), axis=1),
                              nterms * largest])

    bounds, integrals, simplified = (
        {key: tuple(col) for key, col in zip(keys, table.T.tolist())}
        for table in out)
    satisfied = {key: tuple(T >= eta * bound
                            for T, bound in zip(T_vals, bounds[key]))
                 for key in keys}
    sat_all = tuple(all(satisfied[k][idx] for k in satisfied)
                    for idx in range(len(T_vals)))
    threshold = next((T_vals[idx] for idx in range(len(T_vals))
                      if sat_all[idx]), None)
    crossover = None
    for idx in range(len(T_vals) - 1):
        if sat_all[idx] and not all(sat_all[idx + 1:]):
            crossover = T_vals[idx]
    return OpenTimeCondition(T_vals, float(eta), bounds, integrals,
                             simplified, satisfied, sat_all, threshold,
                             crossover)


def classify_regime(jtrack: JordanTrack, coeffs: JordanCoefficients,
                    spec: GeneratorSpec, re_tol: float = 1e-9,
                    v_tol: float = 1e-12, comp_factor: float = 10.0,
                    couplings=None) -> dict:
    """Label each unordered block pair by the fate of its time condition.

    oscillatory-RL   purely imaginary exponent, nonvanishing frequency:
                     the integral term dies out as T grows
    decaying         one direction has a strictly decaying exponent and
                     the growing direction carries no coupling weight
    compensated      a growing exponent offset by decaying coefficients
    finite-window    uncompensated uniform growth: the condition can hold
                     only below some crossover time
    guaranteed       no coupling at all between the blocks
    model-dependent  none of the clean shapes applies

    All pairs are labelled at once.  ``couplings`` is
    :func:`coupling_tensor` of the track, built here when not given.
    """
    C = coupling_tensor(jtrack, spec) if couplings is None else couplings
    T = coeffs.total_time
    a, b = _pairs(jtrack)
    # each ordered pair is one orientation: target a, source b
    omega = jtrack.lambdas[:, b] - jtrack.lambdas[:, a]
    rew = (jtrack.lamint[:, b] - jtrack.lamint[:, a]).real
    pmag = np.abs(np.stack([coeffs.p[key] for key in _chain_keys(jtrack)],
                           axis=1))
    finite = np.isfinite(pmag)
    pmag = np.where(finite, pmag, 0.0)
    growth = np.exp(np.minimum(T * rew, _EXP_CAP))
    vmax, q = np.zeros(a.size), np.zeros(rew.shape)
    for pairs, _, cols, B in _size_classes(jtrack, C, a, b):
        # coupling weight: |B| times the finite source coefficients
        vmax[pairs] = np.max(np.abs(B) * pmag[:, cols][:, :, None, :],
                             axis=(0, 2, 3))
        # compensation: the source coefficients against the growth; a
        # product past the float range is inf, "not compensated"
        with np.errstate(over="ignore"):
            weighed = pmag[:, cols] * growth[:, pairs, None]
        q[:, pairs] = np.max(np.where(finite[:, cols], weighed, np.inf),
                             axis=2)
    comp = np.max(q, axis=0) <= comp_factor * np.maximum(q[0], 1e-300)
    risky = (np.max(rew, axis=0) > re_tol) & (vmax > v_tol)
    danger, offset = risky & ~comp, risky & comp
    uniform = np.all(omega.real >= -re_tol, axis=0)

    # unordered pairs a < b, and the index of each orientation
    index = np.zeros((jtrack.nblocks,) * 2, dtype=int)
    index[a, b] = np.arange(a.size)
    fwd = np.flatnonzero(a < b)
    back = index[b[fwd], a[fwd]]
    either = danger[fwd] | danger[back]
    labels = np.select(
        [either & (uniform[fwd] | ~danger[fwd])
         & (uniform[back] | ~danger[back]),
         either,
         offset[fwd] | offset[back],
         (np.max(np.abs(rew[:, fwd]), axis=0) <= re_tol)
         & (np.min(np.abs(omega[:, fwd].imag), axis=0) > 1e-10),
         np.all(rew[1:, fwd] < 0.0, axis=0)
         | np.all(rew[1:, back] < 0.0, axis=0),
         (vmax[fwd] <= v_tol) & (vmax[back] <= v_tol)],
        ["finite-window", "model-dependent", "compensated",
         "oscillatory-RL", "decaying", "guaranteed"], "model-dependent")
    return dict(sorted(((int(a[k]), int(b[k])), str(label))
                       for k, label in zip(fwd, labels)))
