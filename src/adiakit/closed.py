"""Closed-system dynamics and adiabaticity diagnostics.

The central object is a :class:`SpectralTrack`: instantaneous eigenpairs of
H(s) on a grid, ordered and phase-fixed so every level traces a continuous
curve.  On top of the track live the validity ratio, the minimum-time
estimate, Berry phases, the adiabatic reference state, the exact coefficient
dynamics in the instantaneous basis, and the transition-counting expansion
of the evolution operator.

Gauge conventions
-----------------
The track itself uses discrete parallel transport: consecutive overlaps
``<n(s_i)|n(s_{i+1})>`` are real positive, and at s = 0 the largest
component of each eigenvector is made real positive.  That gauge is ideal
for continuity but hides geometric phases, so every phase-sensitive
operation (Berry phase, adiabatic state, coefficient dynamics, the
expansion) re-fixes to a single-valued reference gauge: for each level a
component with nonvanishing magnitude along the whole track is chosen and
its phase is pinned to zero, then the frame is re-anchored so it coincides
with the track vector at the first grid point.  On loops where H(1) = H(0)
this reference gauge is periodic, which is what makes the connection
integral land on the geometric phase instead of zero.

:mod:`adiakit._magnus`, which integrates the flows here, is imported at
first use: ``import adiakit.cli`` stays on the modules it loaded before
the engine, which matters where bytecode is not cached and every import
compiles its source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DegeneracyError, DomainError, InputError,
                     NumericalError, ResolutionError)
from .numkit import (_STACK_ENTRIES, _not_a_knot_spline, _running_product,
                     cumulative_trapezoid, min_cost_assignment)
from .schedules import (GeneratorSpec, _weighted_sum, eval_generator,
                        eval_generator_derivative)

__all__ = [
    "SpectralTrack", "track_spectrum",
    "Trajectory", "integrate_schrodinger",
    "ConditionRatios", "adiabatic_condition_ratio",
    "PairEstimate", "ClosedTimeEstimate", "min_time_estimate",
    "BerryCurve", "berry_phase_curve", "adiabatic_state",
    "CoefficientTrajectory", "coefficient_dynamics",
    "WuExpansion", "wu_expansion", "instantaneous_propagator",
    "fidelity",
]


# 1/sqrt(2) = 0.7071 with a margin far beyond rounding (see
# _transport_clear_prefix)
_CLEAR_OVERLAP = 0.75


def _validate_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise InputError("grid needs at least two points")
    if np.any(np.diff(g) <= 0):
        raise InputError("grid must be strictly increasing")
    if g[0] < 0.0 or g[-1] > 1.0:
        raise DomainError("grid must lie inside [0, 1]")
    return g


def _require_closed(spec: GeneratorSpec):
    if spec.kind != "closed":
        raise ConfigError("this operation needs a closed-kind generator")


@dataclass(frozen=True)
class SpectralTrack:
    """Continuous instantaneous eigensystem of H(s) along a grid.

    ``energies[i, n]`` and ``vectors[i, :, n]`` belong to level n at
    ``grid[i]``.  Levels are ordered by energy at the first point and then
    followed by overlap, so curves may exchange energy order along the way
    but never swap identity.
    """

    grid: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    min_gap: float

    @property
    def dim(self) -> int:
        return self.energies.shape[1]

    def gap(self, n: int, k: int) -> np.ndarray:
        """g_nk(s) = E_n(s) - E_k(s) sampled on the grid."""
        return self.energies[:, n] - self.energies[:, k]

    def level_vectors(self, n: int) -> np.ndarray:
        return self.vectors[:, :, n]


def track_spectrum(spec: GeneratorSpec, grid, gap_floor: float = 1e-9) -> SpectralTrack:
    """Diagonalize H(s) on a grid and stitch the eigensystem into curves.

    Ordering between neighbouring points is a maximum-overlap assignment,
    phases are fixed by discrete parallel transport.  A gap that closes,
    either below ``gap_floor`` at a grid point or by changing sign between
    two points, raises :class:`DegeneracyError` locating the crossing.

    The eigenpairs come from one stacked ``eigh``.  Where every level
    overlaps its predecessor by more than ``_CLEAR_OVERLAP``, eigh's own
    order is the assignment and the transport is stacked over the run of
    such points (:func:`_transport_clear_prefix`, a running product of
    the unit overlap phases renormalised to unit modulus, so the column
    norms do not drift).  Only a point where some overlap is smaller goes
    through the per-point assignment; the stacked transport resumes after it.
    """
    _require_closed(spec)
    g = _validate_grid(grid)
    if not gap_floor > 0:
        raise ConfigError(f"gap_floor must be positive, got {gap_floor}")
    N, D = g.size, spec.dimension
    # one stacked eigh for the whole grid; the eigenvectors overwrite the
    # stacked H rather than outlive it as a second stack, which kept a long
    # grid's resident peak above the per-point loop's
    vectors = eval_generator(spec, g)
    energies, vectors[:] = np.linalg.eigh(vectors)
    order = np.argsort(energies[0])
    energies[0], evecs = energies[0, order], vectors[0][:, order]
    anchors = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(D)]
    vectors[0] = evecs * np.conj(anchors / np.abs(anchors))
    i = _transport_clear_prefix(vectors)
    while i < N:
        # an unclear point: some level overlaps its predecessor too little
        # to take eigh's order on trust, so assign by overlap
        evecs = vectors[i]
        order = min_cost_assignment(-np.abs(vectors[i - 1].conj().T @ evecs))
        energies[i], evecs = energies[i, order], evecs[:, order]
        ov = np.einsum("jn,jn->n", vectors[i - 1].conj(), evecs)
        phases = np.where(np.abs(ov) > 0, ov / np.abs(ov), 1.0)
        vectors[i] = evecs * np.conj(phases)
        i += _transport_clear_prefix(vectors[i:])

    min_gap = np.inf
    for n in range(D):
        for k in range(n + 1, D):
            diff = energies[:, n] - energies[:, k]
            adiff = np.abs(diff)
            j = int(np.argmin(adiff))
            if adiff[j] <= gap_floor:
                raise DegeneracyError(
                    f"levels {n} and {k} are degenerate at s = {g[j]:.6f}",
                    s=float(g[j]), pair=(n, k), gap=float(adiff[j]))
            flips = np.nonzero(np.sign(diff[:-1]) != np.sign(diff[1:]))[0]
            if flips.size:
                j = int(flips[0])
                s_cross = g[j] + (g[j + 1] - g[j]) * diff[j] / (diff[j] - diff[j + 1])
                raise DegeneracyError(
                    f"levels {n} and {k} cross between grid points at "
                    f"s = {s_cross:.6f}", s=float(s_cross), pair=(n, k),
                    gap=0.0)
            min_gap = min(min_gap, float(adiff[j]))
    return SpectralTrack(g, energies, vectors, min_gap)


def _transport_clear_prefix(vectors: np.ndarray) -> int:
    """Parallel-transport eigh's bases in place up to the first unclear
    point, and return that point (``len(vectors)`` if there is none).

    ``vectors[0]`` must already be ordered and transported.  A point is
    clear when every level overlaps the previous point's vector by more
    than ``_CLEAR_OVERLAP``: the overlaps of two orthonormal bases are the
    moduli of a unitary matrix, so above 1/sqrt(2) eigh's order is the
    unique best assignment.  The overlaps of a chunk are taken against the
    previous point as it already stands, so point i turns by the running
    product of the unit phases conj(ov/|ov|) since the chunk began
    (:func:`numkit._running_product`, which divides it by its modulus).

    The chunks double from 16 points up to ``_STACK_ENTRIES`` matrix
    entries, so a grid with many unclear points, where each call ends
    soon, does not pay for a full chunk of overlaps per call.
    """
    N, D = vectors.shape[:2]
    a, step = 1, 16
    while a < N:
        b = min(a + step, N)
        ov = np.einsum("ijn,ijn->in", vectors[a - 1:b - 1].conj(),
                       vectors[a:b])
        modulus = np.abs(ov)
        unclear = np.flatnonzero(~np.all(modulus > _CLEAR_OVERLAP, axis=1))
        stop = a + int(unclear[0]) if unclear.size else b
        turn = _running_product(
            (ov[:stop - a].conj() / modulus[:stop - a])[..., None, None])
        vectors[a:stop] *= turn[:, None, :, 0, 0]
        if stop < b:
            return stop
        a, step = b, max(step, min(2 * step, _STACK_ENTRIES // (D * D)))
    return N


@dataclass(frozen=True)
class Trajectory:
    """States on a grid plus the integrator bookkeeping that produced them.

    ``states[i]`` is the state vector at ``grid[i]`` (a coherence vector in
    the open-system case); ``times = total_time * grid``.

    The counters are those of the Magnus engine
    (:class:`adiakit._magnus.IntegrationResult`).  Every step of a closed
    trajectory is unitary, so :meth:`norm_drift` measures rounding only;
    every step of an open one keeps the trace.
    """

    grid: np.ndarray
    states: np.ndarray
    total_time: float
    rtol: float
    atol: float
    steps: int
    rhs_evals: int
    rejected: int = 0
    min_step: float = math.inf
    s_at_min_step: float = math.nan

    @property
    def times(self) -> np.ndarray:
        return self.total_time * self.grid

    def norm_drift(self) -> float:
        """Worst deviation of the Euclidean norm from 1 (closed-case diagnostic)."""
        return float(np.max(np.abs(np.linalg.norm(self.states, axis=1) - 1.0)))


def integrate_schrodinger(spec: GeneratorSpec, T: float, psi0, grid=None,
                          tol=(1e-8, 1e-10)) -> Trajectory:
    """Solve d psi / ds = -i T H(s) psi on s in [grid[0], grid[-1]].

    The fourth-order Magnus engine :func:`adiakit._magnus.propagate` steps
    the flow; ``tol`` is the (relative, absolute) pair its error estimate,
    summed over the grid, must meet.  The state is never renormalized; as
    every step is unitary, norm drift shows rounding only.  A total time
    whose planned steps exceed ``_magnus.MAX_STEPS`` raises
    :class:`adiakit.errors.StiffnessError` before the first step.
    """
    _require_closed(spec)
    if not T > 0:
        raise InputError(f"total time must be positive, got {T}")
    g = _validate_grid(grid if grid is not None else np.linspace(0.0, 1.0, 201))
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (spec.dimension,):
        raise InputError(f"initial state must have shape ({spec.dimension},)")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-6:
        raise InputError("initial state must be normalized")
    rtol, atol = float(tol[0]), float(tol[1])
    from . import _magnus
    res = _magnus.propagate(*_schrodinger_flow(spec, T), g, psi0, rtol, atol)
    return Trajectory(g, res.y, float(T), rtol, atol, res.steps, res.rhs_evals,
                      res.rejected, res.min_step, res.s_at_min_step)


def _schrodinger_flow(spec: GeneratorSpec, T: float):
    """The generator -i T H(s) as the terms ``(-i T, weights, parts,
    fixed)`` of :func:`adiakit._magnus.propagate`, the parts the term
    matrices made Hermitian to the bit and ``fixed`` those of constant
    envelope, and a bound on the spectral width of T H(s) on [0, 1]: the
    sum over terms of the width of the matrix times the largest modulus of
    the envelope."""
    terms, D = spec.hamiltonian_terms, spec.dimension
    envs = [env for _, env in terms]
    parts = np.array([M for M, _ in terms], dtype=complex).reshape(-1, D, D)
    parts = 0.5 * (parts + parts.conj().swapaxes(1, 2))
    levels = np.linalg.eigvalsh(parts)
    width = T * sum(float(w) * env.bound() for w, env
                    in zip(levels[:, -1] - levels[:, 0], envs))
    fixed = [k for k, env in enumerate(envs) if env.kind == "constant"]
    return (-1j * T, lambda s: [env.value(s) for env in envs], parts,
            fixed), width


def _melements(track: SpectralTrack, spec: GeneratorSpec) -> np.ndarray:
    """<k(s)|dH/ds|n(s)> on the track grid, indexed [i, k, n]."""
    V = track.vectors
    return (V.conj().transpose(0, 2, 1)
            @ eval_generator_derivative(spec, track.grid) @ V)


@dataclass(frozen=True)
class ConditionRatios:
    """Validity ratios r_nk = max_s |<k|dH/dt|n> / g_nk| / min_s |g_nk|."""

    total_time: float
    ratios: dict
    max_ratio: float
    max_pair: tuple

    def ratio(self, n: int, k: int) -> float:
        return self.ratios[(n, k)]


def adiabatic_condition_ratio(track: SpectralTrack, spec: GeneratorSpec,
                              T: float) -> ConditionRatios:
    """Dimensionless adiabaticity ratio per level pair and its maximum.

    The time-derivative couplings use dH/dt = (1/T) dH/ds; the max and the
    min are taken independently over the whole grid, so the ratio bounds the
    worst coupling against the worst gap rather than a pointwise quotient.
    r_nk and r_kn are equal, so each pair is computed once, with n < k, and
    ``max_pair`` is the first such pair of the largest ratio.
    """
    if not T > 0:
        raise InputError(f"total time must be positive, got {T}")
    mel = _melements(track, spec)
    pair = {}
    worst, worst_pair = 0.0, None
    for n in range(track.dim):
        for k in range(n + 1, track.dim):
            gap = track.gap(n, k)
            r = float(np.max(np.abs(mel[:, k, n] / gap)) / (T * np.min(np.abs(gap))))
            pair[(n, k)] = r
            if worst_pair is None or r > worst:
                worst, worst_pair = r, (n, k)
    ratios = {(n, k): pair[min(n, k), max(n, k)] for n in range(track.dim)
              for k in range(track.dim) if n != k}
    return ConditionRatios(float(T), ratios, worst, worst_pair)


@dataclass(frozen=True)
class PairEstimate:
    level: int
    F: float
    G: float
    T_pair: float


@dataclass(frozen=True)
class ClosedTimeEstimate:
    """Minimum-time estimate T_est = F / G^2 with its per-level table.

    ``pairs`` holds one row per target level k: the worst coupling F_k out
    of the populated levels, the smallest relevant gap G_k, and the pair
    estimate F_k / G_k^2.  ``integrand`` samples F_k(s) / g^2(s) on the
    grid, the quantity whose endpoint values set the estimate.
    """

    initial_level: int
    F: float
    G: float
    T_est: float
    pairs: tuple
    integrand: dict


def min_time_estimate(track: SpectralTrack, spec: GeneratorSpec, m: int,
                      initial_amplitudes=None) -> ClosedTimeEstimate:
    """Estimate of the total time needed for adiabatic evolution from level m.

    By default the initial state is the single eigenstate m.  Passing
    ``initial_amplitudes`` (one weight per level) generalizes the coupling
    numerator to max_n |a_n(0)| |<k|dH/ds|n>| for a spread-out start.
    """
    D = track.dim
    if not (0 <= m < D):
        raise InputError(f"level index {m} outside 0..{D - 1}")
    if initial_amplitudes is None:
        weights = np.zeros(D)
        weights[m] = 1.0
    else:
        weights = np.abs(np.asarray(initial_amplitudes, dtype=complex))
        if weights.shape != (D,):
            raise InputError(f"initial_amplitudes must have shape ({D},)")
    mel = _melements(track, spec)

    rows, integrand = [], {}
    for k in range(D):
        sources = [n for n in range(D) if n != k and weights[n] > 0]
        if not sources:
            continue
        num = np.max(weights[sources] * np.abs(mel[:, k, sources]), axis=1)
        gaps = np.array([np.abs(track.gap(n, k)) for n in sources])
        Fk = float(np.max(num))
        Gk = float(np.min(gaps))
        rows.append(PairEstimate(k, Fk, Gk, Fk / Gk ** 2))
        integrand[k] = num / np.min(gaps, axis=0) ** 2
    best = max(rows, key=lambda row: row.T_pair)
    return ClosedTimeEstimate(m, best.F, best.G, best.T_pair, tuple(rows),
                              integrand)


def _reference_frame(track: SpectralTrack, level: int) -> np.ndarray:
    """Single-valued gauge for one level, anchored to the track at grid[0].

    Picks the component with the largest worst-case magnitude along the
    track and zeroes its phase everywhere; fails if no component stays
    bounded away from zero, because then no single-chart gauge exists.
    """
    vs = track.level_vectors(level)
    support = np.min(np.abs(vs), axis=0)
    c = int(np.argmax(support))
    if support[c] <= 1e-12:
        raise NumericalError(
            f"no component of level {level} stays nonzero along the track; "
            "reference gauge is undefined", level=level)
    phases = vs[:, c] / np.abs(vs[:, c])
    return vs * np.conj(phases)[:, None] * phases[0]


def _frames(track: SpectralTrack):
    """Reference frames of every level and their dynamical phases.

    ``frames[i, :, n]`` is level n at ``grid[i]`` in the gauge of
    :func:`_reference_frame`; ``phi[i, n]`` is the trapezoid integral of
    E_n from the first grid point to ``grid[i]``.
    """
    frames = np.stack([_reference_frame(track, n) for n in range(track.dim)],
                      axis=2)
    phi = cumulative_trapezoid(track.energies, track.grid)
    return frames, phi


def _grid_derivative(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Central differences along axis 0, one-sided at the ends."""
    out = np.empty_like(values)
    denom = (grid[2:] - grid[:-2]).reshape((-1,) + (1,) * (values.ndim - 1))
    out[1:-1] = (values[2:] - values[:-2]) / denom
    out[0] = (values[1] - values[0]) / (grid[1] - grid[0])
    out[-1] = (values[-1] - values[-2]) / (grid[-1] - grid[-2])
    return out


@dataclass(frozen=True)
class BerryCurve:
    """Accumulated geometric phase of one level along the track grid."""

    level: int
    grid: np.ndarray
    gamma: np.ndarray
    imag_residual: float


def berry_phase_curve(track: SpectralTrack, level: int) -> BerryCurve:
    """gamma(s) = i * integral of <n|dn/ds'> in the reference gauge.

    The connection comes from central differences of the gauge-fixed
    vectors and the integral is a cumulative trapezoid on the track grid.
    The exact curve is real; the numerical imaginary part is returned as
    ``imag_residual`` instead of being silently discarded.
    """
    if not (0 <= level < track.dim):
        raise InputError(f"level index {level} outside 0..{track.dim - 1}")
    frame = _reference_frame(track, level)
    conn = np.einsum("ij,ij->i", frame.conj(),
                     _grid_derivative(frame, track.grid))
    steps = np.diff(track.grid)
    local = np.maximum(np.abs(conn[:-1]), np.abs(conn[1:])) * steps
    if np.any(local > np.pi / 4):
        j = int(np.argmax(local))
        raise ResolutionError(
            f"gauge phase advances {local[j]:.3f} rad across one grid step "
            f"near s = {track.grid[j]:.4f}; refine the grid",
            s=float(track.grid[j]))
    gamma = 1j * cumulative_trapezoid(conn, track.grid)
    return BerryCurve(level, track.grid, gamma.real,
                      float(np.max(np.abs(gamma.imag))))


def adiabatic_state(track: SpectralTrack, T: float, s: float, n0: int) -> np.ndarray:
    """The adiabatic-theorem reference state at s for a start in level n0.

    exp(-i T integral of E_n0) * exp(i gamma_n0(s)) * |n0(s)> in the same
    reference gauge used for the Berry phase, so at s = 0 it reproduces the
    track eigenvector exactly.
    """
    if not T > 0:
        raise InputError(f"total time must be positive, got {T}")
    i = int(np.argmin(np.abs(track.grid - s)))
    if abs(track.grid[i] - s) > 1e-12:
        raise DomainError(f"s = {s} is not a point of the track grid")
    curve = berry_phase_curve(track, n0)
    frame = _reference_frame(track, n0)
    dyn = cumulative_trapezoid(track.energies[:, n0], track.grid)
    return np.exp(-1j * T * dyn[i]) * np.exp(1j * curve.gamma[i]) * frame[i]


@dataclass(frozen=True)
class CoefficientTrajectory:
    """Instantaneous-basis coefficients a_n(s) and their dynamical phases.

    ``coefficients[i, n]`` multiplies the reference-gauge eigenvector n at
    ``grid[i]``; ``dynamical_phases[i, n]`` is the integral of the cubic
    spline of E_n up to grid[i] (phase itself, without the -iT).
    ``frames[i]`` holds the reference-gauge eigenvector columns used for
    reconstruction, and ``steps`` counts the Magnus sub-steps of the
    solve.
    """

    grid: np.ndarray
    coefficients: np.ndarray
    dynamical_phases: np.ndarray
    frames: np.ndarray
    total_time: float
    steps: int

    def reconstruct(self) -> np.ndarray:
        """States psi(s) = sum_n a_n exp(-i T Phi_n) |n(s)>."""
        weights = self.coefficients * np.exp(-1j * self.total_time
                                             * self.dynamical_phases)
        return np.einsum("ijn,in->ij", self.frames, weights)


def coefficient_dynamics(spec: GeneratorSpec, T: float, a0, grid=None,
                         tol=(1e-8, 1e-10), gap_floor: float = 1e-9
                         ) -> CoefficientTrajectory:
    """Integrate the exact coupled coefficient equations in the moving basis.

    da_k/ds = -a_k <k|dk/ds>
              - sum_{n != k} a_n <k|dH/ds|n> / g_nk * exp(-i T Phi_nk)

    with Phi_nk the running integral of the gap.  The energies, couplings
    and connections are sampled on the track grid and interpolated by one
    set of not-a-knot cubic splines.  The dynamical phases Phi_n are the
    exact integrals of the energy cubics, and b = exp(-i T Phi) a obeys
    the non-oscillatory linear flow b' = -(i T E + <k|dk/ds> + couplings) b,
    which :func:`adiakit._magnus.propagate` solves through the grid points
    at ``tol``; ``steps`` of the result counts its Magnus steps.  Only an
    ambiguous level assignment along the track loads scipy.
    """
    _require_closed(spec)
    if not T > 0:
        raise InputError(f"total time must be positive, got {T}")
    a0 = np.asarray(a0, dtype=complex)
    if a0.shape != (spec.dimension,):
        raise InputError(f"initial coefficients must have shape ({spec.dimension},)")
    if abs(np.sum(np.abs(a0) ** 2) - 1.0) > 1e-6:
        raise InputError("initial coefficients must have unit total weight")
    g = _validate_grid(grid if grid is not None else np.linspace(0.0, 1.0, 2001))
    track = track_spectrum(spec, g, gap_floor)
    D = track.dim

    frames, _ = _frames(track)
    dframes = _grid_derivative(frames, g)
    # <k|dk/ds> is purely imaginary for unit-norm vectors; the real part
    # produced by finite differencing is an O(h^2) artifact and would leak
    # probability, so only the imaginary part enters the flow
    conn = 1j * np.einsum("ijn,ijn->in", frames.conj(), dframes).imag
    mel = np.einsum("ijk,ijn->ikn", frames.conj(),
                    eval_generator_derivative(spec, g) @ frames)
    E = track.energies   # gap g_nk = E_n - E_k divides coupling [:, k, n]
    offdiag = np.divide(mel, E[:, None, :] - E[:, :, None],
                        out=np.zeros_like(mel), where=~np.eye(D, dtype=bool))

    generator, width, phi = _coefficient_flow(g, E, conn, offdiag, T)
    from . import _magnus
    res = _magnus.propagate(generator, width, g, a0, float(tol[0]),
                            float(tol[1]))
    return CoefficientTrajectory(g, np.exp(1j * T * phi) * res.y, phi, frames,
                                 float(T), res.steps)


def _coefficient_flow(grid, energies, conn, offdiag, T):
    """The generator of b = exp(-i T Phi) a, a bound on its spectral width
    and the phases Phi on the grid.

    ``energies[i, n]``, ``conn[i, n]`` and ``offdiag[i, k, n]`` sample the
    levels, the (purely imaginary) connection and the gap-divided couplings
    on ``grid``; their real and imaginary parts are fitted by one set of
    not-a-knot splines, with scipy's coefficients.  On each grid interval
    the generator -(i T E + conn + offdiag) is a cubic in s - grid[i] with
    matrix coefficients, summed by the one weighting rule of
    :func:`adiakit.schedules._weighted_sum`; ``Phi`` integrates the energy
    cubics exactly.  The width bound takes the samples: T times the widest
    spread of the energies plus twice the largest Frobenius norm of the
    connection and couplings.
    """
    N, D = energies.shape
    samples = np.hstack([energies + 0j, conn, offdiag.reshape(N, D * D)])
    pieces = _not_a_knot_spline(grid, samples.view(float)).view(complex)
    h = np.diff(grid)[:, None]
    c = pieces[:, :, :D].real
    phi = np.zeros((N, D))
    np.cumsum(h * (c[:, 0] + h * (c[:, 1] / 2 + h * (c[:, 2] / 3
                                                     + h * c[:, 3] / 4))),
              axis=0, out=phi[1:])
    cubic = -pieces[:, :, 2 * D:].reshape(N - 1, 4, D, D)
    levels = np.arange(D)
    cubic[:, :, levels, levels] -= (1j * T * pieces[:, :, :D]
                                    + pieces[:, :, D:2 * D])

    width = T * float(np.max(np.ptp(energies, axis=1))) + 2.0 * float(np.max(
        np.sqrt(np.sum(np.abs(offdiag) ** 2, axis=(1, 2))
                + np.sum(np.abs(conn) ** 2, axis=1))))

    def generator(s):
        i = np.clip(np.searchsorted(grid, s, side="right") - 1, 0, N - 2)
        z = s - grid[i]
        return _weighted_sum(s, [1.0, z, z * z, z * z * z],
                             cubic[i].swapaxes(0, 1), D)

    return generator, width, phi


@dataclass(frozen=True)
class WuExpansion:
    """Transition-counting expansion of the coefficient propagator.

    ``terms[n][i]`` is the n-transition contribution U^(n)(s_i); their sum
    approximates the exact propagator of the instantaneous-basis
    coefficients.  ``kmatrix`` samples the full generator K(s), split into
    ``diagonal`` (the connection part, no oscillatory factor survives on
    the diagonal) and ``offdiagonal``.
    """

    order: int
    total_time: float
    grid: np.ndarray
    kmatrix: np.ndarray
    diagonal: np.ndarray
    offdiagonal: np.ndarray
    terms: tuple
    track: SpectralTrack = field(repr=False, default=None)

    def partial_sum(self, upto: int = None) -> np.ndarray:
        upto = self.order if upto is None else upto
        if not (0 <= upto <= self.order):
            raise InputError(f"partial sum order {upto} outside 0..{self.order}")
        return np.sum(self.terms[:upto + 1], axis=0)


def wu_expansion(spec: GeneratorSpec, T: float, order: int, grid,
                 gap_floor: float = 1e-9) -> WuExpansion:
    """Build K(s) = D(s) + O(s) and the recurrence for U^(0)..U^(order).

    K_mn(s) = -<m|dn/ds> exp(i T Phi_mn(s)) with Phi_mn the running gap
    integral; U^(0) solves the diagonal flow (it carries exactly the
    geometric phases), and each higher term is the cumulative trapezoid of
    U^(0) O U^(n-1).  A grid whose spacing lets the oscillation advance
    more than pi/4 between points raises :class:`ResolutionError`.
    """
    _require_closed(spec)
    if not T > 0:
        raise InputError(f"total time must be positive, got {T}")
    if not (type(order) is int and 0 <= order <= 3):   # no bool either
        raise ConfigError(f"order must be an integer in 0..3, got {order}")
    g = _validate_grid(grid)
    track = track_spectrum(spec, g, gap_floor)
    D = track.dim

    steps = np.diff(g)
    for n in range(D):
        for k in range(n + 1, D):
            osc = T * np.abs(track.gap(n, k))
            local = np.maximum(osc[:-1], osc[1:]) * steps
            if np.any(local > np.pi / 4):
                j = int(np.argmax(local))
                raise ResolutionError(
                    f"oscillation of pair ({n},{k}) advances {local[j]:.3f} rad "
                    f"per grid step near s = {g[j]:.4f}; refine the grid",
                    pair=(n, k), s=float(g[j]))

    frames, phi = _frames(track)
    dframes = _grid_derivative(frames, g)
    conn = np.einsum("ijm,ijn->imn", frames.conj(), dframes)
    osc = np.exp(1j * T * (phi[:, :, None] - phi[:, None, :]))
    K = -conn * osc
    # the diagonal connection is purely imaginary for unit-norm vectors;
    # drop the finite-differencing real part so U^(0) stays unimodular
    m = np.arange(D)
    K[:, m, m] = 1j * K[:, m, m].imag
    diag = K[:, m, m]
    O = K.copy()
    O[:, m, m] = 0.0

    U0diag = np.exp(cumulative_trapezoid(diag, g))
    U0 = np.zeros((g.size, D, D), dtype=complex)
    U0[:, m, m] = U0diag
    terms = [U0]
    for _ in range(order):
        integrand = (U0diag[:, :, None] * O) @ terms[-1]
        terms.append(cumulative_trapezoid(integrand, g))
    return WuExpansion(order, float(T), g, K, diag, O, tuple(terms), track)


def instantaneous_propagator(spec: GeneratorSpec, T: float, grid,
                             tol=(1e-10, 1e-12), gap_floor: float = 1e-9
                             ) -> np.ndarray:
    """Exact coefficient propagator from the Schrödinger flow.

    Column m evolves the reference-gauge eigenvector m through the flow
    of :func:`integrate_schrodinger` (all columns in one propagation) and
    projects back with the dynamical phase stripped off, giving the same
    object the expansion approximates but through an entirely different
    route.
    """
    track = track_spectrum(spec, _validate_grid(grid), gap_floor)
    return _track_propagator(spec, T, track, tol)


def _track_propagator(spec: GeneratorSpec, T: float, track: SpectralTrack,
                      tol=(1e-10, 1e-12)) -> np.ndarray:
    """:func:`instantaneous_propagator` on the grid of an existing track:
    all columns from one Schrödinger propagator."""
    _require_closed(spec)
    if not T > 0:
        raise InputError(f"total time must be positive, got {T}")
    frames, phi = _frames(track)
    from . import _magnus
    states = _magnus.propagate(*_schrodinger_flow(spec, T), track.grid,
                               frames[0], float(tol[0]), float(tol[1])).y
    return np.exp(1j * T * phi)[:, :, None] * (
        frames.conj().swapaxes(1, 2) @ states)


def fidelity(a, b) -> float:
    """Squared overlap |<a|b>|^2 of two unit vectors."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError("states must be vectors of equal dimension")
    for name, v in (("first", a), ("second", b)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-6:
            raise InputError(f"{name} state is not normalized")
    return float(min(1.0, np.abs(np.vdot(a, b)) ** 2))
