"""Internal consistency of the slow-drive approximation, made executable.

The proper reference state for a tracked level keeps three ingredients:
the dynamical phase, the geometric phase, and the instantaneous
eigenvector.  A tempting shortcut drops the last two and freezes the
eigenvector at its initial value, keeping only the dynamical phase.
Feeding that shortcut back into the equation of motion looks harmless,
and a chain of formal substitutions can even "prove" that it should work
whenever the standard validity ratio is small.

It does not work, and the failure is quantitative, not philosophical.
The witness below measures the gap between the frozen state and the full
reference at every schedule point; it is purely geometric, independent of
how slowly the system is driven.  Wherever the witness is large, the
frozen state has strayed from any solution of the dynamics, while the
full reference keeps tracking the exact propagated state.  The projector
residual supplies the gauge-invariant rate at which the eigenvector
actually turns, which is the quantity the shortcut silently sets to zero.
"""

import csv

import numpy as np

from .closed import (
    SpectralTrack,
    _berry_curve,
    _frame_derivatives,
    integrate_schrodinger,
    track_spectrum,
)
from .errors import DomainError, InputError
from .numkit import cumulative_trapezoid
from .schedules import GeneratorSpec

__all__ = [
    "illegal_solution",
    "inconsistency_witness",
    "projector_residual",
    "ConsistencyReport",
    "consistency_report",
]


def _interp_or_curve(curve, track, s):
    if s is None:
        return curve
    if not (track.grid[0] <= s <= track.grid[-1]):
        raise DomainError(f"s = {s} outside the tracked range")
    return float(np.interp(s, track.grid, curve))


def illegal_solution(track: SpectralTrack, T: float, s: float,
                     level: int = 0) -> np.ndarray:
    """The frozen-eigenvector shortcut state at a point of the track grid.

    exp(-i T integral of E_level) times the *initial* eigenvector: the
    state obtained by keeping the dynamical phase but never updating the
    direction.  It coincides with the proper reference at s = 0 and drifts
    from it exactly as fast as the eigenvector turns.
    """
    if not T > 0:
        raise InputError(f"total time must be positive, got {T}")
    if not (0 <= level < track.dim):
        raise InputError(f"level index {level} outside 0..{track.dim - 1}")
    i = int(np.argmin(np.abs(track.grid - s)))
    if abs(track.grid[i] - s) > 1e-12:
        raise DomainError(f"s = {s} is not a point of the track grid")
    dyn = cumulative_trapezoid(track.energies[:, level], track.grid)
    return np.exp(-1j * T * dyn[i]) * track.vectors[0, :, level]


def inconsistency_witness(track: SpectralTrack, s: float = None,
                          level: int = 0):
    """|e^{i gamma(s)} <level(0)|level(s)> - 1| along the schedule.

    Zero exactly when the frozen state still matches the full reference up
    to the dynamical phase.  The quantity is geometric: no total time
    enters, so no amount of slowing down can reduce it.  Returns the whole
    curve when ``s`` is omitted, otherwise an interpolated point value.
    """
    frames, conn = _frame_derivatives(track, level)
    gamma = _berry_curve(track, level, conn[:, level, 0]).gamma
    return _interp_or_curve(_witness(gamma, frames[:, :, 0]), track, s)


def _witness(gamma, frame):
    """|e^{i gamma} <n(0)|n(s)> - 1| from the curve and the level's frame."""
    overlap = frame.conj() @ frame[0]
    return np.abs(np.exp(1j * gamma) * overlap.conj() - 1.0)


def projector_residual(track: SpectralTrack, s: float = None,
                       level: int = 0):
    """Norm of the eigenvector velocity orthogonal to the eigenvector.

    That is the norm of the off-diagonal column <m|d_s n>, m != n, of
    :func:`adiakit.closed._frame_derivatives`, exact from dH/ds and gauge
    independent: the honest turning rate the frozen shortcut discards.
    """
    _, conn = _frame_derivatives(track, level, gauge=False)
    return _interp_or_curve(np.linalg.norm(conn[:, :, 0], axis=1), track, s)


class ConsistencyReport:
    """Side-by-side record of the proper and frozen references.

    Arrays are aligned with ``grid``: the witness ``w``, the turning rate
    ``r``, and the squared overlaps of the exact propagated state with the
    proper reference and with the frozen shortcut.
    """

    def __init__(self, total_time, grid, w, r, fid_proper, fid_illegal):
        self.total_time = float(total_time)
        self.grid = grid
        self.w = w
        self.r = r
        self.fid_proper = fid_proper
        self.fid_illegal = fid_illegal

    def at(self, s: float) -> dict:
        """Interpolated row of the report at schedule point s."""
        if not (self.grid[0] <= s <= self.grid[-1]):
            raise DomainError(f"s = {s} outside the reported range")
        return {name: float(np.interp(s, self.grid, values))
                for name, values in (("w", self.w), ("r", self.r),
                                     ("fid_proper", self.fid_proper),
                                     ("fid_illegal", self.fid_illegal))}

    def to_json(self) -> dict:
        return {
            "total_time": self.total_time,
            "max_witness": float(np.max(self.w)),
            "max_residual": float(np.max(self.r)),
            "min_fid_proper": float(np.min(self.fid_proper)),
            "min_fid_illegal": float(np.min(self.fid_illegal)),
            "points": [
                {"s": float(self.grid[i]), "w": float(self.w[i]),
                 "r": float(self.r[i]),
                 "fid_proper": float(self.fid_proper[i]),
                 "fid_illegal": float(self.fid_illegal[i])}
                for i in range(self.grid.size)
            ],
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["s", "w", "r", "fid_proper", "fid_illegal"])
            for i in range(self.grid.size):
                writer.writerow([repr(float(x)) for x in
                                 (self.grid[i], self.w[i], self.r[i],
                                  self.fid_proper[i], self.fid_illegal[i])])


def consistency_report(spec: GeneratorSpec, T: float, grid=None,
                       level: int = 0, tol=(1e-8, 1e-10),
                       gap_floor: float = 1e-9) -> ConsistencyReport:
    """Propagate exactly and compare both references point by point.

    The exact state starts in the tracked eigenvector of ``level``; the
    proper reference multiplies the moving eigenvector by dynamical and
    geometric phases, the frozen one multiplies the initial eigenvector by
    the dynamical phase alone.  The frame, its connection and its turning
    rate come from one column of :func:`adiakit.closed._frame_derivatives`.
    """
    g = np.linspace(0.0, 1.0, 512) if grid is None else np.asarray(grid,
                                                                   dtype=float)
    track = track_spectrum(spec, g, gap_floor)
    frames, conn = _frame_derivatives(track, level)
    frame, conn = frames[:, :, 0], conn[:, :, 0]
    gamma = _berry_curve(track, level, conn[:, level]).gamma
    exact = integrate_schrodinger(spec, T, frame[0], g, tol)

    proper = np.exp(1j * gamma)[:, None] * frame
    fid_proper = np.minimum(1.0, np.abs(np.einsum(
        "ij,ij->i", proper.conj(), exact.states)) ** 2)
    fid_illegal = np.minimum(1.0, np.abs(exact.states @ frame[0].conj()) ** 2)
    r = np.linalg.norm(np.delete(conn, level, axis=1), axis=1)
    return ConsistencyReport(T, g, _witness(gamma, frame), r, fid_proper,
                             fid_illegal)
