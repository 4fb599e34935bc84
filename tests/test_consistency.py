"""Frozen-eigenvector shortcut versus the full slow-drive reference.

The rotating-field model drives the tracked eigenvector around a cone of
opening angle theta in one schedule period, so every quantity here has a
closed form: the turning rate is pi sin(theta) at every point, states at
opposite sides of an equatorial path are orthogonal, and the frozen
shortcut returns to full overlap when the path closes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adiakit.closed import (
    adiabatic_condition_ratio,
    adiabatic_state,
    track_spectrum,
)
from adiakit.consistency import (
    ConsistencyReport,
    consistency_report,
    illegal_solution,
    inconsistency_witness,
    projector_residual,
)
from adiakit.errors import DomainError, InputError
from adiakit.schedules import make_model

GRID = np.linspace(0.0, 1.0, 512)


def equator():
    return make_model("rotating_field", b=1.0, theta=np.pi / 2)


@pytest.fixture(scope="module")
def equator_report():
    return consistency_report(equator(), 50.0 * np.pi)


class TestIllegalSolution:
    def test_matches_reference_at_start(self):
        track = track_spectrum(equator(), GRID)
        assert np.array_equal(illegal_solution(track, 10.0, 0.0),
                              adiabatic_state(track, 10.0, 0.0, 0))

    def test_direction_never_updates(self):
        track = track_spectrum(equator(), GRID)
        v0 = track.vectors[0, :, 0]
        for s in (GRID[100], GRID[400]):
            state = illegal_solution(track, 10.0, s)
            assert abs(abs(np.vdot(v0, state)) - 1.0) < 1e-12

    def test_carries_the_dynamical_phase(self):
        """Against a flat energy curve the phase is just -T E_0 s."""
        track = track_spectrum(equator(), GRID)
        state = illegal_solution(track, 8.0, GRID[256])
        phase = np.exp(-1j * 8.0 * track.energies[0, 0] * GRID[256])
        assert np.max(np.abs(state - phase * track.vectors[0, :, 0])) < 1e-9

    def test_rejects_off_grid_point(self):
        track = track_spectrum(equator(), GRID)
        with pytest.raises(DomainError):
            illegal_solution(track, 10.0, 0.5001234)

    def test_rejects_nonpositive_time_and_bad_level(self):
        track = track_spectrum(equator(), GRID)
        with pytest.raises(InputError):
            illegal_solution(track, 0.0, 0.0)
        with pytest.raises(InputError):
            illegal_solution(track, 1.0, 0.0, level=2)


class TestWitness:
    def test_vanishes_at_start(self):
        track = track_spectrum(equator(), GRID)
        w = inconsistency_witness(track)
        assert w.shape == GRID.shape
        assert w[0] < 1e-12

    def test_antipodal_point_saturates(self):
        """Half way round the equator the states are orthogonal, so the
        witness hits 1 regardless of any accumulated phase."""
        track = track_spectrum(equator(), GRID)
        assert inconsistency_witness(track, 0.5) == pytest.approx(1.0,
                                                                  abs=1e-6)

    def test_no_total_time_can_enter(self):
        track = track_spectrum(equator(), GRID)
        w = inconsistency_witness(track)
        assert np.max(w) > 0.99

    def test_small_cone_stays_small(self):
        spec = make_model("rotating_field", b=1.0, theta=0.05)
        track = track_spectrum(spec, GRID)
        assert np.max(inconsistency_witness(track)) < 0.01

    def test_rejects_out_of_range_point(self):
        track = track_spectrum(equator(), GRID)
        with pytest.raises(DomainError):
            inconsistency_witness(track, 1.5)


class TestProjectorResidual:
    @pytest.mark.parametrize("theta", [np.pi / 2, np.pi / 3, 1.0])
    def test_turning_rate_is_pi_sin_theta(self, theta):
        spec = make_model("rotating_field", b=1.0, theta=theta)
        track = track_spectrum(spec, GRID)
        resid = projector_residual(track)
        want = np.pi * np.sin(theta)
        assert np.max(np.abs(resid - want)) <= 1e-12 * want

    def test_gauge_independent_across_levels(self):
        track = track_spectrum(equator(), GRID)
        r0 = projector_residual(track, level=0)
        r1 = projector_residual(track, level=1)
        assert np.max(np.abs(r0 - r1)) < 1e-6

    def test_static_drive_has_no_turning(self):
        spec = make_model("landau_zener", a=0.0, delta=0.25)
        track = track_spectrum(spec, GRID)
        assert np.max(projector_residual(track)) < 1e-12

    def test_rejects_bad_level(self):
        track = track_spectrum(equator(), GRID)
        with pytest.raises(InputError):
            projector_residual(track, level=5)


class TestReport:
    def test_midpoint_row(self, equator_report):
        mid = equator_report.at(0.5)
        assert mid["w"] >= 0.5
        assert mid["fid_proper"] >= 0.99
        assert mid["fid_illegal"] <= 0.6
        assert mid["r"] == pytest.approx(np.pi, rel=1e-3)

    def test_proper_reference_tracks_everywhere(self, equator_report):
        assert np.min(equator_report.fid_proper) >= 0.99

    def test_shortcut_recovers_when_the_path_closes(self, equator_report):
        """The frozen state agrees with the exact one again at s = 1, which
        is exactly why a pointwise check in the middle is required."""
        assert equator_report.fid_illegal[-1] > 0.99
        assert np.min(equator_report.fid_illegal) < 0.01

    def test_json_shape(self, equator_report):
        out = equator_report.to_json()
        assert set(out) == {"total_time", "max_witness", "max_residual",
                            "min_fid_proper", "min_fid_illegal", "points"}
        assert len(out["points"]) == equator_report.grid.size
        assert out["max_witness"] == pytest.approx(
            float(np.max(equator_report.w)))
        json.dumps(out)

    def test_csv_round_trip(self, equator_report, tmp_path):
        path = tmp_path / "report.csv"
        equator_report.write_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        header = raw.split(b"\n", 1)[0].decode()
        assert header == "s,w,r,fid_proper,fid_illegal"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (equator_report.grid.size, 5)
        assert np.array_equal(data[:, 0], equator_report.grid)
        assert np.array_equal(data[:, 1], equator_report.w)
        assert np.array_equal(data[:, 4], equator_report.fid_illegal)

    def test_excited_level_behaves_the_same(self):
        rep = consistency_report(equator(), 50.0 * np.pi, level=1)
        assert rep.at(0.5)["w"] >= 0.5
        assert np.min(rep.fid_proper) >= 0.99

    def test_at_rejects_out_of_range(self, equator_report):
        with pytest.raises(DomainError):
            equator_report.at(-0.1)


class TestShortcutNeverWins:
    @settings(deadline=None, max_examples=5, derandomize=True)
    @given(theta=st.floats(0.5, 1.5), T=st.floats(360.0, 480.0))
    def test_proper_fidelity_dominates_where_witness_is_large(self, theta,
                                                              T):
        """Whenever the drive is slow enough for the standard ratio to be
        far below 1 and the witness still flags a large geometric drift,
        the full reference must beat the frozen shortcut pointwise.  Near
        s = 1 the loop closes and both fidelities approach one, so the
        floor allows integration jitter there; the witness stays large at
        closure because it carries the phase the shortcut cannot."""
        spec = make_model("rotating_field", b=1.0, theta=theta)
        track = track_spectrum(spec, GRID)
        ratio = adiabatic_condition_ratio(track, spec, T).max_ratio
        assert ratio < 0.01
        rep = consistency_report(spec, T)
        mask = rep.w > 0.1
        if np.any(mask):
            margin = rep.fid_proper[mask] - rep.fid_illegal[mask]
            assert float(np.min(margin)) >= -1e-4
