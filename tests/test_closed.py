"""Closed-system spectral tracking, condition ratios, and coefficient flow.

Numerical expectations in this file come from the Landau-Zener and rotating
field models, where energies, gaps, couplings, and geometric phases all have
closed forms.
"""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from adiakit import closed
from adiakit.cli import parse_scenario
from adiakit.closed import (
    adiabatic_condition_ratio,
    adiabatic_state,
    berry_phase_curve,
    coefficient_dynamics,
    fidelity,
    integrate_schrodinger,
    min_time_estimate,
    track_spectrum,
)
from adiakit.errors import (
    DegeneracyError,
    DomainError,
    InputError,
    ResolutionError,
)
from adiakit.schedules import SIGMA_X, SIGMA_Z, eval_generator, make_model

from test_open_fast_path import generated


GRID = np.linspace(0.0, 1.0, 2001)


def lz(a=1.0, delta=0.25):
    return make_model("landau_zener", a=a, delta=delta)


def lz_energy(s, a=1.0, delta=0.25):
    return np.sqrt((a * (2.0 * s - 1.0)) ** 2 + delta ** 2)


class TestTrackSpectrum:
    def test_lz_energies_analytic(self):
        track = track_spectrum(lz(), GRID)
        expected = lz_energy(GRID)
        assert np.allclose(track.energies[:, 0], -expected, atol=1e-12)
        assert np.allclose(track.energies[:, 1], expected, atol=1e-12)

    def test_lz_min_gap(self):
        track = track_spectrum(lz(), GRID)
        assert track.min_gap == pytest.approx(0.5, abs=1e-12)

    def test_vectors_are_instantaneous_eigenvectors(self):
        spec = lz()
        track = track_spectrum(spec, GRID)
        for i in (0, 317, 1000, 2000):
            s = GRID[i]
            H = (-1.0 + 2.0 * s) * SIGMA_Z + 0.25 * SIGMA_X
            for n in range(2):
                v = track.vectors[i, :, n]
                assert np.linalg.norm(H @ v - track.energies[i, n] * v) < 1e-12
                assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_transport_gauge_consecutive_overlaps(self):
        """Parallel transport makes neighbouring overlaps real and positive."""
        track = track_spectrum(lz(), GRID)
        for n in range(2):
            vs = track.level_vectors(n)
            ov = np.einsum("ij,ij->i", vs[:-1].conj(), vs[1:])
            assert np.all(ov.real > 0)
            assert np.max(np.abs(ov.imag)) < 1e-8

    def test_anchor_phase_at_start(self):
        track = track_spectrum(make_model("rotating_field", b=1.0, theta=1.0),
                               GRID)
        for n in range(2):
            v0 = track.vectors[0, :, n]
            lead = v0[np.argmax(np.abs(v0))]
            assert abs(lead.imag) < 1e-14
            assert lead.real > 0

    def test_level_identity_follows_overlap_not_energy(self):
        # crossing of two decoupled levels: curves go through each other
        h0 = np.diag([0.0, 1.0]).astype(complex)
        h1 = np.diag([1.0, 0.0]).astype(complex)
        spec = make_model("linear_interp", h0=h0, h1=h1)
        grid = np.linspace(0.0, 1.0, 1001)
        with pytest.raises(DegeneracyError) as exc:
            track_spectrum(spec, grid)
        assert exc.value.details == {"s": 0.5, "pair": (0, 1), "gap": 0.0}

    def test_degenerate_crossing_located(self):
        spec = lz(delta=0.0)
        grid = np.linspace(0.0, 1.0, 1000)  # even count, no point at 0.5
        with pytest.raises(DegeneracyError) as exc:
            track_spectrum(spec, grid)
        assert exc.value.details == {"s": 0.5, "pair": (0, 1), "gap": 0.0}

    def test_gap_floor_pointwise(self):
        spec = lz(delta=0.0)
        grid = np.linspace(0.0, 1.0, 1001)  # grid point exactly at 0.5
        with pytest.raises(DegeneracyError) as exc:
            track_spectrum(spec, grid)
        assert exc.value.details == {"s": 0.5, "pair": (0, 1), "gap": 0.0}

    @pytest.mark.parametrize("case", ["lz", "rotating", "random4",
                                      "lz_coarse"])
    def test_ordering_matches_scipy_assignment(self, case, monkeypatch):
        """The track whose ordering scipy's assignment picks at every
        point, whether or not the overlap shortcut applies: the energies
        bit for bit, the transported vectors to rounding."""
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(3)
        A = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        h0, h1 = A + A.conj().transpose(0, 2, 1)
        spec, points = {
            "lz": (lz(), 2001),
            "rotating": (make_model("rotating_field", b=1.0, theta=1.0), 512),
            "random4": (make_model("linear_interp", h0=h0, h1=h1), 201),
            # one point inside the avoided crossing: overlaps too small
            # for the shortcut, the order still unambiguous
            "lz_coarse": (lz(delta=0.1), 3),
        }[case]
        grid = np.linspace(0.0, 1.0, points)
        assigned = []
        assign = closed.min_cost_assignment

        def counted(cost):
            assigned.append(cost)
            return assign(cost)

        monkeypatch.setattr(closed, "min_cost_assignment", counted)
        track = track_spectrum(spec, grid)
        assert bool(assigned) == (case == "lz_coarse")

        vectors = np.empty_like(track.vectors)
        for i, s in enumerate(grid):
            evals, evecs = np.linalg.eigh(eval_generator(spec, s))
            if i == 0:
                order = np.argsort(evals)
            else:
                overlaps = np.abs(vectors[i - 1].conj().T @ evecs)
                _, order = linear_sum_assignment(-overlaps)
            assert np.array_equal(track.energies[i], evals[order])
            V = evecs[:, order]
            if i == 0:
                anchors = V[np.argmax(np.abs(V), axis=0), np.arange(len(V))]
                V = V * np.conj(anchors / np.abs(anchors))
            else:
                ov = np.einsum("jn,jn->n", vectors[i - 1].conj(), V)
                phases = np.where(np.abs(ov) > 0, ov / np.abs(ov), 1.0)
                V = V * np.conj(phases)
            vectors[i] = V
        assert np.max(np.abs(track.vectors - vectors)) <= 1e-13

    def test_grid_validation(self):
        with pytest.raises(InputError):
            track_spectrum(lz(), np.array([0.0, 0.5, 0.4, 1.0]))
        with pytest.raises(DomainError):
            track_spectrum(lz(), np.array([-0.1, 0.5, 1.0]))


class TestIntegrateSchrodinger:
    def test_time_independent_matches_matrix_exponential(self):
        H = (0.7 * SIGMA_Z + 0.4 * SIGMA_X).astype(complex)
        spec = make_model("linear_interp", h0=H, h1=H)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        T = 5.0
        grid = np.linspace(0.0, 1.0, 11)
        traj = integrate_schrodinger(spec, T, psi0, grid)
        for i, s in enumerate(grid):
            expected = expm(-1j * T * s * H) @ psi0
            assert np.linalg.norm(traj.states[i] - expected) < 1e-8

    def test_norm_preserved_tight_tolerance(self):
        spec = lz()
        psi0 = np.array([1.0, 0.0], dtype=complex)
        traj = integrate_schrodinger(spec, 40.0, psi0, tol=(1e-10, 1e-12))
        assert traj.norm_drift() < 1e-9

    def test_times_property(self):
        spec = lz()
        psi0 = np.array([0.0, 1.0], dtype=complex)
        grid = np.linspace(0.0, 1.0, 5)
        traj = integrate_schrodinger(spec, 12.0, psi0, grid)
        assert np.allclose(traj.times, 12.0 * grid)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(InputError):
            integrate_schrodinger(lz(), 1.0, np.array([1.0, 1.0]))

    def test_rejects_nonpositive_time(self):
        psi0 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(InputError):
            integrate_schrodinger(lz(), 0.0, psi0)


class TestConditionRatio:
    def test_lz_ratio_at_reference_time(self):
        """max_s |<k|dH/ds|n>/g| = 4 and min g = 0.5 give r = 8 / T."""
        track = track_spectrum(lz(), GRID)
        cond = adiabatic_condition_ratio(track, lz(), 8.0)
        assert cond.max_ratio == pytest.approx(1.0, abs=1e-9)
        assert cond.max_pair == (0, 1)

    def test_ratio_scales_inversely_with_time(self):
        track = track_spectrum(lz(), GRID)
        r8 = adiabatic_condition_ratio(track, lz(), 8.0).max_ratio
        r80 = adiabatic_condition_ratio(track, lz(), 80.0).max_ratio
        assert r80 == pytest.approx(r8 / 10.0, rel=1e-12)

    def test_pair_symmetry_two_level(self):
        track = track_spectrum(lz(), GRID)
        cond = adiabatic_condition_ratio(track, lz(), 3.0)
        assert cond.ratio(0, 1) == pytest.approx(cond.ratio(1, 0), rel=1e-12)
        assert set(cond.ratios) == {(0, 1), (1, 0)}

    def test_max_pair_does_not_follow_rounding(self):
        """r_nk and r_kn are one number: a 1e-15 change of the track
        vectors moves the ratios by rounding but not the reported pair,
        which is the first pair n < k of the largest ratio."""
        sc = parse_scenario(generated("closed4", 11))
        track = track_spectrum(sc.spec, sc.grid())
        cond = adiabatic_condition_ratio(track, sc.spec, sc.total_time)
        n, k = cond.max_pair
        assert n < k
        assert all(r == cond.ratio(b, a) for (a, b), r in cond.ratios.items())
        for seed in range(5):
            noise = np.random.default_rng(seed).normal(
                size=track.vectors.shape)
            nudged = dataclasses.replace(
                track, vectors=track.vectors * (1.0 + 1e-15 * noise))
            again = adiabatic_condition_ratio(nudged, sc.spec, sc.total_time)
            assert again.max_pair == cond.max_pair

    def test_ratio_near_one_at_estimated_time(self):
        """The self-consistency check: r evaluated at T_est is O(1)."""
        h0 = SIGMA_Z.astype(complex)
        h1 = (SIGMA_X + 0.3 * SIGMA_Z).astype(complex)
        models = [
            lz(),
            make_model("rotating_field", b=1.0, theta=np.pi / 2),
            make_model("linear_interp", h0=h0, h1=h1),
        ]
        for spec in models:
            track = track_spectrum(spec, np.linspace(0.0, 1.0, 801))
            est = min_time_estimate(track, spec, 0)
            r = adiabatic_condition_ratio(track, spec, est.T_est).max_ratio
            assert 0.1 <= r <= 10.0

    def test_rejects_nonpositive_time(self):
        track = track_spectrum(lz(), GRID)
        with pytest.raises(InputError):
            adiabatic_condition_ratio(track, lz(), -1.0)


class TestMinTimeEstimate:
    def test_lz_f_g_and_estimate(self):
        """F = max|<1|dH/ds|0>| = 2, G = 0.5, T_est = F / G^2 = 8."""
        track = track_spectrum(lz(), GRID)
        est = min_time_estimate(track, lz(), 0)
        assert est.F == pytest.approx(2.0, abs=1e-9)
        assert est.G == pytest.approx(0.5, abs=1e-12)
        assert est.T_est == pytest.approx(8.0, abs=1e-8)
        assert est.initial_level == 0

    def test_single_eigenstate_start_has_one_row(self):
        track = track_spectrum(lz(), GRID)
        est = min_time_estimate(track, lz(), 0)
        assert len(est.pairs) == 1
        assert est.pairs[0].level == 1

    def test_uniform_amplitudes_weight_the_coupling(self):
        track = track_spectrum(lz(), GRID)
        amp = np.array([1.0, 1.0]) / np.sqrt(2.0)
        est = min_time_estimate(track, lz(), 0, initial_amplitudes=amp)
        assert len(est.pairs) == 2
        assert est.T_est == pytest.approx(np.sqrt(2.0) / 0.25, rel=1e-8)

    def test_rotating_field_estimate(self):
        spec = make_model("rotating_field", b=1.0, theta=np.pi / 2)
        track = track_spectrum(spec, GRID)
        est = min_time_estimate(track, spec, 0)
        assert est.F == pytest.approx(2.0 * np.pi, rel=1e-6)
        assert est.G == pytest.approx(2.0, abs=1e-9)
        assert est.T_est == pytest.approx(np.pi / 2.0, rel=1e-6)

    def test_integrand_sampled_on_grid(self):
        track = track_spectrum(lz(), GRID)
        est = min_time_estimate(track, lz(), 0)
        assert set(est.integrand) == {1}
        assert est.integrand[1].shape == GRID.shape
        # coupling / gap^2 = a*delta / (2 E^3) peaks at the avoided crossing
        assert np.argmax(est.integrand[1]) == 1000
        assert np.max(est.integrand[1]) == pytest.approx(8.0, rel=1e-9)

    def test_level_out_of_range(self):
        track = track_spectrum(lz(), GRID)
        with pytest.raises(InputError):
            min_time_estimate(track, lz(), 2)


class TestBerryPhase:
    def test_real_symmetric_path_has_zero_phase(self):
        track = track_spectrum(lz(), GRID)
        assert berry_phase_curve(track, 0).gamma[-1] == 0.0
        assert berry_phase_curve(track, 1).gamma[-1] == 0.0

    def test_rotating_field_equatorial_loop(self):
        """Half solid angle of the equator: gamma = -pi for the ground level."""
        spec = make_model("rotating_field", b=1.0, theta=np.pi / 2)
        track = track_spectrum(spec, GRID)
        gamma = berry_phase_curve(track, 0).gamma[-1]
        assert gamma == pytest.approx(-np.pi, abs=1e-4)

    def test_rotating_field_tilted_cone_holonomy(self):
        # the phase convention depends on which component the gauge pins,
        # but exp(i*gamma) only sees the solid angle pi*(1 - cos(theta))
        theta = 1.0
        spec = make_model("rotating_field", b=1.0, theta=theta)
        track = track_spectrum(spec, GRID)
        gamma = berry_phase_curve(track, 0).gamma[-1]
        target = np.exp(1j * np.pi * (1.0 - np.cos(theta)))
        assert abs(np.exp(1j * gamma) - target) < 1e-4

    def test_ground_and_excited_phases_opposite(self):
        spec = make_model("rotating_field", b=1.0, theta=np.pi / 2)
        track = track_spectrum(spec, GRID)
        g0 = berry_phase_curve(track, 0).gamma[-1]
        g1 = berry_phase_curve(track, 1).gamma[-1]
        assert abs(np.exp(1j * (g0 + g1)) - 1.0) < 1e-4

    def test_curve_monotone_for_equator(self):
        spec = make_model("rotating_field", b=1.0, theta=np.pi / 2)
        track = track_spectrum(spec, GRID)
        curve = berry_phase_curve(track, 0)
        assert curve.gamma[0] == 0.0
        assert curve.imag_residual < 1e-5
        steps = np.diff(curve.gamma)
        assert np.all(steps < 0)

    def test_partial_phase_interpolates(self):
        spec = make_model("rotating_field", b=1.0, theta=np.pi / 2)
        track = track_spectrum(spec, GRID)
        curve = berry_phase_curve(track, 0)
        half = np.interp(0.5, curve.grid, curve.gamma)
        assert half == pytest.approx(-np.pi / 2.0, abs=1e-4)

    @pytest.mark.parametrize("points", [512, 2001])
    def test_equatorial_curve_is_exact(self, points):
        """gamma(s) = -2 pi sin^2(theta/2) s at every grid point, from the
        exact connection; central differences of the frames were off by
        7.9e-5 on 512 points and 5.2e-6 on 2001."""
        spec = make_model("rotating_field", b=1.0, theta=np.pi / 2)
        grid = np.linspace(0.0, 1.0, points)
        curve = berry_phase_curve(track_spectrum(spec, grid), 0)
        want = -2.0 * np.pi * np.sin(np.pi / 4) ** 2 * grid
        assert np.max(np.abs(curve.gamma - want)) <= 1e-12

    def test_coarse_grid_rejected(self):
        # hand-built track of H(s) = cos 4s sigma_x + sin 4s sigma_y, whose
        # gauge winds ~2 rad per step; a physically tracked path would
        # alias in the assignment long before this
        from adiakit.closed import SpectralTrack

        grid = np.array([0.0, 0.5, 1.0])
        phases = np.exp(4j * grid)
        vectors = np.empty((3, 2, 2), dtype=complex)
        vectors[:, 0, 0] = 1.0 / np.sqrt(2.0)
        vectors[:, 1, 0] = -phases / np.sqrt(2.0)
        vectors[:, 0, 1] = 1.0 / np.sqrt(2.0)
        vectors[:, 1, 1] = phases / np.sqrt(2.0)
        energies = np.tile([-1.0, 1.0], (3, 1))
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        dH = 4.0 * (np.cos(4 * grid)[:, None, None] * sy
                    - np.sin(4 * grid)[:, None, None] * sx)
        track = SpectralTrack(grid, energies, vectors, 2.0, dH)
        with pytest.raises(ResolutionError):
            berry_phase_curve(track, 0)


class TestAdiabaticState:
    def test_start_equals_track_vector(self):
        track = track_spectrum(lz(), GRID)
        psi = adiabatic_state(track, 10.0, 0.0, 0)
        assert np.array_equal(psi, track.vectors[0, :, 0])

    def test_follows_exact_evolution_when_slow(self):
        spec = lz()
        track = track_spectrum(spec, GRID)
        psi_ad = adiabatic_state(track, 800.0, 1.0, 0)
        traj = integrate_schrodinger(spec, 800.0, track.vectors[0, :, 0],
                                     np.array([0.0, 1.0]), tol=(1e-10, 1e-12))
        f = fidelity(psi_ad, traj.states[-1])
        assert f > 0.9999999

    def test_unit_norm_everywhere(self):
        track = track_spectrum(lz(), GRID)
        for s in (0.0, 0.25, 0.5, 1.0):
            psi = adiabatic_state(track, 37.0, s, 1)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-10

    def test_off_grid_point_rejected(self):
        track = track_spectrum(lz(), GRID)
        with pytest.raises(DomainError):
            adiabatic_state(track, 10.0, 0.30001234, 0)


class TestCoefficientDynamics:
    def test_reconstruction_matches_direct_integration(self):
        spec = lz()
        coeff = coefficient_dynamics(spec, 40.0, np.array([1.0, 0.0]))
        track = track_spectrum(spec, coeff.grid)
        traj = integrate_schrodinger(spec, 40.0, track.vectors[0, :, 0],
                                     coeff.grid)
        dist = np.max(np.linalg.norm(coeff.reconstruct() - traj.states,
                                     axis=1))
        assert dist < 1e-8

    def test_population_conservation(self):
        spec = lz()
        coeff = coefficient_dynamics(spec, 40.0, np.array([1.0, 0.0]),
                                     tol=(1e-10, 1e-12))
        total = (np.abs(coeff.coefficients) ** 2).sum(axis=1)
        assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_adiabatic_start_stays_put(self):
        """At T well past T_est the level-0 population never dips far."""
        spec = lz()
        coeff = coefficient_dynamics(spec, 160.0, np.array([1.0, 0.0]))
        assert np.min(np.abs(coeff.coefficients[:, 0]) ** 2) > 0.995

    def test_superposition_runs_both_levels(self):
        spec = lz()
        a0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        coeff = coefficient_dynamics(spec, 40.0, a0)
        pops = np.abs(coeff.coefficients) ** 2
        assert pops[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert np.all(pops[:, 0] > 0.4)

    def test_dynamical_phase_is_energy_integral(self):
        spec = lz()
        coeff = coefficient_dynamics(spec, 8.0, np.array([1.0, 0.0]))
        # closed form of -int_0^1 sqrt((2s-1)^2 + delta^2) ds
        d = 0.25
        antider = lambda u: 0.5 * (u * np.hypot(u, d)
                                   + d * d * np.arcsinh(u / d))
        exact = -0.5 * (antider(1.0) - antider(-1.0))
        assert coeff.dynamical_phases[-1, 0] == pytest.approx(exact, abs=1e-8)

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(InputError):
            coefficient_dynamics(lz(), 8.0, np.array([1.0, 1.0]))


class TestTotalTimeScaling:
    def test_infidelity_drops_with_total_time(self):
        spec = lz()
        track = track_spectrum(spec, GRID)
        infi = []
        for T in (80.0, 320.0):
            psi_ad = adiabatic_state(track, T, 1.0, 0)
            traj = integrate_schrodinger(spec, T, track.vectors[0, :, 0],
                                         np.array([0.0, 1.0]))
            infi.append(1.0 - fidelity(psi_ad, traj.states[-1]))
        assert infi[1] < infi[0] / 2.0
