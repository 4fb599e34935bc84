"""Block-coupling metrics, total-time brackets, and their term counts.

The nested transition sums are checked two ways.  On random data, the
collapsed binomial-weight implementation is compared against a literal
enumeration over transition tuples, the slow route it replaces, one block
pair at a time; a track with a 3-chain, a 2-chain and singletons takes
the public routines, which evaluate all pairs at once, through the same
enumeration pair by pair.  On the dissipation-free two-level embedding the
worst metric must land on the closed-system coupling-to-gap ratio, which
ties the block formalism back to quantities the closed module measures
independently.
"""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from adiakit.closed import adiabatic_condition_ratio, track_spectrum
from adiakit.errors import ConditioningError, InputError
from adiakit.open_system import (
    JordanCoefficients,
    JordanTrack,
    _chain_terms,
    _grid_derivative,
    condition_term_count,
    expand_jordan_coefficients,
    classify_regime,
    integrate_master,
    jordan_track,
    open_condition_metric,
    open_time_condition,
    time_term_count,
    unitary_embedding_jordan,
)
from adiakit.schedules import (
    SIGMA_X,
    SIGMA_Z,
    GeneratorSpec,
    constant,
    linear,
    make_model,
    polynomial,
)

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

RHO0 = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]], dtype=complex)

GRID = np.linspace(0.0, 1.0, 201)


def driven_dephasing():
    return GeneratorSpec(
        dimension=2, kind="open",
        hamiltonian_terms=((SIGMA_Z, constant(0.5)),
                           (SIGMA_X, linear(0.05, 0.2))),
        lindblad_terms=((SIGMA_Z, constant(np.sqrt(0.1))),))


def embedded_two_level():
    closed = make_model("landau_zener", a=1.0, delta=0.25)
    return GeneratorSpec(dimension=2, kind="open",
                         hamiltonian_terms=closed.hamiltonian_terms)


def scaled_damped_qubit():
    return GeneratorSpec(
        dimension=2, kind="open",
        hamiltonian_terms=((0.125 * SIGMA_X,
                            polynomial(coeffs=(1.0, 0.4, 0.04))),),
        lindblad_terms=((SIGMA_MINUS, linear(1.0, 1.2)),))


def tuples_with_sum(p, total):
    """All p-tuples of nonnegative integers adding up to total."""
    if p == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in tuples_with_sum(p - 1, total - first):
            yield (first,) + rest


def metric_literal(B, omega, na, ii, jj):
    """Transition-tuple enumeration of the coupling sum, term by term."""
    total = np.zeros(B.shape[0], dtype=complex)
    count = 0
    for pp in range(1, na - ii + 1):
        for sig in range(jj + 1):
            for _ in tuples_with_sum(pp, sig):
                total += (-1.0) ** sig * B[:, ii + pp - 1, jj - sig] \
                    / omega ** (pp + sig)
                count += 1
    return total, count


def bracket_literal(pcurves, B, omega, osc, grid, na, ii):
    total = np.zeros(grid.size, dtype=complex)
    integral = np.zeros(grid.size, dtype=complex)
    count = 0
    for jj, pcurve in enumerate(pcurves):
        for pp in range(1, na - ii + 1):
            for sig in range(jj + 1):
                for _ in tuples_with_sum(pp, sig):
                    V = pcurve * B[:, ii + pp - 1, jj - sig] \
                        / omega ** (pp + sig + 1)
                    dV = _grid_derivative(V, grid)
                    ip = cumulative_trapezoid(osc * dV, grid, initial=0.0)
                    total += (-1.0) ** sig * (V[0] - V * osc + ip)
                    integral += (-1.0) ** sig * ip
                    count += 1
    return total, integral, count


def synthetic_track(lams, grid, sizes=None, clusters=None):
    """Track with identity chains and prescribed eigenvalue curves, one
    column of ``lams`` per block.  Blocks are singletons in groups of
    their own unless ``sizes`` and ``clusters`` say otherwise."""
    nblocks = lams.shape[1]
    sizes = (1,) * nblocks if sizes is None else tuple(sizes)
    clusters = tuple(range(nblocks)) if clusters is None else tuple(clusters)
    dim = sum(sizes)
    eye = np.broadcast_to(np.eye(dim, dtype=complex), (grid.size, dim, dim))
    return JordanTrack(grid, lams, sizes, clusters,
                       cumulative_trapezoid(lams, grid, axis=0, initial=0.0),
                       np.zeros(grid.size), eye, eye)


class TestTermCounts:
    def test_metric_count_matches_enumeration(self):
        for na in range(1, 6):
            for ii in range(na):
                for jj in range(6):
                    brute = sum(
                        len(list(tuples_with_sum(pp, sig)))
                        for pp in range(1, na - ii + 1)
                        for sig in range(jj + 1))
                    assert condition_term_count(na, ii, jj) == brute

    def test_time_count_matches_enumeration(self):
        for na in range(1, 6):
            for nb in range(1, 6):
                for ii in range(na):
                    per_source = sum(
                        len(list(tuples_with_sum(pp, sig)))
                        for jj in range(nb)
                        for pp in range(1, na - ii + 1)
                        for sig in range(jj + 1))
                    for lam in (1, 2, 3):
                        assert time_term_count(na, nb, ii, lam) \
                            == lam * per_source

    def test_single_chain_values(self):
        assert condition_term_count(1, 0, 0) == 1
        assert condition_term_count(2, 0, 1) == 5
        assert condition_term_count(3, 2, 0) == 1
        assert time_term_count(1, 1, 0, 1) == 1
        assert time_term_count(2, 2, 0, 1) == 7
        assert time_term_count(2, 2, 0, 3) == 21

    def test_rejects_bad_indices(self):
        with pytest.raises(InputError):
            condition_term_count(0, 0, 0)
        with pytest.raises(InputError):
            condition_term_count(2, 2, 0)
        with pytest.raises(InputError):
            condition_term_count(2, 0, -1)
        with pytest.raises(InputError):
            time_term_count(2, 0, 0, 1)
        with pytest.raises(InputError):
            time_term_count(2, 2, 3, 1)
        with pytest.raises(InputError):
            time_term_count(2, 2, 0, -1)


class TestMetricAgainstEnumeration:
    def test_random_chain_data(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 1.0, 41)
        for na in range(1, 5):
            for nb in range(1, 5):
                B = (rng.normal(size=(grid.size, na, nb))
                     + 1j * rng.normal(size=(grid.size, na, nb)))
                omega = (rng.normal(size=grid.size)
                         + 1j * rng.normal(size=grid.size))
                omega += 2.0 * np.sign(omega.real) \
                    + 2j * np.sign(omega.imag)
                total = np.zeros((na, nb, grid.size), dtype=complex)
                big = np.zeros((na, nb))
                for ii, jj, sign, term, _ in _chain_terms(B[:, None],
                                                          omega[:, None]):
                    total[ii, jj] += sign * term[:, 0]
                    big[ii, jj] = max(big[ii, jj], np.max(np.abs(term)))
                for ii in range(na):
                    for jj in range(nb):
                        got, largest = total[ii, jj], big[ii, jj]
                        want, count = metric_literal(B, omega, na, ii, jj)
                        scale = np.max(np.abs(want))
                        assert np.max(np.abs(got - want)) < 1e-10 * scale
                        assert count == condition_term_count(na, ii, jj)
                        assert count * largest >= np.max(np.abs(got)) - 1e-12

    def test_model_metrics_respect_simplified_bound(self):
        spec = driven_dephasing()
        track = jordan_track(spec, GRID)
        cond = open_condition_metric(track, spec)
        for key, value in cond.metrics.items():
            assert cond.simplified[key] >= value - 1e-12
            na = track.sizes[key[0]]
            assert cond.counts[key] == condition_term_count(na, key[2],
                                                            key[3])
        assert cond.metrics[cond.max_key] == cond.max_metric


class TestBracketAgainstEnumeration:
    def test_random_chain_data(self):
        rng = np.random.default_rng(19)
        grid = np.linspace(0.0, 1.0, 41)
        for na in range(1, 5):
            for nb in range(1, 5):
                B = (rng.normal(size=(grid.size, na, nb))
                     + 1j * rng.normal(size=(grid.size, na, nb)))
                omega = (rng.normal(size=grid.size)
                         + 1j * rng.normal(size=grid.size))
                omega += 2.0 * np.sign(omega.real) \
                    + 2j * np.sign(omega.imag)
                pcurves = [rng.normal(size=grid.size)
                           + 1j * rng.normal(size=grid.size)
                           for _ in range(nb)]
                osc = np.exp(1j * 0.1 * np.cumsum(rng.normal(size=grid.size)))
                total = np.zeros((na, grid.size), dtype=complex)
                integral = np.zeros_like(total)
                big = np.zeros(na)
                for ii, _, sign, term, part in _chain_terms(
                        B[:, None], omega[:, None],
                        np.stack(pcurves, axis=1)[:, None], osc[:, None],
                        grid):
                    total[ii] += sign * term[:, 0]
                    integral[ii] += sign * part[:, 0]
                    big[ii] = max(big[ii], np.max(np.abs(term)))
                for ii in range(na):
                    got, gotint = total[ii], integral[ii]
                    want, wantint, count = bracket_literal(
                        pcurves, B, omega, osc, grid, na, ii)
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) < 1e-9 * scale
                    assert np.max(np.abs(gotint - wantint)) \
                        < 1e-9 * max(np.max(np.abs(wantint)), 1e-15)
                    assert count == time_term_count(na, nb, ii, 1)
                    assert count * big[ii] \
                        >= np.max(np.abs(got)) * (1 - 1e-12)


class TestClosedReduction:
    def test_embedding_metric_equals_coupling_gap_ratio(self):
        """With no dissipation the worst block metric must reproduce the
        coupling-over-gap numerator measured on the closed system."""
        spec = embedded_two_level()
        grid = np.linspace(0.0, 1.0, 801)
        track = jordan_track(spec, grid,
                             analytic=unitary_embedding_jordan(spec))
        cond = open_condition_metric(track, spec)

        closed = make_model("landau_zener", a=1.0, delta=0.25)
        ctrack = track_spectrum(closed, grid)
        r = adiabatic_condition_ratio(ctrack, closed, 8.0)
        numerator = r.max_ratio * 8.0 * float(np.min(np.abs(
            ctrack.gap(*r.max_pair))))
        assert cond.max_metric == pytest.approx(numerator, rel=1e-9)
        assert cond.max_metric == pytest.approx(4.0, rel=1e-9)

    def test_scaled_family_has_no_block_coupling(self):
        """A common scalar envelope moves every eigenvalue but no
        eigenvector, so all inter-block metrics vanish."""
        spec = scaled_damped_qubit()
        track = jordan_track(spec, GRID, cluster_tol=1e-5, rank_tol=1e-7)
        cond = open_condition_metric(track, spec)
        assert cond.max_metric < 1e-10

    def test_near_degenerate_pair_rejected(self):
        lams = np.array([[0.0, 5e-11, -1.0, -2.0]] * 3, dtype=complex)
        track = synthetic_track(lams, np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ConditioningError) as exc:
            open_condition_metric(track, make_model("dephasing_qubit",
                                                    omega=1.0, gamma=0.2))
        assert exc.value.details["pair"] == (0, 1)
        assert exc.value.details["s"] == 0.0
        assert "blocks 0 and 1 " in str(exc.value)

    def test_first_degenerate_pair_in_pair_order(self):
        """Pairs are scanned a-major, and s in grid order within a pair:
        (0, 3) meets at s = 1 and is named before (1, 2), which meets at
        s = 0.5."""
        lams = np.array([[0.0, -1.0, -2.0, 1.0],
                         [0.0, -1.0, -1.0 + 5e-11, 1.0],
                         [0.0, -1.0, -2.0, 5e-11]], dtype=complex)
        track = synthetic_track(lams, np.array([0.0, 0.5, 1.0]))
        C = np.zeros((3, 4, 4), dtype=complex)
        for evaluate in (
                lambda: open_condition_metric(track, None, couplings=C),
                lambda: open_time_condition(track, None, None, (1.0,),
                                            couplings=C)):
            with pytest.raises(ConditioningError) as exc:
                evaluate()
            assert exc.value.details["pair"] == (0, 3)
            assert exc.value.details["s"] == 1.0
            assert str(exc.value).startswith(
                "eigenvalue difference of blocks 0 and 3 is below 1e-10 "
                "at s = 1.000000")


@pytest.fixture(scope="module")
def planted():
    spec = driven_dephasing()
    track = jordan_track(spec, GRID)

    def coeffs_at(T):
        traj = integrate_master(spec, T, RHO0, GRID)
        return expand_jordan_coefficients(traj, track, T)

    cond = open_time_condition(track, spec, coeffs_at,
                               (1.0, 5.0, 10.0, 50.0, 100.0))
    return spec, track, cond


class TestTimeCondition:
    def test_window_opens_and_closes(self, planted):
        _, _, cond = planted
        assert cond.satisfied_all == (False, True, True, False, False)
        assert cond.threshold_T == 5.0
        assert cond.crossover_T == 10.0

    def test_growing_pair_bounds_blow_up(self, planted):
        _, track, cond = planted
        osc = [b for b in range(track.nblocks)
               if abs(track.lambdas[0, b].imag) > 0.5]
        for b in osc:
            bounds = cond.bounds[(b, 0)]
            assert bounds[0] < 0.2
            assert bounds[2] < bounds[3] < bounds[4]
            assert bounds[4] > 1e5

    def test_conserved_coefficient_needs_no_time(self, planted):
        _, track, cond = planted
        zero = [b for b in range(track.nblocks)
                if abs(track.lambdas[0, b]) < 1e-9]
        assert len(zero) == 1
        assert max(cond.bounds[(zero[0], 0)]) < 1e-9

    def test_embedding_integral_term_is_riemann_lebesgue(self):
        """The oscillatory integral contribution must die out with T."""
        spec = embedded_two_level()
        grid = np.linspace(0.0, 1.0, 801)
        track = jordan_track(spec, grid,
                             analytic=unitary_embedding_jordan(spec))
        traj = integrate_master(spec, 10.0, RHO0, grid)
        co = expand_jordan_coefficients(traj, track, 10.0)
        cond = open_time_condition(track, spec, co, (10.0, 100.0, 1000.0))
        for vals in cond.integral_terms.values():
            assert vals[0] > vals[1] > vals[2]
        assert cond.crossover_T is None

    def test_static_coefficients_and_overflow(self):
        spec = driven_dephasing()
        track = jordan_track(spec, GRID)
        traj = integrate_master(spec, 10.0, RHO0, GRID)
        co = expand_jordan_coefficients(traj, track, 10.0)
        cond = open_time_condition(track, spec, co, (1e5,))
        zero = [b for b in range(track.nblocks)
                if abs(track.lambdas[0, b]) < 1e-9][0]
        assert np.isfinite(cond.bounds[(zero, 0)][0])
        osc = [b for b in range(track.nblocks)
               if abs(track.lambdas[0, b].imag) > 0.5]
        for b in osc:
            assert cond.bounds[(b, 0)][0] == np.inf
            assert cond.satisfied[(b, 0)][0] is False
        assert cond.satisfied_all == (False,)

    def test_eta_scales_the_verdict(self):
        spec = embedded_two_level()
        grid = np.linspace(0.0, 1.0, 801)
        track = jordan_track(spec, grid,
                             analytic=unitary_embedding_jordan(spec))
        traj = integrate_master(spec, 10.0, RHO0, grid)
        co = expand_jordan_coefficients(traj, track, 10.0)
        lenient = open_time_condition(track, spec, co, (1000.0,), eta=10.0)
        strict = open_time_condition(track, spec, co, (1000.0,), eta=300.0)
        assert lenient.satisfied_all == (True,)
        assert strict.satisfied_all == (False,)

    def test_scaled_family_trivially_satisfied(self):
        """Zero coupling keeps every bound at the noise floor.  Larger T
        would amplify that floor through e^{T Re Omega}, so the check stays
        at modest times where the floor is still flat."""
        spec = scaled_damped_qubit()
        track = jordan_track(spec, GRID, cluster_tol=1e-5, rank_tol=1e-7)
        rho0 = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
        traj = integrate_master(spec, 6.0, rho0, GRID)
        co = expand_jordan_coefficients(traj, track, 6.0)
        cond = open_time_condition(track, spec, co, (2.0, 5.0))
        assert all(max(v) < 1e-10 for v in cond.bounds.values())
        assert cond.satisfied_all == (True, True)
        assert cond.crossover_T is None

    def test_rejects_bad_time_grid(self):
        spec = driven_dephasing()
        track = jordan_track(spec, np.linspace(0.0, 1.0, 21))
        with pytest.raises(InputError):
            open_time_condition(track, spec, None, ())
        with pytest.raises(InputError):
            open_time_condition(track, spec, None, (-1.0,))


# a 3-chain, a 2-chain and four singletons; blocks 3 and 5 share the
# eigenvalue 0 and so one group
CHAIN_SIZES = (3, 2, 1, 1, 1, 1)
CHAIN_CLUSTERS = (0, 1, 2, 3, 4, 3)
CHAIN_GRID = np.linspace(0.0, 1.0, 61)
CHAIN_T = (1.0, 10.0, 3000.0)


@pytest.fixture(scope="module")
def chains():
    """A track with nontrivial chains, nonzero couplings and coefficient
    curves, driven through the public routines.  At T = 3000 the growth of
    block 3 against block 0 passes the overflow cap."""
    s = CHAIN_GRID
    lams = np.stack([
        -0.3 - 0.1 * s + 1j * (1.0 + 0.2 * s),
        -0.05 + 0.4j * s,
        -0.3 - 0.1 * s - 1j * (1.0 + 0.2 * s),
        0.0 * s,
        0.2 * np.cos(2.0 * np.pi * s) + 0.7j,
        0.0 * s,
    ], axis=1)
    track = synthetic_track(lams, s, CHAIN_SIZES, CHAIN_CLUSTERS)
    rng = np.random.default_rng(23)
    n = sum(CHAIN_SIZES)
    C0, C1 = (rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n)))
    C = C0[None] + s[:, None, None] * C1[None]
    off = track.offsets
    for a, b in ((1, 3), (3, 1), (3, 4), (4, 3), (4, 5), (5, 4)):
        C[:, off[a]:off[a + 1], off[b]:off[b + 1]] = 0.0
    p = {}
    for b, size in enumerate(CHAIN_SIZES):
        for j in range(size):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            p[(b, j)] = c[0] + c[1] * s + c[2] * s ** 2
    coeffs = JordanCoefficients(s, 10.0, p, p, track)
    return track, C, coeffs


def chain_pairs(track):
    return [(a, b) for a in range(track.nblocks) for b in range(track.nblocks)
            if track.clusters[a] != track.clusters[b]]


def pair_data(track, C, a, b):
    off = track.offsets
    return (C[:, off[a]:off[a + 1], off[b]:off[b + 1]],
            track.lambdas[:, b] - track.lambdas[:, a])


class TestGeneralChains:
    """The public routines on chains of every size class against the
    literal enumeration, one block pair at a time."""

    def test_metric_matches_enumeration(self, chains):
        track, C, _ = chains
        cond = open_condition_metric(track, None, couplings=C)
        keys = []
        for a, b in chain_pairs(track):
            B, omega = pair_data(track, C, a, b)
            for ii in range(CHAIN_SIZES[a]):
                for jj in range(CHAIN_SIZES[b]):
                    want, count = metric_literal(B, omega, CHAIN_SIZES[a],
                                                 ii, jj)
                    key = (a, b, ii, jj)
                    keys.append(key)
                    assert cond.metrics[key] == pytest.approx(
                        np.max(np.abs(want)), rel=1e-10)
                    assert cond.counts[key] == count
                    assert cond.simplified[key] >= cond.metrics[key] - 1e-12
        assert list(cond.metrics) == keys
        assert cond.max_metric == max(cond.metrics.values())
        assert cond.metrics[cond.max_key] == cond.max_metric

    def test_time_condition_matches_enumeration(self, chains):
        track, C, coeffs = chains
        cond = open_time_condition(track, None, coeffs, CHAIN_T,
                                   couplings=C)
        keys = [(a, ii) for a in range(track.nblocks)
                for ii in range(CHAIN_SIZES[a])]
        assert list(cond.bounds) == keys
        overflowed = set()
        for k, T in enumerate(CHAIN_T):
            for a, ii in keys:
                total = np.zeros(CHAIN_GRID.size, dtype=complex)
                integral = np.zeros(CHAIN_GRID.size, dtype=complex)
                over = False
                for b in range(track.nblocks):
                    if track.clusters[b] == track.clusters[a]:
                        continue
                    expo = T * (track.lamint[:, b] - track.lamint[:, a])
                    if np.max(expo.real) > 700.0:
                        over = True
                        continue
                    B, omega = pair_data(track, C, a, b)
                    pcurves = [coeffs.p[(b, jj)]
                               for jj in range(CHAIN_SIZES[b])]
                    part, ipart, _ = bracket_literal(
                        pcurves, B, omega, np.exp(expo), CHAIN_GRID,
                        CHAIN_SIZES[a], ii)
                    total += part
                    integral += ipart
                if over:
                    overflowed.add((T, a))
                    assert cond.bounds[(a, ii)][k] == np.inf
                    assert cond.simplified[(a, ii)][k] == np.inf
                    assert cond.satisfied[(a, ii)][k] is False
                else:
                    bound = np.max(np.abs(total))
                    assert cond.bounds[(a, ii)][k] == pytest.approx(
                        bound, rel=1e-10)
                    assert cond.integral_terms[(a, ii)][k] == pytest.approx(
                        np.max(np.abs(integral)), rel=1e-10)
                    assert cond.simplified[(a, ii)][k] \
                        >= cond.bounds[(a, ii)][k] * (1 - 1e-12)
                    assert cond.satisfied[(a, ii)][k] == (T >= 10.0 * bound)
        assert (3000.0, 0) in overflowed and (1.0, 0) not in overflowed

    def test_regime_labels(self, chains):
        track, C, coeffs = chains
        labels = classify_regime(track, coeffs, None, couplings=C)
        assert labels == CHAIN_LABELS


# classify_regime on the chain track, as the per-pair loops labelled it
CHAIN_LABELS = {
    (0, 1): "finite-window",
    (0, 2): "oscillatory-RL",
    (0, 3): "finite-window",
    (0, 4): "finite-window",
    (0, 5): "finite-window",
    (1, 2): "finite-window",
    (1, 3): "decaying",
    (1, 4): "compensated",
    (1, 5): "finite-window",
    (2, 3): "finite-window",
    (2, 4): "finite-window",
    (2, 5): "finite-window",
    (3, 4): "guaranteed",
    (4, 5): "guaranteed",
}
