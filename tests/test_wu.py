"""Transition-counting expansion against the exact coefficient propagator.

The first-order term has an independent check: for the Landau-Zener sweep
every ingredient of U^(1) is elementary, so the matrix element can be
recomputed by adaptive quadrature without touching the expansion code.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from adiakit import cli, closed
from adiakit.closed import (
    berry_phase_curve,
    coefficient_dynamics,
    instantaneous_propagator,
    track_spectrum,
    wu_expansion,
)
from adiakit.errors import ConfigError, InputError, ResolutionError
from adiakit.schedules import (
    SIGMA_X,
    SIGMA_Z,
    GeneratorSpec,
    constant,
    make_model,
)

LZ_SCENARIO = (Path(__file__).resolve().parents[1] / "scripts" / "scenarios"
               / "landau_zener.json")
A, DELTA, T_REF = 1.0, 0.25, 20.0
GRID = np.linspace(0.0, 1.0, 8001)


def lz():
    return make_model("landau_zener", a=A, delta=DELTA)


@pytest.fixture(scope="module")
def expansion():
    return wu_expansion(lz(), T_REF, 2, GRID)


@pytest.fixture(scope="module")
def exact_propagator():
    return instantaneous_propagator(lz(), T_REF, GRID)


def lz_gap_integral(s):
    """int_0^s (E_+ - E_-) ds' in closed form."""
    def antider(u):
        return 0.5 * (u * np.hypot(u, DELTA)
                      + DELTA ** 2 * np.arcsinh(u / DELTA))
    return antider(2.0 * s - 1.0) - antider(-1.0)


class TestExpansionAccuracy:
    def test_each_order_tightens_the_propagator(self, expansion,
                                                exact_propagator):
        errors = [
            np.linalg.norm(exact_propagator[-1] - expansion.partial_sum(k)[-1])
            for k in range(3)
        ]
        # with the exact frame derivatives the third-order error reads
        # 0.1043167486 here and 0.1043167488 on 32001 points; central
        # differences of the frames gave 0.1043165584 and 0.1043167369
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] == pytest.approx(0.6472033228, rel=1e-6)
        assert errors[1] == pytest.approx(0.3986042311, rel=1e-6)
        assert errors[2] == pytest.approx(0.1043167486, rel=1e-6)

    def test_first_order_matches_quadrature_oracle(self, expansion):
        """U^(1)_10(0.3) recomputed with scipy.quad on analytic integrands."""
        s_end = 0.3
        idx = 2400
        assert expansion.grid[idx] == pytest.approx(s_end, abs=1e-12)

        def integrand(s, part):
            e2 = (2.0 * s - 1.0) ** 2 + DELTA ** 2
            coupling = A * DELTA / e2
            phase = np.exp(1j * T_REF * lz_gap_integral(s))
            return (coupling * phase).real if part == "re" \
                else (coupling * phase).imag

        re, _ = quad(integrand, 0.0, s_end, args=("re",), limit=200)
        im, _ = quad(integrand, 0.0, s_end, args=("im",), limit=200)
        oracle = re + 1j * im
        code = expansion.terms[1][idx, 1, 0]
        assert abs(code - oracle) < 1e-6
        # the conjugate element follows from anti-Hermiticity of K
        assert abs(expansion.terms[1][idx, 0, 1] + np.conj(code)) < 1e-6


class TestGeneratorStructure:
    def test_kmatrix_anti_hermitian(self, expansion):
        K = expansion.kmatrix
        resid = np.max(np.abs(K + np.conj(np.swapaxes(K, 1, 2))))
        assert resid < 1e-10

    def test_zeroth_order_trivial_for_real_path(self, expansion):
        # real symmetric sweep: zero geometric phase, so U^(0) stays identity
        U0 = expansion.terms[0]
        eye = np.broadcast_to(np.eye(2), U0.shape)
        assert np.max(np.abs(U0 - eye)) == 0.0

    def test_zeroth_order_diagonal_unimodular(self, expansion):
        for m in range(2):
            mags = np.abs(expansion.terms[0][:, m, m])
            assert np.max(np.abs(mags - 1.0)) < 1e-13

    def test_zeroth_order_carries_geometric_phase(self):
        spec = make_model("rotating_field", b=1.0, theta=np.pi / 2)
        grid = np.linspace(0.0, 1.0, 2001)
        wu = wu_expansion(spec, 2.0, 0, grid)
        gamma = berry_phase_curve(track_spectrum(spec, grid), 0).gamma[-1]
        assert wu.terms[0][-1, 0, 0] == pytest.approx(np.exp(1j * gamma),
                                                      abs=1e-9)

    def test_time_independent_orders_vanish_exactly(self):
        # one term with a constant envelope, so H(s) is bit-identical at
        # every s and the frame derivative is a true zero
        H = (0.7 * SIGMA_Z + 0.4 * SIGMA_X).astype(complex)
        spec = GeneratorSpec(dimension=2, kind="closed",
                             hamiltonian_terms=((H, constant(1.0)),))
        wu = wu_expansion(spec, 5.0, 3, np.linspace(0.0, 1.0, 201))
        for n in (1, 2, 3):
            assert np.max(np.abs(wu.terms[n])) == 0.0


class TestGuardsAndValidation:
    def test_unresolved_oscillation_rejected(self):
        with pytest.raises(ResolutionError) as exc:
            wu_expansion(lz(), 100.0, 1, np.linspace(0.0, 1.0, 51))
        assert exc.value.details["pair"] == (0, 1)

    def test_order_range(self):
        grid = np.linspace(0.0, 1.0, 201)
        for bad in (-1, 4, 1.5, True, False):
            with pytest.raises(ConfigError):
                wu_expansion(lz(), 1.0, bad, grid)

    def test_partial_sum_bounds(self, expansion):
        with pytest.raises(InputError):
            expansion.partial_sum(3)
        assert np.array_equal(expansion.partial_sum(0), expansion.terms[0])


class TestExactPropagator:
    def test_starts_at_identity(self, exact_propagator):
        assert np.max(np.abs(exact_propagator[0] - np.eye(2))) < 1e-12

    def test_unitary_along_the_way(self, exact_propagator):
        for i in (2000, 4000, 8000):
            U = exact_propagator[i]
            assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-8

    def test_columns_are_coefficient_flows(self):
        """Column m of the propagator equals a(s) started from basis vector m."""
        spec = lz()
        grid = np.linspace(0.0, 1.0, 2001)
        U = instantaneous_propagator(spec, T_REF, grid)
        coeff = coefficient_dynamics(spec, T_REF, np.array([1.0, 0.0]), grid,
                                     tol=(1e-10, 1e-12))
        # the two routes strip the dynamical phase with different
        # quadratures, so the complex match is limited by T times the
        # trapezoid error of the energy integral; populations are not
        assert np.max(np.abs(U[:, :, 0] - coeff.coefficients)) < 5e-6
        pops = np.abs(U[:, :, 0]) ** 2
        assert np.max(np.abs(pops - np.abs(coeff.coefficients) ** 2)) < 1e-9

    def test_from_track_equals_public_route(self):
        spec = lz()
        grid = np.linspace(0.0, 1.0, 401)
        track = track_spectrum(spec, grid)
        assert np.array_equal(closed._track_propagator(spec, 4.0, track),
                              instantaneous_propagator(spec, 4.0, grid))

    def test_wu_command_tracks_the_spectrum_once(self, monkeypatch,
                                                 tmp_path):
        """The command takes the exact propagator from the expansion's
        track instead of building a second one."""
        calls = []
        original = closed.track_spectrum

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(closed, "track_spectrum", counted)
        assert cli.main(["wu", str(LZ_SCENARIO),
                         "--out", str(tmp_path / "wu.json")]) == 0
        assert len(calls) == 1
