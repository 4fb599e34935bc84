"""Generator specs, the envelope vocabulary, and the benchmark models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiakit import schedules as sch
from adiakit.errors import ConfigError, DomainError, InputError


def envelopes():
    finite = st.floats(min_value=-5, max_value=5, allow_nan=False)
    return st.one_of(
        st.builds(sch.constant, finite),
        st.builds(sch.linear, finite, finite),
        st.builds(sch.polynomial, st.lists(finite, min_size=1, max_size=4)),
        st.builds(sch.cosine_ramp, finite, finite),
        st.builds(sch.sinusoid, finite, st.floats(min_value=0.1, max_value=3),
                  finite, finite),
    )


def envelope_json(env):
    """The scenario-file form of an envelope."""
    return {"kind": env.kind, **{name: list(value) if name == "coeffs"
                                 else value for name, value in env.params}}


class TestEnvelopes:
    @given(envelopes())
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip(self, env):
        assert sch.envelope_from_json(envelope_json(env)) == env

    @given(envelopes(), st.floats(min_value=0, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_derivative_matches_finite_difference(self, env, s):
        # At s = 0 or 1 the clamped stencil is one-sided and only first
        # order, so h must keep (h/2)*|f''| below tolerance even for the
        # fastest sinusoid the strategy can draw (|f''| up to ~1.8e3).
        h = 1e-8
        lo, hi = max(0.0, s - h), min(1.0, s + h)
        fd = (env.value(hi) - env.value(lo)) / (hi - lo)
        assert env.derivative(s) == pytest.approx(fd, abs=1e-4, rel=1e-4)

    def test_vectorized_evaluation(self):
        env = sch.sinusoid(2.0, 1.5, 0.3, -0.1)
        grid = np.linspace(0, 1, 7)
        assert np.allclose(env.value(grid), [env.value(s) for s in grid])
        assert np.allclose(env.derivative(grid), [env.derivative(s) for s in grid])

    def test_cosine_ramp_endpoints_are_flat(self):
        env = sch.cosine_ramp(1.0, 3.0)
        assert env.value(0) == pytest.approx(1.0)
        assert env.value(1) == pytest.approx(3.0)
        assert env.derivative(0) == pytest.approx(0.0, abs=1e-15)
        assert env.derivative(1) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            sch.envelope_from_json({"kind": "spline", "knots": []})
        with pytest.raises(InputError):
            sch.envelope_from_json({"kind": "linear", "start": 0.0})


class TestGeneratorSpec:
    def test_linear_interp_endpoints(self):
        H0 = np.diag([1.0, -1.0])
        H1 = sch.SIGMA_X
        spec = sch.make_model("linear_interp", h0=H0, h1=H1)
        assert np.allclose(sch.eval_generator(spec, 0.0), H0)
        assert np.allclose(sch.eval_generator(spec, 1.0), H1)
        assert np.allclose(sch.eval_generator(spec, 0.5), (H0 + H1) / 2)

    def test_linear_interp_derivative_is_difference(self):
        H0 = np.diag([1.0, -1.0])
        H1 = sch.SIGMA_X
        spec = sch.make_model("linear_interp", h0=H0, h1=H1)
        for s in (0.0, 0.3, 1.0):
            assert np.allclose(sch.eval_generator_derivative(spec, s), H1 - H0)

    def test_time_independent_derivative_is_zero(self):
        spec = sch.GeneratorSpec(2, "closed", [(sch.SIGMA_Z, sch.constant(2.0))])
        assert np.allclose(sch.eval_generator_derivative(spec, 0.4), 0.0)

    def test_zero_term_does_not_change_output(self):
        base = sch.make_model("landau_zener", a=1.0, delta=0.25)
        padded = sch.GeneratorSpec(2, "closed",
                                   base.hamiltonian_terms
                                   + ((np.zeros((2, 2)), sch.sinusoid(3.0)),))
        for s in np.linspace(0, 1, 9):
            assert np.allclose(sch.eval_generator(base, s),
                               sch.eval_generator(padded, s))

    def test_closed_eval_is_hermitian_everywhere(self):
        rng = np.random.default_rng(8)
        spec = sch.make_model("rotating_field", b=1.3, theta=0.7)
        for s in rng.uniform(0, 1, 64):
            H = sch.eval_generator(spec, s)
            assert np.max(np.abs(H - H.conj().T)) < 1e-12

    def test_rejects_non_hermitian_hamiltonian_term(self):
        with pytest.raises(InputError):
            sch.GeneratorSpec(2, "closed",
                              [(np.array([[0.0, 1.0], [0.0, 0.0]]), sch.constant(1.0))])

    def test_closed_spec_rejects_jump_operators(self):
        with pytest.raises(ConfigError):
            sch.GeneratorSpec(2, "closed", [(sch.SIGMA_Z, sch.constant(1.0))],
                              [(sch.SIGMA_Z, sch.constant(1.0))])

    def test_eval_outside_domain(self):
        spec = sch.make_model("landau_zener", a=1.0, delta=0.25)
        with pytest.raises(DomainError):
            sch.eval_generator(spec, 1.2)
        with pytest.raises(DomainError):
            sch.eval_generator_derivative(spec, -0.1)
        # a grid with one entry outside [0, 1] is refused as a whole
        grid = np.array([0.0, 0.5, 1.0 + 1e-12])
        for evaluate in (sch.eval_generator, sch.eval_generator_derivative):
            with pytest.raises(DomainError) as info:
                evaluate(spec, grid)
            assert info.value.details["s"] == 1.0 + 1e-12


class TestFiniteDifference:
    """The analytic dH/ds against differences of H(s) taken here."""

    def test_landau_zener_fd_matches_analytic(self):
        spec = sch.make_model("landau_zener", a=1.0, delta=0.25)
        h = 1e-5
        for s in (0.25, 0.5):
            fd = (sch.eval_generator(spec, s + h)
                  - sch.eval_generator(spec, s - h)) / (2.0 * h)
            assert np.max(np.abs(sch.eval_generator_derivative(spec, s)
                                 - fd)) < 1e-8

    def test_one_sided_at_boundary(self):
        spec = sch.make_model("rotating_field", b=1.0, theta=0.9)
        h = 1e-6
        for s, lo, hi in ((0.0, 0.0, h), (1.0, 1.0 - h, 1.0)):
            fd = (sch.eval_generator(spec, hi)
                  - sch.eval_generator(spec, lo)) / h
            assert np.max(np.abs(sch.eval_generator_derivative(spec, s)
                                 - fd)) < 1e-4  # first-order stencil


class TestModels:
    def test_landau_zener_midpoint(self):
        spec = sch.make_model("landau_zener", a=1.0, delta=0.25)
        assert np.allclose(sch.eval_generator(spec, 0.5), 0.25 * sch.SIGMA_X,
                           atol=1e-14)

    def test_rotating_field_start(self):
        spec = sch.make_model("rotating_field", b=1.0, theta=np.pi / 2)
        assert np.allclose(sch.eval_generator(spec, 0.0), sch.SIGMA_X, atol=1e-14)

    def test_dephasing_qubit_operators(self):
        spec = sch.make_model("dephasing_qubit", omega=1.0, gamma=0.2)
        assert np.allclose(sch.eval_generator(spec, 0.3), 0.5 * sch.SIGMA_Z)
        assert len(spec.lindblad_terms) == 1
        M, env = spec.lindblad_terms[0]
        assert np.allclose(env.value(0.3) * M, np.sqrt(0.1) * sch.SIGMA_Z)

    def test_unknown_model_and_missing_parameter(self):
        with pytest.raises(ConfigError):
            sch.make_model("grover")
        with pytest.raises(ConfigError):
            sch.make_model("landau_zener", a=1.0)
