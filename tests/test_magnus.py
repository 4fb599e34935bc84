"""The Magnus engine against the Runge-Kutta reference.

Every flow -- the Schrödinger state, the coefficient propagator of the
expansion, the moving-basis coefficient flow and the master equation --
goes through :func:`adiakit._magnus.propagate`.  Each is checked here
against ``_rk45.integrate`` on the same generator: the test replaces the
engine with a Runge-Kutta solve of y' = A(s) y built from the generator
the caller hands over, runs the same public function again and compares.
The engine must land within ten times the tolerance it was given, keep
the norm or the trace to rounding, plan its work before it takes an
exponential, and split long grids and long intervals into chunks without
changing the answer.

A two-level closed flow takes its exponential in closed form, and any
other closed flow and the master equation of a qubit a Taylor polynomial
in real arithmetic; both are checked against the ``eigh`` formula they
replace, the Taylor one also against ``scipy.linalg.expm`` on Lindbladian
steps and non-normal matrices, and the two-level 2 x 2 products, formed
entry by entry, against ``@``.  A flow given by its terms takes Omega
from the parts of H(s) or L(s) and their products, checked against the
Omega of the generator at the Gauss nodes.  A master equation larger
than a qubit applies each step's exponential to the state by a Taylor
polynomial instead of forming it.  Both paths follow one step control:
forced down either one, a master equation takes no more steps applied
than formed, and the two solutions agree.
"""

import functools
import json
import pathlib

import numpy as np
import pytest
import scipy.linalg

from adiakit import _magnus, _rk45, cli
from adiakit.closed import (_schrodinger_flow, _track_propagator,
                            coefficient_dynamics, integrate_schrodinger,
                            track_spectrum)
from adiakit.cli import parse_scenario
from adiakit.errors import StiffnessError
from adiakit.open_system import SuperAssembler, integrate_master
from adiakit.schedules import (GeneratorSpec, constant, eval_generator,
                               linear, make_model)

from test_hot_path import ENVELOPES, closed4_spec, engine_rhs, open4_spec
from test_open_fast_path import generated

TOL = (1e-8, 1e-10)
BOUND = 10 * sum(TOL)

SPECS = {
    "landau_zener": lambda: make_model("landau_zener", a=1.0, delta=0.25),
    "rotating_field": lambda: make_model("rotating_field", b=1.0,
                                         theta=np.pi / 2),
    "closed4_3": lambda: parse_scenario(generated("closed4", 3)).spec,
    "closed4_7": lambda: parse_scenario(generated("closed4", 7)).spec,
    "closed4_11": lambda: parse_scenario(generated("closed4", 11)).spec,
}


def rk_path(generator, width, s_eval, y0, rtol, atol):
    """The engine's signature, solved by Runge-Kutta at (1e-13, 1e-15) on
    the generator it is given, one column of ``y0`` at a time."""
    y0 = np.asarray(y0, dtype=complex)
    rhs = engine_rhs(generator, y0.shape[0])
    columns = [_rk45.integrate(rhs, column, s_eval, rtol=1e-13, atol=1e-15)
               for column in y0.reshape(y0.shape[0], -1).T]
    y = np.stack([res.y for res in columns], axis=-1)
    return _magnus.IntegrationResult(
        columns[0].s, y.reshape((len(s_eval),) + y0.shape),
        sum(res.steps for res in columns),
        sum(res.rhs_evals for res in columns),
        sum(res.rejected for res in columns),
        min(res.min_step for res in columns), columns[0].s_at_min_step)


def through_rk(call):
    """``call()`` with the engine replaced by :func:`rk_path`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_magnus, "propagate", rk_path)
        return call()


@functools.cache
def spec_of(name):
    return SPECS[name]()


@functools.cache
def ground(name):
    return track_spectrum(spec_of(name),
                          np.linspace(0.0, 1.0, 201)).vectors[0, :, 0]


@functools.cache
def rk_states(name, T, points):
    return through_rk(lambda: integrate_schrodinger(
        spec_of(name), T, ground(name), np.linspace(0.0, 1.0, points),
        TOL)).states


# the Runge-Kutta reference runs on 8001 points for Landau-Zener and on
# 201 for the rest; the coarser grids are subsets of it (every 40th point
# of 8001 is a point of 201)
CASES = ([("landau_zener", T, points) for T in (8.0, 40.0, 1024.0)
          for points in (2, 201, 8001)]
         + [(name, T, points) for name in ("rotating_field", "closed4_3",
                                           "closed4_7", "closed4_11")
            for T in (8.0, 40.0) for points in (2, 201)])


@pytest.mark.parametrize("name, T, points", CASES)
def test_schrodinger_matches_runge_kutta(name, T, points):
    ref_points = 8001 if name == "landau_zener" else 201
    ref = rk_states(name, T, ref_points)[::(ref_points - 1) // (points - 1)]
    traj = integrate_schrodinger(spec_of(name), T, ground(name),
                                 np.linspace(0.0, 1.0, points), TOL)
    assert np.max(np.abs(traj.states - ref)) <= BOUND
    assert traj.norm_drift() <= 1e-12
    assert 0 <= traj.rejected <= points - 1
    assert traj.steps >= points - 1
    assert traj.min_step <= 1.0 / (points - 1) + 1e-15
    assert traj.s_at_min_step in set(np.linspace(0.0, 1.0, points)[:-1])


@pytest.mark.parametrize("name, T", [("landau_zener", 40.0),
                                     ("closed4_3", 8.0)])
def test_track_propagator_matches_runge_kutta(name, T):
    track = track_spectrum(spec_of(name), np.linspace(0.0, 1.0, 201))
    tol = (1e-10, 1e-12)
    fast = _track_propagator(spec_of(name), T, track, tol)
    slow = through_rk(lambda: _track_propagator(spec_of(name), T, track,
                                                tol))
    assert np.max(np.abs(fast - slow)) <= 10 * sum(tol)
    # a propagator between unit vectors stays unitary
    eye = np.eye(track.dim)
    assert np.max(np.abs(fast.conj().swapaxes(1, 2) @ fast - eye)) <= 1e-12


@pytest.mark.parametrize("name, T, points", [("landau_zener", 40.0, 401),
                                             ("rotating_field", 8.0, 401),
                                             ("closed4_7", 8.0, 201)])
def test_coefficient_dynamics_matches_runge_kutta(name, T, points):
    spec = spec_of(name)
    a0 = np.zeros(spec.dimension, dtype=complex)
    a0[:2] = 0.6, 0.8
    grid = np.linspace(0.0, 1.0, points)
    fast = coefficient_dynamics(spec, T, a0, grid, TOL)
    slow = through_rk(lambda: coefficient_dynamics(spec, T, a0, grid, TOL))
    assert np.max(np.abs(fast.coefficients - slow.coefficients)) <= BOUND
    assert np.array_equal(fast.dynamical_phases, slow.dynamical_phases)
    weight = np.sum(np.abs(fast.coefficients) ** 2, axis=1)
    assert np.max(np.abs(weight - 1.0)) <= 1e-12


# Magnus steps and generator evaluations of the Landau-Zener ground state
# on 201 output points at the default tolerances; the counts may only go
# down
LZ_COUNTS = {8.0: (400, 1200, 0), 1024.0: (6800, 26400, 200)}


@pytest.mark.parametrize("T", sorted(LZ_COUNTS))
def test_lz_engine_counts(T):
    traj = integrate_schrodinger(spec_of("landau_zener"), T,
                                 ground("landau_zener"),
                                 np.linspace(0.0, 1.0, 201), TOL)
    assert (traj.steps, traj.rhs_evals, traj.rejected) == LZ_COUNTS[T]


@pytest.mark.parametrize("points", [2, 201])
def test_chunks_do_not_change_the_answer(monkeypatch, points):
    # chunks of two output intervals, or of two steps of a long interval,
    # whose product then spans many chunks; for closed4 chunks of one step
    # and Taylor sub-chunks of one matrix
    for name in ("landau_zener", "closed4_7"):
        spec, psi0 = spec_of(name), ground(name)
        grid = np.linspace(0.0, 1.0, points)
        whole = integrate_schrodinger(spec, 64.0, psi0, grid, TOL)
        with monkeypatch.context() as patch:
            patch.setattr(_magnus, "_STACK_ENTRIES", 8)
            chunked = integrate_schrodinger(spec, 64.0, psi0, grid, TOL)
        assert np.max(np.abs(chunked.states - whole.states)) <= BOUND
        if points == 2:     # one interval: the same steps, other groupings
            assert chunked.steps == whole.steps
            assert np.max(np.abs(chunked.states - whole.states)) <= 1e-13


def test_step_demand_refused_before_any_exponential(monkeypatch):
    def no_exponentials(*args):
        raise AssertionError("an exponential was taken")

    monkeypatch.setattr(_magnus, "_exponentials", no_exponentials)
    with pytest.raises(StiffnessError) as info:
        integrate_schrodinger(spec_of("landau_zener"), 1e9,
                              ground("landau_zener"),
                              np.linspace(0.0, 1.0, 201), TOL)
    assert info.value.details["s"] == 0.0
    assert info.value.details["steps"] > _magnus.MAX_STEPS


def test_step_budget_reports_where_it_runs_out(monkeypatch):
    # the width bound of Landau-Zener is 2.5 T: at T = 5000 each of the 200
    # intervals plans 2 x ceil(20.8) steps, and a budget of 1000 runs out
    # in the 24th, which starts at s = 0.115
    monkeypatch.setattr(_magnus, "MAX_STEPS", 1000)
    with pytest.raises(StiffnessError) as info:
        integrate_schrodinger(spec_of("landau_zener"), 5000.0,
                              ground("landau_zener"),
                              np.linspace(0.0, 1.0, 201), TOL)
    assert info.value.details["s"] == pytest.approx(0.115, abs=1e-12)
    assert info.value.details["steps"] == 2 * 21 * 200


# Magnus steps, generator evaluations and refined intervals of the
# rotating-field ground state on 201 output points at the default
# tolerances, as the eigh kernel took them; the two-level closed form
# takes the same
RF_COUNTS = {4.0: (400, 1200, 0), 40.0: (1600, 6000, 200),
             1024.0: (17600, 61200, 200)}


@pytest.mark.parametrize("T", sorted(RF_COUNTS))
def test_rf_engine_counts(T):
    traj = integrate_schrodinger(spec_of("rotating_field"), T,
                                 ground("rotating_field"),
                                 np.linspace(0.0, 1.0, 201), TOL)
    assert (traj.steps, traj.rhs_evals, traj.rejected) == RF_COUNTS[T]


def eigh_exponential(H):
    """exp(-i H) of a Hermitian stack by the eigh formula that the
    two-level closed form and the Taylor kernel replace:
    I + V (exp(-i w) - 1) V^H."""
    w, V = np.linalg.eigh(H)
    E = (V * (-2.0 * np.sin(0.5 * w) ** 2 - 1j * np.sin(w))[:, None, :]
         ) @ V.conj().swapaxes(1, 2)
    n = H.shape[-1]
    E[:, range(n), range(n)] += 1.0
    return E


def two_level_stack(case):
    """512 Hermitian 2 x 2 matrices i Omega of one kind."""
    rng = np.random.default_rng(20)
    m, eye = 512, np.eye(2)
    A = rng.normal(size=(m, 2, 2)) + 1j * rng.normal(size=(m, 2, 2))
    H = (A + A.conj().swapaxes(1, 2)) * rng.uniform(0.0, 2.0, (m, 1, 1))
    a = rng.normal(size=(m, 1, 1))
    b = H - 0.5 * np.trace(H, axis1=1, axis2=2)[:, None, None] * eye
    b /= np.linalg.norm(b, axis=(1, 2), keepdims=True) / 2 ** 0.5
    if case == "generic":
        return H
    if case == "r = 0":
        return a * eye + 0j
    if case == "r = 1e-12":
        return a * eye + 1e-12 * b
    if case == "|a| = 1e3":
        return H + 1e3 * rng.choice([-1.0, 1.0], (m, 1, 1)) * eye
    # Hermitian to rounding only: the upper triangle and the imaginary
    # diagonal, which neither kernel reads, off by a few ulps
    noise = 4e-16 * (rng.normal(size=(m, 2, 2))
                     + 1j * rng.normal(size=(m, 2, 2)))
    return H + np.triu(noise) * np.abs(H).max(axis=(1, 2), keepdims=True)


@pytest.mark.parametrize("case", ["generic", "r = 0", "r = 1e-12",
                                  "|a| = 1e3", "rounding"])
def test_two_level_closed_form_matches_eigh(case):
    H = two_level_stack(case)
    fast, slow = _magnus._two_level(H), eigh_exponential(H)
    norm = np.max(np.abs(np.linalg.eigvalsh(H)), axis=1)
    assert np.all(np.max(np.abs(fast - slow), axis=(1, 2))
                  <= 1e-14 * np.maximum(1.0, norm))
    unitarity = fast.conj().swapaxes(1, 2) @ fast - np.eye(2)
    assert np.max(np.abs(unitarity)) <= 1e-14


@pytest.mark.parametrize("form", ["stack", "single", "adjoint"])
def test_mul_matches_matmul(form):
    # the commutator and the pairwise products multiply stacks, a run of
    # one interval a single matrix; Newton-Schulz also takes an adjoint view
    rng = np.random.default_rng(21)
    m = 1 if form == "single" else 300
    A, B = (rng.normal(size=(2, m, 2, 2))
            + 1j * rng.normal(size=(2, m, 2, 2)))
    if form == "adjoint":
        A = A.conj().swapaxes(1, 2)
    product = _magnus._mul(A, B)
    assert product.shape == (m, 2, 2)
    bound = 4 * np.finfo(float).eps * (np.abs(A) @ np.abs(B))
    assert np.all(np.abs(product - A @ B) <= bound)


def unitary_stack(n, case):
    """600 Hermitian n x n matrices i Omega: spectral widths log-spaced
    from 1e-6 up to twice ``_THETA``, the widest phase of a step, and for
    ``shifted`` trace shifts up to 1e4 of either sign."""
    rng = np.random.default_rng(30 + n)
    m = 600
    A = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    H = A + A.conj().swapaxes(1, 2)
    w = np.linalg.eigvalsh(H)
    H -= (w.mean(axis=1))[:, None, None] * np.eye(n)
    width = np.ptp(w, axis=1) if n > 1 else np.ones(m)
    H *= (np.geomspace(1e-6, 2 * _magnus._THETA, m) / width)[:, None, None]
    if case == "shifted":
        H += (rng.choice([-1.0, 1.0], m) * np.geomspace(1e-6, 1e4, m)
              )[:, None, None] * np.eye(n)
    return H


@pytest.mark.parametrize("case", ["traceless", "shifted"])
@pytest.mark.parametrize("n", [1, 3, 4, 6, 8])
def test_unitary_matches_eigh(n, case):
    H = unitary_stack(n, case)
    fast, slow = _magnus._taylor(-1j * H)[0], eigh_exponential(H)
    norm = np.max(np.abs(np.linalg.eigvalsh(H)), axis=1)
    assert np.all(np.max(np.abs(fast - slow), axis=(1, 2))
                  <= 1e-14 * np.maximum(1.0, norm))
    unitarity = fast.conj().swapaxes(1, 2) @ fast - np.eye(n)
    assert np.max(np.abs(unitarity)) <= 1e-14


def general_stack(case):
    """600 Omega that are not anti-Hermitian, 1-norms log-spaced from 1e-6
    up to twice ``_THETA``: the steps h T L(s) of the driven qubit along
    s, or random non-normal n x n matrices, complex for n = 4 and real
    for n = 9, whose 1-norm bound then rests on Re Omega alone."""
    rng = np.random.default_rng(40)
    m = 600
    if case == "lindbladian":
        A = SuperAssembler(qubit("driven").spec).matrix(
            np.linspace(0.0, 1.0, m))
    else:
        n = int(case.removeprefix("nonnormal"))
        A = rng.normal(size=(2, m, n, n)) + 4.0 * np.triu(
            rng.normal(size=(2, m, n, n)), 1)
        A = A[0] + 1j * A[1] if n == 4 else A[0] + 0j
    norm = np.abs(A).sum(axis=1).max(axis=1)
    return A * (np.geomspace(1e-6, 2 * _magnus._THETA, m) / norm)[:, None, None]


@pytest.mark.parametrize("case", ["lindbladian", "nonnormal4", "nonnormal9"])
def test_taylor_matches_scipy(case):
    omega = general_stack(case)
    fast, slow = _magnus._taylor(omega)[0], scipy.linalg.expm(omega)
    assert np.all(np.max(np.abs(fast - slow), axis=(1, 2))
                  <= 1e-14 * np.max(np.abs(slow), axis=(1, 2)))
    if case == "lindbladian":
        # <<I| Omega = 0, so <<I| exp(Omega) = <<I|: the trace is kept
        row = np.eye(2).reshape(-1)
        assert np.max(np.abs(row @ fast - row)) <= 10 * np.finfo(float).eps


@pytest.mark.parametrize("case", [3, 4, 8, "lindbladian", "nonnormal4",
                                  "nonnormal9"])
def test_unitary_stack_is_pointwise_bit_for_bit(monkeypatch, case):
    # the stack spans many (degree, squarings) plans; sub-chunks of 7
    # matrices split every plan, a workspace left over from another stack
    # is reused, and no answer may move; the same for general Omega
    omega = (-1j * unitary_stack(case, "shifted") if isinstance(case, int)
             else general_stack(case))
    whole, work = _magnus._taylor(omega)
    monkeypatch.setattr(_magnus, "_STACK_ENTRIES",
                        7 * 4 * omega.shape[1] ** 2)
    assert np.array_equal(_magnus._taylor(omega)[0], whole)
    for i in range(0, len(omega), 7):
        alone, work = _magnus._taylor(omega[i:i + 1], work)
        assert np.array_equal(alone[0], whole[i])


def test_paterson_stockmeyer_is_the_taylor_sum():
    # every degree the kernel picks, at norms where the top terms count
    rng = np.random.default_rng(31)
    X = rng.normal(size=(5, 8, 8)) * 0.25
    work = np.empty(X.size * 20)
    for m in _magnus._PS_DEGREES.tolist():
        term, taylor = np.broadcast_to(np.eye(8), X.shape), np.eye(8)
        for k in range(1, m + 1):
            term = term @ X / k
            taylor = taylor + term
        got = _magnus._paterson_stockmeyer(X, m, work)[0]
        assert np.max(np.abs(got - taylor)) <= 1e-13 * np.max(np.abs(taylor))


def one_level_spec():
    return GeneratorSpec(1, "closed", [
        (np.array([[1.5]], dtype=complex), linear(0.0, 2.0)),
        (np.array([[-0.5]], dtype=complex), constant(1.0))])


@pytest.mark.parametrize("spec", [
    pytest.param(lambda: spec_of("closed4_7"), id="closed4_7"),
    pytest.param(closed4_spec, id="every_envelope"),
    pytest.param(lambda: spec_of("landau_zener"), id="landau_zener"),
    pytest.param(one_level_spec, id="one_level")])
def test_closed_omega_matches_the_nodes(spec):
    # Omega from the folded constant terms, the others and their products
    # against the Omega of -i T H(s) at the two Gauss nodes
    spec = spec()
    T, n = 7.0, spec.dimension
    terms = _schrodinger_flow(spec, T)[0]
    t = np.linspace(0.0, 0.9, 7)
    h = np.full(t.size, 0.1)
    omega = _magnus._assembled(terms, n)(t, h)
    nodes = np.concatenate([t + (0.5 - _magnus._NODE) * h,
                            t + (0.5 + _magnus._NODE) * h])
    A = -1j * T * eval_generator(spec, nodes)
    A1, A2 = A[:t.size], A[t.size:]
    hh = h[:, None, None]
    direct = (0.5 * hh * (A1 + A2)
              + _magnus._BRACKET * hh * hh * (A2 @ A1 - A1 @ A2))
    assert np.max(np.abs(omega - direct)) <= 1e-14 * np.max(np.abs(direct))


def test_one_level_flow_is_its_phase():
    # a 1 x 1 H(s) = 1.5 * 2 s - 0.5: psi(1) = exp(-i T int_0^1 H) psi(0)
    T = 40.0
    traj = integrate_schrodinger(one_level_spec(), T, np.array([1.0 + 0j]),
                                 np.linspace(0.0, 1.0, 11), TOL)
    assert abs(traj.states[-1, 0] - np.exp(-1j * T * 1.0)) <= 1e-13


# Magnus steps, generator evaluations and refined intervals of every row
# of the closed4 (seed 7) sweep from T = 4 to 1024, 5 points, on its
# 201-point grid, as the eigh kernel took them; the Taylor kernel takes
# the same
CLOSED4_SWEEP_COUNTS = [(400, 1200, 0), (400, 1200, 0), (800, 3600, 200),
                        (2400, 10800, 200), (6000, 31200, 200)]


def test_closed4_sweep_engine_counts(monkeypatch, tmp_path):
    path = tmp_path / "closed4.json"
    path.write_text(json.dumps(generated("closed4", 7)))
    counts = []
    original = cli.integrate_schrodinger

    def counted(*args, **kwargs):
        traj = original(*args, **kwargs)
        counts.append((traj.steps, traj.rhs_evals, traj.rejected))
        return traj

    monkeypatch.setattr(cli, "integrate_schrodinger", counted)
    assert cli.main(["sweep", str(path), "--T-min", "4", "--T-max", "1024",
                     "--points", "5", "--out", str(tmp_path / "s.csv")]) == 0
    assert counts == CLOSED4_SWEEP_COUNTS


@pytest.mark.parametrize("T", [1024.0, 8192.0])
def test_unitary_norm_drift_at_long_times(T):
    # 8,000 and 40,000 steps (12,000 and 60,000 Taylor exponentials) of
    # closed4 chained through 4001 points: the drift shows rounding only
    # (the eigh kernel read 3.1e-14 and 2.9e-14, the Taylor one 2.9e-14 and
    # 3.6e-14)
    traj = integrate_schrodinger(spec_of("closed4_7"), T, ground("closed4_7"),
                                 np.linspace(0.0, 1.0, 4001), TOL)
    assert traj.norm_drift() <= 1e-12


@pytest.mark.parametrize("T", [1024.0, 8192.0])
@pytest.mark.parametrize("name", ["landau_zener", "rotating_field"])
def test_two_level_norm_drift_at_long_times(name, T):
    # 8,000 to 88,000 closed-form steps chained through 4001 points: the
    # drift shows rounding only (the eigh kernel read 1.3e-14 to 5.6e-14)
    traj = integrate_schrodinger(spec_of(name), T, ground(name),
                                 np.linspace(0.0, 1.0, 4001), TOL)
    assert traj.norm_drift() <= 1e-12


# the master equations of two qubits: the bundled dephasing one and a
# transverse-driven one, each with its generated initial state
QUBITS = {"dephasing": lambda: parse_scenario(generated("qubit_static", 3)),
          "driven": lambda: parse_scenario(generated("qubit_driven", 3))}


@functools.cache
def qubit(name):
    return QUBITS[name]()


@pytest.mark.parametrize("T", [1.0, 10.0, 100.0])
@pytest.mark.parametrize("name", sorted(QUBITS))
def test_qubit_master_matches_runge_kutta(name, T):
    sc = qubit(name)
    grid = np.linspace(0.0, 1.0, 201)
    traj = integrate_master(sc.spec, T, sc.initial_state, grid, TOL)
    ref = _rk45.integrate(engine_rhs(SuperAssembler(sc.spec).generator(T)[0],
                                     4), sc.initial_state.reshape(-1), grid,
                          rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(traj.states - ref.y)) <= BOUND
    # every Magnus step and the extrapolation preserve the trace
    trace = traj.states.reshape(-1, 2, 2).trace(axis1=1, axis2=2)
    assert np.max(np.abs(trace - 1.0)) <= 1e-12
    # the engine's counters: two generator evaluations per step of either
    # solution, so three per step of the finer one it returns, and more
    # where an interval was solved again
    assert traj.rhs_evals >= 3 * traj.steps
    assert (traj.rhs_evals == 3 * traj.steps) == (traj.rejected == 0)
    assert traj.steps >= 2 * (grid.size - 1)


@pytest.mark.parametrize("T", [1.0, 10.0, 100.0])
@pytest.mark.parametrize("family", ["qubit_static", "qubit_driven"])
def test_qubit_master_keeps_the_trace(family, T):
    # every Taylor power of Omega annihilates the trace row, so the steps,
    # their products and the extrapolation keep tr rho to the rounding of
    # a few sums; the Pade exponential's solve did not, and read 3.3e-14
    # on qubit_static
    sc = parse_scenario(generated(family, 7))
    traj = integrate_master(sc.spec, T, sc.initial_state,
                            np.linspace(0.0, 1.0, 201))
    trace = traj.states.reshape(-1, 2, 2).trace(axis1=1, axis2=2)
    assert np.max(np.abs(trace - 1.0)) <= 1e-14


# open4 (n = 16, 41 points) and open8 (n = 64, 101 points) as the benchmark
# solves them; the Runge-Kutta reference runs at (1e-13, 1e-15)
LARGER = [("open4", 3, 2.0), ("open4", 3, 5.0), ("open4", 3, 20.0),
          ("open4", 7, 2.0), ("open4", 7, 20.0), ("open8", 7, 10.0)]


@pytest.mark.parametrize("family, seed, T", LARGER)
def test_larger_master_matches_runge_kutta(family, seed, T):
    doc = generated(family, seed)
    sc = parse_scenario(doc)
    grid = np.linspace(0.0, 1.0, doc["grid_points"])
    traj = integrate_master(sc.spec, T, sc.initial_state, grid, TOL)
    ref = through_rk(lambda: integrate_master(sc.spec, T, sc.initial_state,
                                              grid, TOL))
    assert np.max(np.abs(traj.states - ref.states)) <= BOUND
    D = sc.spec.dimension
    trace = traj.states.reshape(-1, D, D).trace(axis1=1, axis2=2)
    assert np.max(np.abs(trace - 1.0)) <= 1e-12
    # the engine's counters, as for a qubit
    assert traj.rhs_evals >= 3 * traj.steps
    assert (traj.rhs_evals == 3 * traj.steps) == (traj.rejected == 0)
    assert traj.steps >= 2 * (grid.size - 1)


def one_envelope_spec(env):
    """D = 3: a constant level ladder and decay, plus a drive and a jump
    operator under ``env``."""
    rng = np.random.default_rng(8)
    drive = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return GeneratorSpec(3, "open", [
        (np.diag([0.0, 1.0, 3.0]).astype(complex), constant(1.0)),
        (drive + drive.conj().T, env),
    ], [
        (np.diag([0.4, 0.3], 1).astype(complex), constant(1.0)),
        (rng.normal(size=(3, 3)) + 0j, env),
    ])


@pytest.mark.parametrize("spec", [
    pytest.param(lambda: parse_scenario(generated("open8", 7)).spec,
                 id="generated_open8"),
    pytest.param(open4_spec, id="every_envelope")] + [
    pytest.param(lambda env=env: one_envelope_spec(env), id=env.kind)
    for env in ENVELOPES])
def test_applied_omega_matches_the_nodes(spec):
    # Omega from the folded constant parts, the others and their products
    # against the Omega of the generator at the two Gauss nodes
    spec = spec()
    T, n = 7.0, spec.dimension ** 2
    terms = SuperAssembler(spec).generator(T)[0]
    t = np.linspace(0.0, 0.9, 7)
    h = np.full(t.size, 0.1)
    omega, degree, scaling = _magnus._omegas(*terms, n)(t, h)
    nodes = np.concatenate([t + (0.5 - _magnus._NODE) * h,
                            t + (0.5 + _magnus._NODE) * h])
    A = T * SuperAssembler(spec).matrix(nodes)
    A1, A2 = A[:t.size], A[t.size:]
    hh = h[:, None, None]
    direct = (0.5 * hh * (A1 + A2)
              + _magnus._BRACKET * hh * hh * (A2 @ A1 - A1 @ A2))
    got = omega * scaling[:, None, None]
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))
    # the Taylor plan meets the 1-norm of Omega within the table
    norm = np.abs(direct).sum(axis=1).max(axis=1)
    assert np.all(norm / scaling <= _magnus._TAYLOR_THETA[degree - 1])


@pytest.mark.parametrize("case", ["open4", "ladder"])
def test_both_exponential_paths_share_one_control_rule(monkeypatch, case):
    # the same solve forced down the formed and the applied path, both
    # Taylor polynomials: one control rule, so the same answer and no more
    # steps applied;
    # controlled one interval at a time the applied path took 380 steps
    # against 160 on open4
    if case == "open4":
        sc = parse_scenario(generated("open4", 7))
        spec, rho0 = sc.spec, sc.initial_state
    else:
        spec = one_envelope_spec(linear(0.0, 1.0))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    grid = np.linspace(0.0, 1.0, 41)
    runs = {}
    for path, limit in (("formed", spec.dimension ** 2), ("applied", 0)):
        monkeypatch.setattr(_magnus, "_FORMED_MAX_DIM", limit)
        runs[path] = integrate_master(spec, 20.0, rho0, grid, TOL)
    formed, applied = runs["formed"], runs["applied"]
    assert np.max(np.abs(applied.states - formed.states)) <= BOUND
    assert applied.steps <= formed.steps


def test_applied_chunks_do_not_change_the_answer(monkeypatch):
    # chunks of a few steps split the coarse and the fine steps of an
    # interval: the same steps in other groupings
    sc = parse_scenario(generated("open4", 7))
    grid = np.linspace(0.0, 1.0, 5)
    whole = integrate_master(sc.spec, 20.0, sc.initial_state, grid, TOL)
    monkeypatch.setattr(_magnus, "_STACK_ENTRIES", 3 * 256)
    chunked = integrate_master(sc.spec, 20.0, sc.initial_state, grid, TOL)
    assert chunked.steps == whole.steps
    assert np.max(np.abs(chunked.states - whole.states)) <= 1e-14


def refused_before_any_exponential(monkeypatch, sc):
    def no_exponentials(*args):
        raise AssertionError("an exponential was taken")

    monkeypatch.setattr(_magnus, "_exponentials", no_exponentials)
    monkeypatch.setattr(_magnus, "_omegas", no_exponentials)
    with pytest.raises(StiffnessError) as info:
        integrate_master(sc.spec, 1e9, sc.initial_state,
                         np.linspace(0.0, 1.0, 201), TOL)
    assert info.value.details["s"] == 0.0
    assert info.value.details["steps"] > _magnus.MAX_STEPS


def test_qubit_master_step_demand_refused_before_any_exponential(
        monkeypatch):
    refused_before_any_exponential(monkeypatch, qubit("dephasing"))


def test_larger_master_step_demand_refused_before_any_exponential(
        monkeypatch):
    refused_before_any_exponential(monkeypatch,
                                   parse_scenario(generated("open4", 7)))


def test_constant_qubit_sweep_drift_stays_at_rounding():
    # with a constant L every Magnus step is exp(h T L) itself, so the drift
    # of the stripped block coefficients, exactly 0, shows rounding only;
    # the stepper's error, amplified by exp(-T Re int lambda), read 1.01 at
    # T = 206 on the same sweep
    path = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
            / "scenarios" / "dephasing_qubit.json")
    rows = cli.sweep_total_time(str(path), 10.0, 2000.0, 8, jobs=1)
    assert len(rows) == 8
    assert max(row[1] for row in rows) <= 10 * 1e-10
