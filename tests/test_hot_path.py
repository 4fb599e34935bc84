"""The integrator hot path against the slow forms it replaces.

The generators handed to the Magnus engine evaluate from precompiled
parts: term matrices scaled once, the supermatrix parts weighted by their
envelopes.  The coefficient flow's generator comes from one spline over
all its sampled data.  Each is checked here against the direct form --
``Envelope.value``, ``SuperAssembler.matrix``, three separate splines.
The Runge-Kutta stepper, the test oracle, takes its right-hand sides from
the engine's generators, and its work counters are pinned for a fixed
workload on the Schrödinger flow.  The stacked H(s), dH/ds, L(s) and
dL/ds of a whole grid are checked bit for bit against the per-point
forms; the spectral track built from one stacked eigh and a stacked
transport matches the per-point track, its energies bit for bit and its
vectors to rounding; the Jordan track's stacked stitch matches the
per-point assignment and rephasing loop it replaced; the exact frame
derivatives from dH/ds are the limit of central differences of the
frames.  The work of two open and two closed commands, and of both
tracks, is counted, and so are the dH/ds samples of each closed command,
one, the ``eigh`` calls of the engine's closed flows, none, the LAPACK
solves of a qubit's master equation, none either, the ``eigh`` and L(s)
calls of a jump-free Jordan track, one each, and the per-point
``JordanForm``s of the open commands, none.
"""

import functools
import json
import pathlib
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from adiakit import _jordan_stitch, _magnus, _rk45, cli, closed
from adiakit import numkit as nk
from adiakit import open_system as osys
from adiakit.cli import parse_scenario
from adiakit.closed import (_coefficient_flow, _melements, _schrodinger_flow,
                            track_spectrum)
from adiakit.errors import CrossingError, StiffnessError
from adiakit.open_system import (SuperAssembler, _coherent_part,
                                 _jump_part, integrate_master)
from adiakit.schedules import (Envelope, GeneratorSpec, _weighted_sum,
                               constant, cosine_ramp, eval_generator,
                               eval_generator_derivative, linear, make_model,
                               polynomial, sinusoid)

from test_open_fast_path import generated
from test_open_super import scaled_damped_qubit

SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "scripts" / "scenarios"


def bundled_spec(name):
    with open(SCENARIO_DIR / f"{name}.json") as fh:
        return parse_scenario(json.load(fh)).spec


def engine_rhs(generator, n):
    """y -> A(s) y for the Runge-Kutta oracle, with A(s) from a generator
    in either form the Magnus engine takes."""
    if not callable(generator):
        factor, weights, parts, _ = generator

        def generator(s):
            return factor * _weighted_sum(s, weights(s), parts, n)

    def rhs(s, y):
        return generator(np.array([s]))[0] @ y

    return rhs


def schrodinger_rhs(spec, T):
    """psi -> -i T H(s) psi from the engine's Schrödinger generator."""
    return engine_rhs(_schrodinger_flow(spec, T)[0], spec.dimension)


def random_hermitian(rng, D):
    A = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
    return 0.5 * (A + A.conj().T)


def open4_spec():
    """A D=4 open generator with every envelope kind among its terms."""
    rng = np.random.default_rng(4)
    D = 4
    ladder = np.diag(np.sqrt([0.3, 0.5, 0.7]), 1).astype(complex)
    return GeneratorSpec(D, "open", [
        (np.diag([0.0, 1.0, 4.0, 6.0]).astype(complex), constant(1.0)),
        (random_hermitian(rng, D), linear(-0.2, 0.3)),
        (random_hermitian(rng, D), sinusoid(0.1, 1.5, 0.3, 0.05)),
    ], [
        (ladder, cosine_ramp(0.4, 0.9)),
        (rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D)),
         polynomial([0.05, 0.1, -0.08])),
    ])


def random_states(rng, n, count=20):
    return [(float(rng.uniform(0.0, 1.0)),
             rng.normal(size=n) + 1j * rng.normal(size=n))
            for _ in range(count)]


def relative(new, old):
    return np.linalg.norm(new - old) / np.linalg.norm(old)


# ------------------------------------------------------------- envelopes

ENVELOPES = [
    constant(0.7), constant(-2.5),
    linear(-1.3, 2.1), linear(0.0, 1.0),
    polynomial([0.3, -1.2, 2.5, -0.7]), polynomial([4.0]),
    cosine_ramp(-0.4, 1.9), cosine_ramp(3.0, 0.0),
    sinusoid(1.7, 2.3, 0.4, -0.2), sinusoid(1.0, 1.0, np.pi / 2),
]


@pytest.mark.parametrize("env", ENVELOPES, ids=lambda e: e.kind)
def test_scalar_envelope_matches_value(env):
    # an envelope at a scalar s, as L(s) and H(s) take it point by point,
    # equals its stacked value at that s bit for bit
    grid = np.linspace(0.0, 1.0, 2001)
    for method in (env.value, env.derivative):
        assert np.array_equal([method(float(s)) for s in grid], method(grid))


def test_scalar_envelopes_cover_every_kind():
    assert {env.kind for env in ENVELOPES} == {
        "constant", "linear", "polynomial", "cosine_ramp", "sinusoid"}


# ------------------------------------------------------ right-hand sides

@pytest.mark.parametrize("name", ["landau_zener", "rotating_field"])
@pytest.mark.parametrize("T", [8.0, 1024.0])
def test_schrodinger_rhs_matches_term_sum(name, T):
    spec = bundled_spec(name)
    rhs = schrodinger_rhs(spec, T)
    rng = np.random.default_rng(1)
    for s, y in random_states(rng, spec.dimension):
        old = np.zeros_like(y)
        for M, env in spec.hamiltonian_terms:
            old += env.value(s) * (M @ y)
        old = -1j * T * old
        assert relative(rhs(s, y), old) <= 1e-13


@pytest.mark.parametrize("spec", [bundled_spec("dephasing_qubit"),
                                  open4_spec()], ids=["dephasing", "open4"])
@pytest.mark.parametrize("T", [8.0, 1024.0])
def test_master_rhs_matches_supermatrix(spec, T):
    asm = SuperAssembler(spec)
    rhs = engine_rhs(asm.generator(T)[0], asm.dim)
    rng = np.random.default_rng(2)
    for s, y in random_states(rng, asm.dim):
        assert relative(rhs(s, y), T * (asm.matrix(s) @ y)) <= 1e-13


def pointwise(spec, s, derivative):
    """L(s), or dL/ds, at one point as the term loop of a per-point
    assembly sums it."""
    out = np.zeros((spec.dimension ** 2,) * 2, dtype=complex)
    for M, env in spec.hamiltonian_terms:
        out += (env.derivative(s) if derivative else env.value(s)) \
            * _coherent_part(M)
    for M, env in spec.lindblad_terms:
        out += (2.0 * env.value(s) * env.derivative(s) if derivative
                else env.value(s) ** 2) * _jump_part(M)
    return out


def closed4_spec():
    """A D=4 closed generator with every envelope kind among its terms."""
    rng = np.random.default_rng(5)
    D = 4
    return GeneratorSpec(D, "closed", [
        (np.diag([0.0, 1.0, 4.0, 6.0]).astype(complex), constant(1.0)),
        (random_hermitian(rng, D), linear(-0.2, 0.3)),
        (random_hermitian(rng, D), sinusoid(0.1, 1.5, 0.3, 0.05)),
        (random_hermitian(rng, D), cosine_ramp(0.4, 0.9)),
        (random_hermitian(rng, D), polynomial([0.05, 0.1, -0.08])),
    ])


def pointwise_hamiltonian(spec, s, derivative):
    """H(s), or dH/ds, at one point as a per-point term loop sums it."""
    out = np.zeros((spec.dimension,) * 2, dtype=complex)
    for M, env in spec.hamiltonian_terms:
        out += (env.derivative(s) if derivative else env.value(s)) * M
    return out


STACKED_SPECS = {
    "dephasing": lambda: bundled_spec("dephasing_qubit"),
    "open4": open4_spec,
    "generated_open4": lambda: parse_scenario(generated("open4", 3)).spec,
    "landau_zener": lambda: bundled_spec("landau_zener"),
    "rotating_field": lambda: bundled_spec("rotating_field"),
    "generated_closed4_3": lambda: parse_scenario(
        generated("closed4", 3)).spec,
    "generated_closed4_11": lambda: parse_scenario(
        generated("closed4", 11)).spec,
    "closed4": closed4_spec,
}


@pytest.mark.parametrize("name", list(STACKED_SPECS))
def test_stacked_assembly_is_pointwise_bit_for_bit(name):
    """The one weighting rule: L and dL/ds for an open spec, H and dH/ds
    (the Hamiltonian part of either kind) for every spec."""
    spec = STACKED_SPECS[name]()
    grid = np.linspace(0.0, 1.0, 101)
    D = spec.dimension
    for derivative in (False, True):
        one = eval_generator_derivative if derivative else eval_generator
        stacked = one(spec, grid)
        assert stacked.shape == (grid.size, D, D)
        for i, s in enumerate(grid):
            assert np.array_equal(stacked[i], one(spec, s))
            assert np.array_equal(stacked[i],
                                  pointwise_hamiltonian(spec, s, derivative))
    if spec.kind == "closed":
        return
    asm = SuperAssembler(spec)
    for derivative, stacked in ((False, asm.matrix(grid)),
                                (True, asm.derivative(grid))):
        assert stacked.shape == (grid.size, asm.dim, asm.dim)
        one = asm.derivative if derivative else asm.matrix
        for i, s in enumerate(grid):
            assert np.array_equal(stacked[i], one(s))
            assert np.array_equal(stacked[i], pointwise(spec, s, derivative))


def pointwise_track(spec, grid):
    """The spectral track as a per-point loop builds it: one eigh per
    point, then the same ordering and parallel transport."""
    N, D = grid.size, spec.dimension
    energies = np.empty((N, D))
    vectors = np.empty((N, D, D), dtype=complex)
    for i, s in enumerate(grid):
        evals, evecs = np.linalg.eigh(eval_generator(spec, s))
        if i == 0:
            order = np.argsort(evals)
        else:
            overlaps = np.abs(vectors[i - 1].conj().T @ evecs)
            order = np.arange(D)
            if not all(v > 0.75 for v in overlaps.diagonal().tolist()):
                order = nk.min_cost_assignment(-overlaps)
        evals, evecs = evals[order], evecs[:, order]
        energies[i] = evals
        if i == 0:
            anchors = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(D)]
            vectors[i] = evecs * np.conj(anchors / np.abs(anchors))
        else:
            ov = np.einsum("jn,jn->n", vectors[i - 1].conj(), evecs)
            phases = np.where(np.abs(ov) > 0, ov / np.abs(ov), 1.0)
            vectors[i] = evecs * np.conj(phases)
    return energies, vectors


@pytest.mark.parametrize("name, points", [
    pytest.param(name, 401, id=name) for name in
    ("landau_zener", "rotating_field", "generated_closed4_3", "closed4")
] + [pytest.param("rotating_field", 4001, id="rotating_field_4001")])
def test_stacked_track_is_pointwise_bit_for_bit(name, points):
    """One stacked eigh, the stacked transport and the batched couplings
    <k|dH/ds|n> against the per-point eigh, transport and products they
    replace.  The name is historical: the energies and the couplings are
    bit for bit, the vectors equal to rounding (the transport multiplies
    the phases in another order).  Summing the overlap angles instead of
    multiplying the phases strays 8.7e-11 from the per-point loop on the
    rotating field at 4001 points: eigh's raw phases are arbitrary, so
    the summed angle grows with the grid."""
    spec = STACKED_SPECS[name]()
    grid = np.linspace(0.0, 1.0, points)
    track = track_spectrum(spec, grid)
    energies, vectors = pointwise_track(spec, grid)
    assert np.array_equal(track.energies, energies)
    assert np.max(np.abs(track.vectors - vectors)) <= 1e-13
    mel = _melements(track)
    for i, s in enumerate(grid):
        V = track.vectors[i]
        assert np.array_equal(
            mel[i], V.conj().T @ eval_generator_derivative(spec, s) @ V)


@pytest.mark.parametrize("name", ["landau_zener", "generated_closed4_7"])
def test_exact_frame_derivatives_are_the_difference_limit(name):
    """<m|d_s n> from dH/ds against central differences of the reference
    frames (second order at the ends as well): the difference falls as h^2,
    by a factor 4 from 8001 to 16001 points, where it is below 1e-7 of the
    largest entry (96 h^2 on Landau-Zener, 0.01 h^2 on closed4)."""
    spec = (STACKED_SPECS[name]() if name in STACKED_SPECS
            else parse_scenario(generated("closed4", 7)).spec)
    misfit = []
    for points in (8001, 16001):
        grid = np.linspace(0.0, 1.0, points)
        frames, conn = closed._frame_derivatives(track_spectrum(spec, grid))
        moved = np.gradient(frames, grid, axis=0, edge_order=2)
        differenced = np.einsum("ijm,ijn->imn", frames.conj(), moved)
        misfit.append(np.max(np.abs(differenced - conn)))
    assert 3.5 <= misfit[0] / misfit[1] <= 4.5
    assert misfit[1] <= 1e-7 * np.max(np.abs(conn))


@pytest.mark.parametrize("name", ["landau_zener", "generated_closed4_3",
                                  "generated_closed4_11"])
def test_stacked_transport_keeps_unit_norms(name):
    """A plain running product of the overlap phases drifts the column
    norms by up to 4e-13 at 4001 points; renormalised, they stay at the
    per-point loop's rounding."""
    track = track_spectrum(STACKED_SPECS[name](), np.linspace(0.0, 1.0, 4001))
    assert np.max(np.abs(np.linalg.norm(track.vectors, axis=1) - 1.0)) <= 1e-14


def count_track_work(monkeypatch):
    """Count the per-point assignments and the stacked transport runs of
    the closed track."""
    counts = Counter()
    count_calls(monkeypatch, closed, "min_cost_assignment", counts)
    count_calls(monkeypatch, closed, "_transport_clear_prefix", counts)
    return counts


@pytest.mark.parametrize("name", ["landau_zener", "rotating_field",
                                  "closed4", "generated_closed4_3"])
def test_clear_tracks_take_no_per_point_step(name, monkeypatch):
    counts = count_track_work(monkeypatch)
    track_spectrum(STACKED_SPECS[name](), np.linspace(0.0, 1.0, 4001))
    assert counts == {"_transport_clear_prefix": 1}


def test_coarse_step_takes_one_per_point_step(monkeypatch):
    """One step across the LZ avoided crossing (delta = 0.1) overlaps by
    0.743: too little for the stacked transport, the order still clear to
    the assignment.  The points after it are stacked again."""
    counts = count_track_work(monkeypatch)
    spec = make_model("landau_zener", a=1.0, delta=0.1)
    grid = np.concatenate([np.linspace(0.0, 0.455, 400),
                           np.linspace(0.545, 1.0, 400)])
    track = track_spectrum(spec, grid)
    assert counts == {"min_cost_assignment": 1, "_transport_clear_prefix": 2}
    energies, vectors = pointwise_track(spec, grid)
    assert np.array_equal(track.energies, energies)
    assert np.max(np.abs(track.vectors - vectors)) <= 1e-13


# ------------------------------------------------------ the Jordan stitch

def pointwise_stitch(g, lam, size, S, Si):
    """The Jordan track's stitch as a per-point loop does it, rewriting
    ``S`` and ``Si`` in place: at every point an assignment against the
    aligned predecessor, a phase for every chain, and the polar factor for
    a semisimple cluster whose eigenvalues are equal there."""

    def align(lam_prev, lead_prev, sizes_prev, lam, sizes, S, Si):
        offsets = np.cumsum(sizes) - sizes
        lead = S[:, offsets]
        cost = (np.abs(lam_prev[:, None] - lam[None, :])
                + np.where(sizes_prev[:, None] == sizes[None, :], 0.0, 1e6)
                + 1e-2 * (1.0 - np.abs(lead_prev.conj().T @ lead)))
        order = nk.min_cost_assignment(cost)
        z = np.einsum("ij,ij->j", lead_prev.conj(), lead[:, order])
        phase = np.ones(order.size, dtype=complex)
        keep = np.abs(z) > 1e-12
        phase[keep] = np.conj(z[keep]) / np.abs(z[keep])
        starts = np.cumsum(sizes[order]) - sizes[order]
        columns = np.arange(S.shape[1]) + np.repeat(offsets[order] - starts,
                                                    sizes[order])
        colphase = np.repeat(phase, sizes[order])
        S[:] = S[:, columns] * colphase
        Si[:] = Si[columns, :] / colphase[:, None]
        return order

    def polar_align(prev_S, S, Si, cols):
        U, _, Vh = np.linalg.svd(prev_S[:, cols].conj().T @ S[:, cols])
        W = (U @ Vh).conj().T
        S[:, cols] = S[:, cols] @ W
        Si[cols, :] = W.conj().T @ Si[cols, :]

    sizes = tuple(size[0].tolist())
    starts = np.cumsum(size[0]) - size[0]
    semisimple = semisimple_clusters(lam[0], size[0])
    orders = np.empty(lam.shape, dtype=int)
    orders[0] = np.arange(lam.shape[1])
    for i in range(1, len(lam)):
        order = orders[i] = align(lam[i - 1, orders[i - 1]],
                                  S[i - 1][:, starts], size[0], lam[i],
                                  size[i], S[i], Si[i])
        got = tuple(size[i, order].tolist())
        if got != sizes:
            return (orders[:i], np.take_along_axis(lam[:i], orders[:i], 1),
                    CrossingError(
                        f"block signature changed from {sizes} to {got} at "
                        f"s = {g[i]:.6f}", s=float(g[i]), signature=got))
        for members in semisimple:
            if np.all(lam[i, order[members]] == lam[i, order[members[0]]]):
                polar_align(S[i - 1], S[i], Si[i], starts[members])
    return orders, np.take_along_axis(lam, orders, axis=1), None


def semisimple_clusters(lam, size):
    """Blocks of size 1 sharing one eigenvalue, which no larger block
    shares."""
    shared = {}
    for b, value in enumerate(lam.tolist()):
        shared.setdefault(value, []).append(b)
    return [np.array(m) for m in shared.values()
            if len(m) > 1 and all(size[b] == 1 for b in m)]


def decomposed(spec, grid, cluster_tol=1e-7, rank_tol=1e-9):
    """L(s) on the grid decomposed in one stacked pass, cut to the blocks
    of point 0 as ``jordan_track`` takes it."""
    lam, size, S, Si, _, errors = nk._decompose_stack(
        SuperAssembler(spec).matrix(grid), cluster_tol, rank_tol, 1e12)
    assert errors == [None] * grid.size
    nb = np.count_nonzero(size[0])
    assert np.all(np.count_nonzero(size, axis=1) == nb)
    return grid, lam[:, :nb], size[:, :nb], S, Si


def planted_stack(grid, curves, sizes, seed=0):
    """Jordan blocks with eigenvalue curves ``curves(s)`` and sizes
    ``sizes(s)``, as the arrays ``(grid, lam, size, S, S^-1)``, their
    blocks sorted as the decomposition sorts them, on
    columns of V(s) = exp(sK) B that turn smoothly; every chain carries a
    random phase at every point."""
    rng = np.random.default_rng(seed)
    n = int(np.sum(sizes(0.0)))
    A, Qa, Qb = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                 for _ in range(3))
    K = 0.5 * (A - A.conj().T)
    B = (np.linalg.qr(Qa)[0] @ np.diag(np.linspace(1.0, 3.0, n))
         @ np.linalg.qr(Qb)[0])
    lam_rows, size_rows, S = [], [], []
    for s in grid:
        lam, size = np.asarray(curves(s)), np.asarray(sizes(s))
        order = np.lexsort((-size, -lam.imag, -lam.real))
        starts = np.cumsum(size) - size
        cols = np.concatenate([np.arange(starts[b], starts[b] + size[b])
                               for b in order])
        phase = np.exp(2j * np.pi * rng.uniform(size=order.size))
        S.append((expm(s * K) @ B)[:, cols] * np.repeat(phase, size[order]))
        lam_rows.append(lam[order])
        size_rows.append(size[order])
    S = np.array(S)
    return (np.asarray(grid), np.array(lam_rows, dtype=complex),
            np.array(size_rows), S, np.linalg.inv(S))


def spun(stack, cols, seed=1):
    """A planted stack with its columns ``cols`` (the blocks of one
    semisimple cluster) mixed by a random unitary at every point."""
    g, lam, size, S, Si = stack
    rng = np.random.default_rng(seed)
    for i in range(len(S)):
        U = np.linalg.qr(rng.normal(size=(len(cols),) * 2)
                         + 1j * rng.normal(size=(len(cols),) * 2))[0]
        S[i][:, cols] = S[i][:, cols] @ U
        Si[i][cols, :] = U.conj().T @ Si[i][cols, :]
    return g, lam, size, S, Si


def generated_spec(family, seed):
    return parse_scenario(generated(family, seed)).spec


def generated_stack(family, seed, points):
    return decomposed(generated_spec(family, seed),
                      np.linspace(0.0, 1.0, points))


GRID_201 = np.linspace(0.0, 1.0, 201)
# one coarse step (0.45 -> 0.55) after which both of two blocks lie nearest
# to one block: only the assignment over all blocks matches them
GAP_GRID = np.concatenate([np.linspace(0.0, 0.45, 100),
                           np.linspace(0.55, 1.0, 100)])
STITCH_CASES = {
    "dephasing": lambda: decomposed(bundled_spec("dephasing_qubit"),
                                    GRID_201),
    **{f"{family}_{seed}": functools.partial(generated_stack, family, seed,
                                             201)
       for family in ("qubit_static", "qubit_driven") for seed in (3, 7, 11)},
    **{f"open4_{seed}": functools.partial(generated_stack, "open4", seed, 41)
       for seed in (3, 7)},
    # the (Re, Im)-sorted order of a 2-chain and a singleton swaps at
    # s = 0.5, which moves the chains' columns
    "raw_order_swap": lambda: planted_stack(
        GRID_201, lambda s: [-0.5 + 0.5 * s + 0.3j, -0.25 - 0.3j, -1.0],
        lambda s: [2, 1, 1]),
    "unclear_step": lambda: planted_stack(
        GAP_GRID, lambda s: [-2.0 + 2.0 * s, -1.0 - 0.05j, -2.5 + 1j,
                             -2.5 - 1j], lambda s: [1, 1, 1, 1]),
    # a semisimple cluster whose basis is arbitrary at every point
    "spun_cluster": lambda: spun(planted_stack(
        GRID_201, lambda s: [-0.3 + 0.1 * s, -0.3 + 0.1 * s, -1.0 + 1j,
                             -1.0 - 1j], lambda s: [1, 1, 1, 1]), [0, 1]),
    # a block within 1e-2 of that cluster: no point is clear
    "cluster_near_block": lambda: spun(planted_stack(
        GRID_201, lambda s: [-0.3 + 0.1 * s, -0.3 + 0.1 * s,
                             -0.303 + 0.1 * s, -1.0 + 1j],
        lambda s: [1, 1, 1, 1]), [0, 1]),
    # a defective 2-chain, taken through the sorted Schur form
    "defective_schur": lambda: decomposed(scaled_damped_qubit(), GRID_201,
                                          cluster_tol=1e-5, rank_tol=1e-7),
    "signature_change": lambda: planted_stack(
        GRID_201, lambda s: [-0.5, -1.5 + 0.5j],
        lambda s: [3, 1] if s < 0.5 else [2, 2]),
}


def canonical_orders(orders, lam0, size0):
    """``orders`` with each semisimple cluster's entries sorted."""
    out = orders.copy()
    for members in semisimple_clusters(lam0, size0):
        out[:, members] = np.sort(out[:, members], axis=1)
    return out


def stitch_both(g, lam, size, S, Si):
    """The stacked stitch and the per-point loop, each on its own copy."""
    S1, Si1, S2, Si2 = S.copy(), Si.copy(), S.copy(), Si.copy()
    return (_jordan_stitch._stitch(g, lam, size, S1, Si1), S1, Si1,
            pointwise_stitch(g, lam, size, S2, Si2), S2, Si2)


@pytest.mark.parametrize("name", list(STITCH_CASES))
def test_stacked_stitch_matches_pointwise_loop(name):
    """The stacked match and transport against the per-point assignment,
    rephasing and polar rotation they replace: the same eigenvalue curves
    and blocks, the same orders up to order within a semisimple cluster,
    S and S^-1 equal to rounding, and the same error at the same point."""
    g, lam, size, S, Si = STITCH_CASES[name]()
    (orders, lambdas, error), S1, Si1, want, S2, Si2 = stitch_both(
        g, lam, size, S, Si)
    assert str(error) == str(want[2])
    if error is not None:
        assert error.details == want[2].details
    rows = len(want[0])
    assert np.array_equal(lambdas, want[1])
    assert np.array_equal(canonical_orders(orders, lam[0], size[0]),
                          canonical_orders(want[0], lam[0], size[0]))
    for blocks in (lam, size):
        assert np.array_equal(np.take_along_axis(blocks[:rows], orders, 1),
                              np.take_along_axis(blocks[:rows], want[0], 1))
    assert np.max(np.abs(S1[:rows] - S2[:rows])) <= 1e-13
    assert np.max(np.abs(Si1[:rows] - Si2[:rows])) <= 1e-13


def test_stitch_cases_cover_their_paths():
    """The planted cases do what they are named for."""
    _, lam, _, _, _ = STITCH_CASES["raw_order_swap"]()
    assert lam[0, 0] == -0.25 - 0.3j and lam[-1, 0] == 0.3j
    error = stitch_both(*STITCH_CASES["signature_change"]())[0][2]
    assert str(error) == \
        "block signature changed from (3, 1) to (2, 2) at s = 0.500000"
    _, _, size, _, _ = STITCH_CASES["defective_schur"]()
    assert sorted(size[0].tolist()) == [1, 1, 2]
    _, lam, size, _, _ = STITCH_CASES["dephasing"]()
    assert [len(m) for m in semisimple_clusters(lam[0], size[0])] == [2]


def count_stitch_work(monkeypatch):
    """Count the per-point assignments and the stacked runs of the Jordan
    stitch."""
    counts = Counter()
    count_calls(monkeypatch, _jordan_stitch, "min_cost_assignment", counts)
    count_calls(monkeypatch, _jordan_stitch, "_stitch_clear_prefix",
                counts)
    return counts


@pytest.mark.parametrize("points", [201, 4001])
@pytest.mark.parametrize("name", ["dephasing", "qubit_static",
                                  "qubit_driven", "open4"])
def test_clear_open_tracks_take_no_per_point_step(name, points, monkeypatch):
    spec = (bundled_spec("dephasing_qubit") if name == "dephasing"
            else generated_spec(name, 3))
    counts = count_stitch_work(monkeypatch)
    osys.jordan_track(spec, np.linspace(0.0, 1.0, points))
    assert counts == {"_stitch_clear_prefix": 1}


def test_unclear_point_takes_one_per_point_step(monkeypatch):
    counts = count_stitch_work(monkeypatch)
    assert _jordan_stitch._stitch(*STITCH_CASES["unclear_step"]())[2] is None
    assert counts == {"min_cost_assignment": 1, "_stitch_clear_prefix": 2}


@pytest.mark.parametrize("name", ["dephasing", "qubit_driven_7",
                                  "raw_order_swap", "spun_cluster",
                                  "unclear_step"])
def test_stitch_chunks_do_not_change_the_answer(name, monkeypatch):
    """Chunks of 3 points: the running products restart at every chunk
    boundary from the point before as it stands."""
    g, lam, size, S, Si = STITCH_CASES[name]()
    S1, Si1 = S.copy(), Si.copy()
    want = _jordan_stitch._stitch(g, lam, size, S1, Si1)
    monkeypatch.setattr(_jordan_stitch, "_STACK_ENTRIES",
                        3 * S.shape[1] ** 2)
    counts = count_stitch_work(monkeypatch)
    got = _jordan_stitch._stitch(g, lam, size, S, Si)
    assert counts["_stitch_clear_prefix"] == 1 + counts["min_cost_assignment"]
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.max(np.abs(S - S1)) <= 1e-14
    assert np.max(np.abs(Si - Si1)) <= 1e-14


@pytest.mark.parametrize("name", ["dephasing", "qubit_static",
                                  "qubit_driven", "open4"])
def test_stacked_stitch_keeps_unit_norms(name):
    """At 4001 points the transported columns keep unit norm and S^-1 S
    stays the identity at the per-point loop's rounding (each at most
    1e-14; the loop reads up to 2.5e-15)."""
    spec = (bundled_spec("dephasing_qubit") if name == "dephasing"
            else generated_spec(name, 7))
    _, S1, Si1, _, S2, Si2 = stitch_both(
        *decomposed(spec, np.linspace(0.0, 1.0, 4001)))
    for S, Si in ((S1, Si1), (S2, Si2)):
        assert np.max(np.abs(np.linalg.norm(S, axis=1) - 1.0)) <= 1e-14
        assert np.max(np.abs(Si @ S - np.eye(S.shape[1]))) <= 1e-14


def three_spline_flow(grid, energies, conn, offdiag, T):
    """The flow of b = exp(-i T Phi) a with one spline per sampled
    quantity, and the spline of the energies."""
    energy_spline = CubicSpline(grid, energies, axis=0)
    conn_spline = CubicSpline(grid, conn, axis=0)
    coupling_spline = CubicSpline(grid, offdiag, axis=0)

    def rhs(s, b):
        return (-(1j * T * energy_spline(s) + conn_spline(s)) * b
                - coupling_spline(s) @ b)

    return rhs, energy_spline


@pytest.mark.parametrize("D", [2, 4])
@pytest.mark.parametrize("T", [8.0, 1024.0])
def test_coefficient_rhs_matches_three_splines(D, T):
    rng = np.random.default_rng(D)
    grid = np.linspace(0.0, 1.0, 41)
    waves = np.sin(np.outer(grid, rng.uniform(1.0, 3.0, size=D * D)))
    energies = np.cumsum(rng.uniform(0.5, 1.5, size=D)) + waves[:, :D]
    conn = 1j * waves[:, D:2 * D]
    offdiag = (waves + 1j * waves ** 2).reshape(-1, D, D)
    offdiag[:, np.arange(D), np.arange(D)] = 0.0
    generator, _, phi = _coefficient_flow(grid, energies, conn, offdiag, T)
    old, energy_spline = three_spline_flow(grid, energies, conn, offdiag, T)
    nodes = rng.uniform(0.0, 1.0, size=20)
    for s, A in zip(nodes, generator(nodes)):
        b = rng.normal(size=D) + 1j * rng.normal(size=D)
        assert relative(A @ b, old(s, b)) <= 1e-13
    # the dynamical phases are the exact integrals of the energy cubics
    exact = np.array([energy_spline.integrate(0.0, s) for s in grid])
    assert relative(phi, exact) <= 1e-13


def test_flows_without_terms_are_zero():
    y = np.array([0.5, 0.1j, -0.1j, 0.5])
    open_rhs = engine_rhs(
        SuperAssembler(GeneratorSpec(2, "open", [])).generator(3.0)[0], 4)
    assert np.array_equal(open_rhs(0.4, y), np.zeros(4))
    closed_rhs = schrodinger_rhs(GeneratorSpec(4, "closed", []), 3.0)
    assert np.array_equal(closed_rhs(0.4, y), np.zeros(4))
    # the applied exponentials of a larger L(s) without terms: Omega is 0
    terms = SuperAssembler(GeneratorSpec(3, "open", [])).generator(3.0)[0]
    omega, degree, scaling = _magnus._omegas(*terms, 9)(np.array([0.4]),
                                                        np.array([0.1]))
    assert not omega.any()
    assert degree.tolist() == scaling.tolist() == [1]
    # the assembled Omega of a closed flow without terms is 0, and its
    # exponential the identity
    terms = _schrodinger_flow(GeneratorSpec(4, "closed", []), 3.0)[0]
    omega = _magnus._assembled(terms, 4)(np.array([0.4]), np.array([0.1]))
    assert not omega.any()
    assert np.array_equal(_magnus._taylor(omega)[0][0], np.eye(4))


# ------------------------------------------------------- stepper counters

# steps of the Landau-Zener scenario from its ground state on 201 output
# points, as the stepper took them before the hot path was rewritten; the
# lean loop must not need more than 1% extra
LZ_STEPS = {8.0: 201, 1024.0: 6859}


@pytest.mark.parametrize("T", sorted(LZ_STEPS))
def test_lz_step_counts(T):
    spec = make_model("landau_zener", a=1.0, delta=0.25)
    grid = np.linspace(0.0, 1.0, 201)
    psi0 = track_spectrum(spec, grid).vectors[0, :, 0]
    res = _rk45.integrate(schrodinger_rhs(spec, T), psi0, grid)
    assert res.rhs_evals == 6 * res.steps + 2
    assert res.steps <= LZ_STEPS[T] * 1.01
    assert 0 <= res.rejected < res.steps
    assert np.max(np.abs(np.linalg.norm(res.y, axis=1) - 1.0)) < 1e-6
    assert 0.0 < res.min_step <= 1.0
    assert 0.0 <= res.s_at_min_step <= 1.0


def test_min_step_from_the_stage_nodes():
    # every attempted step shows in the stage nodes the right-hand side
    # is called at: t + h/5 first and t + h fifth, six calls per step
    nodes = []

    def rhs(s, y):
        nodes.append(s)
        return -1j * 40.0 * s * y

    res = _rk45.integrate(rhs, np.array([1.0 + 0j]), [0.0, 0.3, 1.0])
    groups = np.array(nodes[2:]).reshape(-1, 6)   # after f0 and the probe
    h = (groups[:, 4] - groups[:, 0]) / 0.8
    t = groups[:, 0] - h / 5
    accepted = np.append(np.abs(t[1:] - (t[:-1] + h[:-1])) < 1e-12, True)
    assert len(groups) == res.steps
    assert np.count_nonzero(~accepted) == res.rejected
    h_acc, t_acc = h[accepted][:-1], t[accepted][:-1]
    k = int(np.argmin(h_acc))
    assert res.min_step == pytest.approx(h_acc[k], rel=1e-9)
    assert res.s_at_min_step == pytest.approx(t_acc[k], abs=1e-12)


def zero_rhs(s, y):
    return np.zeros_like(y)


def test_min_step_leaves_out_the_final_step():
    # with no error at all each step is 10x the last, from 1e-6; the end
    # point sits 1e-9 past the third step, so the fourth is cut to 1e-9
    res = _rk45.integrate(zero_rhs, np.array([1.0 + 0j]),
                          [0.0, 1e-6 + 1e-5 + 1e-4 + 1e-9])
    assert res.steps == 4
    assert res.min_step == pytest.approx(1e-6, rel=1e-12)
    assert res.s_at_min_step == 0.0


def test_min_step_leaves_out_steps_grown_from_a_cut():
    # the step cut to 1e-9 to land on the middle point grows tenfold per
    # step from there, so none of the steps after it is the controller's
    res = _rk45.integrate(zero_rhs, np.array([1.0 + 0j]),
                          [0.0, 1e-6 + 1e-5 + 1e-4 + 1e-9, 1.0])
    assert res.min_step == pytest.approx(1e-6, rel=1e-12)
    assert res.s_at_min_step == 0.0


# steps of the Landau-Zener ground state by (T, output points), as the
# stepper took them before min_step left out the cut steps
LZ_GRID_STEPS = {(8.0, 2): 64, (8.0, 201): 201, (8.0, 8001): 8000,
                 (1024.0, 2): 6666, (1024.0, 201): 6856,
                 (1024.0, 8001): 11841}


@functools.cache
def lz_solve(T, points):
    spec = make_model("landau_zener", a=1.0, delta=0.25)
    psi0 = track_spectrum(spec, np.linspace(0.0, 1.0, 201)).vectors[0, :, 0]
    return _rk45.integrate(schrodinger_rhs(spec, T), psi0,
                           np.linspace(0.0, 1.0, points))


@pytest.mark.parametrize("T, points", sorted(LZ_GRID_STEPS))
def test_min_step_bookkeeping_keeps_the_steps(T, points):
    res = lz_solve(T, points)
    assert res.steps == LZ_GRID_STEPS[T, points]
    assert res.rhs_evals == 6 * res.steps + 2
    assert 0.0 < res.min_step <= 1.0 / (points - 1) + 1e-15


def test_min_step_reports_the_controller_not_the_grid():
    # 8001 output points cut steps down to 2e-8; the controller's own
    # smallest step stays that of the endpoint-only solve
    free = lz_solve(1024.0, 2).min_step
    assert free / 4 <= lz_solve(1024.0, 8001).min_step <= 4 * free


def test_min_step_falls_back_when_every_step_is_cut():
    # at T=8 every step of an 8001-point solve is cut to the grid spacing
    res = lz_solve(8.0, 8001)
    assert res.min_step == pytest.approx(1.0 / 8000, rel=1e-9)


def test_single_step_is_its_own_min_step():
    res = _rk45.integrate(zero_rhs, np.array([1.0 + 0j]), [0.0, 5e-7])
    assert res.steps == 1
    assert res.min_step == pytest.approx(5e-7, rel=1e-12)
    assert res.s_at_min_step == 0.0


def test_rejected_steps_counted():
    # a kink at s = 0.5 after a flat stretch: the controller has grown
    # the step and must throw some away to get past it
    def rhs(s, y):
        return np.array([0.0 if s < 0.5 else 40.0 * (s - 0.5) ** 0.5],
                        dtype=complex) * np.ones_like(y)

    res = _rk45.integrate(rhs, np.array([1.0 + 0j]), [0.0, 1.0])
    assert res.rejected > 0
    assert res.steps > res.rejected
    assert res.rhs_evals == 6 * res.steps + 2
    assert abs(res.y[-1, 0] - (1.0 + 40.0 / 1.5 * 0.5 ** 1.5)) < 1e-6


def test_master_trajectory_carries_rejected():
    # a qubit's master equation takes the Magnus engine: each of the 200
    # intervals is one coarse step and two fine ones, none refined, at two
    # generator evaluations per step
    spec = bundled_spec("dephasing_qubit")
    rho0 = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]])
    traj = integrate_master(spec, 10.0, rho0)
    assert (traj.steps, traj.rhs_evals, traj.rejected) == (400, 1200, 0)
    assert 0 <= traj.rejected < traj.steps
    assert 0.0 < traj.min_step <= 1.0
    assert 0.0 <= traj.s_at_min_step <= 1.0


# ------------------------------------------------------------ the guards

def test_nan_step_raises():
    def rhs(s, y):
        return np.full_like(y, np.nan)

    with pytest.raises(StiffnessError) as info:
        _rk45.integrate(rhs, np.array([1.0 + 0j]), [0.0, 1.0])
    assert info.value.details["s"] == 0.0


def test_tolerances_below_float_range_raise():
    def rhs(s, y):
        return -1j * y

    with pytest.raises(StiffnessError):
        _rk45.integrate(rhs, np.array([1.0 + 0j]), [0.0, 1.0],
                        rtol=1e-300, atol=1e-300)


def test_step_budget_raises_with_position(monkeypatch):
    def rhs(s, y):
        return -1j * 1e4 * y

    monkeypatch.setattr(_rk45, "MAX_STEPS", 50)
    with pytest.raises(StiffnessError) as info:
        _rk45.integrate(rhs, np.array([1.0 + 0j]), [0.0, 0.5, 1.0])
    assert info.value.details["steps"] == 50
    assert 0.0 < info.value.details["s"] < 1.0


def test_default_budget_far_above_largest_solve():
    assert _magnus.MAX_STEPS >= 50 * 12000


# ------------------------------------------------------ open command work

# (steps, generator evaluations, refined intervals) of the master solves of
# `check` on the generated open4 scenario of seed 3, per T value: the
# engine's plan is deterministic, so the counts are exact.  The Runge-Kutta
# stepper took 4662 right-hand side evaluations over the three solves; the
# Taylor path controlled one interval at a time took 2682, with (160, 720,
# 40) at T = 5 and (494, 1722, 40) at T = 20.
OPEN4_CHECK_COUNTS = {2.0: (80, 240, 0), 5.0: (80, 240, 0),
                      20.0: (240, 960, 40)}
# the same for `evolve` on the generated open8 scenario of seed 7 (n = 64,
# 101 points, T = 10); one interval at a time it took (400, 1800, 100)
OPEN8_EVOLVE_COUNTS = (200, 600, 0)


def count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_dephasing_jordan_is_one_stacked_pass(monkeypatch, tmp_path):
    """One L(s) assembly and one eig for the whole track, and no Schur form
    for the semisimple eigenvalue-0 cluster."""
    counts = Counter()
    count_calls(monkeypatch, SuperAssembler, "matrix", counts)
    count_calls(monkeypatch, np.linalg, "eig", counts)
    count_calls(monkeypatch, nk, "_cluster_chains", counts)
    count_calls(monkeypatch, nk, "_cluster_subspace", counts)
    assert cli.main(["jordan", str(SCENARIO_DIR / "dephasing_qubit.json"),
                     "--out", str(tmp_path / "jordan.json")]) == 0
    assert counts == {"matrix": 1, "eig": 1}


def embedded_lz_scenario(tmp_path):
    """Landau-Zener, sigma_z linear(-1, 1) + 0.25 sigma_x, as an open
    scenario without jump terms on 201 points."""
    real = lambda M: [[[float(x), 0.0] for x in row] for row in M]
    doc = {"schema": 1, "kind": "open", "dimension": 2,
           "hamiltonian_terms": [
               {"matrix": real([[1, 0], [0, -1]]),
                "envelope": {"kind": "linear", "start": -1.0, "end": 1.0}},
               {"matrix": real([[0, 1], [1, 0]]),
                "envelope": {"kind": "constant", "value": 0.25}}],
           "initial_state": [[[0.6, 0.0], [0.25, 0.1]],
                             [[0.25, -0.1], [0.4, 0.0]]],
           "total_time": 10.0, "T_grid": [1.0, 10.0], "grid_points": 201,
           "output": {"format": "json"}}
    path = tmp_path / "embedded_lz.json"
    path.write_text(json.dumps(doc))
    return path


def test_jump_free_jordan_is_one_stacked_pass(monkeypatch, tmp_path):
    """The unitary embedding of a 201-point jump-free track: one eigh of
    H and one L(s) assembly for the residuals, for the whole grid."""
    path = embedded_lz_scenario(tmp_path)
    counts = Counter()
    count_calls(monkeypatch, SuperAssembler, "matrix", counts)
    count_calls(monkeypatch, np.linalg, "eigh", counts)
    assert cli.main(["jordan", str(path),
                     "--out", str(tmp_path / "jordan.json")]) == 0
    assert counts == {"matrix": 1, "eigh": 1}


@pytest.mark.parametrize("verb", ["jordan", "check", "sweep"])
@pytest.mark.parametrize("name", ["qubit_driven_7", "embedded_lz"])
def test_open_commands_build_no_jordan_form(monkeypatch, tmp_path, verb,
                                            name):
    """The Jordan track stays in arrays from the decomposition to the
    report: a successful command builds no per-point ``JordanForm``."""
    if name == "embedded_lz":
        path = embedded_lz_scenario(tmp_path)
    else:
        path = tmp_path / "qubit_driven_7.json"
        path.write_text(json.dumps(generated("qubit_driven", 7)))
    argv = [verb, str(path), "--out", str(tmp_path / "out")]
    if verb == "sweep":
        argv += ["--T-min", "1", "--T-max", "100", "--points", "3"]
    counts = Counter()
    count_calls(monkeypatch, nk.JordanForm, "__post_init__", counts)
    assert cli.main(argv) == 0
    assert counts == {}


# Envelope.value and .derivative calls of `check` on the Landau-Zener
# scenario: one per term for the stacked H of the track and one for its
# stacked dH/ds, which the condition ratio and the time estimate share
# (the constant term adds nothing to it), at any grid size; the count may
# only go down
LZ_CHECK_ENVELOPE_EVALS = 3


# closed.eval_generator_derivative calls per closed command: the track
# samples dH/ds once, and every coupling and frame derivative reads it.
# Differencing the frames instead, `check` took 2, a five-row sweep 5,
# `wu` and `consistency` none, and the coefficient flow 1.
CLOSED_DERIVATIVE_CALLS = {"check": 1, "sweep": 1, "wu": 1, "consistency": 1,
                           "coefficient_dynamics": 1}


@pytest.mark.parametrize("job", list(CLOSED_DERIVATIVE_CALLS))
def test_closed_commands_sample_dH_once(monkeypatch, tmp_path, job):
    lz = str(SCENARIO_DIR / "landau_zener.json")
    argv = {"check": ["check", lz, "--T", "100"],
            "sweep": ["sweep", lz, "--T-min", "4", "--T-max", "64",
                      "--points", "5"],
            "wu": ["wu", lz, "--T", "20", "--order", "3", "--grid", "1001"],
            "consistency": ["consistency",
                            str(SCENARIO_DIR / "rotating_field.json")]}
    counts = Counter()
    count_calls(monkeypatch, closed, "eval_generator_derivative", counts)
    if job == "coefficient_dynamics":
        closed.coefficient_dynamics(bundled_spec("landau_zener"), 40.0,
                                    [1.0, 0.0], np.linspace(0.0, 1.0, 401))
    else:
        assert cli.main(argv[job] + ["--out", str(tmp_path / "out")]) == 0
    assert counts == {"eval_generator_derivative":
                      CLOSED_DERIVATIVE_CALLS[job]}
    # the open time bracket keeps the one finite-difference rule
    assert not hasattr(closed, "_grid_derivative")
    assert callable(osys._grid_derivative)


def test_lz_spectrum_is_one_stacked_eigh(monkeypatch, tmp_path):
    counts = Counter()
    count_calls(monkeypatch, np.linalg, "eigh", counts)
    assert cli.main(["spectrum", str(SCENARIO_DIR / "landau_zener.json"),
                     "--out", str(tmp_path / "spectrum.csv")]) == 0
    assert counts == {"eigh": 1}


def closed_solve(job, spec, tmp_path):
    """One closed solve of the Magnus engine: a state, a coefficient flow,
    the exact propagator on a track, or a sweep row of a scenario
    (``spec`` then names a bundled one or is the path of one)."""
    grid = np.linspace(0.0, 1.0, 201)
    if job == "sweep":
        path = spec if isinstance(spec, pathlib.Path) else (
            SCENARIO_DIR / f"{spec}.json")
        assert cli.main(["sweep", str(path),
                         "--T-min", "4", "--T-max", "64", "--points", "2",
                         "--jobs", "1", "--out", str(tmp_path / "s.csv")]) == 0
        return
    track = track_spectrum(spec, grid)
    if job == "integrate_schrodinger":
        closed.integrate_schrodinger(spec, 40.0, track.vectors[0, :, 0], grid)
    elif job == "coefficient_dynamics":
        a0 = np.zeros(spec.dimension)
        a0[0] = 1.0
        closed.coefficient_dynamics(spec, 40.0, a0, grid)
    else:
        closed._track_propagator(spec, 40.0, track)


def magnus_work(monkeypatch, run):
    """The ``np.linalg.eigh`` calls made from ``_magnus`` and the calls of
    its two-level closed form and its Taylor kernel for more levels while
    ``run()`` runs."""
    counts = Counter()
    original = np.linalg.eigh

    def eigh(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == _magnus.__name__:
            counts["eigh"] += 1
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", eigh)
        count_calls(patch, _magnus, "_two_level", counts)
        count_calls(patch, _magnus, "_taylor", counts)
        run()
    return counts


CLOSED_JOBS = ["integrate_schrodinger", "coefficient_dynamics",
               "_track_propagator", "sweep"]


@pytest.mark.parametrize("job", CLOSED_JOBS)
def test_two_level_solves_take_no_eigh(monkeypatch, tmp_path, job):
    for name in ("landau_zener", "rotating_field"):
        spec = name if job == "sweep" else bundled_spec(name)
        counts = magnus_work(monkeypatch,
                             lambda: closed_solve(job, spec, tmp_path))
        assert counts["eigh"] == 0
        assert counts["_two_level"] > 0
        assert counts["_taylor"] == 0


@pytest.mark.parametrize("job", CLOSED_JOBS)
def test_larger_closed_solves_take_no_eigh(monkeypatch, tmp_path, job):
    # closed4 (n = 4): the real Taylor kernel, never LAPACK
    doc = generated("closed4", 3)
    if job == "sweep":
        spec = tmp_path / "closed4.json"
        spec.write_text(json.dumps(doc))
    else:
        spec = parse_scenario(doc).spec
    counts = magnus_work(monkeypatch,
                         lambda: closed_solve(job, spec, tmp_path))
    assert counts["eigh"] == 0
    assert counts["_taylor"] > 0
    assert counts["_two_level"] == 0


def test_lz_check_envelope_evaluations_do_not_grow_with_grid(monkeypatch,
                                                             tmp_path):
    totals = []
    for grid in ("201", "4001"):
        counts = Counter()
        with monkeypatch.context() as patch:
            count_calls(patch, Envelope, "value", counts)
            count_calls(patch, Envelope, "derivative", counts)
            assert cli.main(["check", str(SCENARIO_DIR / "landau_zener.json"),
                             "--grid", grid,
                             "--out", str(tmp_path / "check.json")]) == 0
        totals.append(counts["value"] + counts["derivative"])
    assert totals[0] == totals[1] <= LZ_CHECK_ENVELOPE_EVALS


def master_counts(monkeypatch, tmp_path, doc, argv):
    """(steps, generator evaluations, refined intervals) per T of the
    master solves of the command ``argv`` on the scenario ``doc``."""
    counts = {}
    original = cli.integrate_master

    def counted(spec, T, *args, **kwargs):
        traj = original(spec, T, *args, **kwargs)
        counts[T] = (traj.steps, traj.rhs_evals, traj.rejected)
        return traj

    monkeypatch.setattr(cli, "integrate_master", counted)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    return counts


def test_open4_check_master_rhs_evaluations(monkeypatch, tmp_path):
    counts = master_counts(monkeypatch, tmp_path, generated("open4", 3),
                           ["check", "--out", str(tmp_path / "check.json")])
    assert counts == OPEN4_CHECK_COUNTS


def test_open8_evolve_master_counts(monkeypatch, tmp_path):
    doc = generated("open8", 7)
    counts = master_counts(monkeypatch, tmp_path, doc,
                           ["evolve", "--format", "csv",
                            "--out", str(tmp_path / "evolve.csv")])
    assert counts == {doc["total_time"]: OPEN8_EVOLVE_COUNTS}


# the master solves of `check` and of `sweep` on the generated qubits of
# seed 7, by T: each takes (steps, generator evaluations, refined
# intervals) = QUBIT_SOLVE_COUNTS, as with the Pade exponential
QUBIT_COMMANDS = {"check": ["check"],
                  "sweep": ["sweep", "--T-min", "1", "--T-max", "100",
                            "--points", "5"]}
QUBIT_SOLVES = {("qubit_static", "check"): [1.0, 5.0, 10.0, 50.0],
                ("qubit_driven", "check"): [1.0, 5.0, 10.0, 50.0, 100.0],
                ("qubit_static", "sweep"): np.geomspace(1.0, 100.0, 5).tolist(),
                ("qubit_driven", "sweep"): np.geomspace(1.0, 100.0, 5).tolist()}
QUBIT_SOLVE_COUNTS = (400, 1200, 0)


@pytest.mark.parametrize("family, command", sorted(QUBIT_SOLVES))
def test_qubit_master_solves_take_the_assembly(monkeypatch, tmp_path, family,
                                               command):
    # Omega from the term assembly, once per solve, and its exponential
    # from the Taylor kernel: no generator at the nodes, no LAPACK solve
    calls = Counter()
    count_calls(monkeypatch, np.linalg, "solve", calls)
    count_calls(monkeypatch, _magnus, "_node_omegas", calls)
    count_calls(monkeypatch, _magnus, "_assembly", calls)
    counts = master_counts(monkeypatch, tmp_path, generated(family, 7),
                           QUBIT_COMMANDS[command]
                           + ["--out", str(tmp_path / "out")])
    assert counts == dict.fromkeys(QUBIT_SOLVES[family, command],
                                   QUBIT_SOLVE_COUNTS)
    assert calls == {"_assembly": len(counts)}


# `check` on the generated open4 scenario of seed 3 (16 singleton blocks,
# 240 ordered block pairs, three T values): the time condition takes one
# grid derivative and one cumulative trapezoid per T for all pairs at
# once, and the Jordan track one trapezoid for its eigenvalue integrals.
# Per-pair brackets made 720 derivatives and 721 trapezoids.
OPEN4_CHECK_DERIVATIVES = 3
OPEN4_CHECK_TRAPEZOIDS = 4


def test_open4_check_time_condition_is_one_pass_per_T(monkeypatch, tmp_path):
    counts = Counter()
    count_calls(monkeypatch, osys, "_grid_derivative", counts)
    count_calls(monkeypatch, osys, "cumulative_trapezoid", counts)
    path = tmp_path / "open4.json"
    doc = generated("open4", 3)
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path),
                     "--out", str(tmp_path / "check.json")]) == 0
    assert len(doc["T_grid"]) == 3
    assert counts["_grid_derivative"] <= OPEN4_CHECK_DERIVATIVES
    assert counts["cumulative_trapezoid"] <= OPEN4_CHECK_TRAPEZOIDS
