"""Supermatrix assembly, master-equation flow, and Jordan-block tracking.

The dephasing qubit anchors most numerical expectations here: its generator
is diagonal in the flattened basis, so eigenvalues, coherence decay, and
cluster structure are all known in closed form.  A transversely driven
variant supplies a generator whose eigenvectors actually rotate, and a
rescaled damped qubit supplies a defective generator whose Jordan signature
stays (2, 1, 1) along the whole schedule.
"""


import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from adiakit.errors import (ConditioningError, ConfigError, CrossingError,
                            InputError)
from adiakit.numkit import _decompose_stack, jordan_decompose
from adiakit.open_system import (
    JordanCoefficients,
    JordanTrack,
    SuperAssembler,
    build_supermatrix,
    classify_regime,
    expand_jordan_coefficients,
    integrate_master,
    jordan_track,
    unitary_embedding_jordan,
)
from adiakit.schedules import (
    SIGMA_X,
    SIGMA_Z,
    GeneratorSpec,
    constant,
    eval_generator,
    linear,
    make_model,
    polynomial,
)

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

RHO0 = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]], dtype=complex)

GRID = np.linspace(0.0, 1.0, 201)


def dephasing():
    return make_model("dephasing_qubit", omega=1.0, gamma=0.2)


def driven_dephasing():
    """Dephasing along z with a slowly growing transverse drive.

    The drive tilts the eigenvectors of L(s), so unlike the bare dephasing
    family the blocks genuinely couple as s advances.
    """
    return GeneratorSpec(
        dimension=2, kind="open",
        hamiltonian_terms=((SIGMA_Z, constant(0.5)),
                           (SIGMA_X, linear(0.05, 0.2))),
        lindblad_terms=((SIGMA_Z, constant(np.sqrt(0.1))),))


def embedded_two_level(delta=0.25):
    """The avoided-crossing model pushed through the dissipation-free path."""
    closed = make_model("landau_zener", a=1.0, delta=delta)
    return GeneratorSpec(dimension=2, kind="open",
                         hamiltonian_terms=closed.hamiltonian_terms)


def jump_free_three_level():
    """H(s) = (1 - s) H0 + s H1, H0 and H1 each (A + A^H) / 2 of a complex
    normal 3 x 3 A, scaled to spectral norm 1, and no jump terms."""
    rng = np.random.default_rng(1)
    parts = []
    for _ in range(2):
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H = 0.5 * (A + A.conj().T)
        parts.append(H / np.linalg.norm(H, 2))
    return GeneratorSpec(dimension=3, kind="open", hamiltonian_terms=(
        (parts[0], linear(1.0, 0.0)), (parts[1], linear(0.0, 1.0))))


def pointwise_embedding(spec, s):
    """The embedding as a per-point factory built it: one eigh of H(s),
    the columns kron(v_n, conj(v_k)) with eigenvalues -i (E_n - E_k),
    sorted by (-Re, -Im) of the eigenvalue, S^-1 = S^H, and the residual
    of S^-1 L(s) S against the diagonal of the eigenvalues."""
    D = spec.dimension
    energies, vecs = np.linalg.eigh(eval_generator(spec, s))
    entries = []
    for n in range(D):
        for k in range(D):
            lam = -1j * (energies[n] - energies[k])
            entries.append((lam, np.kron(vecs[:, n], vecs[:, k].conj())))
    entries.sort(key=lambda e: (-e[0].real, -e[0].imag))
    S = np.column_stack([col for _, col in entries])
    lams = np.array([lam for lam, _ in entries])
    Sinv = S.conj().T
    L = SuperAssembler(spec).matrix(s)
    return lams, S, Sinv, float(np.max(np.abs(Sinv @ L @ S - np.diag(lams))))


def same_bits(a, b):
    """Equal dtype, shape and bytes: the sign of a zero counts."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def scaled_damped_qubit():
    # L(s) = (1 + 0.2 s)^2 L(0) with L(0) tuned to a defective point:
    # one 2-chain at -0.75 (1 + 0.2 s)^2 plus two plain eigenvalues.
    return GeneratorSpec(
        dimension=2, kind="open",
        hamiltonian_terms=((0.125 * SIGMA_X,
                            polynomial(coeffs=(1.0, 0.4, 0.04))),),
        lindblad_terms=((SIGMA_MINUS, linear(1.0, 1.2)),))


def crossing_damped_qubit():
    # Drive amplitude sweeps through the defective point at s = 0.5.
    return GeneratorSpec(
        dimension=2, kind="open",
        hamiltonian_terms=((0.5 * SIGMA_X, linear(0.2, 0.3)),),
        lindblad_terms=((SIGMA_MINUS, constant(1.0)),))


def block_by_eigenvalue(track, predicate):
    hits = [b for b in range(track.nblocks)
            if predicate(complex(track.lambdas[0, b]))]
    assert len(hits) == 1
    return hits[0]


class TestBuildSupermatrix:
    def test_action_matches_commutator_form(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H = 0.5 * (A + A.conj().T)
        jumps = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                 for _ in range(2)]
        L = build_supermatrix(H, jumps)
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        direct = -1j * (H @ rho - rho @ H)
        for G in jumps:
            GG = G.conj().T @ G
            direct += G @ rho @ G.conj().T - 0.5 * (GG @ rho + rho @ GG)
        assert np.max(np.abs(L @ rho.reshape(-1)
                             - direct.reshape(-1))) < 1e-13

    def test_trace_functional_is_annihilated(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        L = build_supermatrix(0.5 * (A + A.conj().T), [G])
        assert np.max(np.abs(np.eye(4).reshape(-1) @ L)) < 1e-12

    def test_dephasing_generator_is_diagonal(self):
        L = build_supermatrix(0.5 * SIGMA_Z, [np.sqrt(0.1) * SIGMA_Z])
        expected = np.diag([0.0, -0.2 - 1.0j, -0.2 + 1.0j, 0.0])
        assert np.max(np.abs(L - expected)) < 1e-14

    def test_rejects_nonsquare_hamiltonian(self):
        with pytest.raises(InputError):
            build_supermatrix(np.ones((2, 3)))

    def test_rejects_nonhermitian_hamiltonian(self):
        with pytest.raises(InputError):
            build_supermatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_mismatched_jump_shape(self):
        with pytest.raises(InputError):
            build_supermatrix(np.eye(2), [np.eye(3)])


class TestSuperAssembler:
    def test_matrix_matches_direct_assembly(self):
        spec = driven_dephasing()
        asm = SuperAssembler(spec)
        for s in (0.0, 0.3, 1.0):
            H = sum(env.value(s) * M for M, env in spec.hamiltonian_terms)
            jumps = [env.value(s) * M for M, env in spec.lindblad_terms]
            assert np.max(np.abs(asm.matrix(s)
                                 - build_supermatrix(H, jumps))) < 1e-13

    def test_derivative_matches_finite_difference(self):
        asm = SuperAssembler(scaled_damped_qubit())
        h = 1e-6
        for s in (0.2, 0.7):
            fd = (asm.matrix(s + h) - asm.matrix(s - h)) / (2.0 * h)
            assert np.max(np.abs(asm.derivative(s) - fd)) < 1e-7

    def test_rejects_closed_spec(self):
        with pytest.raises(ConfigError):
            SuperAssembler(make_model("landau_zener", a=1.0, delta=0.25))


class TestIntegrateMaster:
    def test_dephasing_coherence_decay(self):
        traj = integrate_master(dephasing(), 5.0, RHO0,
                                np.linspace(0.0, 1.0, 101))
        rhos = traj.states.reshape(-1, 2, 2)
        expected = RHO0[0, 1] * np.exp((-0.2 - 1.0j) * traj.times)
        assert np.max(np.abs(rhos[:, 0, 1] - expected)) < 1e-8

    def test_trace_and_positivity_preserved(self):
        traj = integrate_master(dephasing(), 5.0, RHO0,
                                np.linspace(0.0, 1.0, 101))
        rhos = traj.states.reshape(-1, 2, 2)
        traces = np.trace(rhos, axis1=1, axis2=2)
        assert np.max(np.abs(traces - 1.0)) < 1e-10
        for rho in rhos:
            herm = 0.5 * (rho + rho.conj().T)
            assert np.min(np.linalg.eigvalsh(herm)) > -1e-10

    def test_populations_frozen_under_dephasing(self):
        traj = integrate_master(dephasing(), 8.0, RHO0, GRID)
        rhos = traj.states.reshape(-1, 2, 2)
        assert np.max(np.abs(rhos[:, 0, 0] - RHO0[0, 0])) < 1e-9
        assert np.max(np.abs(rhos[:, 1, 1] - RHO0[1, 1])) < 1e-9

    def test_default_grid(self):
        traj = integrate_master(dephasing(), 1.0, RHO0)
        assert traj.grid.size == 201
        assert traj.times[-1] == pytest.approx(1.0)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(InputError):
            integrate_master(dephasing(), 0.0, RHO0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InputError):
            integrate_master(dephasing(), 1.0, np.eye(3) / 3.0)

    def test_rejects_nonhermitian_state(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(InputError):
            integrate_master(dephasing(), 1.0, bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InputError):
            integrate_master(dephasing(), 1.0, 2.0 * RHO0)

    def test_rejects_negative_state(self):
        bad = np.array([[1.2, 0.0], [0.0, -0.2]])
        with pytest.raises(InputError):
            integrate_master(dephasing(), 1.0, bad)


class TestUnitaryEmbedding:
    def test_pointwise_form(self):
        spec = embedded_two_level()
        lam, size, S, Si, residual, errors = unitary_embedding_jordan(spec)(
            np.array([0.5]))
        assert errors == [None] and size.tolist() == [[1, 1, 1, 1]]
        lams = sorted(lam[0], key=lambda z: -z.imag)
        assert lams[0] == pytest.approx(0.5j, abs=1e-12)
        assert abs(lams[1]) < 1e-12 and abs(lams[2]) < 1e-12
        assert lams[3] == pytest.approx(-0.5j, abs=1e-12)
        assert residual[0] < 1e-12
        assert np.max(np.abs(S[0].conj().T @ S[0] - np.eye(4))) < 1e-12
        assert np.array_equal(Si[0], S[0].conj().T)

    @pytest.mark.parametrize("make", [embedded_two_level,
                                      jump_free_three_level],
                             ids=["two_level", "three_level"])
    def test_stacked_matches_pointwise_bit_for_bit(self, make):
        """One stacked eigh, the broadcast kron columns, the stable lexsort
        and one stacked L against the per-point factory they replaced: S,
        S^-1, the eigenvalues (signs of zeros included) and the residuals
        are the same bits at every point."""
        spec = make()
        grid = np.linspace(0.0, 1.0, 201)
        lam, size, S, Si, residual, errors = unitary_embedding_jordan(spec)(
            grid)
        assert errors == [None] * grid.size
        assert np.all(size == 1) and size.shape == lam.shape
        for i, s in enumerate(grid):
            want = pointwise_embedding(spec, s)
            assert same_bits(lam[i], want[0])
            assert same_bits(S[i], want[1])
            assert same_bits(Si[i], want[2])
            assert same_bits(residual[i], np.float64(want[3]))

    def test_track_structure(self):
        spec = embedded_two_level()
        track = jordan_track(spec, np.linspace(0.0, 1.0, 801),
                             analytic=unitary_embedding_jordan(spec))
        assert track.sizes == (1, 1, 1, 1)
        zero = [b for b in range(4)
                if abs(track.lambdas[0, b]) < 1e-12]
        assert len(zero) == 2
        assert track.clusters[zero[0]] == track.clusters[zero[1]]
        assert len(set(track.clusters)) == 3
        assert track.residual_max < 1e-12
        assert np.max(np.abs(track.lamint.real)) < 1e-12

    def test_rejects_jump_terms(self):
        with pytest.raises(ConfigError):
            unitary_embedding_jordan(dephasing())


class TestJordanTrack:
    def test_dephasing_spectrum(self):
        track = jordan_track(dephasing(), GRID)
        assert track.sizes == (1, 1, 1, 1)
        lams = sorted(track.lambdas[0], key=lambda z: (z.real, z.imag))
        assert lams[0] == pytest.approx(-0.2 - 1.0j, abs=1e-10)
        assert lams[1] == pytest.approx(-0.2 + 1.0j, abs=1e-10)
        assert abs(lams[2]) < 1e-10 and abs(lams[3]) < 1e-10
        assert track.residual_max < 1e-10

    def test_dephasing_conserved_pair_shares_cluster(self):
        track = jordan_track(dephasing(), GRID)
        zero = [b for b in range(4) if abs(track.lambdas[0, b]) < 1e-9]
        assert track.clusters[zero[0]] == track.clusters[zero[1]]
        # the oscillating pair sits in two groups of its own
        others = [track.clusters[b] for b in range(4) if b not in zero]
        assert len(set(others)) == 2
        assert track.clusters[zero[0]] not in others

    def test_driven_curves_keep_their_labels(self):
        track = jordan_track(driven_dephasing(), GRID)
        slow = block_by_eigenvalue(
            track, lambda z: abs(z.imag) < 1e-6 and -0.1 < z.real < -1e-4)
        curve = track.lambdas[:, slow]
        assert np.max(np.abs(curve.imag)) < 1e-9
        assert curve[0].real == pytest.approx(-0.0019, abs=2e-4)
        assert curve[-1].real == pytest.approx(-0.0269, abs=2e-3)
        up = block_by_eigenvalue(track, lambda z: z.imag > 0.5)
        down = block_by_eigenvalue(track, lambda z: z.imag < -0.5)
        assert np.allclose(track.lambdas[:, up],
                           track.lambdas[:, down].conj(), atol=1e-9)

    def test_phase_alignment_is_continuous(self):
        """Chain rephasing keeps consecutive leading vectors close."""
        track = jordan_track(driven_dephasing(), GRID)
        for b in range(track.nblocks):
            cols = track.similarity[:, :, track.offsets[b]]
            steps = np.linalg.norm(np.diff(cols, axis=0), axis=1)
            assert np.max(steps) < 0.05

    def test_defective_signature_is_constant(self):
        track = jordan_track(scaled_damped_qubit(), GRID,
                             cluster_tol=1e-5, rank_tol=1e-7)
        assert track.signature == (2, 1, 1)
        assert len(set(track.clusters)) == 3
        assert track.residual_max < 1e-10

    def test_block_count_change_raises(self):
        with pytest.raises(CrossingError) as exc:
            jordan_track(crossing_damped_qubit(), np.linspace(0.0, 1.0, 9),
                         cluster_tol=1e-5, rank_tol=1e-7)
        assert exc.value.details["s"] == pytest.approx(0.5, abs=1e-12)

    def test_first_failing_point_wins(self):
        """The stacked pass decomposes every point first, yet a point past
        ``cond_cap`` after a block-count change does not pre-empt it:
        failures are reported in grid order."""
        grid = [0.0, 0.25, 0.5, 0.5 + 1e-6, 1.0]
        with pytest.raises(CrossingError) as exc:
            jordan_track(crossing_damped_qubit(), grid, cluster_tol=1e-5,
                         rank_tol=1e-7, cond_cap=1e3)
        assert str(exc.value) == \
            "block count changed from 4 to 3 at s = 0.500000"
        assert exc.value.details == {"s": 0.5}

    def test_factory_failure_after_block_count_change(self):
        """An ``analytic`` factory that fails at a later point than a
        block-count change does not pre-empt the change either."""
        spec = crossing_damped_qubit()
        tols = dict(cluster_tol=1e-5, rank_tol=1e-7)

        def factory(g):
            *arrays, errors = _decompose_stack(
                SuperAssembler(spec).matrix(g), tols["cluster_tol"],
                tols["rank_tol"], 1e12)
            return (*arrays, [
                RuntimeError("no closed form past s = 0.75") if s > 0.75
                else error for s, error in zip(g, errors)])

        with pytest.raises(CrossingError) as exc:
            jordan_track(spec, np.linspace(0.0, 1.0, 9), analytic=factory,
                         **tols)
        assert str(exc.value) == \
            "block count changed from 4 to 3 at s = 0.500000"
        with pytest.raises(RuntimeError, match="past s = 0.75"):
            jordan_track(spec, [0.0, 0.25, 0.8, 1.0], analytic=factory,
                         **tols)

    def test_conditioning_error_carries_its_point(self):
        spec = crossing_damped_qubit()
        grid = np.array([0.0, 0.25, 0.5 - 1e-6, 0.75])
        tols = dict(cluster_tol=1e-5, rank_tol=1e-7, cond_cap=1e3)
        with pytest.raises(ConditioningError) as exc:
            jordan_track(spec, grid, **tols)
        with pytest.raises(ConditioningError) as alone:
            jordan_decompose(SuperAssembler(spec).matrix(grid[2]), **tols)
        assert str(exc.value) == str(alone.value)
        assert exc.value.details == alone.value.details
        got, want = exc.value.result, alone.value.result
        assert got.blocks == want.blocks and got.residual == want.residual
        assert np.array_equal(got.similarity, want.similarity)
        assert np.array_equal(got.similarity_inv, want.similarity_inv)

    def test_degenerate_cluster_aligned_by_polar_factor(self):
        """A factory that turns the two-fold eigenvalue-0 eigenspace by a
        random unitary at every point: after alignment each overlap of the
        cluster with the previous point is Hermitian positive definite,
        and the track still decomposes L(s)."""
        spec = embedded_two_level()
        exact = unitary_embedding_jordan(spec)
        rng = np.random.default_rng(5)

        def spun(g):
            lam, size, S, Si, residual, errors = exact(g)
            S, Si = S.copy(), Si.copy()
            for i in range(g.size):
                cols = np.flatnonzero(lam[i] == 0)
                U, _ = np.linalg.qr(rng.normal(size=(2, 2))
                                    + 1j * rng.normal(size=(2, 2)))
                S[i][:, cols] = S[i][:, cols] @ U
                Si[i][cols, :] = U.conj().T @ Si[i][cols, :]
            return lam, size, S, Si, residual, errors

        track = jordan_track(spec, GRID, analytic=spun)
        zero = [b for b in range(track.nblocks) if track.lambdas[0, b] == 0]
        assert len(zero) == 2
        S, Si = track.similarity, track.similarity_inv
        for i in range(1, GRID.size):
            overlap = S[i - 1][:, zero].conj().T @ S[i][:, zero]
            assert np.max(np.abs(overlap - overlap.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(overlap)) > 0.0
        J = track.lambdas[:, :, None] * np.eye(4)
        L = SuperAssembler(spec).matrix(GRID)
        assert np.max(np.abs(Si @ L @ S - J)) < 1e-12
        assert np.max(np.abs(Si @ S - np.eye(4))) < 1e-12

    def test_close_approach_raises(self):
        with pytest.raises(CrossingError) as exc:
            jordan_track(crossing_damped_qubit(), np.linspace(0.0, 1.0, 400),
                         cluster_tol=1e-5, rank_tol=1e-7,
                         collision_tol=0.02)
        assert exc.value.details["distance"] < 0.02
        assert abs(exc.value.details["s"] - 0.5) < 0.05

    def test_grouping_change_raises(self):
        spec = embedded_two_level(delta=0.0)
        with pytest.raises(CrossingError) as exc:
            jordan_track(spec, np.linspace(0.0, 1.0, 201),
                         analytic=unitary_embedding_jordan(spec))
        assert exc.value.details["s"] == pytest.approx(0.5, abs=1e-12)

    def test_gap_closure_caught_by_collision_scan(self):
        """Even when no grid point sits on the crossing, the segment scan
        sees the curves meet the conserved cluster."""
        spec = embedded_two_level(delta=0.0)
        with pytest.raises(CrossingError) as exc:
            jordan_track(spec, np.linspace(0.0, 1.0, 200),
                         analytic=unitary_embedding_jordan(spec),
                         collision_tol=0.02)
        assert abs(exc.value.details["s"] - 0.5) < 0.01

    def test_export_shape(self):
        track = jordan_track(dephasing(), np.linspace(0.0, 1.0, 11))
        out = track.export()
        assert out["signature"] == [1, 1, 1, 1]
        assert len(out["points"]) == 11
        point = out["points"][3]
        assert set(point) == {"s", "eigenvalues", "block_sizes", "residual"}
        assert len(point["eigenvalues"]) == 4


class TestExpandCoefficients:
    def test_reconstruction_closes_the_loop(self):
        spec = driven_dephasing()
        track = jordan_track(spec, GRID)
        traj = integrate_master(spec, 10.0, RHO0, GRID)
        co = expand_jordan_coefficients(traj, track, 10.0)
        assert np.max(np.abs(co.reconstruct() - traj.states)) < 1e-9

    def test_exponential_stripping_flattens_p(self):
        """Dividing out e^{T int lambda} leaves constants for dephasing."""
        spec = dephasing()
        track = jordan_track(spec, GRID)
        traj = integrate_master(spec, 8.0, RHO0, GRID)
        co = expand_jordan_coefficients(traj, track, 8.0)
        down = block_by_eigenvalue(track, lambda z: z.imag < -0.5)
        p = np.abs(co.p[(down, 0)])
        assert np.max(p) - np.min(p) < 1e-6 * np.max(p)
        raw = np.abs(co.raw[(down, 0)])
        assert raw[-1] == pytest.approx(raw[0] * np.exp(-0.2 * 8.0),
                                        rel=1e-6)

    def test_defective_chain_reconstruction(self):
        spec = scaled_damped_qubit()
        track = jordan_track(spec, GRID, cluster_tol=1e-5, rank_tol=1e-7)
        rho0 = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
        traj = integrate_master(spec, 6.0, rho0, GRID)
        co = expand_jordan_coefficients(traj, track, 6.0)
        assert np.max(np.abs(co.reconstruct() - traj.states)) < 1e-12

    def test_grid_mismatch_rejected(self):
        spec = dephasing()
        track = jordan_track(spec, GRID)
        traj = integrate_master(spec, 1.0, RHO0, np.linspace(0.0, 1.0, 51))
        with pytest.raises(InputError):
            expand_jordan_coefficients(traj, track, 1.0)


class TestClassifyRegime:
    def classify(self, spec, T, **track_kwargs):
        track = jordan_track(spec, GRID, **track_kwargs)
        traj = integrate_master(spec, T, RHO0, GRID)
        co = expand_jordan_coefficients(traj, track, T)
        return track, classify_regime(track, co, spec)

    def test_static_dephasing_labels(self):
        track, labels = self.classify(dephasing(), 10.0)
        osc = {b for b in range(4) if abs(track.lambdas[0, b].imag) > 0.5}
        zero = set(range(4)) - osc
        for pair, label in labels.items():
            if set(pair) == osc:
                assert label == "oscillatory-RL"
            else:
                assert label == "decaying"
        assert len(labels) == 5
        assert all(not set(p) <= zero for p in labels)

    def test_driven_growth_is_compensated_at_short_time(self):
        track, labels = self.classify(driven_dephasing(), 10.0)
        slow = block_by_eigenvalue(
            track, lambda z: abs(z.imag) < 1e-6 and -0.1 < z.real < -1e-4)
        osc = {b for b in range(4) if abs(track.lambdas[0, b].imag) > 0.5}
        for b in osc:
            assert labels[tuple(sorted((slow, b)))] == "compensated"

    def test_driven_growth_opens_finite_window_at_long_time(self):
        track, labels = self.classify(driven_dephasing(), 50.0)
        slow = block_by_eigenvalue(
            track, lambda z: abs(z.imag) < 1e-6 and -0.1 < z.real < -1e-4)
        osc = {b for b in range(4) if abs(track.lambdas[0, b].imag) > 0.5}
        for b in osc:
            assert labels[tuple(sorted((slow, b)))] == "finite-window"
        assert labels[tuple(sorted(osc))] == "oscillatory-RL"

    def test_scaled_family_is_uniformly_decaying(self):
        rho0 = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
        spec = scaled_damped_qubit()
        track = jordan_track(spec, GRID, cluster_tol=1e-5, rank_tol=1e-7)
        traj = integrate_master(spec, 6.0, rho0, GRID)
        co = expand_jordan_coefficients(traj, track, 6.0)
        labels = classify_regime(track, co, spec)
        assert set(labels.values()) == {"decaying"}

    def test_uncoupled_sign_flipping_gap_is_guaranteed(self):
        """A gap whose real part averages out, with no coupling at all,
        earns no decay guarantee but no danger either."""
        g = np.linspace(0.0, 1.0, 5)
        lams = np.zeros((5, 4), dtype=complex)
        lams[:, 1] = 0.3 * np.cos(2.0 * np.pi * g)
        lams[:, 2] = -0.5
        lams[:, 3] = 1.0j
        eye = np.broadcast_to(np.eye(4, dtype=complex), (5, 4, 4))
        track = JordanTrack(g, lams, (1, 1, 1, 1), (0, 1, 2, 3),
                            cumulative_trapezoid(lams, g, axis=0,
                                                 initial=0.0), np.zeros(5),
                            eye, eye)
        ones = np.ones(5, dtype=complex)
        co = JordanCoefficients(g, 10.0, {(b, 0): ones for b in range(4)},
                                {(b, 0): ones for b in range(4)}, track)
        labels = classify_regime(track, co, dephasing())
        assert labels[(0, 1)] == "guaranteed"
        assert labels[(0, 2)] == "decaying"
        assert labels[(0, 3)] == "oscillatory-RL"
