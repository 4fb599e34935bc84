"""The vectorised open-system path against the slow forms it replaced.

* ``jordan_decompose`` takes singleton clusters from one ``eig`` call and
  semisimple clusters from their ``eig`` vectors, in a canonical basis;
  the sorted-Schur cluster routine it keeps for defective clusters is the
  oracle.
* The coupling tensor S^-1 dL/ds S is checked slice by slice against the
  per-pair, per-point products it replaced.
* Coefficient projection, reconstruction, block stitching, the collision
  scan and the clustering routine are checked against loop forms.
* The open commands build each T-independent object once: counted by
  wrapping the functions the command line calls.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from adiakit import _jordan_stitch, cli
from adiakit import numkit as nk
from adiakit import open_system as osys
from adiakit.errors import ConditioningError, NumericalError

from test_jordan import planted

ROOT = Path(__file__).resolve().parents[1]
DEPHASING = ROOT / "scripts" / "scenarios" / "dephasing_qubit.json"


def schur_path(M, cluster_tol=1e-7, rank_tol=1e-9):
    """The decomposition with every cluster, singletons included, taken
    through the sorted-Schur cluster routine."""
    A = np.asarray(M, dtype=complex)
    eigs = np.linalg.eigvals(A)
    labels = np.array(nk._cluster_labels(eigs, cluster_tol))
    entries = []
    for k in range(labels.max() + 1):
        entries += nk._cluster_chains(A, eigs, np.flatnonzero(labels == k),
                                      rank_tol)
    columns = [x[None] for x in nk._chain_columns(entries)]
    lam, size, S, Si, residual, errors = nk._assemble_stack(
        A[None], *columns, cond_cap=math.inf, errors=[None])
    assert errors == [None]
    # the blocks first, then zero sizes up to the dimension
    nb = len(entries)
    assert size[0].sum() == A.shape[0] and np.all(size[0, nb:] == 0)
    return nk.JordanForm(nk._block_pairs(lam[0], size[0]), S[0], Si[0],
                         float(residual[0]))


def assert_same_form(fast, slow, eig_rel=1e-12, vec_tol=1e-10):
    assert fast.sizes == slow.sizes
    scale = max(1.0, float(np.max(np.abs(slow.eigenvalues))))
    assert np.max(np.abs(fast.eigenvalues - slow.eigenvalues)) \
        <= eig_rel * scale
    assert np.max(np.abs(fast.similarity - slow.similarity)) <= vec_tol


def singleton_matrix(rng, n):
    """Random diagonalisable matrix with a well separated spectrum."""
    lams = rng.normal(size=n) + 1j * rng.normal(size=n)
    while np.min(np.abs(lams[:, None] - lams[None, :])
                 + np.eye(n)) < 0.05:
        lams = rng.normal(size=n) + 1j * rng.normal(size=n)
    # eigenvector matrix of condition number 4
    Qa, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    Qb, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    V = Qa @ np.diag(np.linspace(1.0, 4.0, n)) @ Qb
    return V @ np.diag(lams) @ np.linalg.inv(V)


class TestSingletonFastPath:
    def test_agrees_with_schur_path_on_singleton_spectra(self):
        rng = np.random.default_rng(2024)
        for n in range(4, 17):
            for _ in range(3):
                M = singleton_matrix(rng, n)
                fast = nk.jordan_decompose(M)
                slow = schur_path(M)
                assert fast.sizes == (1,) * n
                assert_same_form(fast, slow)
                assert fast.residual < 1e-12 and slow.residual < 1e-12

    def test_agrees_with_schur_path_on_planted_ensemble(self):
        """The ensemble of ``test_jordan``: defective clusters go through
        the same Schur routine, singletons through ``eig``."""
        rng = np.random.default_rng(42)
        lam_pool = [1.0, 0.5 + 0.4j, -0.2, -0.9 - 0.3j]
        for _ in range(25):
            dim_target = int(rng.integers(2, 8))
            blocks, total = [], 0
            while total < dim_target:
                size = int(min(rng.integers(1, 4), dim_target - total))
                blocks.append((lam_pool[rng.integers(0, 4)], size))
                total += size
            cond = float(np.exp(rng.uniform(np.log(2.0), np.log(60.0))))
            M = planted(blocks, cond, rng)
            fast = nk.jordan_decompose(M, cluster_tol=5e-4, rank_tol=1e-7)
            slow = schur_path(M, cluster_tol=5e-4, rank_tol=1e-7)
            assert_same_form(fast, slow)
            assert fast.residual < 1e-8

    def test_generated_open4_supermatrices(self):
        spec = cli.parse_scenario(generated("open4", 3)).spec
        asm = osys.SuperAssembler(spec)
        for s in (0.0, 0.35, 1.0):
            L = asm.matrix(s)
            fast, slow = nk.jordan_decompose(L), schur_path(L)
            assert fast.sizes == (1,) * 16
            assert_same_form(fast, slow)
            assert fast.residual < 1e-12

    def test_ill_conditioned_singletons_raise_with_result(self):
        M = np.array([[0.5, 1e13], [0.0, 0.5 + 1e-3]])
        with pytest.raises(ConditioningError) as exc:
            nk.jordan_decompose(M)
        assert exc.value.result.sizes == (1, 1)
        assert exc.value.details["condition"] > 1e12

    def test_overlapping_cluster_raises(self):
        # a chain of eigenvalues 0.99 apart closes into one cluster at
        # tol = 1 whose spread (1.98) exceeds the distance (1.5) from its
        # centre to an eigenvalue outside it
        M = np.diag([0.0, 0.99, 1.98, 2.97, 3.96, 1.98 + 1.5j])
        with pytest.raises(NumericalError, match="overlap"):
            nk.jordan_decompose(M, cluster_tol=1.0)


class TestSemisimpleClusters:
    def test_canonical_basis_depends_on_the_span_only(self):
        rng = np.random.default_rng(7)
        for n, m in ((4, 2), (6, 3), (9, 4)):
            Q, _ = np.linalg.qr(rng.normal(size=(n, m))
                                + 1j * rng.normal(size=(n, m)))
            U, _ = np.linalg.qr(rng.normal(size=(m, m))
                                + 1j * rng.normal(size=(m, m)))
            B = nk._canonical_basis(np.array([Q, Q @ U]))
            assert np.max(np.abs(B[0] - B[1])) < 1e-12
            assert np.max(np.abs(B[0].conj().T @ B[0] - np.eye(m))) < 1e-12
            assert np.max(np.abs(B[0] - Q @ (Q.conj().T @ B[0]))) < 1e-12

    @pytest.mark.parametrize("blocks, schur_calls", [
        ([(0.5, 1), (0.5, 1), (0.5, 1), (-0.3, 1)], 0),
        ([(0.5, 2), (0.5, 1), (-0.3, 1)], 1),
    ], ids=["semisimple", "defective"])
    def test_only_defective_clusters_take_schur(self, monkeypatch, blocks,
                                                schur_calls):
        M = planted(blocks, 10.0, np.random.default_rng(3))
        want = schur_path(M, cluster_tol=5e-4, rank_tol=1e-7)
        calls = count_calls(monkeypatch, nk, "_cluster_chains")
        got = nk.jordan_decompose(M, cluster_tol=5e-4, rank_tol=1e-7)
        assert len(calls) == schur_calls
        assert_same_form(got, want)


class TestClusterLabels:
    @staticmethod
    def pairwise_labels(values, tol):
        """Transitive closure by repeated merging, labels by first
        occurrence."""
        groups = [{i} for i in range(len(values))]
        merged = True
        while merged:
            merged = False
            for x in range(len(groups)):
                for y in range(x + 1, len(groups)):
                    if any(abs(values[i] - values[j]) <= tol
                           for i in groups[x] for j in groups[y]):
                        groups[x] |= groups.pop(y)
                        merged = True
                        break
                if merged:
                    break
        owner = {i: min(g) for g in groups for i in g}
        firsts = sorted(set(owner.values()))
        return tuple(firsts.index(owner[i]) for i in range(len(values)))

    def test_matches_pairwise_closure(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            values = rng.integers(0, 6, n) * 0.1 + 1j * rng.integers(0, 3, n)
            values = values + 1e-9 * rng.normal(size=n)
            assert nk._cluster_labels(values, 0.15) == \
                self.pairwise_labels(list(values), 0.15)

    def test_first_occurrence_order(self):
        assert nk._cluster_labels([5.0, 1.0, 5.0 + 1e-9, 1.0, 3.0],
                                  1e-6) == (0, 1, 0, 1, 2)
        assert nk._cluster_labels([], 1.0) == ()


def planted_stack(rng, N, n, tol):
    """N rows of n complex values.  Each row follows one of a few cluster
    plans, which copy some entries, within ``tol``, from others, so many
    rows share a closeness pattern."""
    values = rng.normal(size=(N, n)) + 1j * rng.normal(size=(N, n))
    plans = [[(k, rng.integers(n)) for k in range(n) if rng.random() < 0.4]
             for _ in range(6)]
    for i, plan in enumerate(rng.integers(len(plans), size=N)):
        for k, src in plans[plan]:
            values[i, k] = values[i, src] + 0.1 * tol
    return values


class TestStackLabels:
    @staticmethod
    def unique_rows(values, tol):
        """The dedupe the packed-byte one replaced: np.unique over the
        closeness rows, then the labels of each pattern's first row."""
        close = np.abs(values[:, :, None] - values[:, None, :]) <= tol
        _, rows, which = np.unique(close.reshape(len(values), -1), axis=0,
                                   return_index=True, return_inverse=True)
        return ([nk._cluster_labels(values[i], tol) for i in rows],
                which.reshape(len(values)))

    @pytest.mark.parametrize("n", [1, 3, 4, 16])
    def test_matches_unique_rows(self, n):
        rng = np.random.default_rng(n)
        tol = 1e-3
        for N in (1, 2, 37, 300):
            values = planted_stack(rng, N, n, tol)
            patterns, which = nk._stack_labels(values, tol)
            want, want_which = self.unique_rows(values, tol)
            assert patterns == want
            assert np.array_equal(which, want_which)

    def test_identical_rows_share_one_pattern(self):
        row = planted_stack(np.random.default_rng(2), 1, 16, 1e-3)
        values = np.repeat(row, 50, axis=0)
        patterns, which = nk._stack_labels(values, 1e-3)
        assert patterns == self.unique_rows(values, 1e-3)[0]
        assert len(patterns) == 1 and not which.any()

    def test_one_row(self):
        values = np.array([[1.0, 1.0 + 1e-9, 2.0]])
        patterns, which = nk._stack_labels(values, 1e-6)
        assert patterns == [(0, 0, 1)]
        assert which.tolist() == [0]


def generated(family, seed):
    """A document from the benchmark's seeded scenario generator."""
    path = ROOT / "perfbench" / "gen.py"
    if not path.exists():
        pytest.skip("the scenario generator is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.generate(family, seed)


def pair_elements(jtrack, dLs, a, b):
    """B[i][r, c] = (left chain r of block a) dL/ds (right chain c of b)."""
    out = []
    at = jtrack.offsets
    for i in range(jtrack.grid.size):
        out.append(jtrack.similarity_inv[i][at[a]:at[a + 1], :] @ dLs[i]
                   @ jtrack.similarity[i][:, at[b]:at[b + 1]])
    return np.array(out)


@pytest.fixture(scope="module", params=["dephasing", "open4"])
def open_case(request):
    if request.param == "dephasing":
        sc = cli.parse_scenario(json.loads(DEPHASING.read_text()))
    else:
        sc = cli.parse_scenario(generated("open4", 3))
    track = osys.jordan_track(sc.spec, sc.grid())
    return sc, track


class TestBlockAlgebra:
    def test_coupling_tensor_matches_pair_products(self, open_case):
        sc, track = open_case
        asm = osys.SuperAssembler(sc.spec)
        dLs = [asm.derivative(s) for s in track.grid]
        C = osys.coupling_tensor(track, sc.spec)
        assert C.shape == (track.grid.size, track.dim, track.dim)
        scale = float(np.max(np.abs(C)))
        at = track.offsets
        for a in range(track.nblocks):
            for b in range(track.nblocks):
                want = pair_elements(track, dLs, a, b)
                got = C[:, at[a]:at[a + 1], at[b]:at[b + 1]]
                assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_stacks_and_offsets_decompose_the_generator(self, open_case):
        """Block b spans the columns its size gives it, and at every point
        the aligned stacks still take L(s) to the Jordan matrix of the
        aligned curves, within the residual of that point's
        decomposition."""
        sc, track = open_case
        for b in range(track.nblocks):
            start = sum(track.sizes[:b])
            assert track.offsets[b:b + 2] == (start, start + track.sizes[b])
        assert track.offsets[-1] == track.dim
        assert track.residuals.shape == track.grid.shape
        assert track.residual_max == float(np.max(track.residuals))
        L = osys.SuperAssembler(sc.spec).matrix(track.grid)
        for i in range(track.grid.size):
            J = nk.jordan_matrix_from_blocks(
                list(zip(track.lambdas[i], track.sizes)))
            S, Si = track.similarity[i], track.similarity_inv[i]
            assert np.max(np.abs(Si @ L[i] @ S - J)) \
                <= track.residuals[i] + 1e-13

    def test_expansion_and_reconstruction_match_loops(self, open_case):
        sc, track = open_case
        T = 5.0
        traj = osys.integrate_master(sc.spec, T, sc.initial_state,
                                     track.grid)
        co = osys.expand_jordan_coefficients(traj, track, T)
        scale = float(np.max(np.abs(traj.states)))
        for b in range(track.nblocks):
            for j in range(track.sizes[b]):
                loop = np.array([Si[track.offsets[b] + j] @ traj.states[i]
                                 for i, Si in enumerate(
                                     track.similarity_inv)])
                assert np.max(np.abs(co.raw[(b, j)] - loop)) \
                    <= 1e-13 * scale
        rebuilt = np.zeros_like(traj.states)
        for (b, j), proj in co.raw.items():
            for i, S in enumerate(track.similarity):
                rebuilt[i] += proj[i] * S[:, track.offsets[b] + j]
        assert np.max(np.abs(co.reconstruct() - rebuilt)) <= 1e-13 * scale
        assert np.max(np.abs(co.reconstruct() - traj.states)) < 1e-10

    def test_explicit_couplings_change_nothing(self, open_case):
        sc, track = open_case
        C = osys.coupling_tensor(track, sc.spec)
        traj = osys.integrate_master(sc.spec, 5.0, sc.initial_state,
                                     track.grid)
        co = osys.expand_jordan_coefficients(traj, track, 5.0)
        assert osys.open_condition_metric(track, sc.spec, couplings=C) \
            == osys.open_condition_metric(track, sc.spec)
        assert osys.open_time_condition(track, sc.spec, co, (5.0,),
                                        couplings=C) \
            == osys.open_time_condition(track, sc.spec, co, (5.0,))
        assert osys.classify_regime(track, co, sc.spec, couplings=C) \
            == osys.classify_regime(track, co, sc.spec)


def segment_scan(lambdas, pairs, tol):
    """The per-pair, per-interval closest-approach loop."""
    for p, (a, b) in enumerate(pairs):
        for i in range(lambdas.shape[0] - 1):
            fa, fb = lambdas[i, a], lambdas[i, b]
            ga, gb = lambdas[i + 1, a], lambdas[i + 1, b]
            f0, df = fa - fb, (ga - gb) - (fa - fb)
            denom = abs(df) ** 2
            t = 0.0 if denom == 0.0 else min(
                1.0, max(0.0, -(f0 * df.conjugate()).real / denom))
            dist = abs(f0 + t * df)
            if dist < tol:
                return p, i, t, dist
    return None


class TestStitching:
    def test_collision_scan_matches_segment_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n, npts = int(rng.integers(2, 6)), int(rng.integers(2, 9))
            lambdas = rng.normal(size=(npts, n)) + 1j * rng.normal(
                size=(npts, n))
            lambdas[:, 0] = lambdas[:, -1]      # an exact meeting
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.uniform() < 0.8]
            tol = float(rng.uniform(0.05, 0.8))
            got = osys._first_collision(lambdas, pairs, tol)
            want = segment_scan(lambdas, pairs, tol)
            assert (got is None) == (want is None)
            if want is not None:
                # same pair and interval; t and the distance agree to
                # rounding (numpy and Python complex arithmetic may round
                # differently in the last bit)
                assert got[:2] == want[:2]
                assert got[2:] == pytest.approx(want[2:], rel=1e-12,
                                                abs=1e-15)

    def test_alignment_matches_loop_form(self, open_case):
        sc, track = open_case
        asm = osys.SuperAssembler(sc.spec)
        rng = np.random.default_rng(3)
        for i in range(1, track.grid.size, 7):
            prev = nk.JordanForm(
                tuple(zip(track.lambdas[i - 1].tolist(), track.sizes)),
                track.similarity[i - 1], track.similarity_inv[i - 1],
                float(track.residuals[i - 1]))
            jf = nk.jordan_decompose(asm.matrix(track.grid[i]))
            jf = permuted(jf, rng.permutation(len(jf.blocks)))
            got, want = align(prev, jf), align_loop(prev, jf)
            assert got.blocks == want.blocks
            assert np.max(np.abs(got.similarity - want.similarity)) < 1e-14
            assert np.max(np.abs(got.similarity_inv
                                 - want.similarity_inv)) < 1e-12


    def test_alignment_removes_the_overlap_phase(self):
        """Chains rephased by planted phases, then shuffled, come back from
        the stitch with every leading-vector overlap real and positive: the
        transport removes the overlap phase instead of doubling it."""
        rng = np.random.default_rng(12)
        for blocks in ([(0.0, 1), (-1.0, 1), (-0.5 + 1j, 1), (-0.5 - 1j, 1)],
                       [(0.0, 1), (-1.0, 2), (-2.0 + 1j, 1)]):
            prev = nk.jordan_decompose(planted(blocks, 5.0, rng))
            phases = np.exp(1j * np.linspace(0.3, 2.8, len(prev.blocks)))
            colphase = np.repeat(phases, prev.sizes)
            rephased = nk.JordanForm(prev.blocks, prev.similarity * colphase,
                                     prev.similarity_inv / colphase[:, None],
                                     prev.residual)
            got = align(prev, permuted(
                rephased, rng.permutation(len(prev.blocks))))
            z = np.einsum("ij,ij->j",
                          prev.similarity[:, prev.offsets[:-1]].conj(),
                          got.similarity[:, got.offsets[:-1]])
            assert np.max(np.abs(z.imag)) < 1e-12
            assert np.all(z.real > 0)


def permuted(jf, order):
    cols = np.concatenate([np.arange(jf.offsets[b], jf.offsets[b + 1])
                           for b in order])
    return nk.JordanForm(tuple(jf.blocks[b] for b in order),
                         jf.similarity[:, cols], jf.similarity_inv[cols, :],
                         jf.residual)


def align(prev, jf):
    """``jf`` aligned to ``prev`` by the stitch of the two points, on copies
    of their arrays."""
    S = np.array([prev.similarity, jf.similarity])
    Si = np.array([prev.similarity_inv, jf.similarity_inv])
    orders, _, error = _jordan_stitch._stitch(
        np.array([0.0, 1.0]), np.array([prev.eigenvalues, jf.eigenvalues]),
        np.array([prev.sizes, jf.sizes]), S, Si)
    assert error is None
    return nk.JordanForm(tuple(jf.blocks[b] for b in orders[1]), S[1], Si[1],
                         jf.residual)


def align_loop(prev, jf):
    """Block matching by a per-entry cost loop, then per-block rephasing;
    a semisimple cluster (size-1 blocks sharing an eigenvalue) is then
    rotated as one by the polar factor of its overlap."""
    nb = len(jf.blocks)
    cost = np.empty((nb, nb))
    for a in range(nb):
        va = prev.similarity[:, prev.offsets[a]]
        for b in range(nb):
            vb = jf.similarity[:, jf.offsets[b]]
            mismatch = 0.0 if prev.blocks[a][1] == jf.blocks[b][1] else 1e6
            cost[a, b] = (abs(prev.blocks[a][0] - jf.blocks[b][0]) + mismatch
                          + 1e-2 * (1.0 - abs(np.vdot(va, vb))))
    rows, cols = linear_sum_assignment(cost)
    jf = permuted(jf, [int(cols[np.nonzero(rows == a)[0][0]])
                       for a in range(nb)])
    S, Sinv = jf.similarity.copy(), jf.similarity_inv.copy()
    for b in range(nb):
        sl = slice(*jf.offsets[b:b + 2])
        z = np.vdot(prev.similarity[:, prev.offsets[b]],
                    S[:, sl.start])
        if abs(z) > 1e-12:
            S[:, sl] *= np.conj(z) / abs(z)
            Sinv[sl, :] /= np.conj(z) / abs(z)
    for value in {lam for lam, _ in prev.blocks}:
        members = [b for b in range(nb) if prev.blocks[b][0] == value]
        if (len(members) > 1 and all(prev.blocks[b][1] == 1 for b in members)
                and all(jf.blocks[b][0] == jf.blocks[members[0]][0]
                        for b in members)):
            c = [prev.offsets[b] for b in members]
            U, _, Vh = np.linalg.svd(prev.similarity[:, c].conj().T @ S[:, c])
            W = (U @ Vh).conj().T
            S[:, c] = S[:, c] @ W
            Sinv[c, :] = W.conj().T @ Sinv[c, :]
    return nk.JordanForm(jf.blocks, S, Sinv, jf.residual)


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestComputeOnce:
    def test_check_builds_each_object_once(self, monkeypatch, tmp_path):
        tracks = count_calls(monkeypatch, cli, "jordan_track")
        solves = count_calls(monkeypatch, cli, "integrate_master")
        derivs = count_calls(monkeypatch, osys.SuperAssembler, "derivative")
        doc = json.loads(DEPHASING.read_text())
        assert cli.main(["check", str(DEPHASING),
                         "--out", str(tmp_path / "check.json")]) == 0
        assert len(tracks) == 1
        assert len(solves) == len(doc["T_grid"])
        assert len(derivs) <= doc["grid_points"]

    @pytest.mark.parametrize("points", [2, 5])
    def test_serial_sweep_builds_one_track(self, monkeypatch, tmp_path,
                                           points):
        tracks = count_calls(monkeypatch, cli, "jordan_track")
        derivs = count_calls(monkeypatch, osys.SuperAssembler, "derivative")
        grid_points = json.loads(DEPHASING.read_text())["grid_points"]
        assert cli.main(["sweep", str(DEPHASING), "--T-min", "1",
                         "--T-max", "50", "--points", str(points),
                         "--jobs", "1",
                         "--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(tracks) == 1
        assert len(derivs) <= grid_points

