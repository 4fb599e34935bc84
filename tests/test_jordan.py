"""Numerical Jordan form: structure recovery, dual bases, failure modes.

Planted matrices are built as S J S^-1 with a controlled similarity so the
expected block structure is known exactly ahead of the computation.
"""

import numpy as np
import pytest

from adiakit import numkit as nk
from adiakit.errors import ConditioningError, NumericalError


def planted(blocks, cond_target, rng):
    """Random matrix with prescribed Jordan structure and kappa(S) ~ cond_target."""
    n = sum(size for _, size in blocks)
    J = nk.jordan_matrix_from_blocks(blocks)
    Qa, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    Qb, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    sv = np.exp(np.linspace(np.log(cond_target), 0.0, n)) if n > 1 else np.ones(1)
    S = Qa @ np.diag(sv) @ Qb
    return S @ J @ np.linalg.inv(S)


def block_multiset(blocks, merge_tol=1e-3):
    """{eigenvalue: sorted block sizes} with eigenvalues snapped within merge_tol."""
    out = {}
    for lam, size in blocks:
        key = next((k for k in out if abs(k - lam) < merge_tol), lam)
        out.setdefault(key, []).append(size)
    return {k: sorted(v) for k, v in out.items()}


def same_structure(got, want, lam_tol=1e-3):
    gm, wm = block_multiset(got), block_multiset(want)
    if len(gm) != len(wm):
        return False
    for lam, sizes in wm.items():
        match = [k for k in gm if abs(k - lam) < lam_tol]
        if len(match) != 1 or gm[match[0]] != sizes:
            return False
    return True


class TestDiagonalizable:
    def test_distinct_diagonal(self):
        jf = nk.jordan_decompose(np.diag([1.0, 2.0]))
        # descending eigenvalue order
        assert jf.blocks == ((2.0 + 0.0j, 1), (1.0 + 0.0j, 1))
        assert jf.residual < 1e-13

    def test_hermitian_is_all_simple_blocks(self):
        rng = np.random.default_rng(1)
        H = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        H = H + H.conj().T
        jf = nk.jordan_decompose(H)
        assert jf.sizes == (1, 1, 1, 1, 1)
        assert jf.residual < 1e-12
        assert np.allclose(np.sort(jf.eigenvalues.real),
                           np.sort(np.linalg.eigvalsh(H)), atol=1e-10)

    def test_one_by_one(self):
        jf = nk.jordan_decompose([[3.0 - 1.0j]])
        assert jf.blocks == ((3.0 - 1.0j, 1),)
        assert jf.similarity[0, 0] == pytest.approx(1.0)


class TestDefective:
    def test_canonical_nilpotent_block(self):
        jf = nk.jordan_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert jf.blocks == ((0.0 + 0.0j, 2),)
        assert np.allclose(jf.similarity, np.eye(2), atol=1e-14)
        assert jf.residual < 1e-14

    def test_planted_two_and_one(self):
        rng = np.random.default_rng(0)
        want = [(0.5, 2), (-0.3, 1)]
        M = planted(want, 10.0, rng)
        jf = nk.jordan_decompose(M, cluster_tol=1e-5)
        assert same_structure(jf.blocks, want)
        assert jf.residual < 1e-10

    def test_shared_eigenvalue_across_blocks(self):
        rng = np.random.default_rng(7)
        want = [(0.3 + 0.1j, 2), (0.3 + 0.1j, 1), (-0.5, 1)]
        M = planted(want, 30.0, rng)
        jf = nk.jordan_decompose(M, cluster_tol=5e-4, rank_tol=1e-7)
        assert same_structure(jf.blocks, want)
        assert jf.residual < 1e-9

    def test_cubed_block_with_widened_cluster(self):
        # roundoff smears a size-3 eigenvalue into a cloud of radius ~eps^(1/3),
        # so recovery requires a cluster tolerance well above machine precision
        rng = np.random.default_rng(7)
        want = [(1.0, 3), (0.2, 2), (-1.1, 1)]
        M = planted(want, 80.0, rng)
        jf = nk.jordan_decompose(M, cluster_tol=5e-4, rank_tol=1e-7)
        assert same_structure(jf.blocks, want)
        assert jf.residual < 1e-9

    def test_blocks_sorted_descending(self):
        rng = np.random.default_rng(12)
        M = planted([(0.2, 1), (0.9, 2), (0.2, 2)], 5.0, rng)
        jf = nk.jordan_decompose(M, cluster_tol=1e-5)
        key = [(lam.real, lam.imag, size) for lam, size in jf.blocks]
        assert key == sorted(key, key=lambda t: (-t[0], -t[1], -t[2]))


class TestDualBases:
    def test_relations_on_planted_matrix(self):
        rng = np.random.default_rng(4)
        M = planted([(0.5 + 0.2j, 3), (-0.1, 1)], 20.0, rng)
        jf = nk.jordan_decompose(M, cluster_tol=5e-4, rank_tol=1e-7)
        res = nk.verify_jordan_basis(jf, M)
        assert res.max() < 1e-9

    def test_plain_dot_duality(self):
        rng = np.random.default_rng(4)
        M = planted([(0.5, 2), (1.5, 1)], 8.0, rng)
        jf = nk.jordan_decompose(M, cluster_tol=1e-5)
        for a in range(len(jf.blocks)):
            for b in range(len(jf.blocks)):
                at = jf.offsets
                G = (jf.similarity_inv[at[a]:at[a + 1], :]
                     @ jf.similarity[:, at[b]:at[b + 1]])
                want = np.eye(jf.blocks[a][1]) if a == b else 0.0
                assert np.allclose(G, want, atol=1e-11)

    def test_right_chain_action(self):
        rng = np.random.default_rng(9)
        M = planted([(0.7, 3)], 15.0, rng)
        jf = nk.jordan_decompose(M, cluster_tol=5e-4, rank_tol=1e-7)
        lam = jf.blocks[0][0]
        D = jf.similarity[:, :jf.offsets[1]]
        assert np.allclose(M @ D[:, 0], lam * D[:, 0], atol=1e-9)
        for j in range(1, 3):
            assert np.allclose(M @ D[:, j], lam * D[:, j] + D[:, j - 1], atol=1e-8)

    def test_chain_phase_is_deterministic(self):
        rng = np.random.default_rng(2)
        M = planted([(0.4, 2), (-0.6, 1)], 6.0, rng)
        jf = nk.jordan_decompose(M, cluster_tol=1e-5)
        for a in range(len(jf.blocks)):
            vec = jf.similarity[:, jf.offsets[a]]
            assert np.linalg.norm(vec) == pytest.approx(1.0)
            anchor = vec[np.argmax(np.abs(vec))]
            assert anchor.imag == pytest.approx(0.0, abs=1e-12)
            assert anchor.real > 0


class TestTolerances:
    def test_perturbed_block_residual_tracks_perturbation(self):
        eps = 1e-8
        M = np.array([[0.0, 1.0], [eps, 0.0]])
        jf = nk.jordan_decompose(M, cluster_tol=1e-2, rank_tol=100 * eps)
        assert jf.blocks[0][1] == 2
        assert eps / 10 < jf.residual < 10 * eps

    def test_split_at_tight_tolerance(self):
        # same matrix, default tolerances: the eigenvalue pair +/- 1e-4 stays split
        M = np.array([[0.0, 1.0], [1e-8, 0.0]])
        jf = nk.jordan_decompose(M)
        assert jf.sizes == (1, 1)

    def test_rank_tolerance_mismatch_raises(self):
        # merged cluster whose residual singular value exceeds rank_tol
        M = np.array([[0.0, 1.0], [1e-8, 0.0]])
        with pytest.raises(NumericalError):
            nk.jordan_decompose(M, cluster_tol=1e-2, rank_tol=1e-9)

    def test_condition_cap_raises_with_result_attached(self):
        M = np.array([[0.5, 1e13], [0.0, 0.5]])
        with pytest.raises(ConditioningError) as exc:
            nk.jordan_decompose(M)
        jf = exc.value.result
        assert jf is not None
        assert jf.blocks == ((0.5 + 0.0j, 2),)
        assert jf.residual < 1e-12
        assert exc.value.details["condition"] > 1e12


class TestEnsemble:
    def test_random_planted_structures(self):
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
            jf = nk.jordan_decompose(M, cluster_tol=5e-4, rank_tol=1e-7)
            assert same_structure(jf.blocks, blocks)
            assert jf.residual < 1e-8
            assert np.allclose(jf.similarity @ jf.jordan_matrix() @ jf.similarity_inv,
                               M, atol=1e-8)
