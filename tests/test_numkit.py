"""Matrix exponential and the JSON matrix format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiakit import numkit as nk
from adiakit.errors import InputError

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


class TestExpm:
    def test_pi_half_rotation(self):
        got = nk.expm(-1j * np.pi / 2 * SX)
        assert np.allclose(got, -1j * SX, atol=1e-14)

    def test_diagonal(self):
        got = nk.expm(np.diag([1.0, -2.0, 0.0]))
        assert np.allclose(np.diag(got), np.exp([1.0, -2.0, 0.0]), rtol=1e-14)
        assert np.allclose(got - np.diag(np.diag(got)), 0.0)

    def test_matches_scipy_across_scales(self):
        import scipy.linalg as sla
        rng = np.random.default_rng(0)
        for scale in (0.01, 1.0, 25.0):
            A = random_matrix(rng, 5, scale)
            ref = sla.expm(A)
            assert np.allclose(nk.expm(A), ref,
                               atol=1e-12 * max(1.0, np.max(np.abs(ref))))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_inverse_property(self, dim, seed):
        A = random_matrix(np.random.default_rng(seed), dim)
        prod = nk.expm(A) @ nk.expm(-A)
        assert np.allclose(prod, np.eye(dim), atol=1e-9 * max(1.0, np.max(np.abs(prod))))

    def test_hermitian_generator_gives_unitary(self):
        rng = np.random.default_rng(11)
        H = random_matrix(rng, 4)
        H = H + H.conj().T
        U = nk.expm(-1j * H)
        assert np.allclose(U.conj().T @ U, np.eye(4), atol=1e-12)


def matrix_json(A):
    """Nested row-major lists of [re, im] pairs, the scenario-file form."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


class TestMatrixJSON:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        A = random_matrix(rng, 3)
        assert np.array_equal(nk.matrix_from_json(matrix_json(A)), A)

    def test_known_encoding(self):
        assert np.array_equal(nk.matrix_from_json([[[1.0, 2.0]]]),
                              np.array([[1 + 2j]]))

    @pytest.mark.parametrize("bad", [
        [],
        [[1.0, 2.0]],
        [[[1.0, 2.0]], [[1.0, 2.0], [0.0, 0.0]]],
        [[[1.0, 2.0, 3.0]]],
        [[["a", "b"]]],
        [[[float("nan"), 0.0]]],
        [[[0.0, float("-inf")]]],
        [[[True, 0.0]]],
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InputError) as err:
            nk.matrix_from_json(bad, "h")
        assert err.value.details["field"] == "h"


def test_is_hermitian():
    assert nk.is_hermitian(SX)
    assert not nk.is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
