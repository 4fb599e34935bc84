"""The JSON matrix format, and the numpy forms of the cumulative
trapezoid, the not-a-knot spline and the assignment, with scipy as their
oracle."""

import numpy as np
import pytest

from adiakit import numkit as nk
from adiakit.errors import InputError

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


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


# ------------------------------------------------- cumulative trapezoid

def scipy_trapezoid(y, x):
    from scipy.integrate import cumulative_trapezoid
    return cumulative_trapezoid(y, x, axis=0, initial=0.0)


class TestCumulativeTrapezoid:
    @pytest.mark.parametrize("shape", [(7,), (7, 3), (7, 3, 2), (2,),
                                       (2, 4), (1,)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bitwise_equal_to_scipy(self, shape, dtype):
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        x = np.sort(rng.uniform(0.0, 1.0, size=shape[0]))
        y = rng.normal(size=shape)
        if dtype is complex:
            y = y + 1j * rng.normal(size=shape)
        got = nk.cumulative_trapezoid(y, x)
        ref = scipy_trapezoid(y, x)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)

    def test_bitwise_on_long_oscillatory_curve(self):
        x = np.linspace(0.0, 1.0, 4001)
        y = np.exp(1j * 300.0 * x ** 2)[:, None] * np.arange(1, 4)
        assert np.array_equal(nk.cumulative_trapezoid(y, x),
                              scipy_trapezoid(y, x))


# ------------------------------------------------- not-a-knot spline

class TestNotAKnotSpline:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 41, 4001])
    @pytest.mark.parametrize("spacing", ["uniform", "random"])
    @pytest.mark.parametrize("data", ["noise", "smooth"])
    def test_matches_scipy_cubic_spline(self, n, spacing, data):
        from scipy.interpolate import CubicSpline
        rng = np.random.default_rng(n)
        if spacing == "uniform":
            x = np.linspace(0.0, 1.0, n)
        else:
            x = np.sort(np.concatenate([[0.0, 1.0],
                                        rng.uniform(0.0, 1.0, n - 2)]))
        if data == "noise":
            y = rng.normal(size=(n, 6))
        else:
            y = np.sin(np.outer(x, rng.uniform(1.0, 30.0, size=6)))
        got = nk._not_a_knot_spline(x, y)
        ref = CubicSpline(x, y, axis=0).c[::-1].transpose(1, 0, 2)
        assert got.shape == ref.shape == (n - 1, 4, 6)
        # each power on its own scale: the cubic term of a smooth curve
        # is far smaller than its value, the slope far larger
        for k in range(4):
            scale = max(np.max(np.abs(ref[:, k])), 1e-300)
            assert np.max(np.abs(got[:, k] - ref[:, k])) <= 1e-13 * scale


# ----------------------------------------------------------- assignment

def scipy_cols(cost):
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    return cols[np.argsort(rows)]


@pytest.fixture
def oracle_calls(monkeypatch):
    """Count the calls the helper hands to scipy's assignment."""
    import scipy.optimize
    real = scipy.optimize.linear_sum_assignment
    calls = []

    def counted(cost):
        calls.append(np.array(cost))
        return real(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    return calls


def unitary(rng, n):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))
    return Q


class TestMinCostAssignment:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_shuffled_unitary_overlaps(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            # a basis compared with a slightly rotated, shuffled copy of
            # itself, as between neighbouring grid points
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            near = np.linalg.qr(np.eye(n) + 0.05 * A)[0]
            V = unitary(rng, n)
            W = (V @ near)[:, rng.permutation(n)]
            cost = -np.abs(V.conj().T @ W)
            assert np.array_equal(nk.min_cost_assignment(cost),
                                  scipy_cols(cost))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_random_costs(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            cost = rng.uniform(size=(n, n))
            assert np.array_equal(nk.min_cost_assignment(cost),
                                  scipy_cols(cost))

    def test_strict_distinct_minima_skip_scipy(self, oracle_calls):
        cost = np.array([[0.1, 0.9, 0.8],
                         [0.7, 0.6, 0.0],
                         [0.5, 0.2, 0.4]])
        assert nk.min_cost_assignment(cost).tolist() == [0, 2, 1]
        assert oracle_calls == []

    @pytest.mark.parametrize("cost", [
        # a tie inside a row
        [[0.0, 0.0, 1.0], [1.0, 2.0, 0.5], [0.3, 1.0, 2.0]],
        # two rows whose minima share a column
        [[0.0, 1.0, 2.0], [0.1, 5.0, 6.0], [3.0, 0.2, 4.0]],
        # every entry equal
        [[1.0, 1.0], [1.0, 1.0]],
    ])
    def test_ambiguous_costs_go_to_scipy(self, cost, oracle_calls):
        cost = np.array(cost)
        got = nk.min_cost_assignment(cost)
        assert len(oracle_calls) == 1
        assert np.array_equal(got, scipy_cols(cost))

    def test_forbidden_pairs_need_no_scipy(self, oracle_calls):
        # +inf marks a pair that may not be matched; finite strict minima
        # in distinct columns still decide the assignment alone
        cost = np.array([[0.0, np.inf], [np.inf, 0.0]])
        assert nk.min_cost_assignment(cost).tolist() == [0, 1]
        assert oracle_calls == []

    @pytest.mark.parametrize("cost", [
        [[0.0, 1.0], [np.nan, 0.0]],          # NaN
        [[-np.inf, 0.0], [0.0, 1.0]],         # -inf
        [[np.inf, np.inf], [0.0, 1.0]],       # a row with no finite entry
    ])
    def test_invalid_costs_raise_as_scipy_does(self, cost, oracle_calls):
        with pytest.raises(ValueError):
            nk.min_cost_assignment(np.array(cost))
        assert len(oracle_calls) == 1
