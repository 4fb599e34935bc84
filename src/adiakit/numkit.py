"""Dense complex linear algebra underpinning the rest of the package.

Provides square-matrix coercion, the finite-number check and the
nested ``[re, im]`` matrix parser used at the scenario boundary, the
cumulative trapezoid and the minimum-cost assignment the trackers
share, the coefficient flow's cubic spline, and a numerical Jordan
canonical form with explicit dual left/right bases.

scipy is imported at first use in two places only: its
``linear_sum_assignment`` for an assignment that strict row minima do not
decide, and its ``schur`` for a defective eigenvalue cluster.

Conventions for :class:`JordanForm`:

* right basis vectors are the columns of ``similarity`` (``S``); within a
  block they are ordered so that ``M d_j = d_{j-1} + lam * d_j`` with
  ``d_{-1} = 0`` (ones on the superdiagonal of ``J``),
* left basis vectors are the rows of ``similarity_inv`` and pair with the
  right basis by the plain (unconjugated) dot product:
  ``left_i . right_j = delta_ij``,
* blocks are sorted by (Re lam, Im lam) descending, then size descending.

Any basis satisfying those relations is admissible; the one returned here
normalizes each chain so its eigenvector has unit Euclidean norm and a real
positive largest-magnitude component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, InputError, NumericalError, ShapeError

__all__ = [
    "as_square_matrix",
    "is_hermitian",
    "cumulative_trapezoid",
    "min_cost_assignment",
    "matrix_from_json",
    "JordanForm",
    "JordanBasisResiduals",
    "jordan_matrix_from_blocks",
    "jordan_decompose",
    "verify_jordan_basis",
]


def as_square_matrix(M, name: str = "matrix") -> np.ndarray:
    """Return ``M`` as a complex square ndarray or raise :class:`ShapeError`."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {A.shape}",
                         shape=list(A.shape))
    return A


def is_hermitian(M, tol: float = 1e-12) -> bool:
    A = as_square_matrix(M)
    return float(np.max(np.abs(A - A.conj().T))) <= tol


def cumulative_trapezoid(y, x) -> np.ndarray:
    """Running trapezoid integral of ``y`` along axis 0 over the grid ``x``.

    Row 0 is zero.  The arithmetic is that of
    ``scipy.integrate.cumulative_trapezoid(y, x, axis=0, initial=0.0)``,
    so the two agree bit for bit.
    """
    y = np.asarray(y)
    d = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    steps = d * (y[1:] + y[:-1]) / 2.0
    out = np.empty((y.shape[0],) + steps.shape[1:], dtype=steps.dtype)
    out[0] = 0.0
    np.cumsum(steps, axis=0, out=out[1:])
    return out


def _not_a_knot_spline(x, y) -> np.ndarray:
    """Not-a-knot cubic splines ``c`` through the real columns of ``y``.

    ``c[i, k]`` multiplies ``(s - x[i])**k``: ``c`` is scipy's
    ``CubicSpline(x, y).c[::-1]`` with axes 0 and 1 swapped, its slopes
    solved by LAPACK ``gtsv``'s steps, row exchanges included.
    """
    n = x.size
    h = np.diff(x)[:, None]
    slope = np.diff(y, axis=0) / h
    if n == 2:      # the line
        s = slope[[0, 0]]
    elif n == 3:    # the parabola, from scipy's 3x3 system
        a, b = h[:, 0]
        s = np.linalg.solve([[1, 1, 0], [b, 2 * (a + b), a], [0, 1, 1]], [
            2 * slope[0], 3 * (a * slope[1] + b * slope[0]), 2 * slope[1]])
    else:
        w0, w1 = x[2] - x[0], x[-1] - x[-3]
        rows = [((h[0] + 2 * w0) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / w0,
                *3 * (h[1:] * slope[:-1] + h[:-1] * slope[1:]),
                (h[-1] ** 2 * slope[-2]
                 + (2 * w1 + h[-1]) * h[-2] * slope[-1]) / w1]
        d = h[:, 0].tolist()
        diag = [d[1]] + [2 * (a + b) for a, b in zip(d, d[1:])] + [d[-2]]
        # (i + 1, i), (i, i + 1) and, once rows are exchanged, (i, i + 2)
        lower, upper, fill = d[1:] + [w1], [w0] + d[:-1] + [0.0], [0.0] * n
        for i in range(n - 1):
            if abs(diag[i]) < abs(lower[i]):    # exchange rows i and i + 1
                below = lower[i], diag[i + 1], upper[i + 1]
                lower[i], diag[i + 1], upper[i + 1] = diag[i], upper[i], 0.0
                diag[i], upper[i], fill[i] = below
                rows[i], rows[i + 1] = rows[i + 1], rows[i]
            f = lower[i] / diag[i]
            diag[i + 1] -= f * upper[i]
            upper[i + 1] -= f * fill[i]
            rows[i + 1] -= f * rows[i]
        rows[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            rows[i] -= upper[i] * rows[i + 1]
            if fill[i]:
                rows[i] -= fill[i] * rows[i + 2]
            rows[i] /= diag[i]
        s = np.array(rows)
    t = (s[:-1] + s[1:] - 2 * slope) / h
    return np.stack((y[:-1], s[:-1], (slope - s[:-1]) / h - t, t / h), axis=1)


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column matched to each row by a minimum-cost perfect matching.

    Returns ``scipy.optimize.linear_sum_assignment(cost)[1]`` for a square
    ``cost``.  When every row has a strict, finite minimum and those
    minima lie in distinct columns, the row-wise choice is the unique
    optimum and is returned directly; a tie, a shared column, a NaN or a
    non-finite minimum is left to scipy.
    """
    cols = cost.argmin(axis=1)   # a NaN, if a row has one
    n = cols.size
    if len(set(cols.tolist())) == n:
        lowest = cost[np.arange(n), cols]
        if (math.isfinite(sum(lowest.tolist()))
                and np.count_nonzero(cost <= lowest[:, None]) == n):
            return cols
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment(cost)[1]


def _running_product(factors: np.ndarray) -> np.ndarray:
    """Running products F_0, F_1 F_0, F_2 F_1 F_0, ... of unitary factors.

    ``factors`` stacks k x k factors along axis 0, shape (N, ..., k, k).
    The products are made unitary again: their rounding would otherwise
    drift a transported basis off unit norm by about one ulp a factor.  A
    1 x 1 factor is a phase, multiplied by ``cumprod`` and divided by its
    modulus; larger factors are multiplied in log2(N) stacked rounds and
    replaced by their polar factors.  Summing phase angles instead would
    lose digits to the arbitrary phases of the factors, whose sum grows
    with N.
    """
    if factors.shape[-1] == 1:
        turn = np.cumprod(factors, axis=0)
        return turn / np.abs(turn)
    turn = factors.copy()
    d = 1
    while d < len(turn):
        turn[d:] = turn[d:] @ turn[:-d]
        d *= 2
    U, _, Vh = np.linalg.svd(turn)
    return U @ Vh


def _finite_number(value, label: str, field: str,
                   positive: bool = False) -> float:
    """``value`` as a float if it is a finite number (and positive, if asked).

    Anything else -- a string, a boolean, NaN, an infinity, an integer too
    large for a float, or with ``positive`` zero or a negative number --
    raises :class:`InputError` naming ``field``.
    """
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
    if not (math.isfinite(number) and (number > 0 or not positive)):
        kind = "finite positive number" if positive else "finite number"
        raise InputError(f"{label} must be a {kind}, got {value!r}",
                         field=field)
    return number


def matrix_from_json(data, name: str = "matrix") -> np.ndarray:
    """Parse a matrix given as nested row-major lists of [re, im] pairs.

    Rows must be non-empty and of equal length and every part a finite
    number; an :class:`InputError` names ``name`` as its field.
    """
    if not isinstance(data, list) or not data:
        raise InputError(f"{name}: expected a non-empty list of rows",
                         field=name)
    ncols = None
    rows = []
    for r, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise InputError(f"{name}: row {r} is not a non-empty list",
                             field=name)
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise InputError(f"{name}: ragged rows ({len(row)} vs {ncols})",
                             field=name)
        out = []
        for c, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise InputError(f"{name}: entry ({r},{c}) is not an "
                                 "[re, im] pair", field=name)
            real, imag = (_finite_number(x, f"{name} entry ({r},{c})", name)
                          for x in entry)
            out.append(complex(real, imag))
        rows.append(out)
    return np.array(rows, dtype=complex)


# ---------------------------------------------------------------------------
# Jordan canonical form
# ---------------------------------------------------------------------------

# matrix entries per chunk of a stacked decomposition: 1 MiB per complex
# stack, so a chunk's temporaries stay small beside the stacked result
_STACK_ENTRIES = 1 << 16

@dataclass(frozen=True)
class JordanForm:
    """Jordan decomposition ``M = S J S^-1`` with dual bases attached.

    Attributes
    ----------
    blocks:
        Tuple of ``(eigenvalue, size)`` pairs in storage order.
    similarity, similarity_inv:
        ``S`` and ``S^-1``.  Columns of ``S`` are the right basis; rows of
        ``S^-1`` are the left basis (plain-dot duality).
    residual:
        Upper bound on max-entry deviations of ``S^-1 M S - J`` and of the
        three relations checked by :func:`verify_jordan_basis`.
    offsets:
        Derived: the first column of every block, then the dimension, so
        block ``alpha`` spans ``offsets[alpha]:offsets[alpha + 1]``.
    """

    blocks: tuple
    similarity: np.ndarray
    similarity_inv: np.ndarray
    residual: float
    offsets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        offsets = (0,)
        for _, size in self.blocks:
            offsets += (offsets[-1] + size,)
        n = offsets[-1]
        if self.similarity.shape != (n, n) or self.similarity_inv.shape != (n, n):
            raise ShapeError("similarity shape does not match total block size")
        object.__setattr__(self, "offsets", offsets)

    @property
    def dim(self) -> int:
        return self.similarity.shape[0]

    @property
    def sizes(self) -> tuple:
        return tuple(size for _, size in self.blocks)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([lam for lam, _ in self.blocks], dtype=complex)

    def jordan_matrix(self) -> np.ndarray:
        return jordan_matrix_from_blocks(self.blocks)


def jordan_matrix_from_blocks(blocks) -> np.ndarray:
    n = sum(size for _, size in blocks)
    J = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, size in blocks:
        for k in range(size):
            J[pos + k, pos + k] = lam
            if k + 1 < size:
                J[pos + k, pos + k + 1] = 1.0
        pos += size
    return J


@dataclass(frozen=True)
class JordanBasisResiduals:
    orthonormality: float
    right_action: float
    left_action: float

    def max(self) -> float:
        return max(self.orthonormality, self.right_action, self.left_action)


def verify_jordan_basis(jf: JordanForm, M) -> JordanBasisResiduals:
    """Max-entry deviations of the three defining basis relations.

    (a) plain-dot orthonormality of the dual bases, (b) the right-basis chain
    action ``M d_j = d_{j-1} + lam d_j``, (c) the left-basis chain action
    ``e_i M = e_{i+1} + lam e_i``.
    """
    A = as_square_matrix(M)
    if A.shape[0] != jf.dim:
        raise ShapeError("matrix dimension does not match the decomposition")
    return JordanBasisResiduals(*map(float, _basis_residuals(
        A, jf.similarity, jf.similarity_inv, jf.jordan_matrix())))


def _cluster_labels(values, tol: float) -> tuple:
    """Transitive-closure grouping of values within ``tol`` of each other.

    Returns one label per value; labels are numbered in order of first
    occurrence, so the first value always carries label 0.
    """
    v = np.asarray(values)
    parent = list(range(v.size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    close = np.abs(v[:, None] - v[None, :]) <= tol
    for i, j in zip(*np.nonzero(np.triu(close, 1))):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    roots = {}
    return tuple(roots.setdefault(find(i), len(roots)) for i in range(v.size))


def _stack_labels(values: np.ndarray, tol: float):
    """:func:`_cluster_labels` of every row of ``values``, shape (N, n).

    Labels depend on the closeness pattern alone, so they are taken once
    per distinct pattern, from its first row; the patterns are found in
    chunks of rows like a stacked decomposition.  Each pattern's n*n flags
    are packed into bytes and deduplicated as one opaque value, whose
    bytewise order is the rows' lexicographic order, so the patterns come
    out as ``np.unique(..., axis=0)`` orders them.  Returns the label
    tuple of each pattern and the pattern index of each row.
    """
    N, n = values.shape
    close = np.empty((N, n, n), dtype=bool)
    step = max(1, _STACK_ENTRIES // (n * n))
    for k in range(0, N, step):
        v = values[k:k + step]
        close[k:k + step] = np.abs(v[:, :, None] - v[:, None, :]) <= tol
    packed = np.packbits(close.reshape(N, n * n), axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(N)
    _, rows, which = np.unique(keys, return_index=True, return_inverse=True)
    return [_cluster_labels(values[i], tol) for i in rows], which.reshape(N)


def _cluster_subspace(M: np.ndarray, center: complex, members: np.ndarray,
                      others: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the invariant subspace for one eigenvalue cluster."""
    spread = float(np.max(np.abs(members - center))) if len(members) else 0.0
    if others.size:
        d_out = float(np.min(np.abs(others - center)))
        if d_out <= spread:
            raise NumericalError(
                "eigenvalue clusters overlap; adjust cluster_tol",
                center=complex(center))
        radius = 0.5 * (spread + d_out)
    else:
        radius = spread + 1.0
    from scipy.linalg import schur
    T, Z, sdim = schur(M, output="complex",
                       sort=lambda x: abs(x - center) <= radius)
    if sdim != len(members):
        raise NumericalError(
            "Schur reordering selected an unexpected cluster size",
            expected=len(members), got=int(sdim))
    return Z[:, :sdim]


def _null_basis(Ak: np.ndarray, rank_tol: float) -> np.ndarray:
    _, s, Vh = np.linalg.svd(Ak)
    rank = int(np.sum(s > rank_tol))
    return Vh[rank:].conj().T


def _orth_columns(cols, m: int) -> np.ndarray:
    if not cols:
        return np.zeros((m, 0), dtype=complex)
    X = np.column_stack(cols)
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    keep = int(np.sum(s > 1e-12 * max(1.0, s[0])))
    return U[:, :keep]


def _nilpotent_chains(A: np.ndarray, rank_tol: float):
    """Jordan chains of a (numerically) nilpotent matrix.

    Returns a list of ``(length, columns)`` with columns ordered bottom-first
    (the eigenvector is column 0), sorted by length descending.
    """
    m = A.shape[0]
    if m == 1:
        return [(1, np.array([[1.0 + 0.0j]]))]

    nullities = [0]
    Ak = np.eye(m, dtype=complex)
    powers = [Ak]
    while nullities[-1] < m:
        Ak = Ak @ A
        powers.append(Ak)
        s = np.linalg.svd(Ak, compute_uv=False)
        nu = m - int(np.sum(s > rank_tol))
        if nu <= nullities[-1]:
            raise NumericalError(
                "cluster restriction is not nilpotent at this rank tolerance",
                nullities=list(nullities))
        nullities.append(nu)
    kmax = len(nullities) - 1

    # chains with length >= k: nullities[k] - nullities[k-1]
    ge = [0] * (kmax + 2)
    for k in range(1, kmax + 1):
        ge[k] = nullities[k] - nullities[k - 1]
    chains = []          # list of dicts {"length": L, "members": {height: vec}}
    level_order = {}     # height -> list of chain indices owning a vector there
    for k in range(kmax, 0, -1):
        carried = []
        for idx in level_order.get(k + 1, []):
            vec = A @ chains[idx]["members"][k + 1]
            chains[idx]["members"][k] = vec
            carried.append((idx, vec))
        need = ge[k] - ge[k + 1]
        new_tops = []
        if need > 0:
            Nk = _null_basis(powers[k], rank_tol)
            Nk1 = (_null_basis(powers[k - 1], rank_tol) if k > 1
                   else np.zeros((m, 0), dtype=complex))
            blockers = _orth_columns([Nk1[:, c] for c in range(Nk1.shape[1])]
                                     + [v for _, v in carried], m)
            C = Nk - blockers @ (blockers.conj().T @ Nk)
            U, s, _ = np.linalg.svd(C, full_matrices=False)
            if len(s) < need or s[need - 1] <= 1e-10 * max(1.0, s[0] if len(s) else 1.0):
                raise NumericalError("Jordan chain selection is ill conditioned")
            for t in range(need):
                chains.append({"length": k, "members": {k: U[:, t]}})
                new_tops.append(len(chains) - 1)
        level_order[k] = [idx for idx, _ in carried] + new_tops

    out = []
    for ch in chains:
        L = ch["length"]
        cols = np.column_stack([ch["members"][h] for h in range(1, L + 1)])
        out.append((L, cols))
    out.sort(key=lambda item: -item[0])
    return out


def _canonical_basis(Q: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the column span of each ``Q[p]`` that
    depends on the span alone, not on the basis LAPACK returned.

    ``Q`` has orthonormal columns, shape (P, n, m).  Gram-Schmidt runs over
    the projector Q Q^H applied to e_1, e_2, ... in order and keeps a
    column when its remainder has norm above 1 / (2 sqrt(n)).  The squared
    remainders of all n columns sum to the dimension still missing, so m
    columns are always kept.
    """
    P, n, m = Q.shape
    proj = Q @ Q.conj().transpose(0, 2, 1)
    basis = np.zeros_like(Q)
    found = np.zeros(P, dtype=int)
    for j in range(n):
        v = proj[:, :, j:j + 1]
        for _ in range(2):      # classical Gram-Schmidt, reorthogonalised
            v = v - basis @ (basis.conj().transpose(0, 2, 1) @ v)
        norm = np.linalg.norm(v[:, :, 0], axis=1)
        keep = np.flatnonzero((norm > 0.5 / math.sqrt(n)) & (found < m))
        basis[keep, :, found[keep]] = v[keep, :, 0] / norm[keep, None]
        found[keep] += 1
        if np.all(found == m):
            break
    return basis


def _cluster_chains(A: np.ndarray, eigs: np.ndarray, idx: np.ndarray,
                    rank_tol: float):
    """Jordan chains of the eigenvalue cluster ``eigs[idx]`` of ``A``.

    A sorted complex Schur form isolates the cluster's invariant subspace;
    the nilpotent part of ``A`` restricted to it yields the chains.
    Returns ``(lam, length, columns)`` entries with the eigenvector first
    in each chain and ``lam`` the cluster mean.  When every chain has
    length 1 the columns are the canonical basis of the subspace.
    """
    members = eigs[idx]
    lam = complex(np.mean(members))
    Q = _cluster_subspace(A, lam, members, np.delete(eigs, idx))
    restricted = Q.conj().T @ A @ Q - lam * np.eye(Q.shape[1])
    chains = _nilpotent_chains(restricted, rank_tol)
    if all(length == 1 for length, _ in chains):
        return [(lam, 1, col[:, None])
                for col in _canonical_basis(Q[None])[0].T]
    return [(lam, length, Q @ cols) for length, cols in chains]


def _chain_columns(chains):
    """``(lam, length, columns)`` chains side by side: the columns, and per
    column its chain's eigenvalue, its position in the chain and the chain
    length."""
    lengths = [length for _, length, _ in chains]
    return (np.hstack([cols for _, _, cols in chains]),
            np.repeat([lam for lam, _, _ in chains], lengths),
            np.concatenate([np.arange(length) for length in lengths]),
            np.repeat(lengths, lengths))


def _semisimple_basis(A, V, members, others, rank_tol):
    """The canonical basis of one eigenvalue cluster at every point of a
    stack, and where it holds.

    ``V`` (P, n, m) are the cluster's ``eig`` vectors.  The basis holds
    where those vectors are well conditioned (sigma_min / sigma_max above
    1e-6), their span is invariant to 1e-12 ||A||, no other eigenvalue is
    nearer the cluster mean than its own members, and the restriction
    Q^H A Q - lam I has 2-norm at most ``rank_tol``: exactly when the Schur
    path finds chains of length 1 only.  Returns the bases, that mask and
    the cluster means.
    """
    lam = members.mean(axis=1)
    Q, sv, _ = np.linalg.svd(V, full_matrices=False)
    AQ = A @ Q
    restricted = Q.conj().transpose(0, 2, 1) @ AQ
    invariant = (np.linalg.norm(AQ - Q @ restricted, axis=(1, 2))
                 <= 1e-12 * np.linalg.norm(A, axis=(1, 2)))
    restricted -= lam[:, None, None] * np.eye(Q.shape[2])
    simple = np.linalg.svd(restricted, compute_uv=False)[:, 0] <= rank_tol
    spread = np.max(np.abs(members - lam[:, None]), axis=1)
    d_out = np.min(np.abs(others - lam[:, None]), axis=1, initial=np.inf)
    holds = (sv[:, -1] > 1e-6 * sv[:, 0]) & invariant & simple \
        & (d_out > spread)
    return _canonical_basis(Q), holds, lam


def _basis_residuals(A, S, Si, J):
    """Max-entry deviations, per point of a stack, of the three relations
    of :func:`verify_jordan_basis`."""
    eye = np.eye(S.shape[-1])
    return (np.max(np.abs(Si @ S - eye), axis=(-2, -1)),
            np.max(np.abs(A @ S - S @ J), axis=(-2, -1)),
            np.max(np.abs(Si @ A - J @ Si), axis=(-2, -1)))


def _assemble_stack(A, C, col_lam, col_pos, col_len, cond_cap, errors):
    """Normalize, order and verify the chains of every point of a stack.

    ``C`` (N, n, n) holds each point's chain columns, chain after chain,
    and ``col_lam``, ``col_pos``, ``col_len`` (N, n) give each column's
    eigenvalue, position in its chain and chain length.  ``errors`` holds
    one entry per point, None or the exception already met there; this
    adds the failures found here.  Returns ``(lam, size, S, Si, residual,
    errors)`` as :func:`_decompose_stack` does.
    """
    cols = np.arange(col_lam.shape[1])
    base = cols - col_pos            # the eigenvector column of each chain
    # deterministic chain normalization: unit eigenvector with a real
    # positive largest-magnitude component; the norm is that of
    # np.linalg.norm of one complex vector, term for term: a (1, n) @ (n, 1)
    # product takes numpy's dot, as that norm does
    X = np.ascontiguousarray(C.transpose(0, 2, 1))[:, :, None, :]
    re, im = X.real, X.imag
    norms = np.sqrt(re @ re.swapaxes(-2, -1)
                    + im @ im.swapaxes(-2, -1))[:, :, 0, 0]
    scale = np.take_along_axis(norms, base, axis=1)
    for i in np.flatnonzero(np.any(scale <= 1e-300, axis=1)):
        errors[i] = errors[i] or NumericalError("degenerate chain eigenvector")
    C = C / np.where(scale <= 1e-300, 1.0, scale)[:, None, :]
    rows = np.argmax(np.abs(C), axis=1)[:, None, :]
    anchor = np.take_along_axis(np.take_along_axis(C, rows, axis=1)[:, 0, :],
                                base, axis=1)
    C = C * np.conj(anchor / np.abs(anchor))[:, None, :]

    # blocks by (Re lam, Im lam) descending, then size descending; the
    # sort is stable, so a chain's columns stay together and in order
    order = np.lexsort((-col_len, -col_lam.imag, -col_lam.real), axis=-1)
    S = np.take_along_axis(C, order[:, None, :], axis=2)
    lam = np.take_along_axis(col_lam, order, axis=1)
    pos = np.take_along_axis(col_pos, order, axis=1)
    size = np.take_along_axis(col_len, order, axis=1)
    J = np.zeros_like(S)
    J[:, cols, cols] = lam
    J[:, cols[:-1], cols[1:]] = pos[:, 1:] > 0

    cond = np.linalg.cond(S, 2)
    Si = np.linalg.inv(S)
    core = np.max(np.abs(Si @ A @ S - J), axis=(1, 2))
    residual = np.maximum(core, np.max(_basis_residuals(A, S, Si, J), axis=0))
    # a point's blocks are its chains' eigenvector columns, moved first
    first = np.argsort(pos != 0, axis=1, kind="stable")
    lead = np.take_along_axis(pos == 0, first, axis=1)
    blam = np.where(lead, np.take_along_axis(lam, first, axis=1), 0.0)
    bsize = np.where(lead, np.take_along_axis(size, first, axis=1), 0)
    for i in np.flatnonzero(cond > cond_cap):
        errors[i] = errors[i] or ConditioningError(
            f"similarity condition {cond[i]:.3e} exceeds cap {cond_cap:.3e}",
            result=JordanForm(_block_pairs(blam[i], bsize[i]), S[i], Si[i],
                              float(residual[i])),
            condition=float(cond[i]))
    return blam, bsize, S, Si, residual, errors


def _block_pairs(lam, size) -> tuple:
    """The ``(eigenvalue, size)`` pairs of one point's block arrays."""
    nb = np.count_nonzero(size)
    return tuple(zip(lam[:nb].tolist(), size[:nb].tolist()))


def _decompose_stack(A: np.ndarray, cluster_tol: float, rank_tol: float,
                     cond_cap: float):
    """:func:`jordan_decompose` of every matrix of the stack ``A``.

    Returns ``(lam, size, S, Si, residual, errors)``: the blocks of every
    point as arrays ``lam`` (N, n) and ``size`` (N, n), each point's blocks
    first in storage order and ``size`` 0 past its block count; S and S^-1
    stacked; the residuals; and the exception :func:`jordan_decompose`
    raises at each point, or None.  The points are taken in chunks of at
    most ``_STACK_ENTRIES`` matrix entries, so the temporaries of a long
    grid stay small beside the result.
    """
    N, n = A.shape[:2]
    S, Si, residual = np.empty_like(A), np.empty_like(A), np.empty(N)
    lam, size = np.empty((N, n), dtype=complex), np.empty((N, n), dtype=int)
    errors = []
    step = max(1, _STACK_ENTRIES // (n * n))
    for k in range(0, N, step):
        part = _decompose_chunk(A[k:k + step], cluster_tol, rank_tol,
                                cond_cap)
        (lam[k:k + step], size[k:k + step], S[k:k + step], Si[k:k + step],
         residual[k:k + step]) = part[:5]
        errors += part[5]
    return lam, size, S, Si, residual, errors


def _decompose_chunk(A, cluster_tol, rank_tol, cond_cap):
    """:func:`_decompose_stack` of one chunk of points.

    One ``np.linalg.eig`` call covers the chunk, and the eigenvalues are
    clustered once per distinct closeness pattern.  A singleton cluster
    takes its vector from ``eig``; a larger one takes the canonical basis
    of its ``eig`` vectors where :func:`_semisimple_basis` holds, and only
    elsewhere the Schur path of :func:`_cluster_chains`, point by point.
    """
    N, n = A.shape[:2]
    eigs, vecs = np.linalg.eig(A)
    errors = [None] * N
    C = np.empty_like(vecs)
    col_lam = np.empty((N, n), dtype=complex)
    col_pos = np.zeros((N, n), dtype=int)
    col_len = np.ones((N, n), dtype=int)
    rows = np.arange(n)
    patterns, which = _stack_labels(eigs, cluster_tol)
    for p, labels in enumerate(patterns):
        pts = np.flatnonzero(which == p)
        labels = np.array(labels)
        counts = np.bincount(labels)
        starts = np.cumsum(counts) - counts    # clusters in label order
        single = np.flatnonzero(counts[labels] == 1)
        dst = starts[labels[single]]
        C[np.ix_(pts, rows, dst)] = vecs[np.ix_(pts, rows, single)]
        col_lam[np.ix_(pts, dst)] = eigs[np.ix_(pts, single)]
        for k in np.flatnonzero(counts > 1):
            idx = np.flatnonzero(labels == k)
            dst = np.arange(starts[k], starts[k] + idx.size)
            basis, holds, lam = _semisimple_basis(
                A[pts], vecs[np.ix_(pts, rows, idx)], eigs[np.ix_(pts, idx)],
                np.delete(eigs[pts], idx, axis=1), rank_tol)
            C[np.ix_(pts[holds], rows, dst)] = basis[holds]
            col_lam[np.ix_(pts[holds], dst)] = lam[holds, None]
            for i in pts[~holds]:
                if errors[i] is not None:
                    continue
                try:
                    chains = _cluster_chains(A[i], eigs[i], idx, rank_tol)
                except NumericalError as exc:
                    errors[i] = exc
                    continue
                (C[i][:, dst], col_lam[i, dst], col_pos[i, dst],
                 col_len[i, dst]) = _chain_columns(chains)
    failed = [i for i in range(N) if errors[i] is not None]
    C[failed] = np.eye(n)
    col_lam[failed], col_pos[failed], col_len[failed] = 0.0, 0, 1
    return _assemble_stack(A, C, col_lam, col_pos, col_len, cond_cap, errors)


def jordan_decompose(M, cluster_tol: float = 1e-7, rank_tol: float = 1e-9,
                     cond_cap: float = 1e12) -> JordanForm:
    """Numerical Jordan canonical form of a square complex matrix.

    Eigenvalues closer than ``cluster_tol`` (by transitive closure) are
    treated as one eigenvalue; block sizes come from the nullity chain of the
    cluster restriction with singular values below ``rank_tol`` treated as
    zero.  A similarity with 2-norm condition above ``cond_cap`` raises
    :class:`ConditioningError` carrying the best-effort decomposition.

    This is the one-matrix case of the stacked decomposition: one
    ``np.linalg.eig`` call supplies the eigenvalues and, for every cluster
    that holds a single eigenvalue, its eigenvector.  A cluster of two or
    more eigenvalues whose ``eig`` vectors span a well conditioned
    invariant subspace on which the matrix acts as a multiple of the
    identity is semisimple and takes the canonical basis of that subspace.
    Any other cluster falls back to a sorted complex Schur form of its own
    and the nilpotent chain analysis, because eigenvectors of nearly
    coincident eigenvalues are ill determined and a defective cluster has
    too few of them (Golub & Wilkinson, SIAM Rev. 18, 1976).  All paths
    share the normalization, the dual basis from the inverse, the residual
    checks and the condition cap.
    """
    A = as_square_matrix(M)
    lam, size, S, Si, residual, errors = _decompose_stack(
        A[None], cluster_tol, rank_tol, cond_cap)
    if errors[0] is not None:
        raise errors[0]
    return JordanForm(_block_pairs(lam[0], size[0]), S[0], Si[0],
                      float(residual[0]))
