"""Dense complex linear algebra underpinning the rest of the package.

Provides square-matrix coercion, the finite-number check and the
nested ``[re, im]`` matrix parser used at the scenario boundary, a
scaling-and-squaring matrix exponential kept as an independent oracle
for the integrators, the cumulative trapezoid and the minimum-cost
assignment the trackers share, and a numerical Jordan canonical form
with explicit dual left/right bases.

scipy is imported only where it is needed: by an assignment that is not
decided by strict row minima, and by the Schur form of an eigenvalue
cluster.

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
    "expm",
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


# Pade-13 numerator coefficients for the scaling-and-squaring exponential.
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


def expm(M) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a degree-13 Pade kernel."""
    A = as_square_matrix(M)
    norm = np.linalg.norm(A, 1)
    squarings = 0
    if norm > _PADE13_THETA:
        squarings = int(np.ceil(np.log2(norm / _PADE13_THETA)))
        A = A / (2.0 ** squarings)
    b = _PADE13_B
    eye = np.eye(A.shape[0], dtype=complex)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    X = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        X = X @ X
    return X


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
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def sizes(self) -> tuple:
        return tuple(size for _, size in self.blocks)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([lam for lam, _ in self.blocks], dtype=complex)

    def block_slice(self, alpha: int) -> slice:
        return slice(self.offsets[alpha], self.offsets[alpha + 1])

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
    S, Si = jf.similarity, jf.similarity_inv
    J = jf.jordan_matrix()
    orth = float(np.max(np.abs(Si @ S - np.eye(jf.dim))))
    right = float(np.max(np.abs(A @ S - S @ J)))
    left = float(np.max(np.abs(Si @ A - J @ Si)))
    return JordanBasisResiduals(orth, right, left)


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


def _cluster_chains(A: np.ndarray, eigs: np.ndarray, idx: np.ndarray,
                    rank_tol: float):
    """Jordan chains of the eigenvalue cluster ``eigs[idx]`` of ``A``.

    A sorted complex Schur form isolates the cluster's invariant subspace;
    the nilpotent part of ``A`` restricted to it yields the chains.
    Returns ``(lam, length, columns)`` entries with the eigenvector first
    in each chain and ``lam`` the cluster mean.
    """
    members = eigs[idx]
    lam = complex(np.mean(members))
    Q = _cluster_subspace(A, lam, members, np.delete(eigs, idx))
    m = Q.shape[1]
    if m == 1:
        return [(lam, 1, Q.copy())]
    restricted = Q.conj().T @ A @ Q - lam * np.eye(m)
    return [(lam, length, Q @ cols)
            for length, cols in _nilpotent_chains(restricted, rank_tol)]


def _assemble_form(A: np.ndarray, entries, cond_cap: float) -> JordanForm:
    """Normalize, order and verify ``(lam, length, columns)`` chains."""
    n = A.shape[0]
    # deterministic chain normalization: unit eigenvector with a real
    # positive largest-magnitude component
    normalized = []
    for lam, size, cols in entries:
        bottom = cols[:, 0]
        scale = np.linalg.norm(bottom)
        if scale <= 1e-300:
            raise NumericalError("degenerate chain eigenvector")
        cols = cols / scale
        anchor = cols[np.argmax(np.abs(cols[:, 0])), 0]
        phase = anchor / abs(anchor)
        normalized.append((lam, size, cols * np.conj(phase)))

    normalized.sort(key=lambda e: (-e[0].real, -e[0].imag, -e[1]))
    blocks = tuple((lam, size) for lam, size, _ in normalized)
    S = np.hstack([cols for _, _, cols in normalized])
    if S.shape != (n, n):
        raise NumericalError("chain assembly did not produce a full basis",
                             got=list(S.shape))
    cond = float(np.linalg.cond(S, 2))
    Si = np.linalg.inv(S)
    J = jordan_matrix_from_blocks(blocks)
    core = float(np.max(np.abs(Si @ A @ S - J)))
    jf = JordanForm(blocks, S, Si, core)
    res = verify_jordan_basis(jf, A)
    jf = JordanForm(blocks, S, Si, max(core, res.max()))
    if cond > cond_cap:
        raise ConditioningError(
            f"similarity condition {cond:.3e} exceeds cap {cond_cap:.3e}",
            result=jf, condition=cond)
    return jf


def jordan_decompose(M, cluster_tol: float = 1e-7, rank_tol: float = 1e-9,
                     cond_cap: float = 1e12) -> JordanForm:
    """Numerical Jordan canonical form of a square complex matrix.

    Eigenvalues closer than ``cluster_tol`` (by transitive closure) are
    treated as one eigenvalue; block sizes come from the nullity chain of the
    cluster restriction with singular values below ``rank_tol`` treated as
    zero.  A similarity with 2-norm condition above ``cond_cap`` raises
    :class:`ConditioningError` carrying the best-effort decomposition.

    One ``np.linalg.eig`` call supplies the eigenvalues and, for every
    cluster that holds a single eigenvalue, its eigenvector: such a
    cluster is a 1x1 block and needs nothing more.  Every cluster of two
    or more eigenvalues falls back to a sorted complex Schur form of its
    own and the nilpotent chain analysis, because eigenvectors of nearly
    coincident eigenvalues are ill determined and a defective cluster has
    too few of them (Golub & Wilkinson, SIAM Rev. 18, 1976).  Both paths
    share the normalization, the dual basis from the inverse, the residual
    checks and the condition cap.
    """
    A = as_square_matrix(M)
    eigs, vecs = np.linalg.eig(A)
    labels = np.array(_cluster_labels(eigs, cluster_tol), dtype=int)
    entries = []  # (lam, size, full-space columns)
    for k in range(labels.max(initial=-1) + 1):
        idx = np.flatnonzero(labels == k)
        if idx.size == 1:
            entries.append((complex(eigs[idx[0]]), 1, vecs[:, idx]))
        else:
            entries.extend(_cluster_chains(A, eigs, idx, rank_tol))
    return _assemble_form(A, entries, cond_cap)
