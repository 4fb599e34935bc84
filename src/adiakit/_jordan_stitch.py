"""The stitch of the Jordan track: the blocks of every grid point matched
to those of the point before, and their chains transported along the grid.

Blocks are matched by eigenvalue distance, a large penalty for a size
mismatch and the overlap of leading vectors.  Each matched chain then turns
by the polar factor of its leading columns' overlap with the point before:
a phase for a chain, a k x k unitary for a semisimple cluster of k size-1
blocks, whose basis is free.  Runs of points whose match is clear are
matched and transported stacked over the grid, with the step matches
composed into orders and the factors carried as running products; only a
point that is not clear takes a per-point assignment.
"""

import numpy as np

from .errors import CrossingError
from .numkit import _STACK_ENTRIES, _running_product, min_cost_assignment


def _semisimple_groups(lam, size):
    """Blocks of size 1 sharing one exact eigenvalue that no larger block
    shares form a group.  For the blocks ``lam``, ``size`` (n, nb) of n
    points, returns ``same`` (n, nb, nb), true for two blocks of one
    group, and each block's rank within its group, (n, nb)."""
    same = lam[:, :, None] == lam[:, None, :]
    same &= (~np.any(same & (size[:, None, :] > 1), axis=2)
             & (np.count_nonzero(same, axis=2) > 1))[:, :, None]
    rank = np.count_nonzero(same & np.tri(lam.shape[1], k=-1, dtype=bool),
                            axis=2)
    return same, rank


def _match(lam, size, lead):
    """Match the blocks of each of n + 1 points to those of the point
    before.

    Row j of ``lam``, ``size`` and ``lead`` holds the eigenvalues, sizes
    and leading vectors (columns) of point j's blocks.  The cost of
    continuing block a of one point with block b of the next is their
    eigenvalue distance, plus 1e6 for a size mismatch, plus 1e-2 (1 -
    |overlap of leading vectors|).  Returns the costs (n, nb, nb), the
    block continuing each block (n, nb), and which points are clear.

    A block outside a group (:func:`_semisimple_groups`) takes its strict,
    finite minimum, outside any group and with an overlap above 1e-12.  A
    group is matched as one unit, its k-th block by the next group's k-th:
    the group whose eigenvalue and size cost is lowest by more than the
    whole overlap term, 1e-2.  A point is clear when this matches blocks
    one to one with equal sizes.  ``min_cost_assignment`` against the
    transported point before then makes the same match up to order within
    a group, since transport only rephases a chain outside a group.
    """
    n, nb = len(lam) - 1, lam.shape[1]
    base = (np.abs(lam[:-1, :, None] - lam[1:, None, :])
            + np.where(size[:-1, :, None] == size[1:, None, :], 0.0, 1e6))
    overlap = np.abs(lead[:-1].conj().transpose(0, 2, 1) @ lead[1:])
    cost = base + 1e-2 * (1.0 - overlap)
    col = cost.argmin(axis=2)
    low = np.take_along_axis(cost, col[:, :, None], 2)
    clear = (np.isfinite(low[:, :, 0])
             & (np.count_nonzero(cost <= low, axis=2) == 1)
             & (np.take_along_axis(overlap, col[:, :, None], 2)[:, :, 0]
                > 1e-12))
    same, rank = _semisimple_groups(lam, size)
    if same.any():
        clear &= ~np.take_along_axis(same[1:].any(axis=2), col, 1)
        first = base.argmin(axis=2)
        unit = same[1:][np.arange(n)[:, None], first]
        low = np.take_along_axis(base, first[:, :, None], 2)[:, :, 0]
        fits = ((np.where(unit, np.inf, base).min(axis=2) > low + 1e-2)
                & (np.count_nonzero(unit, axis=2)
                   == np.count_nonzero(same[:-1], axis=2)))
        target = np.argmax(unit & (rank[1:, None, :] == rank[:-1, :, None]),
                           axis=2)
        grouped = same[:-1].any(axis=2)
        col = np.where(grouped, target, col)
        clear = np.where(grouped, fits, clear)
    clear &= size[:-1] == np.take_along_axis(size[1:], col, 1)
    one_to_one = np.all(np.sort(col, axis=1) == np.arange(nb), axis=1)
    return cost, col, clear.all(axis=1) & one_to_one


def _align_run(S, Si, a, b, size, orders, groups):
    """Align points a..b-1 of S (S^-1) in place to their predecessors.

    The chains of point i are first put in aligned order, chain c being
    the point's block ``orders[i, c]`` (block sizes ``size[i]``).  Then
    each chain turns by the polar factor of its leading columns' overlap
    with the point before: a block outside ``groups`` by the phase
    conj(z)/|z| (1 where |z| <= 1e-12), a group of size-1 blocks as one by
    the k x k factor that makes its overlap Hermitian positive definite.
    Point a-1 must be aligned; later points turn by running products of
    the factors against their predecessors as they stand.
    """
    sizes = size[0]
    starts = np.cumsum(sizes) - sizes
    offsets = np.cumsum(size[a:b], axis=1) - size[a:b]
    cols = (np.repeat(np.take_along_axis(offsets, orders[a:b], 1) - starts,
                      sizes, axis=1) + np.arange(S.shape[1]))
    S[a:b] = np.take_along_axis(S[a:b], cols[:, None, :], 2)
    Si[a:b] = np.take_along_axis(Si[a:b], cols[:, :, None], 1)
    prev, cur = S[a - 1:b - 1], S[a:b]
    z = np.einsum("ijn,ijn->in", prev[:, :, starts].conj(),
                  cur[:, :, starts])
    keep = np.abs(z) > 1e-12
    for members in groups:
        keep[:, members] = False
    phase = np.ones_like(z)
    phase[keep] = z[keep].conj() / np.abs(z[keep])
    turn = np.repeat(_running_product(phase[:, :, None, None])[:, :, 0, 0],
                     sizes, axis=1)
    S[a:b] *= turn[:, None, :]
    Si[a:b] /= turn[:, :, None]
    for members in groups:
        c = starts[members]
        U, _, Vh = np.linalg.svd(prev[:, :, c].conj().transpose(0, 2, 1)
                                 @ cur[:, :, c])
        W = _running_product((U @ Vh).conj().transpose(0, 2, 1))
        S[a:b, :, c] = cur[:, :, c] @ W
        Si[a:b, c, :] = W.conj().transpose(0, 2, 1) @ Si[a:b, c, :]


def _stitch_clear_prefix(lam, size, S, Si, orders, clusters, a, step):
    """Align points a, a+1, ... in place, stacked, up to the first point
    that is not clear, and return that point (``len(lam)`` if none is).

    Point a-1 must be aligned.  Each point is matched to its predecessor
    as it stands (:func:`_match`) and the step matches are composed into
    ``orders`` in log2 stacked rounds.  A point where a semisimple cluster
    of point 0 (``clusters``) has unequal eigenvalues is not clear.  The
    first chunk takes ``step`` points, and the chunks double up to
    ``_STACK_ENTRIES`` matrix entries.
    """
    N, n, sizes = len(lam), S.shape[1], size[0]
    cap = max(1, _STACK_ENTRIES // (n * n))
    step = min(step, cap)
    while a < N:
        b = min(a + step, N)
        offsets = np.cumsum(size[a - 1:b], axis=1) - size[a - 1:b]
        offsets[0] = np.cumsum(sizes) - sizes      # point a-1 is aligned
        lead = np.take_along_axis(S[a - 1:b], offsets[:, None, :], 2)
        lam_run, size_run = lam[a - 1:b].copy(), size[a - 1:b].copy()
        lam_run[0], size_run[0] = lam[a - 1, orders[a - 1]], sizes
        _, col, clear = _match(lam_run, size_run, lead)
        stop = a + int(np.argmin(clear)) if not clear.all() else b
        col = col[:stop - a]
        d = 1
        while d < len(col):
            col[d:] = np.take_along_axis(col[d:], col[:-d], 1)
            d *= 2
        orders[a:stop] = col
        aligned = np.take_along_axis(lam[a:stop], col, 1)
        equal = np.ones(stop - a, dtype=bool)
        for members in clusters:
            equal &= np.all(aligned[:, members] == aligned[:, members[:1]],
                            axis=1)
        stop = a + int(np.argmin(equal)) if not equal.all() else stop
        if stop > a:
            _align_run(S, Si, a, stop, size, orders, clusters)
        if stop < b:
            return stop
        a, step = b, min(2 * step, cap)
    return N


def _stitch(g, lam, size, S, Si):
    """Align every point of the blocks ``lam``, ``size`` (n, nb) to its
    predecessor, rewriting ``S`` and ``Si`` in place.

    Row i holds the eigenvalues and sizes of point i's nb blocks in
    storage order, so all points hold as many blocks.  Returns the block
    orders (row i: the blocks of point i that continue blocks 0, 1, ... of
    point 0), the aligned eigenvalue curves, and the
    :class:`CrossingError` of the first point whose aligned block signature
    differs from point 0's, the rows stopping before it, or None.

    Runs of clear points are matched and transported stacked
    (:func:`_stitch_clear_prefix`, the first run in chunks as large as
    memory allows).  A point that is not clear takes the per-point
    assignment against its aligned predecessor, and the run after it
    starts again at 16 points, as such points may come in numbers.
    """
    sizes = size[0]
    same, _ = _semisimple_groups(lam[:1], size[:1])
    clusters = [np.array(m) for m in
                sorted({tuple(np.flatnonzero(row)) for row in same[0]
                        if row.any()})]
    orders = np.empty(lam.shape, dtype=int)
    orders[0] = np.arange(lam.shape[1])
    i = _stitch_clear_prefix(lam, size, S, Si, orders, clusters, 1, len(lam))
    while i < len(lam):
        pair = np.array([sizes, size[i]])
        offsets = np.cumsum(pair, axis=1) - pair
        cost = _match(np.array([lam[i - 1, orders[i - 1]], lam[i]]), pair,
                      np.array([S[i - 1][:, offsets[0]],
                                S[i][:, offsets[1]]]))[0]
        order = orders[i] = min_cost_assignment(cost[0])
        got, want = tuple(size[i, order].tolist()), tuple(sizes.tolist())
        if got != want:
            return (orders[:i], np.take_along_axis(lam[:i], orders[:i], 1),
                    CrossingError(f"block signature changed from {want} to "
                                  f"{got} at s = {g[i]:.6f}", s=float(g[i]),
                                  signature=got))
        aligned = lam[i, order]
        _align_run(S, Si, i, i + 1, size, orders, [
            m for m in clusters if np.all(aligned[m] == aligned[m[0]])])
        i = _stitch_clear_prefix(lam, size, S, Si, orders, clusters, i + 1,
                                 16)
    return orders, np.take_along_axis(lam, orders, axis=1), None
