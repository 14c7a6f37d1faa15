"""Truncated SVD of rectangular matrices and row-clustering routines.

The top singular vectors of a slice come from ARPACK's implicitly
restarted Lanczos iteration on the sparse slice, so a fold costs a few
sparse products rather than a full dense decomposition.

Community structure is recovered from the top-K right singular vectors
of a rectangular slice of the adjacency matrix: k-means on the raw
rows for the plain block model, and k-median on the row-normalized
("spherical") rows for the degree-corrected model, whose row norms
carry the node-activeness information.  A k-median center is the
geometric median of its cluster, found by Newton's method on the sum of
distances.  Each pass gathers the points of its new clusters (keyed by
member indices, each once, across runs; clusters solved in an earlier
pass of the same call are reused) into one array, a run of columns per
cluster, and steps them together: per-cluster sums by
``np.add.reduceat`` and one batched linear solve per step, with clusters
dropping out as they converge.  No sum crosses a cluster's columns, so
a median has the bits of ``geometric_median`` on that cluster alone.
Weiszfeld steps with the Vardi-Zhang correction take over, one cluster
at a time, where Newton cannot go on (an iterate on a data point,
collinear points, a stalled line search) and lift it out of a data point
that is not the median; a cluster that Newton then resumes steps on in
its batch.

Both clusterers keep the best of ``_RESTARTS`` seeded restarts.  All
start centers are drawn first, in restart order (the runs draw no random
numbers), and in lockstep: every restart's k-means++ draws are taken in
the order of seeding one restart after another, then the distance
weights of all restarts are updated together.  A restart whose weights
sum to 0 (every point on one of its centers) takes point 0.  The runs
then go in lockstep, each pass assigning and updating every run
not yet settled.  Each run does the arithmetic of a run on its
own, and the first run with the smallest objective wins, so the result
is that of sequential restarts that replace the best only on a strictly
smaller objective.

A pass assigns the points from a screen: one small matrix product per
center gives ||c||^2 - 2 x.c for every point of every run, and a running
best and runner-up pick the labels.  A point whose runner-up is within a
rounding bound of its best, or not finite, is decided by the exact
distances, summed column by column; so are the distances a run needs
when it stops (its objective), when it has an empty cluster (the repair)
and at ``max_iter``.  The labels are thus those of the exact distances,
whatever order BLAS sums the products in.
"""

from __future__ import annotations

import logging
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

logger = logging.getLogger(__name__)

_ZERO_ROW_TOL = 1e-12
_ON_POINT_TOL = 1e-10  # the Newton median hands over to Weiszfeld this close to a point
_ARMIJO = 1e-4
_RESTARTS = 10
_MAX_ITER = 100
_MEDIAN_TOL = 1e-8
_MEDIAN_MAX_ITER = 500
_MEDIAN_BATCH = 1 << 14  # points per batched median solve; a larger set goes alone


class SingularBasis(NamedTuple):
    U: np.ndarray      # n x K, orthonormal columns (top right singular vectors)
    sigma: np.ndarray  # K singular values, nonincreasing


class ClusterResult(NamedTuple):
    labels: np.ndarray   # length n, values in 1..K
    centers: np.ndarray  # K x d
    objective: float


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry of each column is positive."""
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
    return U


def top_k_right_singular(M, k: int) -> SingularBasis:
    """Top-k right singular vectors and values of a rectangular matrix.

    M may be dense or sparse; it is converted to float CSR.  The top-k
    eigenvectors of M^T M come from ARPACK's implicitly restarted
    Lanczos iteration to machine precision; the start vector and any
    restart vectors ARPACK draws come from a fixed-seed generator, so
    the result is deterministic given M.  Matrices too small for a
    Lanczos basis to be smaller than the whole space take a dense SVD,
    and an all-zero matrix gives sigma = 0 with the first k unit
    vectors.  Column signs follow a fixed convention (largest-magnitude
    entry positive) for reproducibility.  A NaN or infinite entry is
    refused with ValueError.
    """
    M = csr_array(M, dtype=float)
    m, n = M.shape
    if k < 1 or k > min(m, n):
        raise ValueError(f"need 1 <= k <= min(M.shape), got k={k}, shape={M.shape}")
    if not np.isfinite(M.data).all():
        raise ValueError("need finite entries, got NaN or inf")
    if not M.data.any():
        return SingularBasis(np.eye(n, k), np.zeros(k))
    if min(m, n) <= max(2 * k + 1, 20):
        _, s, Vt = np.linalg.svd(M.toarray(), full_matrices=False)
        return SingularBasis(_fix_signs(Vt[:k].T.copy()), s[:k].copy())
    MT = M.T.tocsr()  # built once: each entry of MT @ y sums in the order M.T @ y does
    gram = LinearOperator((n, n), dtype=float, matvec=lambda x: MT @ (M @ x))
    try:
        _, Q = eigsh(gram, k=k, rng=np.random.default_rng(0))
    except ArpackError as exc:
        raise RuntimeError(f"ARPACK failed on a {m}x{n} slice with k={k}: {exc}") from exc
    # ARPACK's eigenvectors are orthonormal only up to rounding.  With Q
    # orthonormal and M Q = W diag(s) Z^T, the columns of Q Z are the
    # right singular vectors, in the nonincreasing order of s.
    Q = np.linalg.qr(Q)[0]
    _, s, Zt = np.linalg.svd(M @ Q, full_matrices=False)
    return SingularBasis(_fix_signs(Q @ Zt.T), s)


def _seed_runs(X: np.ndarray, k: int, runs: int, rng: np.random.Generator,
               squared: bool) -> np.ndarray:
    """k-means++ start centers (runs, k, d) of ``runs`` restarts in
    lockstep; distance weights are squared for k-means, plain for
    k-median.  Each run's draws come first, in restart order: its first
    index, then one uniform per further center, taken as
    ``rng.choice(n, p=w / w.sum())`` takes it.  The k-means++ updates then
    go on (runs, n) arrays, the distances summed column by column as in
    ``_nearest``.  A run whose weights sum to 0 has every point on one of
    its centers; its NaN cdf counts no entry below the uniform, so it
    takes point 0."""
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    picks = np.empty((runs, k), dtype=np.intp)
    u = np.empty((runs, k - 1))
    for r in range(runs):
        picks[r, 0] = rng.integers(n)
        u[r] = rng.random(k - 1)
    for c in range(1, k):
        d = _center_dist(XT, X[picks[:, c - 1]])
        dmin = d if c == 1 else np.minimum(dmin, d, out=dmin)
        w = dmin**2 if squared else dmin
        total = w.sum(axis=1)
        # the draw of rng.choice(n, p=w / total): the count of cdf entries <= u
        with np.errstate(invalid="ignore"):  # a zero total gives a NaN cdf
            cdf = np.cumsum(w / total[:, None], axis=1)
            cdf /= cdf[:, -1:].copy()
        picks[:, c] = (cdf <= u[:, c - 1:c]).sum(axis=1)
    return X[picks]


def _dist(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis (width >= 1), the squares summed
    column by column in order."""
    s = diff[..., 0] ** 2
    for j in range(1, diff.shape[-1]):
        s += diff[..., j] ** 2
    return np.sqrt(s)


def _center_dist(XT: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Distances (runs, n) from the points to one center per run, for C
    (runs, d) and ``XT = X.T``: the bits of ``_dist(X - C[r])``, summed
    column by column with no (runs, n, d) array."""
    s = (XT[0] - C[:, :1]) ** 2
    for t in range(1, C.shape[1]):
        s += (XT[t] - C[:, t:t + 1]) ** 2
    return np.sqrt(s, out=s)


def _nearest(XT: np.ndarray, centers: np.ndarray):
    """Nearest-center labels (0-based; ties to the lowest index, kept by a
    running strict ``<``) and distances, each (runs, n), for centers
    (runs, k, d) and ``XT = X.T`` C-contiguous: the bits of ``_dist`` on
    ``X[:, None, :] - centers[r]``, summed column by column from ``XT``."""
    runs, k, _ = centers.shape
    labels = np.zeros((runs, XT.shape[1]), dtype=np.intp)
    for j in range(k):
        dj = _center_dist(XT, centers[:, j])
        if j == 0:
            dist = dj
        else:
            np.putmask(labels, dj < dist, j)
            np.minimum(dist, dj, out=dist)
    return labels, dist


# The screen in ``_labels`` ranks the centers of a point x by
# s_j = ||c_j||^2 - 2 x.c_j = ||x - c_j||^2 - ||x||^2, one product of
# (x, 1) with (-2 c_j, ||c_j||^2), and trusts its pick when the runner-up's
# s exceeds the best's by more than
#     tol = 8 (d + 4) eps (||x||^2 + max_j ||c_j||^2 + tiny),
# with eps = 2^-52 and tiny the smallest normal float.  Write m for
# ||x||^2 + max_j ||c_j||^2.  Why tol is enough:
# - In any summation order, with or without FMA, the product's d + 1 terms
#   add up to at most 2 |x| |c_j| + ||c_j||^2 <= m + ||c_j||^2, and
#   ||c_j||^2 is itself off by at most d eps/2 of its value, so a computed
#   s_j is off by at most (1.5 d + 1) eps m, and a gap between two centers
#   by at most (3d + 2.1) eps m, counting the subtraction that forms it.
# - ``_nearest`` rounds each difference, square and partial sum, which
#   moves a squared distance (at most 2m) by at most (d + 2) eps m, and its
#   square root may merge two values up to 4 eps m apart.  So its strict
#   ``<`` ranks two centers as exact arithmetic does once their true gap
#   exceeds (2d + 8.1) eps m.
# - A screened gap above tol thus leaves a true gap above that, and both
#   paths pick the same center: together they need (5d + 10.2) eps m,
#   which 8 (d + 4) eps m exceeds 2 times up to d = 5 and 1.6 times at
#   any d.  The tiny term covers the absolute error, at most eps tiny / 2
#   each, of the few products that fall below the normal range.
# Every other point, and every point whose gap is not finite (an overflow
# or a NaN), is decided by ``_nearest`` itself, so no label depends on how
# the product was summed.
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _labels(XT1: np.ndarray, centers: np.ndarray, xx: np.ndarray):
    """The labels of ``_nearest``, (runs, n), for centers (runs, k, d),
    ``XT1`` the (d + 1, n) C-contiguous array of ``X.T`` over a row of
    ones and ``xx`` the squared point norms; also, per run, the number of
    points decided by ``_nearest``.  Each center in turn takes one
    (runs, d + 1) x (d + 1, n) product, the screen s_j above with
    ||c_j||^2 as its last term, and a running best and runner-up pick the
    labels; the points the screen cannot decide go to ``_nearest``, once
    per run that has any.  The work arrays are (runs, n)."""
    runs, k, d = centers.shape
    n = XT1.shape[1]
    exact = np.zeros(runs, dtype=np.intp)
    if k == 1:
        return np.zeros((runs, n), dtype=np.intp), exact
    # The label is the last center whose s fell below the best so far, so
    # a running maximum of j * (s_j < best) holds it without a masked write.
    small = np.min_scalar_type(k - 1)
    pick, mark = np.zeros((runs, n), dtype=small), np.empty((runs, n), dtype=small)
    best, runner, s = np.empty((3, runs, n))
    C = np.empty((k, runs, d + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite gaps go to _nearest
        np.multiply(centers.transpose(1, 0, 2), -2.0, out=C[..., :d])  # exact unless inf
        np.einsum("rjt,rjt->jr", centers, centers, out=C[..., d])
        np.matmul(C[0], XT1, out=best)
        for j in range(1, k):
            np.matmul(C[j], XT1, out=s)
            np.less(s, best, out=mark)
            mark *= small.type(j)
            np.maximum(pick, mark, out=pick)
            if j == 1:
                np.maximum(best, s, out=runner)
            else:  # best <= runner, so min(runner, max(best, s)) is this
                np.minimum(runner, s, out=runner)
                np.maximum(runner, best, out=runner)
            np.minimum(best, s, out=best)
        gap = np.subtract(runner, best, out=runner)
        scale = 8 * (d + 4) * _EPS
        tol = np.add(xx * scale, (C[..., d].max(axis=0) + _TINY)[:, None] * scale, out=s)
        sure = np.greater(gap, tol)
        sure &= gap < np.inf
    labels = pick.astype(np.intp)
    if sure.all():
        return labels, exact
    XT = XT1[:d]
    for r in np.flatnonzero(~sure.all(axis=1)):
        cols = np.flatnonzero(~sure[r])
        labels[r, cols] = _nearest(XT.take(cols, axis=1), centers[r:r + 1])[0][0]
        exact[r] = cols.size
    return labels, exact


def _repair_empty(X, centers, empty, dist):
    """Reseed each empty cluster of each run (``empty`` (runs, k)), in
    cluster order, at the point farthest from its run's current center, in
    place.  Returns per run whether a center moved (if none did, the next
    update changes nothing).  A run whose points all sit within
    ``_ZERO_ROW_TOL`` of a center has nothing left to split off, so its
    empty clusters stay empty."""
    moved = np.zeros(len(centers), dtype=bool)
    d = dist.copy()  # marked below, so never the caller's
    for r, c in np.argwhere(empty):
        idx = int(np.argmax(d[r]))
        if d[r, idx] < _ZERO_ROW_TOL:
            continue
        moved[r] |= not np.array_equal(centers[r, c], X[idx])
        centers[r, c] = X[idx]
        d[r, idx] = -1.0
        logger.debug("reseeded empty cluster %d at point %d", c, idx)
    return moved


def _means(X: np.ndarray, bins: np.ndarray, counts: np.ndarray, centers: np.ndarray):
    """The k-means update: move each nonempty cluster's center to the mean
    of its points, for centers (runs, k, d), in place, from the bins
    (runs, n) of ``_alternate`` and the cluster sizes (runs, k), each
    cluster's rows summed in order by ``np.bincount``."""
    runs, k, d = centers.shape
    bins, counts = bins.ravel(), counts.ravel()
    sums = np.empty((runs * k, d))
    weights = np.empty((runs, X.shape[0]))  # one coordinate of every run's points
    for j in range(d):
        weights[:] = X[:, j]
        sums[:, j] = np.bincount(bins, weights.ravel(), runs * k)
    full = counts > 0
    centers.reshape(runs * k, d)[full] = sums[full] / counts[full, None]


def _alternate(X: np.ndarray, centers: np.ndarray, update, squared: bool,
               max_iter: int = _MAX_ITER):
    """Alternating assignment / center updates of several runs in lockstep,
    from centers (runs, k, d); returns labels (runs, n), centers and
    objectives (runs,).  ``update(X, bins, counts, centers)`` moves the
    centers of the runs still going, in place, from their bins (labels
    plus k times the run's row) and cluster sizes (runs, k), counted once
    per pass; the objective sums squared
    distances when ``squared``, else plain ones.  A run stops once its
    labels are unchanged and no empty-cluster repair moved a center; a
    run still going at ``max_iter`` logs a warning.

    Each pass labels the points by ``_labels``, which leaves the exact
    distances of ``_nearest`` to the few points a cheaper screen cannot
    decide.  The distances themselves are computed, in one ``_nearest``
    call per pass, only for the runs that need them: a run whose labels
    did not change (its objective, should it stop) and a run with an
    empty cluster (for the repair); a run still going at ``max_iter``
    gets them once, after its last update.  A settled run's objective
    is thus that of its final centers."""
    def total(dist):
        return (dist**2).sum(axis=1) if squared else dist.sum(axis=1)
    runs, k, _ = centers.shape
    XT1 = np.ones((X.shape[1] + 1, X.shape[0]))
    XT = XT1[:-1]
    XT[:] = X.T
    with np.errstate(over="ignore"):  # any order, and overflow: xx only scales a bound
        xx = np.einsum("ij,ij->i", X, X)
    labels = np.empty((runs, X.shape[0]), dtype=np.intp)
    final = np.empty_like(centers)
    objectives = np.empty(runs)
    going, moving = np.arange(runs), centers.copy()
    last = np.full((runs, X.shape[0]), -1, dtype=np.intp)  # the going runs' labels
    passes = exact_pairs = exact_calls = 0
    for passes in range(1, max_iter + 1):
        new, exact = _labels(XT1, moving, xx)
        exact_pairs += int(exact.sum())
        exact_calls += int(np.count_nonzero(exact))
        bins = new + k * np.arange(len(going))[:, None]
        counts = np.bincount(bins.ravel(), minlength=len(going) * k).reshape(len(going), k)
        empty = counts == 0
        on = (new != last).any(axis=1)
        check = np.flatnonzero(~on | empty.any(axis=1))
        if check.size:
            exact_calls += 1
            sub = moving[check]
            dist = _nearest(XT, sub)[1]
            if empty[check].any():
                on[check] |= _repair_empty(X, sub, empty[check], dist)
                moving[check] = sub
            stop = ~on[check]
            done = going[check[stop]]
            labels[done] = new[check[stop]]
            final[done] = sub[stop]
            objectives[done] = total(dist[stop])
        going, moving, last = going[on], moving[on], new[on]
        if going.size == 0:
            break
        if going.size < on.size:  # renumber the bins of the runs going on
            bins, counts = last + k * np.arange(going.size)[:, None], counts[on]
        update(X, bins, counts, moving)
    for _ in going:
        logger.warning("clustering of %d points into %d clusters stopped at max_iter=%d "
                       "before the labels settled", X.shape[0], k, max_iter)
    if going.size:
        exact_calls += 1
        labels[going] = last
        final[going] = moving
        objectives[going] = total(_nearest(XT, moving)[1])
    logger.debug("clustering of %d points into %d clusters (%d runs): %d passes, %d (run, "
                 "point) pairs decided by exact distances, %d exact-distance calls",
                 X.shape[0], k, runs, passes, exact_pairs, exact_calls)
    return labels, final, objectives


def _cluster(X, k: int, rng: np.random.Generator, update, squared: bool) -> ClusterResult:
    """Best of ``_RESTARTS`` seeded runs of the alternating loop, run in
    lockstep; ties in the objective go to the earliest run."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] < k or X.shape[1] < 1:
        raise ValueError(f"need at least k={k} rows and one column, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("need finite entries, got NaN or inf")
    seeds = _seed_runs(X, k, _RESTARTS, rng, squared)
    labels, centers, objectives = _alternate(X, seeds, update, squared)
    best = int(np.argmin(objectives))
    return ClusterResult(labels[best] + 1, centers[best].copy(), float(objectives[best]))


def kmeans(X: np.ndarray, k: int, rng: np.random.Generator) -> ClusterResult:
    """k-means with k-means++ seeding, Lloyd iterations and restarts.

    The best objective (sum of squared distances to assigned centers) over
    10 runs of at most 100 passes is kept, deterministic given the generator.
    Empty clusters are reseeded at the point farthest from its current
    center; if the data cannot fill k clusters, the result may leave
    some labels unused.  A NaN or infinite entry is refused with
    ValueError.
    """
    return _cluster(X, k, rng, _means, squared=True)


def _weiszfeld(P: np.ndarray, y: np.ndarray, tol: float, max_iter: int):
    """Weiszfeld iteration from y, with the Vardi-Zhang step for an iterate
    on a data point; returns the last iterate and whether a step fell
    below tol within max_iter steps."""
    for _ in range(max_iter):
        d = _dist(P - y)
        on_point = d < _ZERO_ROW_TOL
        eta = np.count_nonzero(on_point)
        if eta == 0:
            w = 1.0 / d
            y_new = (P * w[:, None]).sum(axis=0) / w.sum()
        else:
            if eta == P.shape[0]:
                return y, True
            w = 1.0 / d[~on_point]
            T = (P[~on_point] * w[:, None]).sum(axis=0) / w.sum()
            r = np.linalg.norm((T - y) * w.sum())
            if r <= eta:
                return y, True
            step = eta / r
            y_new = (1.0 - step) * T + step * y
        if np.linalg.norm(y_new - y) < tol:
            return y_new, True
        y = y_new
    return y, False


def _solve(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """s_j = H_j^{-1} g_j for H (S, dim, dim) and g (S, dim), with NaN for
    a singular H_j: one failing matrix leaves the others' solves alone."""
    try:
        return np.linalg.solve(H, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        s = np.full_like(g, np.nan)
        for j in range(len(g)):
            try:  # the same batched call on one matrix, so the same bits
                s[j] = np.linalg.solve(H[j:j + 1], g[j:j + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return s


@lru_cache
def _upper_pairs(dim: int):
    """The index arrays of the pairs a <= b below dim, read-only as every
    caller shares them."""
    pairs = np.triu_indices(dim)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _newton_step(PT: np.ndarray, counts: np.ndarray, y: np.ndarray, diff: np.ndarray,
                 d: np.ndarray, tol: float):
    """One Newton step on f_j(y) = sum_i ||x_i - y|| for each of several
    point sets j at once.  Set j is ``counts[j]`` consecutive columns of
    PT (dim x M), its iterate is column j of y (dim x S), diff holds
    y_j - x_i column by column and d its column norms.  Every sum runs
    over one set's own columns (``np.add.reduceat``), so no set's bits
    depend on the others.  A step is halved until f_j falls by an Armijo
    fraction.  Returns (y, diff, d, reasons): the iterates, diff and d of
    the new iterates (for every set that did not converge), and per set
    None after a step, the reason Newton stops at the old iterate ("on a
    point", "singular", "stall"), or "converged" with y_j - s_j once the
    step s_j is below tol."""
    dim, S = y.shape
    starts = np.cumsum(counts) - counts
    reasons = np.full(S, None, dtype=object)
    on = np.minimum.reduceat(d, starts) < _ON_POINT_TOL
    a, b = _upper_pairs(dim)
    # rows u_i = diff_i w_i, w_i and w_i u_ia u_ib (a <= b), summed per set at once
    terms = np.empty((dim + 1 + a.size, d.size))
    w = terms[dim]
    np.divide(1.0, np.where(np.repeat(on, counts), 1.0, d) if on.any() else d, out=w)
    u = np.multiply(diff, w, out=terms[:dim])
    uw = u * w
    for p in range(a.size):
        np.multiply(uw[a[p]], u[b[p]], out=terms[dim + 1 + p])
    sums = np.add.reduceat(terms, starts, axis=1).T
    g = sums[:, :dim]
    H = np.empty((S, dim, dim))
    H[:, a, b] = H[:, b, a] = -sums[:, dim + 1:]
    H.reshape(S, dim * dim)[:, ::dim + 1] += sums[:, dim:dim + 1]
    if on.any():
        reasons[on] = "on a point"
        H[on] = np.eye(dim)
    s = _solve(H, g)
    with np.errstate(over="ignore", invalid="ignore"):  # s from a (near) singular H
        slope = g[:, 0] * s[:, 0]
        for t in range(1, dim):
            slope += g[:, t] * s[:, t]
        length = _dist(s)
    singular = ~on & ~((0.0 < slope) & (slope < np.inf))  # no finite descent step
    done = on | singular | (length < tol)
    conv = done & ~(on | singular)
    reasons[singular] = "singular"
    reasons[conv] = "converged"
    y = y - np.where(conv, s.T, 0.0)
    f, t = np.add.reduceat(d, starts), 1.0
    search, stall = ~done, ~done
    # A trial recomputes every set's columns, and those of a set whose
    # iterate stays keep their bits, so the trial arrays replace diff and d
    # whole once every set still searching has stepped.
    while (search := search & (t * length >= tol)).any():
        y_t = y - t * np.where(search, s.T, 0.0)
        diff_t = np.repeat(y_t, counts, axis=1)
        diff_t -= PT
        d_t = _dist(diff_t.T)
        ok = search & (np.add.reduceat(d_t, starts) <= f - _ARMIJO * t * slope)
        y = np.where(ok, y_t, y)
        if (ok == search).all():
            diff, d = diff_t, d_t
        elif ok.any():
            cols = np.repeat(ok, counts)
            diff, d = np.where(cols, diff_t, diff), np.where(cols, d_t, d)
        search &= ~ok
        stall &= ~ok
        t *= 0.5
    reasons[stall] = "stall"
    return y, diff, d, reasons


def _warn_capped(n: int, max_iter: int, tol: float):
    logger.warning("geometric median of %d points stopped at max_iter=%d "
                   "before the step fell below tol=%g", n, max_iter, tol)


def _newton_medians(PT: np.ndarray, counts: np.ndarray, out: np.ndarray, tol: float,
                    max_iter: int):
    """Fill row j of out with the geometric median of the ``counts[j]``
    consecutive columns of PT, see ``geometric_median``.  The sets step
    together in ``_newton_step`` and drop out as they converge; a set that
    Newton stops for another reason goes through the Weiszfeld hand-off
    on its own and, if Newton resumes, stays in the batch from its new
    iterate, its own columns of diff and d refilled."""
    ids = np.arange(len(counts))
    y = np.add.reduceat(PT, np.cumsum(counts) - counts, axis=1) / counts
    diff = np.repeat(y, counts, axis=1) - PT
    d = _dist(diff.T)
    for steps in range(max_iter):
        y, diff, d, reasons = _newton_step(PT, counts, y, diff, d, tol)
        going = np.equal(reasons, None)
        if going.all():
            continue
        starts = np.cumsum(counts) - counts
        for j in np.flatnonzero(~going):
            if reasons[j] == "converged":
                out[ids[j]] = y[:, j]
                continue
            own = slice(starts[j], starts[j] + counts[j])
            P, dj = np.ascontiguousarray(PT[:, own].T), d[own]
            logger.debug("geometric median of %d points: Newton fell back to "
                         "Weiszfeld (%s)", P.shape[0], reasons[j])
            near = P[np.argmin(dj)]
            if not _dist(P - near).sum() < dj.sum():
                out[ids[j]], settled = _weiszfeld(P, y[:, j], tol, max_iter - steps)
                if not settled:
                    _warn_capped(counts[j], max_iter, tol)
                continue
            yj, settled = _weiszfeld(P, near.copy(), tol, 1)
            if settled:
                out[ids[j]] = yj
            else:
                y[:, j] = yj
                diff[:, own] = yj[:, None] - PT[:, own]
                d[own] = _dist(diff[:, own].T)
                going[j] = True
        if not going.any():
            break
        cols = np.repeat(going, counts)
        PT, diff, d = PT.compress(cols, axis=1), diff.compress(cols, axis=1), d[cols]
        counts, ids, y = counts[going], ids[going], y[:, going]
    else:
        for j, (i, count) in enumerate(zip(ids, counts)):
            _warn_capped(count, max_iter, tol)
            out[i] = y[:, j]


def _geometric_medians(X: np.ndarray, members) -> np.ndarray:
    """Geometric medians (S, d) of the point sets ``X[m]`` for m in
    members, each the bits of ``geometric_median(X[m])``.  The sets are
    solved together in batches of at most ``_MEDIAN_BATCH`` points (a
    larger set alone), so the work arrays stay one batch long."""
    tol, max_iter, cap = _MEDIAN_TOL, _MEDIAN_MAX_ITER, _MEDIAN_BATCH
    XT = np.ascontiguousarray(X.T, dtype=float)
    sizes = np.array([len(m) for m in members])
    out = np.empty((len(members), XT.shape[0]))
    first = 0
    while first < len(members):
        last, total = first + 1, sizes[first]
        while last < len(members) and total + sizes[last] <= cap:
            total += sizes[last]
            last += 1
        PT = XT.take(np.concatenate(members[first:last]), axis=1)
        _newton_medians(PT, sizes[first:last], out[first:last], tol, max_iter)
        first = last
    return out


def geometric_median(P: np.ndarray) -> np.ndarray:
    """Geometric median: the point y that minimises f(y) = sum_i ||x_i - y||.

    Newton's method on f from the mean, which converges quadratically
    (Overton 1983).  With d_i = ||y - x_i|| and u_i = (y - x_i) / d_i the
    gradient is g = sum_i u_i and the Hessian is
    H = (sum_i 1/d_i) I - sum_i u_i u_i^T / d_i.  The step s = H^{-1} g is
    halved until f falls by an Armijo fraction of g.s, and y - s is
    returned once ||s|| < 1e-8.

    Newton stops when an iterate comes within 1e-10 of a data point, when
    H is singular (collinear points) or when the halving stalls below 1e-8.
    If f is lower at the data point nearest to the iterate, Newton has been
    drawn into the kink f has there: one Weiszfeld step from that point,
    with the Vardi-Zhang correction, either confirms it as the median or
    leaves it downhill, and Newton resumes.  Otherwise Weiszfeld iteration
    goes on from the iterate.  At most 500 Newton and Weiszfeld steps are
    taken together; a call that reaches the cap logs a warning and returns
    the last iterate.  k-median solves many sets at once with the same
    code; every sum runs over one set's own points, so a set's median has
    the same bits in a batch as alone.  A NaN or infinite coordinate is
    refused with ValueError.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1 or P.shape[1] < 1:
        raise ValueError(f"need at least one point as a row with at least one column, "
                         f"got shape {P.shape}")
    if not np.isfinite(P).all():
        raise ValueError("need finite entries, got NaN or inf")
    return _geometric_medians(P, [np.arange(P.shape[0])])[0]


def _median_update(memo: dict, X: np.ndarray, bins: np.ndarray, counts: np.ndarray,
                   centers: np.ndarray):
    """The k-median update: move each nonempty cluster's center to the
    geometric median of its points, for centers (runs, k, d), in place,
    from the bins (runs, n) of ``_alternate`` and the cluster sizes
    (runs, k).  ``memo`` maps a cluster's member indices to its median,
    across runs and passes; the new clusters of a pass, each once, are
    solved together by ``_geometric_medians``."""
    k = centers.shape[1]
    order = np.argsort(bins.ravel(), kind="stable") % X.shape[0]  # members in index order
    sizes = counts.ravel()
    ends = np.cumsum(sizes)
    keys, new = {}, {}
    for cell in np.flatnonzero(sizes):
        members = order[ends[cell] - sizes[cell]:ends[cell]]
        keys[cell] = key = members.tobytes()
        if key not in memo:
            new[key] = members
    if new:
        memo.update(zip(new, _geometric_medians(X, list(new.values()))))
    for cell, key in keys.items():
        centers[divmod(cell, k)] = memo[key]


def kmedian_spherical(X: np.ndarray, k: int, rng: np.random.Generator) -> ClusterResult:
    """k-median clustering: centers are geometric medians, the objective is
    the sum of Euclidean (not squared) distances to assigned centers; best
    of 10 runs of at most 100 passes.  Intended for row-normalized rows.
    Runs and passes that reach the same cluster share its median,
    computed once."""
    return _cluster(X, k, rng, partial(_median_update, {}), squared=False)


def spherical_embed(U: np.ndarray):
    """Scale each row of U to unit norm.

    Returns (rows, rownorms, zero_rows): the normalized matrix (rows of
    norm < 1e-12 are left as zeros), the original row norms, and the
    indices of the zero rows.
    """
    U = np.asarray(U, dtype=float)
    norms = np.linalg.norm(U, axis=1)
    zero_rows = np.nonzero(norms < _ZERO_ROW_TOL)[0]
    rows = U.copy()
    nonzero = norms >= _ZERO_ROW_TOL
    rows[nonzero] /= norms[nonzero, None]
    return rows, norms, zero_rows


def _top_k(Arect, k: int, basis: SingularBasis | None) -> np.ndarray:
    """The top-k right singular vectors of Arect, from ``basis`` if given."""
    if basis is None:
        basis = top_k_right_singular(Arect, k)
    if basis.U.shape[1] < k:
        raise ValueError(f"basis has {basis.U.shape[1]} columns, need k={k}")
    return basis.U[:, :k]


def spectral_cluster_rect(Arect: np.ndarray, k: int, rng: np.random.Generator,
                          basis: SingularBasis | None = None) -> np.ndarray:
    """Membership for all n nodes from an n1 x n rectangular slice:
    k-means on the rows of the top-k right singular vectors.

    A precomputed SingularBasis for Arect, with at least k columns, may be
    passed to avoid repeating the decomposition across candidate values of k.
    """
    return kmeans(_top_k(Arect, k, basis), k, rng).labels


def spherical_spectral_cluster_rect(Arect: np.ndarray, k: int, rng: np.random.Generator,
                                    basis: SingularBasis | None = None):
    """Degree-robust membership from a rectangular slice.

    Rows of the top-k right singular vectors are scaled to unit norm
    and clustered with k-median; zero rows are assigned to the largest
    estimated cluster.  Also returns the row norms, which estimate the
    community-normalized node activeness.
    """
    U = _top_k(Arect, k, basis)
    rows, rownorms, zero_rows = spherical_embed(U)
    nonzero = np.setdiff1d(np.arange(U.shape[0]), zero_rows)
    if nonzero.size < k:
        raise ValueError(f"only {nonzero.size} nonzero rows for k={k} clusters")
    result = kmedian_spherical(rows[nonzero], k, rng)
    labels = np.empty(U.shape[0], dtype=np.int64)
    labels[nonzero] = result.labels
    if zero_rows.size:
        counts = np.bincount(result.labels, minlength=k + 1)
        labels[zero_rows] = int(np.argmax(counts[1:])) + 1
        logger.debug("assigned %d zero row(s) to the largest cluster", zero_rows.size)
    return labels, rownorms
