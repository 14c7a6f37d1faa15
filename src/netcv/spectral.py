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
distances.  Weiszfeld steps with the Vardi-Zhang correction take over
where Newton cannot go on (an iterate on a data point, collinear points,
a stalled line search) and lift it out of a data point that is not the
median.

Both clusterers keep the best of ``_RESTARTS`` seeded restarts.  All
start centers are drawn first, in restart order (the runs draw no random
numbers); the runs then go in lockstep, each pass assigning and updating
every run not yet settled.  Each run does the arithmetic of a run on its
own, and the first run with the smallest objective wins, so the result
is that of sequential restarts that replace the best only on a strictly
smaller objective.
"""

from __future__ import annotations

import logging
from functools import partial
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
    entry positive) for reproducibility.
    """
    M = csr_array(M, dtype=float)
    m, n = M.shape
    if k < 1 or k > min(m, n):
        raise ValueError(f"need 1 <= k <= min(M.shape), got k={k}, shape={M.shape}")
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


def _seed_centers(X: np.ndarray, k: int, rng: np.random.Generator, squared: bool) -> np.ndarray:
    """k-means++ style seeding; distance weights are squared for k-means,
    plain for k-median."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    if k == 1:
        return centers
    dmin = _dist(X - centers[0])
    for c in range(1, k):
        w = dmin**2 if squared else dmin
        total = w.sum()
        if total > 0.0:
            # the draw of rng.choice(n, p=w / total), without its checks on p
            cdf = np.cumsum(w / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = int(rng.integers(n))
        centers[c] = X[idx]
        dmin = np.minimum(dmin, _dist(X - centers[c]))
    return centers


def _dist(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis (width >= 1), the squares summed
    column by column in order."""
    s = diff[..., 0] ** 2
    for j in range(1, diff.shape[-1]):
        s += diff[..., j] ** 2
    return np.sqrt(s)


def _nearest(XT: np.ndarray, centers: np.ndarray):
    """Nearest-center labels (0-based; ties to the lowest index, kept by a
    running strict ``<``) and distances, each (runs, n), for centers
    (runs, k, d) and ``XT = X.T`` C-contiguous: the bits of ``_dist`` on
    ``X[:, None, :] - centers[r]``, summed column by column from ``XT``."""
    runs, k, d = centers.shape
    labels = np.zeros((runs, XT.shape[1]), dtype=np.intp)
    for j in range(k):
        s = (XT[0] - centers[:, j, :1]) ** 2
        for t in range(1, d):
            s += (XT[t] - centers[:, j, t:t + 1]) ** 2
        dj = np.sqrt(s)
        if j == 0:
            dist = dj
        else:
            closer = dj < dist
            labels[closer] = j
            np.minimum(dist, dj, out=dist)
    return labels, dist


def _repair_empty(X, centers, labels, dist):
    """Reseed each empty cluster of each run, in cluster order, at the point
    farthest from its run's current center, in place.  Returns per run
    whether a center moved (if none did, the next update changes nothing).
    A run whose points all sit within ``_ZERO_ROW_TOL`` of a center has
    nothing left to split off, so its empty clusters stay empty."""
    runs, k, _ = centers.shape
    counts = np.bincount((labels + k * np.arange(runs)[:, None]).ravel(), minlength=runs * k)
    moved = np.zeros(runs, dtype=bool)
    d = dist.copy()
    for r, c in np.argwhere(counts.reshape(runs, k) == 0):
        idx = int(np.argmax(d[r]))
        if d[r, idx] < _ZERO_ROW_TOL:
            continue
        moved[r] |= not np.array_equal(centers[r, c], X[idx])
        centers[r, c] = X[idx]
        d[r, idx] = -1.0
        logger.debug("reseeded empty cluster %d at point %d", c, idx)
    return moved


def _each_cluster(center_of, X: np.ndarray, labels: np.ndarray, centers: np.ndarray):
    """Move each nonempty cluster's center to ``center_of`` its points, for
    labels (runs, n) and centers (runs, k, d), in place."""
    for run, run_centers in zip(labels, centers):
        for c in np.unique(run):
            run_centers[c] = center_of(X[run == c])


def _means(X: np.ndarray, labels: np.ndarray, centers: np.ndarray):
    """The k-means update of ``_each_cluster`` with the mean, each cluster's
    rows summed in order by ``np.bincount``."""
    runs, k, d = centers.shape
    bins = (labels + k * np.arange(runs)[:, None]).ravel()
    counts = np.bincount(bins, minlength=runs * k)
    sums = np.stack([np.bincount(bins, np.tile(X[:, j], runs), runs * k)
                     for j in range(d)], axis=1)
    full = counts > 0
    centers.reshape(runs * k, d)[full] = sums[full] / counts[full, None]


def _alternate(X: np.ndarray, centers: np.ndarray, update, squared: bool,
               max_iter: int = _MAX_ITER):
    """Alternating assignment / center updates of several runs in lockstep,
    from centers (runs, k, d); returns labels (runs, n), centers and
    objectives (runs,).  ``update(X, labels, centers)`` moves the centers
    of the runs still going, in place; the objective sums squared
    distances when ``squared``, else plain ones.  A run stops once its
    labels are unchanged and no empty-cluster repair moved a center; a
    run still going at ``max_iter`` logs a warning."""
    XT = np.ascontiguousarray(X.T)
    labels = np.full((len(centers), len(X)), -1, dtype=np.intp)
    final = np.empty_like(centers)
    going, moving = np.arange(len(centers)), centers.copy()
    for _ in range(max_iter):
        new, dist = _nearest(XT, moving)
        on = _repair_empty(X, moving, new, dist) | (new != labels[going]).any(axis=1)
        labels[going] = new
        final[going[~on]] = moving[~on]
        going, moving = going[on], moving[on]
        if going.size == 0:
            break
        update(X, labels[going], moving)
    for _ in going:
        logger.warning("clustering of %d points into %d clusters stopped at max_iter=%d "
                       "before the labels settled", X.shape[0], centers.shape[1], max_iter)
    final[going] = moving
    dist = _nearest(XT, final)[1]
    return labels, final, (dist**2).sum(axis=1) if squared else dist.sum(axis=1)


def _cluster(X, k: int, rng: np.random.Generator, update, squared: bool) -> ClusterResult:
    """Best of ``_RESTARTS`` seeded runs of the alternating loop, run in
    lockstep; ties in the objective go to the earliest run."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] < k or X.shape[1] < 1:
        raise ValueError(f"need at least k={k} rows and one column, got shape {X.shape}")
    seeds = np.stack([_seed_centers(X, k, rng, squared=squared) for _ in range(_RESTARTS)])
    labels, centers, objectives = _alternate(X, seeds, update, squared)
    best = int(np.argmin(objectives))
    return ClusterResult(labels[best] + 1, centers[best].copy(), float(objectives[best]))


def kmeans(X: np.ndarray, k: int, rng: np.random.Generator) -> ClusterResult:
    """k-means with k-means++ seeding, Lloyd iterations and restarts.

    The best objective (sum of squared distances to assigned centers) over
    10 runs of at most 100 passes is kept, deterministic given the generator.
    Empty clusters are reseeded at the point farthest from its current
    center; if the data cannot fill k clusters, the result may leave
    some labels unused.
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


def _newton_step(P: np.ndarray, y: np.ndarray, diff: np.ndarray, d: np.ndarray, tol: float):
    """One Newton step on f(y) = sum_i ||x_i - y|| from y, where diff = y - P
    and d holds its row norms, halved until f falls by an Armijo fraction.
    Returns (y, diff, d, reason): the new iterate, or the old one with the
    reason Newton stops there ("on a point", "singular", "stall"), or
    y - s with reason "converged" once the step s is below tol."""
    if d.min() < _ON_POINT_TOL:
        return y, diff, d, "on a point"
    w = 1.0 / d
    u = diff * w[:, None]
    g = u.sum(axis=0)
    try:
        s = np.linalg.solve(w.sum() * np.eye(len(g)) - (u.T * w) @ u, g)
    except np.linalg.LinAlgError:
        return y, diff, d, "singular"
    slope = g @ s
    if not 0.0 < slope < np.inf:  # no finite descent step: H is (near) singular
        return y, diff, d, "singular"
    length = np.linalg.norm(s)
    if length < tol:
        return y - s, diff, d, "converged"
    f, t = d.sum(), 1.0
    while t * length >= tol:
        y_t = y - t * s
        diff_t = y_t - P
        d_t = _dist(diff_t)
        if d_t.sum() <= f - _ARMIJO * t * slope:
            return y_t, diff_t, d_t, None
        t *= 0.5
    return y, diff, d, "stall"


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
    the last iterate.
    """
    P = np.ascontiguousarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1 or P.shape[1] < 1:
        raise ValueError(f"need at least one point as a row with at least one column, "
                         f"got shape {P.shape}")
    tol, max_iter = _MEDIAN_TOL, _MEDIAN_MAX_ITER
    y = P.mean(axis=0)
    diff = y - P
    d = _dist(diff)
    for steps in range(max_iter):
        y, diff, d, reason = _newton_step(P, y, diff, d, tol)
        if reason == "converged":
            return y
        if reason is None:
            continue
        logger.debug("geometric median of %d points: Newton fell back to Weiszfeld (%s)",
                     P.shape[0], reason)
        near = P[np.argmin(d)]
        if not _dist(P - near).sum() < d.sum():
            break
        y, settled = _weiszfeld(P, near.copy(), tol, 1)
        if settled:
            return y
        diff = y - P
        d = _dist(diff)
    else:
        steps = max_iter
    y, settled = _weiszfeld(P, y, tol, max_iter - steps)
    if not settled:
        logger.warning("geometric median of %d points stopped at max_iter=%d "
                       "before the step fell below tol=%g", P.shape[0], max_iter, tol)
    return y


def kmedian_spherical(X: np.ndarray, k: int, rng: np.random.Generator) -> ClusterResult:
    """k-median clustering: centers are geometric medians, the objective is
    the sum of Euclidean (not squared) distances to assigned centers; best
    of 10 runs of at most 100 passes.  Intended for row-normalized rows.
    Restarts that reach the same cluster share its median, computed once."""
    medians = {}

    def median(P):
        key = P.tobytes()
        if key not in medians:
            medians[key] = geometric_median(P)
        return medians[key]
    return _cluster(X, k, rng, partial(_each_cluster, median), squared=False)


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
