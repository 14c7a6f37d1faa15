"""Truncated SVD of rectangular matrices and row-clustering routines.

The top singular vectors of a slice come from ARPACK's implicitly
restarted Lanczos iteration on the sparse slice, so a fold costs a few
sparse products rather than a full dense decomposition.

Community structure is recovered from the top-K right singular vectors
of a rectangular slice of the adjacency matrix: k-means on the raw
rows for the plain block model, and k-median on the row-normalized
("spherical") rows for the degree-corrected model, whose row norms
carry the node-activeness information.

Both clusterers keep the best of several seeded restarts, replacing it
only with a strictly smaller objective.  The restarts of one call share
a memo of the labelings earlier restarts passed through before their
labels settled, with clusters renumbered by first appearance.  From a
labeling with no empty cluster, the rest of a run depends only on the
labeling up to cluster names, so a restart that reaches a recorded one
would end with an objective already seen, and it stops there.  Ties go
to the lower cluster number and empty clusters are reseeded in cluster
order, so a labeling followed by an assignment tie or an empty cluster
is not recorded; and a restart stops only if the recorded steps fit in
its remaining iterations.  Results are the same bits as without the memo.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

logger = logging.getLogger(__name__)

_ZERO_ROW_TOL = 1e-12


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
    gram = LinearOperator((n, n), dtype=float, matvec=lambda x: M.T @ (M @ x))
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
            idx = int(rng.choice(n, p=w / total))
        else:
            idx = int(rng.integers(n))
        centers[c] = X[idx]
        dmin = np.minimum(dmin, _dist(X - centers[c]))
    return centers


def _dist(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, bit-identical to
    ``np.linalg.norm(diff, axis=-1)``.  From width 1 to 7 NumPy adds the
    squares in order, so summing them column by column gives the same
    bits without the general routine's overhead; from width 8 on NumPy
    sums pairwise, so the general routine is used, as it is for width 0."""
    if not 0 < diff.shape[-1] < 8:
        return np.linalg.norm(diff, axis=-1)
    s = diff[..., 0] ** 2
    for j in range(1, diff.shape[-1]):
        s += diff[..., j] ** 2
    return np.sqrt(s)


def _assign(X: np.ndarray, centers: np.ndarray):
    """Nearest-center labels (0-based; ties to the lowest index), distances,
    and whether some point is equally near two centers."""
    d = _dist(X[:, None, :] - centers[None, :, :])
    dist = d.min(axis=1)
    return np.argmin(d, axis=1), dist, np.count_nonzero(d == dist[:, None]) > dist.size


def _repair_empty(X, centers, labels, dist, k):
    """Reseed each empty cluster at the point farthest from its current
    center.  Returns whether any center moved; when none did, the next
    update reproduces the current centers."""
    counts = np.bincount(labels, minlength=k)
    empties = np.nonzero(counts == 0)[0]
    if empties.size == 0:
        return False
    d = dist.copy()
    moved = False
    for c in empties:
        idx = int(np.argmax(d))
        moved = moved or not np.array_equal(centers[c], X[idx])
        centers[c] = X[idx]
        d[idx] = -1.0
    logger.debug("reseeded %d empty cluster(s)", empties.size)
    return moved


def _objective(dist: np.ndarray, squared: bool) -> float:
    return float(np.sum(dist**2)) if squared else float(dist.sum())


def _canonical(labels: np.ndarray, k: int):
    """The labeling with clusters renumbered by first appearance, as bytes,
    or None when some cluster is empty."""
    hit = labels == np.arange(k)[:, None]
    if not hit.any(axis=1).all():
        return None
    rank = np.empty(k, dtype=labels.dtype)
    rank[np.argsort(hit.argmax(axis=1))] = np.arange(k)
    return rank[labels].astype(np.min_scalar_type(k)).tobytes()


def _alternate(X: np.ndarray, centers: np.ndarray, update, squared: bool,
               max_iter: int = 100, memo: dict | None = None):
    """Alternating assignment / center updates from the given centers.

    ``update`` maps the points of one cluster to its new center (the mean
    for k-means, the geometric median for k-median); the objective is the
    sum of squared distances when ``squared``, else of plain distances.
    Returns labels, centers, objective and the per-iteration objective
    trace (nonincreasing).

    ``memo`` is the restart memo of ``_cluster`` (see the module
    docstring).  The run records its labelings there when its labels
    settle, and returns None instead when it reaches a labeling that an
    earlier run recorded and would settle within ``max_iter``.
    """
    k = centers.shape[0]
    centers = centers.copy()
    labels = None
    trace = []
    seen = []  # (key, iteration) of labelings whose run since was tie- and repair-free
    for it in range(max_iter):
        new_labels, dist, tied = _assign(X, centers)
        trace.append(_objective(dist, squared))
        key = None if memo is None else _canonical(new_labels, k)
        if tied or key is None:
            seen.clear()
        moved = _repair_empty(X, centers, new_labels, dist, k)
        if not moved and labels is not None and np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        if key is not None:
            if key in memo and memo[key] < max_iter - it:
                return None
            seen.append((key, it))
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = update(X[mask])
    else:
        logger.warning("clustering of %d points into %d clusters stopped at "
                       "max_iter=%d before the labels settled", X.shape[0], k, max_iter)
        seen.clear()
    for key, i in seen:
        memo[key] = it - i
    _, dist, _ = _assign(X, centers)
    return labels, centers, _objective(dist, squared), trace


def _cluster(X, k: int, rng: np.random.Generator, restarts: int, max_iter: int,
             update, squared: bool) -> ClusterResult:
    """Best of ``restarts`` seeded runs of the alternating loop; a later run
    replaces the best only with a strictly smaller objective."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] < k:
        raise ValueError(f"need at least k={k} rows, got {X.shape[0]}")
    best = None
    memo = {}
    for _ in range(restarts):
        centers0 = _seed_centers(X, k, rng, squared=squared)
        run = _alternate(X, centers0, update, squared, max_iter, memo)
        if run is not None and (best is None or run[2] < best[2]):
            best = run
    return ClusterResult(best[0] + 1, best[1], best[2])


def kmeans(X: np.ndarray, k: int, rng: np.random.Generator,
           restarts: int = 10, max_iter: int = 100) -> ClusterResult:
    """k-means with k-means++ seeding, Lloyd iterations and restarts.

    The best objective (sum of squared distances to assigned centers)
    over ``restarts`` runs is kept.  Deterministic given the generator.
    Empty clusters are reseeded at the point farthest from its current
    center; if the data cannot fill k clusters, the result may leave
    some labels unused.
    """
    return _cluster(X, k, rng, restarts, max_iter, lambda P: P.mean(axis=0),
                    squared=True)


def geometric_median(P: np.ndarray, tol: float = 1e-8, max_iter: int = 500) -> np.ndarray:
    """Geometric median by Weiszfeld iteration with the Vardi-Zhang correction
    for iterates that coincide with a data point."""
    P = np.ascontiguousarray(P, dtype=float)
    y = P.mean(axis=0)
    for _ in range(max_iter):
        d = _dist(P - y)
        on_point = d < _ZERO_ROW_TOL
        eta = np.count_nonzero(on_point)
        if eta == 0:
            w = 1.0 / d
            y_new = (P * w[:, None]).sum(axis=0) / w.sum()
        else:
            if eta == P.shape[0]:
                return y
            w = 1.0 / d[~on_point]
            T = (P[~on_point] * w[:, None]).sum(axis=0) / w.sum()
            r = np.linalg.norm((T - y) * w.sum())
            if r <= eta:
                return y
            step = eta / r
            y_new = (1.0 - step) * T + step * y
        if np.linalg.norm(y_new - y) < tol:
            return y_new
        y = y_new
    logger.warning("geometric median of %d points stopped at max_iter=%d "
                   "before the step fell below tol=%g", P.shape[0], max_iter, tol)
    return y


def kmedian_spherical(X: np.ndarray, k: int, rng: np.random.Generator,
                      restarts: int = 10, max_iter: int = 100) -> ClusterResult:
    """k-median clustering: centers are geometric medians, the objective is
    the sum of Euclidean (not squared) distances to assigned centers.
    Intended for row-normalized singular-vector rows."""
    return _cluster(X, k, rng, restarts, max_iter, geometric_median, squared=False)


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


def spectral_cluster_rect(Arect: np.ndarray, k: int, rng: np.random.Generator,
                          basis: SingularBasis | None = None) -> np.ndarray:
    """Membership for all n nodes from an n1 x n rectangular slice:
    k-means on the rows of the top-k right singular vectors.

    A precomputed SingularBasis for Arect may be passed to avoid
    repeating the decomposition across candidate values of k.
    """
    if basis is None:
        basis = top_k_right_singular(Arect, k)
    return kmeans(basis.U[:, :k], k, rng).labels


def spherical_spectral_cluster_rect(Arect: np.ndarray, k: int, rng: np.random.Generator,
                                    basis: SingularBasis | None = None):
    """Degree-robust membership from a rectangular slice.

    Rows of the top-k right singular vectors are scaled to unit norm
    and clustered with k-median; zero rows are assigned to the largest
    estimated cluster.  Also returns the row norms, which estimate the
    community-normalized node activeness.
    """
    if basis is None:
        basis = top_k_right_singular(Arect, k)
    U = basis.U[:, :k]
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
