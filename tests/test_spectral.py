"""Truncated SVD and the two clustering routines."""

import logging
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from scipy.linalg import subspace_angles
from scipy.sparse import csr_array
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import netcv.spectral
from netcv.models import SbmParams, DcbmParams, expected_P, sample, sim3_params
from netcv.graphs import hamming_up_to_permutation
from netcv.spectral import (_alternate, _dist, _each_cluster, _means, _nearest,
                            _seed_centers, _weiszfeld, geometric_median, kmeans,
                            kmedian_spherical,
                            spectral_cluster_rect, spherical_embed,
                            spherical_spectral_cluster_rect,
                            top_k_right_singular)


@pytest.fixture(autouse=True)
def _clustering_settles(request, caplog):
    """Every clustering run here settles its labels, and every geometric
    median its step, within the default max_iter."""
    yield
    if "warns_at_max_iter" not in request.node.name:
        messages = [r.getMessage() for r in caplog.get_records("call")]
        assert not any("labels settled" in m or "fell below tol" in m for m in messages)


# ---------------------------------------------------------------- oracles

def best_two_means_oracle(X):
    """Exact best 2-means objective by enumerating every nonempty split."""
    n = len(X)
    best = np.inf
    for mask_bits in range(1, 2 ** n - 1):
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        obj = 0.0
        for part in (X[mask], X[~mask]):
            c = part.mean(axis=0)
            obj += ((part - c) ** 2).sum()
        best = min(best, obj)
    return best


def median_1d_scan_oracle(xs):
    """Brute scan of the sum-of-distances objective on a fine 1-D grid."""
    grid = np.linspace(min(xs) - 1, max(xs) + 1, 200001)
    obj = np.abs(grid[:, None] - np.asarray(xs)[None, :]).sum(axis=1)
    i = int(np.argmin(obj))
    return grid[i], obj[i]


def balanced_sbm(n, K, p_in=0.8, p_out=0.1):
    g = np.repeat(np.arange(1, K + 1), n // K)
    B = np.full((K, K), p_out)
    np.fill_diagonal(B, p_in)
    return SbmParams(g=g, k=K, B=B)


# ---------------------------------------------------------------- SVD

def test_svd_identity_matrix():
    basis = top_k_right_singular(np.eye(3), 2)
    assert np.allclose(basis.sigma, [1.0, 1.0])
    # columns are standard basis vectors
    assert np.allclose(np.abs(basis.U).sum(axis=0), 1.0)
    assert np.allclose(np.abs(basis.U).max(axis=0), 1.0)


def test_svd_rank_one():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(20)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(30)
    v /= np.linalg.norm(v)
    basis = top_k_right_singular(np.outer(u, v), 1)
    assert np.isclose(basis.sigma[0], 1.0)
    col = basis.U[:, 0]
    assert min(np.linalg.norm(col - v), np.linalg.norm(col + v)) < 1e-10


def test_svd_detects_rank_of_population_matrix():
    params = balanced_sbm(60, 2)
    P = expected_P(params)
    basis = top_k_right_singular(P[:40, :], 3)
    assert basis.sigma[1] > 1.0
    assert basis.sigma[2] < 1e-10


def test_svd_orthonormal_and_sorted():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((50, 80))
    basis = top_k_right_singular(M, 5)
    assert np.allclose(basis.U.T @ basis.U, np.eye(5), atol=1e-8)
    assert np.all(np.diff(basis.sigma) <= 1e-12)
    assert np.all(basis.sigma >= 0)


def test_svd_sign_convention_deterministic():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((30, 40))
    b1 = top_k_right_singular(M, 4)
    b2 = top_k_right_singular(M, 4)
    assert np.array_equal(b1.U, b2.U)
    for j in range(4):
        col = b1.U[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_svd_k_bounds():
    with pytest.raises(ValueError):
        top_k_right_singular(np.eye(3), 4)
    with pytest.raises(ValueError):
        top_k_right_singular(np.eye(3), 0)


def sparse_slices():
    """Seeded 0/1 slices: min(shape) on both sides of the dense cut-off,
    tall and wide, rank-deficient, with zero rows, one and two edges."""
    rng = np.random.default_rng(14)
    slices = [(rng.random(shape) < p).astype(float) for shape, p in
              [((12, 18), 0.3), ((20, 30), 0.2), ((40, 60), 0.1),
               ((90, 40), 0.1), ((300, 450), 0.02)]]
    H = (rng.random((120, 3)) < 0.5).astype(float)
    slices.append(np.minimum(H @ (rng.random((3, 180)) < 0.5), 1.0))  # rank <= 3
    M = (rng.random((80, 120)) < 0.05).astype(float)
    M[::2] = 0.0  # half the rows empty
    slices.append(M)
    M = np.zeros((50, 75))
    M[3, 10] = 1.0
    slices.append(M)
    M = np.zeros((60, 90))
    M[3, 7] = M[5, 9] = 1.0
    slices.append(M)
    return slices


@pytest.mark.parametrize("index", range(9))
@pytest.mark.parametrize("k", [1, 3, 5])
def test_svd_matches_lapack_on_sparse_slices(index, k):
    M = sparse_slices()[index]
    basis = top_k_right_singular(M, k)
    _, s, Vt = np.linalg.svd(M, full_matrices=False)
    assert np.allclose(basis.sigma, s[:k], rtol=0, atol=1e-8)
    gap = s[k - 1] - (s[k] if k < s.size else 0.0)
    if gap > 1e-6:
        sines = np.sin(subspace_angles(basis.U, Vt[:k].T))
        assert sines.max() < 1e-6
    assert np.allclose(basis.U.T @ basis.U, np.eye(k), atol=1e-10)


def test_svd_k_equals_min_shape():
    M = sparse_slices()[0]
    k = min(M.shape)
    basis = top_k_right_singular(M, k)
    _, s, _ = np.linalg.svd(M)
    assert basis.U.shape == (M.shape[1], k)
    assert np.allclose(basis.sigma, s, rtol=0, atol=1e-8)


def test_svd_all_zero_slice():
    basis = top_k_right_singular(np.zeros((30, 45)), 4)
    assert np.array_equal(basis.sigma, np.zeros(4))
    assert np.array_equal(basis.U, np.eye(45, 4))


@pytest.mark.parametrize("index", [2, 4, 6, 7, 8])
def test_svd_dense_and_csr_inputs_agree_bitwise(index):
    M = sparse_slices()[index]
    dense = top_k_right_singular(M.astype(np.int8), 4)
    sparse = top_k_right_singular(csr_array(M), 4)
    assert np.array_equal(dense.U, sparse.U)
    assert np.array_equal(dense.sigma, sparse.sigma)


def test_svd_repeatable_and_thread_invariant():
    # k = 4 exceeds the rank of the edge slices, so ARPACK draws restart vectors
    for M in (sparse_slices()[4], sparse_slices()[7], sparse_slices()[8]):
        first = top_k_right_singular(M, 4)
        again = [top_k_right_singular(M, 4) for _ in range(3)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda _: top_k_right_singular(M, 4), range(8)))
        for b in again + threaded:
            assert np.array_equal(b.U, first.U)
            assert np.array_equal(b.sigma, first.sigma)


@pytest.mark.parametrize("exc", [ArpackError(-9),
                                 ArpackNoConvergence("no convergence", None, None)])
def test_svd_reports_arpack_failure(monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(netcv.spectral, "eigsh", fail)
    with pytest.raises(RuntimeError, match=r"90x40 slice with k=3") as info:
        top_k_right_singular(sparse_slices()[3], 3)
    assert info.value.__cause__ is exc


# ---------------------------------------------------------------- k-means

def test_kmeans_separated_clouds():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(10, 0.1, (20, 2))])
    res = kmeans(X, 2, np.random.default_rng(0))
    truth = np.repeat([1, 2], 20)
    assert hamming_up_to_permutation(res.labels, truth) == 0
    assert res.objective < 5.0  # within-cloud scatter only


def test_kmeans_identical_rows_repairs_empty_cluster():
    X = np.ones((8, 3))
    res = kmeans(X, 2, np.random.default_rng(0))
    assert res.objective == 0.0
    assert res.labels.shape == (8,)
    assert set(res.labels) <= {1, 2}


@pytest.mark.parametrize("cluster", [kmeans, kmedian_spherical], ids=["kmeans", "kmedian"])
def test_fewer_distinct_rows_than_k_settles(cluster, caplog):
    # The mean of these equal rows is not bitwise the row, so a reseed onto
    # the row would pull every point over and empty the other cluster.
    X = np.tile(np.random.default_rng(0).standard_normal(4), (118, 1))
    with caplog.at_level(logging.WARNING, logger="netcv.spectral"):
        res = cluster(X, 2, np.random.default_rng(0))
    assert caplog.text == ""
    assert len(set(res.labels.tolist())) == 1


def test_kmeans_square_corners_matches_enumeration():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    oracle = best_two_means_oracle(X)
    assert np.isclose(oracle, 1.0)  # two adjacent pairs, 4 * (1/2)^2
    res = kmeans(X, 2, np.random.default_rng(0))
    assert np.isclose(res.objective, oracle)


def test_kmeans_needs_enough_rows():
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 2)), 3, np.random.default_rng(0))


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 3))
    a = kmeans(X, 3, np.random.default_rng(11))
    b = kmeans(X, 3, np.random.default_rng(11))
    assert np.array_equal(a.labels, b.labels)
    assert a.objective == b.objective


def test_kmeans_beats_true_centroids_on_population():
    params = balanced_sbm(60, 3)
    P = expected_P(params)
    rows = np.arange(60)[np.arange(60) % 3 != 0]
    basis = top_k_right_singular(P[rows, :], 3)
    X = basis.U
    res = kmeans(X, 3, np.random.default_rng(0))
    ref = 0.0
    for c in range(1, 4):
        part = X[params.g == c]
        ref += ((part - part.mean(axis=0)) ** 2).sum()
    assert res.objective <= ref + 1e-12


# ---------------------------------------------------------------- k-median

def test_geometric_median_singleton_and_symmetric():
    pt = np.array([[2.0, 3.0]])
    assert np.allclose(geometric_median(pt), [2.0, 3.0])
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert np.allclose(geometric_median(square), [0.0, 0.0], atol=1e-7)


def test_geometric_median_rejects_an_empty_set():
    with pytest.raises(ValueError, match="at least one point"):
        geometric_median(np.zeros((0, 2)))


def test_geometric_median_collinear_matches_scan():
    xs = [0.0, 1.0, 10.0]
    x_star, obj_star = median_1d_scan_oracle(xs)
    assert np.isclose(x_star, 1.0, atol=1e-4)
    y = geometric_median(np.array(xs)[:, None])
    assert np.isclose(y[0], 1.0, atol=1e-6)
    assert np.isclose(np.abs(np.array(xs) - y[0]).sum(), obj_star, atol=1e-4)


def test_geometric_median_optimality_condition(monkeypatch):
    # at the optimum the unit vectors toward the points nearly cancel
    monkeypatch.setattr(netcv.spectral, "_MEDIAN_TOL", 1e-12)
    rng = np.random.default_rng(8)
    for _ in range(10):
        P = rng.standard_normal((7, 3))
        y = geometric_median(P)
        d = np.linalg.norm(P - y, axis=1)
        if d.min() < 1e-9:  # landed on a data point: subgradient ball
            grad = ((P - y)[d > 1e-9] / d[d > 1e-9, None]).sum(axis=0)
            assert np.linalg.norm(grad) <= 1 + 1e-6
        else:
            grad = ((P - y) / d[:, None]).sum(axis=0)
            assert np.linalg.norm(grad) < 1e-4


def test_geometric_median_warns_at_max_iter(caplog, monkeypatch):
    P = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    with monkeypatch.context() as m, caplog.at_level(logging.WARNING, logger="netcv.spectral"):
        m.setattr(netcv.spectral, "_MEDIAN_MAX_ITER", 1)
        geometric_median(P)
    assert "max_iter=1" in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="netcv.spectral"):
        geometric_median(P)
    assert caplog.text == ""


def test_kmedian_collinear_k1():
    X = np.array([[0.0], [1.0], [10.0]])
    res = kmedian_spherical(X, 1, np.random.default_rng(0))
    assert np.isclose(res.centers[0, 0], 1.0, atol=1e-6)
    assert np.isclose(res.objective, 10.0, atol=1e-6)


def test_kmedian_antipodal_clusters():
    rng = np.random.default_rng(9)
    a = np.array([1.0, 0.0]) + rng.normal(0, 0.01, (15, 2))
    b = np.array([-1.0, 0.0]) + rng.normal(0, 0.01, (15, 2))
    X = np.vstack([a, b])
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    res = kmedian_spherical(X, 2, np.random.default_rng(1))
    truth = np.repeat([1, 2], 15)
    assert hamming_up_to_permutation(res.labels, truth) == 0


def test_kmedian_duplicates_objective_zero():
    X = np.repeat(np.array([[0.6, 0.8], [1.0, 0.0]]), 5, axis=0)
    res = kmedian_spherical(X, 2, np.random.default_rng(0))
    assert res.objective <= 1e-12


def test_kmedian_needs_enough_rows():
    with pytest.raises(ValueError):
        kmedian_spherical(np.zeros((1, 2)), 2, np.random.default_rng(0))


# ---------------------------------------------------------------- alternating loop

def _lloyd_input():
    X = np.random.default_rng(7).standard_normal((60, 4))
    return X, X[:5].copy()


def _kmedian_input():
    X = np.random.default_rng(10).standard_normal((40, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X, X[:4].copy()


_medians = partial(_each_cluster, geometric_median)

OBJECTIVES = [
    pytest.param(_lloyd_input, _means, True, id="kmeans"),
    pytest.param(_kmedian_input, _medians, False, id="kmedian"),
]


@pytest.mark.parametrize("make_input,update,squared", OBJECTIVES)
def test_alternate_objective_trace_nonincreasing(make_input, update, squared):
    X, centers0 = make_input()
    trace = []

    def spy(X, labels, centers):
        # the objective of this pass's assignment, before the update
        d = np.linalg.norm(X - centers[0][labels[0]], axis=1)
        trace.append(np.sum(d**2) if squared else d.sum())
        update(X, labels, centers)
    objectives = _alternate(X, centers0[None], spy, squared)[2]
    trace.append(objectives[0])
    assert len(trace) > 2
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("make_input,update,squared", OBJECTIVES)
def test_alternate_warns_at_max_iter(make_input, update, squared, caplog):
    X, centers0 = make_input()
    with caplog.at_level(logging.WARNING, logger="netcv.spectral"):
        _alternate(X, np.stack([centers0, centers0[::-1]]), update, squared, max_iter=1)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2
    assert all("max_iter=1" in m and "labels settled" in m for m in messages)


def test_each_capped_run_warns_once_warns_at_max_iter(caplog):
    # From SETTLES the labels [0, 0, 0, 1, 1, 1] repeat at the second pass;
    # from CAPPED they still change there, so only the CAPPED runs warn.
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    SETTLES, CAPPED = np.array([[1.0], [11.0]]), np.array([[0.0], [1.0]])
    with caplog.at_level(logging.WARNING, logger="netcv.spectral"):
        labels, _, _ = _alternate(X, np.stack([CAPPED, SETTLES, CAPPED]), _means, True,
                                  max_iter=2)
    messages = [r.getMessage() for r in caplog.records]
    assert messages == ["clustering of 6 points into 2 clusters stopped at max_iter=2 "
                        "before the labels settled"] * 2
    assert labels[1].tolist() == [0, 0, 0, 1, 1, 1]


# ---------------------------------------------------------------- exactness of the fast paths

def in_order_norm(diff):
    """Euclidean norms along the last axis, the squares added in order."""
    return np.sqrt(np.cumsum(diff**2, axis=-1)[..., -1])


def in_order_mean(P):
    return np.cumsum(P, axis=0)[-1] / len(P)


def weiszfeld_reference(P, tol=1e-8, max_iter=500):
    """The Weiszfeld loop with the Vardi-Zhang step as written before the
    mask-free fast path, with in-order distances."""
    P = np.asarray(P, dtype=float)
    y = P.mean(axis=0)
    for _ in range(max_iter):
        d = in_order_norm(P - y)
        on_point = d < 1e-12
        if on_point.all():
            return y
        w = 1.0 / d[~on_point]
        T = (P[~on_point] * w[:, None]).sum(axis=0) / w.sum()
        eta = int(on_point.sum())
        if eta == 0:
            y_new = T
        else:
            r = np.linalg.norm((T - y) * w.sum())
            if r <= eta:
                return y
            step = eta / r
            y_new = (1.0 - step) * T + step * y
        if np.linalg.norm(y_new - y) < tol:
            return y_new
        y = y_new
    return y


def reference_run(X, centers, center_of, squared, max_iter=100):
    """One run of the alternating loop as written before the restarts ran
    in lockstep: labels, centers and objective."""
    centers = centers.copy()
    k = centers.shape[0]

    def assign():
        d = in_order_norm(X[:, None, :] - centers[None, :, :])
        return np.argmin(d, axis=1), d.min(axis=1)
    labels = None
    for _ in range(max_iter):
        new_labels, dist = assign()
        moved = False
        d = dist.copy()
        for c in np.nonzero(np.bincount(new_labels, minlength=k) == 0)[0]:
            idx = int(np.argmax(d))
            moved = moved or not np.array_equal(centers[c], X[idx])
            centers[c] = X[idx]
            d[idx] = -1.0
        if not moved and labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = center_of(X[mask])
    dist = assign()[1]
    return labels, centers, float(np.sum(dist**2)) if squared else float(dist.sum())


def memo_free_reference(X, k, rng, center_of, squared, restarts=10):
    """The seeded restarts run one after another, with no restart memo; a
    later run replaces the best only with a strictly smaller objective."""
    X = np.asarray(X, dtype=float)
    best = None
    for _ in range(restarts):
        run = reference_run(X, _seed_centers(X, k, rng, squared=squared), center_of, squared)
        if best is None or run[2] < best[2]:
            best = (run[0] + 1,) + run[1:]
    return best


def exactness_inputs():
    """(X, k): k = 1, identical rows, square corners (two optimal splits),
    a cloud whose mean is one of its points, integer points with ties,
    width 9, clustered data, points on a sphere, a Fortran-ordered width
    9, a strided column slice of an orthonormal basis, and width 1."""
    rng = np.random.default_rng(21)
    plus = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    centers = rng.standard_normal((4, 3)) * 3
    blobs = centers[rng.integers(4, size=90)] + rng.normal(0, 0.4, (90, 3))
    sphere = rng.standard_normal((120, 4))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    return [
        (rng.standard_normal((30, 3)), 1),
        (np.ones((8, 3)), 2),
        (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 2),
        (np.vstack([plus, plus + 5.0]), 2),
        (rng.integers(0, 3, size=(40, 2)).astype(float), 3),
        (rng.standard_normal((50, 9)), 3),
        (blobs, 4),
        (sphere, 3),
        (np.asfortranarray(rng.standard_normal((60, 9))), 4),
        (np.linalg.qr(rng.standard_normal((100, 6)))[0][:, :4], 4),
        (rng.standard_normal((40, 1)) * 10.0 ** rng.uniform(-3, 3, (40, 1)), 3),
    ]


@pytest.mark.parametrize("width", range(1, 17))
def test_nearest_matches_dist_bitwise(width):
    rng = np.random.default_rng(100 + width)
    X = rng.standard_normal((150, width)) * rng.uniform(0.01, 100, width)
    C = rng.standard_normal((6, 4, width))
    C[2, 1] = C[2, 3] = C[2, 0]  # three centers tie for every point
    C[4, 2] = X[7]
    labels, dist = _nearest(np.ascontiguousarray(X.T), C)
    for Xs in (X, np.asfortranarray(X), np.hstack([X, X])[:, :width]):
        for r, c in enumerate(C):
            d = _dist(Xs[:, None, :] - c[None, :, :])
            assert np.array_equal(labels[r], np.argmin(d, axis=1))
            assert dist[r].tobytes() == d.min(axis=1).tobytes()


@pytest.mark.parametrize("width", range(1, 17))
def test_dist_matches_linalg_norm_bitwise(width):
    # NumPy adds the squares in order below width 8 and pairwise from there
    rng = np.random.default_rng(width)
    X = rng.standard_normal((200, width)) * rng.uniform(0.01, 100, width)
    C = rng.standard_normal((4, width))
    for diff in (X - C[0], X[:, None, :] - C[None, :, :]):
        assert _dist(diff).tobytes() == in_order_norm(diff).tobytes()
        if width < 8:
            assert np.array_equal(_dist(diff), np.linalg.norm(diff, axis=-1))
        else:
            assert np.allclose(_dist(diff), np.linalg.norm(diff, axis=-1), rtol=1e-14, atol=0)


@pytest.mark.parametrize("cluster", [kmeans, kmedian_spherical,
                                     lambda X, k, rng: geometric_median(X)],
                         ids=["kmeans", "kmedian", "median"])
def test_zero_width_input_is_rejected(cluster):
    with pytest.raises(ValueError, match="one column"):
        cluster(np.zeros((5, 0)), 2, np.random.default_rng(0))


def choice_seed_reference(X, k, rng, squared):
    """k-means++ seeding with the draw of ``rng.choice`` and in-order distances."""
    centers = [X[int(rng.integers(len(X)))]]
    dmin = in_order_norm(X - centers[0])
    for _ in range(1, k):
        w = dmin**2 if squared else dmin
        total = w.sum()
        idx = rng.choice(len(X), p=w / total) if total > 0.0 else rng.integers(len(X))
        centers.append(X[int(idx)])
        dmin = np.minimum(dmin, in_order_norm(X - centers[-1]))
    return np.array(centers)


def test_seed_centers_draw_as_rng_choice():
    rng = np.random.default_rng(41)
    for case in range(300):
        n = int(rng.integers(2, 400))
        distinct = rng.standard_normal((int(rng.integers(1, n + 1)), int(rng.integers(1, 7))))
        X = distinct[rng.integers(len(distinct), size=n)]  # repeated rows weigh 0
        k, squared = int(rng.integers(1, min(n, 6) + 1)), bool(case % 2)
        got_rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
        for _ in range(3):
            got = _seed_centers(X, k, got_rng, squared)
            assert got.tobytes() == choice_seed_reference(X, k, ref_rng, squared).tobytes()
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("index", range(8))
def test_geometric_median_matches_reference_bitwise(index):
    # geometric_median's Weiszfeld fallback, started at the mean
    X, _ = exactness_inputs()[index]
    for P in (X, X[: max(1, len(X) // 3)], X[:1]):
        y, settled = _weiszfeld(P, P.mean(axis=0), 1e-8, 500)
        assert settled and y.tobytes() == weiszfeld_reference(P).tobytes()
    y, settled = _weiszfeld(X, X.mean(axis=0), 1e-12, 500)
    assert settled and y.tobytes() == weiszfeld_reference(X, tol=1e-12).tobytes()


# The mean of each is its first point.  In the kite the unit vectors to the
# other points sum to length 0.41 < 1, so it is the median; in the lopsided
# set they sum to length 2 and the Vardi-Zhang step moves on.
KITE = np.array([[0.0, 0.0], [-2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
LOPSIDED = np.array([[0.0, 0.0], [-3.0, 0.0], [1.0, 0.5], [1.0, -0.5], [1.0, 0.0]])


def test_geometric_median_reference_covers_an_iterate_on_a_point():
    for P in (KITE, LOPSIDED):
        assert np.array_equal(P.mean(axis=0), P[0])
        assert geometric_median(P).tobytes() == weiszfeld_reference(P).tobytes()
    assert np.array_equal(geometric_median(KITE), KITE[0])
    assert geometric_median(LOPSIDED)[0] > 0.5


def median_objective(P, y):
    return in_order_norm(P - y).sum()


def median_sets():
    """name -> points: each exactness input, its first third and its first
    row, and the kite, lopsided, collinear, duplicate-point and two-point
    sets."""
    sets = {"kite": KITE, "lopsided": LOPSIDED,
            "collinear": np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [10.0, 10.0]]),
            "duplicates": np.array([[1.0, 2.0]] * 3 + [[0.0, 0.0], [2.0, 0.5]]),
            "two-point": np.array([[0.0, 0.0], [1.0, 2.0]])}
    for i, (X, _) in enumerate(exactness_inputs()):
        sets.update({f"input{i}": X, f"input{i}-third": X[: max(1, len(X) // 3)],
                     f"input{i}-row": X[:1]})
    return sets


@pytest.mark.parametrize("name", median_sets())
def test_geometric_median_objective_matches_tight_reference(name):
    P = median_sets()[name]
    ref = median_objective(P, weiszfeld_reference(P, tol=1e-14))
    assert median_objective(P, geometric_median(P)) <= ref * (1 + 1e-12)


# (points, the reason Newton stops, the median if known).  The kite's mean
# is its first point.  On the x-axis every u_i is (+-1, 0), so H has a zero
# row and column.  The triangle's angle at the origin exceeds 120 degrees,
# so the origin is its median; f has a kink there, and Newton creeps toward
# it until the halving stalls.  The 6-point cluster, from the toy warm-up of
# perfbench's select-dcbm-1200 workload (seed 2005), draws Newton into its
# first point, which is not the median.
FALLBACKS = {
    "on a point": (KITE, "on a point", KITE[0]),
    "singular": (np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]), "singular",
                 np.array([1.0, 0.0])),
    "stall at the median": (np.array([[0.0, 0.0], [1.0, 0.1], [-1.0, 0.1]]), "stall",
                            np.zeros(2)),
    "stall at another point": (np.array([
        [0.5461430861987815, 0.837691906011554],
        [0.5506386521838293, 0.8347437179884469],
        [0.5221780334736811, 0.8528365032979999],
        [0.4653427705701563, 0.8851305586624443],
        [0.5475089047443629, 0.8367998561338476],
        [0.4684977928527956, 0.8834646671441134]]), "stall", None),
}


@pytest.mark.parametrize("case", FALLBACKS)
def test_geometric_median_falls_back_to_weiszfeld(case, monkeypatch, caplog):
    P, reason, median = FALLBACKS[case]
    calls = []

    def spy(P, y, tol, max_iter):
        calls.append((y.copy(), max_iter))
        return _weiszfeld(P, y, tol, max_iter)
    monkeypatch.setattr(netcv.spectral, "_weiszfeld", spy)
    with caplog.at_level(logging.DEBUG, logger="netcv.spectral"):
        y = geometric_median(P)
    assert caplog.messages == [f"geometric median of {len(P)} points: "
                               f"Newton fell back to Weiszfeld ({reason})"]
    assert len(calls) == 1
    ref = median_objective(P, weiszfeld_reference(P, tol=1e-14))
    assert median_objective(P, y) <= ref * (1 + 1e-12)
    if median is not None:
        assert np.array_equal(y, median)
    else:
        # one Weiszfeld step from the point leaves it, and Newton finishes
        start, steps = calls[0]
        assert steps == 1 and np.array_equal(start, P[0])
        assert in_order_norm(P - y).min() > 1e-3


# A 4-point cluster from the toy warm-up of perfbench's select-dcbm-1200
# workload (seed 1, toy input 3): 500 Weiszfeld steps from the mean do not
# bring the step below 1e-8.
SLOW_WEISZFELD = np.array([
    [0.5231950255686003, 0.41120610112987305, 0.7464425681951963],
    [0.37799419749860164, 0.5102464430263979, 0.7725082226334533],
    [0.6247141096177974, 0.2633381044516808, 0.7351090558469799],
    [0.36223892216706527, 0.594670854970216, 0.7177391848828064],
])


def test_geometric_median_settles_where_weiszfeld_is_slow():
    P = SLOW_WEISZFELD
    assert not _weiszfeld(P, P.mean(axis=0), 1e-8, 500)[1]
    y = geometric_median(P)  # the autouse fixture fails on a max_iter warning
    ref = weiszfeld_reference(P, tol=1e-14, max_iter=100_000)
    assert median_objective(P, y) <= median_objective(P, ref) * (1 + 1e-12)


CLUSTERERS = [
    pytest.param(kmeans, in_order_mean, True, id="kmeans"),
    pytest.param(kmedian_spherical, geometric_median, False, id="kmedian"),
]


@pytest.mark.parametrize("index", range(11))
@pytest.mark.parametrize("cluster,center_of,squared", CLUSTERERS)
def test_clusterers_match_memo_free_reference_bitwise(index, cluster, center_of, squared):
    X, k = exactness_inputs()[index]
    for seed in range(3):
        got = cluster(X, k, np.random.default_rng(seed))
        labels, centers, obj = memo_free_reference(X, k, np.random.default_rng(seed),
                                                   center_of, squared)
        assert np.array_equal(got.labels, labels)
        assert got.centers.tobytes() == centers.tobytes()
        assert got.objective == obj


LOCKSTEP_CASES = {
    # From labels [1, 1, 0, 0, 0] the centers are 4 and 0 and point 2 is at
    # distance 2 from both: it stays in cluster 0 one way round and crosses
    # the other way, so the first two runs end apart.
    "tie": (np.array([[-1.0], [1.0], [2.0], [3.0], [7.0]]),
            np.array([[[3.5], [0.0]], [[0.0], [3.5]], [[3.5], [3.5]]]), [1, 1, 0, 0, 0]),
    # From the first start the second pass repeats the labels
    # [0, 0, 0, 1, 1, 1] while cluster 2 is still empty, and its repair moves
    # that center from 0 to 11, which takes point 5 on the next pass.  From
    # the equal centers of the second, two clusters are empty at once.
    "empty": (np.array([[0.0], [0.0], [0.0], [10.0], [10.0], [11.0]]),
              np.array([[[1.0], [10.5], [100.0]], [[3.0], [3.0], [3.0]]]), [0, 0, 0, 1, 1, 2]),
}


@pytest.mark.parametrize("case", LOCKSTEP_CASES)
@pytest.mark.parametrize("update,center_of,squared", [
    (_means, in_order_mean, True), (_medians, geometric_median, False)],
    ids=["kmeans", "kmedian"])
def test_lockstep_runs_match_reference_runs(case, update, center_of, squared):
    X, starts, first_labels = LOCKSTEP_CASES[case]
    labels, centers, objectives = _alternate(X, starts, update, squared)
    for r, start in enumerate(starts):
        ref = reference_run(X, start, center_of, squared)
        assert np.array_equal(labels[r], ref[0])
        assert centers[r].tobytes() == ref[1].tobytes()
        assert objectives[r] == ref[2]
    assert labels[0].tolist() == first_labels


def test_kmedian_computes_each_clusters_median_once(monkeypatch):
    seen = []

    def spy(P):
        seen.append(P.tobytes())
        return geometric_median(P)
    monkeypatch.setattr(netcv.spectral, "geometric_median", spy)
    X, k = exactness_inputs()[6]
    kmedian_spherical(X, k, np.random.default_rng(0))
    assert len(seen) > k and len(seen) == len(set(seen))


# ---------------------------------------------------------------- embedding

def test_spherical_embed_three_four_five():
    U = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]])
    rows, norms, zero = spherical_embed(U)
    assert np.allclose(rows[0], [0.6, 0.8])
    assert np.isclose(norms[0], 5.0)
    assert list(zero) == [1]
    assert np.allclose(rows[1], 0.0)
    assert np.allclose(rows[2], [0.0, 1.0])


def test_spherical_embed_idempotent_on_unit_rows():
    rng = np.random.default_rng(11)
    U = rng.standard_normal((10, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    rows, norms, zero = spherical_embed(U)
    assert np.allclose(rows, U)
    assert np.allclose(norms, 1.0)
    assert zero.size == 0


# ---------------------------------------------------------------- clusterers

@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_noiseless_recovery_kmeans(K):
    params = balanced_sbm(60, K, p_in=0.7, p_out=0.1)
    P = expected_P(params)
    rows = np.arange(60)[np.arange(60) % 3 != 0]  # every block keeps fitting rows
    g = spectral_cluster_rect(P[rows, :], K, np.random.default_rng(0))
    assert hamming_up_to_permutation(g, params.g) == 0


def test_k1_labels_everything_one():
    params = balanced_sbm(30, 1, p_in=0.3)
    P = expected_P(params)
    g = spectral_cluster_rect(P[:20, :], 1, np.random.default_rng(0))
    assert np.all(g == 1)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_noiseless_recovery_spherical(K):
    rng = np.random.default_rng(12)
    g = np.repeat(np.arange(1, K + 1), 60 // K)
    B = np.full((K, K), 0.1)
    np.fill_diagonal(B, 0.7)
    psi_raw = rng.uniform(0.3, 1.0, 60)
    psi = psi_raw.copy()
    for c in range(1, K + 1):
        psi[g == c] /= psi[g == c].max()
    params = DcbmParams(g=g, k=K, B=B, psi=psi)
    P = expected_P(params)
    rows = np.arange(60)[np.arange(60) % 3 != 0]
    labels, psi_hat = spherical_spectral_cluster_rect(P[rows, :], K,
                                                      np.random.default_rng(0))
    assert hamming_up_to_permutation(labels, g) == 0
    # row norms recover psi up to a per-community scale
    for c in range(1, K + 1):
        ratio = psi_hat[g == c] / psi[g == c]
        assert ratio.std() / ratio.mean() < 1e-8


def test_spherical_matches_kmeans_when_psi_constant():
    params = balanced_sbm(60, 3, p_in=0.6, p_out=0.1)
    P = expected_P(params)
    rows = np.arange(60)[np.arange(60) % 3 != 0]
    g1 = spectral_cluster_rect(P[rows, :], 3, np.random.default_rng(0))
    g2, _ = spherical_spectral_cluster_rect(P[rows, :], 3, np.random.default_rng(0))
    assert hamming_up_to_permutation(g1, g2) == 0


def test_spherical_zero_rows_get_largest_cluster():
    g = np.repeat([1, 2], [16, 15])
    B = np.array([[0.9, 0.05], [0.05, 0.9]])
    A = sample(SbmParams(g=g, k=2, B=B), np.random.default_rng(13))
    A[:, 30] = 0
    A[30, :] = 0  # isolate the last node
    rows = np.arange(31)[np.arange(31) % 3 != 0]
    labels, psi_hat = spherical_spectral_cluster_rect(A[rows, :], 2,
                                                      np.random.default_rng(0))
    assert psi_hat[30] < 1e-12
    nonzero_counts = np.bincount(labels[:30], minlength=3)
    assert labels[30] == np.argmax(nonzero_counts[1:]) + 1


def test_sampled_sbm_misclustering_rate():
    # calibration: worst observed rate over these 50 draws is 0.0
    fails = 0
    for s in range(50):
        rng = np.random.default_rng(1000 + s)
        g = np.repeat([1, 2], 300)
        B = np.array([[0.6, 0.2], [0.2, 0.6]])
        A = sample(SbmParams(g=g, k=2, B=B), rng)
        rows = np.sort(rng.permutation(600)[:400])
        gh = spectral_cluster_rect(A[rows, :], 2, rng)
        if hamming_up_to_permutation(gh, g) / 600 > 0.02:
            fails += 1
    assert fails <= 2  # >= 95% of runs within 2%


@pytest.mark.slow
def test_sampled_dcbm_misclustering_rate():
    # calibration: worst observed rate over these 50 draws is 0.0142
    fails = 0
    for s in range(50):
        rng = np.random.default_rng(2000 + s)
        p = sim3_params(1200, 2, "dcbm", rng)
        A = sample(p, rng)
        rows = np.sort(rng.permutation(1200)[:800])
        gh, _ = spherical_spectral_cluster_rect(A[rows, :], 2, rng)
        if hamming_up_to_permutation(gh, p.g) / 1200 > 0.05:
            fails += 1
    assert fails <= 5  # >= 90% of runs within 5%
