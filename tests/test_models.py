"""Block-model parameter containers, samplers and simulation presets."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netcv.models
from netcv.graphs import check_adjacency, load_edge_list, write_edge_list
from netcv.models import (DcbmParams, SbmParams, expected_P, normalize_activeness,
                          sample, sim1_params, sim2_params, sim3_params,
                          sim2_sigma_threshold, _multinomial_membership)


def two_block_params():
    g = np.repeat([1, 2], 5)
    B = np.array([[0.6, 0.1], [0.1, 0.4]])
    return SbmParams(g=g, k=2, B=B)


# ---------------------------------------------------------------- containers

def test_sbm_params_valid():
    p = two_block_params()
    assert p.n == 10
    assert p.B[0, 0] == 0.6


def test_params_arrays_immutable():
    p = two_block_params()
    with pytest.raises(ValueError):
        p.B[0, 0] = 0.9
    with pytest.raises(ValueError):
        p.g[0] = 2


def test_sbm_params_rejects_bad_B():
    g = np.repeat([1, 2], 5)
    with pytest.raises(ValueError):
        SbmParams(g=g, k=2, B=np.array([[0.6, 0.1], [0.2, 0.4]]))  # asymmetric
    with pytest.raises(ValueError):
        SbmParams(g=g, k=2, B=np.array([[1.5, 0.1], [0.1, 0.4]]))  # out of range


def test_dcbm_params_requires_blockwise_max_one():
    g = np.repeat([1, 2], 3)
    B = np.array([[0.5, 0.1], [0.1, 0.5]])
    psi = np.array([1.0, 0.5, 0.5, 1.0, 0.7, 0.7])
    DcbmParams(g=g, k=2, B=B, psi=psi)
    with pytest.raises(ValueError):
        DcbmParams(g=g, k=2, B=B, psi=psi * 0.9)
    with pytest.raises(ValueError):
        DcbmParams(g=g, k=2, B=B, psi=-psi)


def test_dcbm_params_accept_an_empty_community():
    g = np.array([1, 1, 1])
    B = np.array([[0.5, 0.1], [0.1, 0.5]])
    psi = normalize_activeness(np.array([0.2, 0.4, 0.8]), g, 2)
    assert np.array_equal(psi, [0.25, 0.5, 1.0])
    p = DcbmParams(g=g, k=2, B=B, psi=psi)
    A = sample(p, np.random.default_rng(0))
    assert A.shape == (3, 3) and check_adjacency(A) is A
    assert np.array_equal(A.toarray(), dense_sample(p, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="community 1"):
        DcbmParams(g=g, k=2, B=B, psi=psi * 0.9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dcbm_params_rejects_non_finite_psi(bad):
    g = np.repeat([1, 2], 3)
    B = np.array([[0.5, 0.1], [0.1, 0.5]])
    psi = np.array([1.0, bad, 0.5, 1.0, 0.7, 0.7])
    with pytest.raises(ValueError, match="finite"):
        DcbmParams(g=g, k=2, B=B, psi=psi)


# ---------------------------------------------------------------- expected_P

def test_expected_P_sbm_entries():
    p = two_block_params()
    P = expected_P(p)
    assert P[0, 1] == 0.6   # both in block 1
    assert P[0, 9] == 0.1   # cross
    assert P[9, 9] == 0.4   # within block 2
    assert np.array_equal(P, P.T)


def test_expected_P_dcbm_entries():
    g = np.array([1, 1, 2, 2])
    B = np.array([[0.8, 0.2], [0.2, 0.6]])
    psi = np.array([1.0, 0.5, 1.0, 0.25])
    p = DcbmParams(g=g, k=2, B=B, psi=psi)
    P = expected_P(p)
    assert np.isclose(P[0, 1], 1.0 * 0.5 * 0.8)
    assert np.isclose(P[1, 3], 0.5 * 0.25 * 0.2)
    assert np.isclose(P[2, 3], 1.0 * 0.25 * 0.6)


# ---------------------------------------------------------------- sampling

def test_sample_is_symmetric_hollow_binary():
    p = two_block_params()
    A = sample(p, np.random.default_rng(0)).toarray()
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) == 0)
    assert set(np.unique(A)) <= {0, 1}


def test_sample_deterministic():
    p = two_block_params()
    A = sample(p, np.random.default_rng(42)).toarray()
    B = sample(p, np.random.default_rng(42)).toarray()
    assert np.array_equal(A, B)


def test_sample_edge_count_moments():
    # oracle: edge total is a sum of independent Bernoulli(P_ij) over
    # unordered pairs; check the draw against mean +/- 4 sigma
    n, k = 200, 2
    g = np.repeat([1, 2], n // 2)
    B = np.array([[0.5, 0.1], [0.1, 0.5]])
    p = SbmParams(g=g, k=k, B=B)
    P = expected_P(p)
    iu = np.triu_indices(n, k=1)
    mean = P[iu].sum()
    sigma = np.sqrt((P[iu] * (1 - P[iu])).sum())
    assert np.isclose(mean, 5950.0)  # 2 * C(100,2) * 0.5 + 100*100*0.1
    edges = sample(p, np.random.default_rng(1)).sum() / 2
    assert abs(edges - mean) <= 4 * sigma


def test_sample_respects_block_probabilities():
    n = 400
    g = np.repeat([1, 2], n // 2)
    B = np.array([[0.7, 0.05], [0.05, 0.3]])
    p = SbmParams(g=g, k=2, B=B)
    A = sample(p, np.random.default_rng(3)).toarray()
    blk1 = A[:200, :200][np.triu_indices(200, 1)].mean()
    cross = A[:200, 200:].mean()
    # 4 sigma of the block means
    assert abs(blk1 - 0.7) <= 4 * np.sqrt(0.7 * 0.3 / (199 * 100))
    assert abs(cross - 0.05) <= 4 * np.sqrt(0.05 * 0.95 / 200**2)


def dense_sample(params, rng):
    """Reference sampler: the dense n x n form ``sample`` replaced, which
    draws one uniform per upper-triangle pair in a single call."""
    P = expected_P(params)
    if P.min() < 0.0 or P.max() > 1.0:
        raise ValueError("edge probabilities outside [0, 1] (psi_i psi_j B > 1?)")
    n = params.n
    iu = np.triu_indices(n, k=1)
    A = np.zeros((n, n), dtype=np.int8)
    A[iu] = rng.random(iu[0].size) < P[iu]
    A += A.T
    return A


@st.composite
def block_models(draw):
    """SBM or DCBM parameters (possibly with an empty block), with entries
    of B at 0 or 1 and a block maximum of psi just above 1 (inside the
    tolerance of ``DcbmParams``), which can push B_ab psi_i psi_j past 1."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, min(n, 4)))
    g = np.array(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    entries = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    B = np.zeros((k, k))
    B[np.triu_indices(k)] = draw(st.lists(entries, min_size=k * (k + 1) // 2,
                                          max_size=k * (k + 1) // 2))
    B = np.triu(B) + np.triu(B, 1).T
    if not draw(st.booleans()):
        return SbmParams(g=g, k=k, B=B)
    psi = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    psi = normalize_activeness(psi, g, k)
    top = np.flatnonzero(psi == 1.0)  # every block's maximum
    psi[top[draw(st.integers(0, top.size - 1))]] = draw(st.sampled_from([1.0, 1.0 + 5e-9]))
    return DcbmParams(g=g, k=k, B=B, psi=psi)


def assert_sample_matches_dense(params, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = dense_sample(params, ref_rng)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            sample(params, rng)
    else:
        assert np.array_equal(sample(params, rng).toarray(), expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("block", [1, 7, 64])
@given(params=block_models(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_sample_equals_dense_reference(block, params, seed):
    # small blocks make small graphs span many blocks, and rows longer
    # than a block take one block each
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netcv.models, "_BLOCK_PAIRS", block)
        assert_sample_matches_dense(params, seed)


@pytest.mark.parametrize("model", ["sbm", "dcbm"])
def test_sample_equals_dense_reference_on_sim3(model):
    # a graph of 80,200 pairs: two blocks at the default block size
    rng = np.random.default_rng(17)
    assert_sample_matches_dense(sim3_params(401, 3, model, rng), 18)


@pytest.mark.parametrize("degree_corrected", [False, True])
@pytest.mark.parametrize("B", [
    [[0.0, 0.0], [0.0, 0.0]],    # p_max = 0: no pair passes the screen
    [[1.0, 0.3], [0.3, 0.6]],    # p_max = 1: every pair takes the exact path
])
@pytest.mark.parametrize("block", [7, 64])
def test_sample_equals_dense_reference_at_p_max_0_and_1(degree_corrected, B, block):
    g = np.repeat([1, 2], [23, 18])
    if degree_corrected:  # every psi at its block maximum, 1
        params = DcbmParams(g=g, k=2, B=np.array(B), psi=np.ones(g.size))
    else:
        params = SbmParams(g=g, k=2, B=np.array(B))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netcv.models, "_BLOCK_PAIRS", block)
        for seed in range(3):
            assert_sample_matches_dense(params, seed)


def test_sample_rejects_a_probability_above_one_on_the_diagonal_only():
    g = np.array([1, 2])
    B = np.array([[1.0, 0.5], [0.5, 1.0]])
    p = DcbmParams(g=g, k=2, B=B, psi=np.array([1.0 + 5e-9, 1.0]))
    P = expected_P(p)
    assert P[0, 1] <= 1.0 and P[0, 0] > 1.0
    assert_sample_matches_dense(p, 0)
    with pytest.raises(ValueError, match="outside"):
        sample(p, np.random.default_rng(0))


def test_sample_returns_the_canonical_csr_adjacency():
    A = sample(sim3_params(300, 3, "dcbm", np.random.default_rng(4)),
               np.random.default_rng(5))
    assert check_adjacency(A) is A


@pytest.mark.parametrize("model", ["sbm", "dcbm"])
def test_sample_index_dtypes_match_the_loaded_edge_list(model, tmp_path):
    A = sample(sim3_params(300, 3, model, np.random.default_rng(4)),
               np.random.default_rng(5))
    write_edge_list(A, tmp_path / "edges.txt")
    loaded, _ = load_edge_list(tmp_path / "edges.txt")
    assert (A.indptr.dtype, A.indices.dtype) == (loaded.indptr.dtype, loaded.indices.dtype)
    assert A.indices.dtype == np.int32


def test_sample_memory_is_bounded_by_edges():
    # the dense sampler peaked at 97 MiB here: 25.5 bytes per n^2
    p = sim1_params(2000, 3, 666, 0.05)
    tracemalloc.start()
    try:
        A = sample(p, np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert 150_000 < A.nnz // 2 < 180_000


def test_sample_holds_no_pair_arrays_but_the_uniforms():
    # about 1.4 MiB: index, probability and product arrays over every pair
    # of a 65,536-pair block peaked at 3.1 MiB
    p = sim1_params(600, 3, 200, 0.05)
    tracemalloc.start()
    try:
        sample(p, np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------- helpers

def test_multinomial_membership_covers_all_labels():
    g = _multinomial_membership(30, 4, np.random.default_rng(0))
    assert set(np.unique(g)) == {1, 2, 3, 4}
    assert g.shape == (30,)


def test_normalize_activeness_blockwise_max():
    g = np.array([1, 1, 2, 2, 2])
    psi = normalize_activeness(np.array([0.4, 0.2, 0.9, 0.3, 0.6]), g, 2)
    assert np.isclose(psi[:2].max(), 1.0)
    assert np.isclose(psi[2:].max(), 1.0)
    assert np.isclose(psi[1], 0.5)


# ---------------------------------------------------------------- sim presets

def test_sim1_params_structure():
    p = sim1_params(1000, 3, 100, 0.2)
    sizes = np.bincount(p.g)[1:]
    assert list(sizes) == [100, 450, 450]
    assert np.allclose(np.diag(p.B), 0.6)
    off = p.B[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.2)


def test_sim1_params_remainder_to_last():
    p = sim1_params(10, 3, 2, 0.1)
    sizes = np.bincount(p.g)[1:]
    assert list(sizes) == [2, 4, 4]
    q = sim1_params(11, 3, 2, 0.1)
    assert list(np.bincount(q.g)[1:]) == [2, 4, 5]


def test_sim1_params_bounds():
    with pytest.raises(ValueError):
        sim1_params(100, 2, 50, 0.4)   # r >= 1/3
    with pytest.raises(ValueError):
        sim1_params(100, 2, 60, 0.1)   # n1 too large
    with pytest.raises(ValueError):
        sim1_params(100, 1, 99, 0.1)   # K=1 needs n1 == n
    p = sim1_params(100, 1, 100, 0.1)
    assert p.k == 1


def test_sim2_threshold_cached_and_deterministic():
    t1 = sim2_sigma_threshold(3)
    t2 = sim2_sigma_threshold(3)
    assert t1 == t2
    assert t1 > 0


def test_sim2_params_respects_filter():
    rng = np.random.default_rng(8)
    thr = sim2_sigma_threshold(3)
    for _ in range(5):
        p = sim2_params(300, 3, rng)
        assert p.B.max() <= 0.5
        assert np.linalg.svd(p.B, compute_uv=False)[-1] >= thr
        assert set(np.unique(p.g)) == {1, 2, 3}


def test_sim2_k1_no_filter():
    p = sim2_params(50, 1, np.random.default_rng(0))
    assert p.k == 1
    assert p.B.shape == (1, 1)


def test_sim3_params_sbm_and_dcbm():
    ps = sim3_params(200, 2, "sbm", np.random.default_rng(0))
    assert isinstance(ps, SbmParams)
    assert np.allclose(np.diag(ps.B), 0.25)
    assert np.allclose(ps.B[0, 1], 0.1)
    pd = sim3_params(200, 2, "dcbm", np.random.default_rng(0))
    assert isinstance(pd, DcbmParams)
    for c in (1, 2):
        assert np.isclose(pd.psi[pd.g == c].max(), 1.0)
    assert pd.psi.min() >= 0.2
    with pytest.raises(ValueError):
        sim3_params(200, 2, "erdos", np.random.default_rng(0))
