"""Plug-in estimators against a brute-force pair-counting oracle."""

import numpy as np
import pytest
from scipy.sparse import csr_array

from netcv.estimators import (BlockFit, clamp_probs, estimate_block, predict_P,
                              predict_P_matrix, _pair_sums)
from netcv.models import DcbmParams, SbmParams, expected_P, sample, sim1_params


# ---------------------------------------------------------------- oracle

def pair_sums_oracle(A, N1, N2, g, k, psi=None):
    """Double loop over all unordered pairs with an endpoint in N1.

    Independent of the vectorized implementation: no matrix products,
    just the defining sums.
    """
    n = len(g)
    in1 = np.zeros(n, dtype=bool)
    in1[np.asarray(N1)] = True
    Num = np.zeros((k, k))
    Den = np.zeros((k, k))
    for i in range(n):
        for j in range(i + 1, n):
            if not (in1[i] or in1[j]):
                continue
            a, b = g[i] - 1, g[j] - 1
            w = 1.0 if psi is None else psi[i] * psi[j]
            Num[a, b] += A[i, j]
            Den[a, b] += w
            if a != b:
                Num[b, a] += A[i, j]
                Den[b, a] += w
    return Num, Den


def random_instance(rng, with_psi=False):
    n = int(rng.integers(6, 31))
    k = int(rng.integers(1, min(4, n // 2) + 1))
    g = rng.integers(1, k + 1, size=n)
    A = (rng.random((n, n)) < 0.4).astype(np.int8)
    A = np.triu(A, 1)
    A = (A + A.T).astype(np.int8)
    perm = rng.permutation(n)
    cut = int(rng.integers(1, n))
    N1, N2 = np.sort(perm[:cut]), np.sort(perm[cut:])
    psi = rng.uniform(0.1, 1.0, size=n) if with_psi else None
    return A, N1, N2, g, k, psi


# ---------------------------------------------------------------- pair sums

def test_pair_sums_match_oracle_exactly():
    rng = np.random.default_rng(0)
    for _ in range(25):
        A, N1, N2, g, k, _ = random_instance(rng)
        Num, Den = _pair_sums(A, N1, N2, g, k)
        Num_o, Den_o = pair_sums_oracle(A, N1, N2, g, k)
        assert np.array_equal(Num, Num_o)   # integer counts, exact
        assert np.array_equal(Den, Den_o)


def test_pair_sums_weighted_match_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        A, N1, N2, g, k, psi = random_instance(rng, with_psi=True)
        Num, Den = _pair_sums(A, N1, N2, g, k, weights=psi)
        Num_o, Den_o = pair_sums_oracle(A, N1, N2, g, k, psi=psi)
        assert np.array_equal(Num, Num_o)
        assert np.allclose(Den, Den_o, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.int8, bool, float])
def test_pair_sums_dense_and_csr_are_equal(dtype):
    rng = np.random.default_rng(2)
    for _ in range(10):
        A, N1, N2, g, k, psi = random_instance(rng, with_psi=True)
        dense = A.astype(dtype)
        for weights in (None, psi):
            Num_d, Den_d = _pair_sums(dense, N1, N2, g, k, weights=weights)
            Num_s, Den_s = _pair_sums(csr_array(dense), N1, N2, g, k, weights=weights)
            assert np.array_equal(Num_d, Num_s)
            assert np.array_equal(Den_d, Den_s)
            assert np.array_equal(Num_s, pair_sums_oracle(A, N1, N2, g, k)[0])


def test_pair_sums_ignore_unobserved_block():
    # pairs entirely inside N2 must not count
    A = np.ones((4, 4), dtype=np.int8) - np.eye(4, dtype=np.int8)
    g = np.array([1, 1, 1, 1])
    Num, Den = _pair_sums(A, [0], [1, 2, 3], g, 1)
    assert Num[0, 0] == 3  # only the three pairs touching node 0
    assert Den[0, 0] == 3


# ---------------------------------------------------------------- SBM

def test_hand_counted_example():
    A = np.zeros((6, 6), dtype=np.int8)
    for i, j in [(0, 1), (0, 3), (2, 4), (2, 5)]:
        A[i, j] = A[j, i] = 1
    g = np.array([1, 1, 2, 1, 2, 2])
    fit = estimate_block(A, [0, 1, 2], [3, 4, 5], g, 2)
    assert np.isclose(fit.B_hat[0, 0], 2 / 3)
    assert np.isclose(fit.B_hat[1, 1], 1.0)
    assert fit.B_hat[0, 1] == 0.0


def test_complete_graph_k1():
    A = (np.ones((5, 5)) - np.eye(5)).astype(np.int8)
    fit = estimate_block(A, [0, 1], [2, 3, 4], np.ones(5, dtype=int), 1)
    assert fit.B_hat[0, 0] == 1.0


def test_sbm_single_draw_within_4_sigma():
    params = sim1_params(600, 3, 200, 0.2)
    A = sample(params, np.random.default_rng(7))
    N1 = np.arange(0, 600, 3)
    N2 = np.setdiff1d(np.arange(600), N1)
    fit = estimate_block(A, N1, N2, params.g, 3)
    _, D = _pair_sums(np.zeros((600, 600)), N1, N2, params.g, 3)
    sigma = np.sqrt(params.B * (1 - params.B) / D)
    assert np.all(np.abs(fit.B_hat - params.B) <= 4 * sigma)


def test_sbm_empty_block_falls_back_to_density():
    A = np.zeros((6, 6), dtype=np.int8)
    for i, j in [(0, 1), (2, 3), (4, 5)]:
        A[i, j] = A[j, i] = 1
    g = np.array([1, 1, 2, 2, 1, 2])  # no node carries label 3
    fit = estimate_block(A, [0, 1, 2], [3, 4, 5], g, 3)
    Num, Den = _pair_sums(A, [0, 1, 2], [3, 4, 5], g, 3)
    iu = np.triu_indices(3)
    dens = Num[iu].sum() / Den[iu].sum()
    assert np.allclose(fit.B_hat[2, :], dens)
    assert np.allclose(fit.B_hat[:, 2], dens)


@pytest.mark.parametrize("form", [np.asarray, csr_array])
def test_estimate_block_rejects_a_nonzero_diagonal(form):
    A = np.zeros((4, 4))
    A[2, 2] = 1.0
    g = np.array([1, 1, 2, 2])
    with pytest.raises(ValueError, match="zero diagonal"):
        estimate_block(form(A), [0, 1], [2, 3], g, 2)
    with pytest.raises(ValueError, match="zero diagonal"):
        estimate_block(form(A), [0, 1], [2, 3], g, 2, psi_hat=np.ones(4))


def test_sbm_rejects_label_out_of_range():
    A = np.zeros((4, 4), dtype=np.int8)
    with pytest.raises(ValueError):
        estimate_block(A, [0, 1], [2, 3], np.array([1, 2, 3, 1]), 2)


def test_sbm_noiseless_population_identity():
    params = sim1_params(90, 3, 30, 0.2)
    P = expected_P(params)
    np.fill_diagonal(P, 0.0)  # self-pairs are never observed pairs
    N1 = np.arange(0, 90, 3)
    N2 = np.setdiff1d(np.arange(90), N1)
    fit = estimate_block(P, N1, N2, params.g, 3)
    assert np.allclose(fit.B_hat, params.B, atol=1e-12)


# ---------------------------------------------------------------- DCBM

def test_dcbm_constant_psi_complete_graph():
    A = (np.ones((6, 6)) - np.eye(6)).astype(np.int8)
    g = np.ones(6, dtype=int)
    c = 0.5
    fit = estimate_block(A, [0, 1, 2], [3, 4, 5], g, 1, psi_hat=np.full(6, c))
    assert np.isclose(fit.B_hat[0, 0], 1 / c**2)


def test_dcbm_noiseless_identity():
    rng = np.random.default_rng(3)
    g = np.repeat([1, 2, 3], 30)
    B = np.array([[0.5, 0.1, 0.05], [0.1, 0.4, 0.1], [0.05, 0.1, 0.6]])
    psi = rng.uniform(0.3, 1.0, 90)
    for c in (1, 2, 3):
        psi[g == c] /= psi[g == c].max()
    params = DcbmParams(g=g, k=3, B=B, psi=psi)
    P = expected_P(params)
    np.fill_diagonal(P, 0.0)  # self-pairs are never observed pairs
    # true community-normalized activeness
    psi_prime = psi.copy()
    for c in (1, 2, 3):
        psi_prime[g == c] /= np.sqrt((psi[g == c] ** 2).sum())
    N1 = np.arange(0, 90, 3)
    N2 = np.setdiff1d(np.arange(90), N1)
    fit = estimate_block(P, N1, N2, g, 3, psi_hat=psi_prime)
    Phat = predict_P_matrix(fit)
    off = ~np.eye(90, dtype=bool)
    assert np.allclose(Phat[off], P[off], atol=1e-10)


def test_dcbm_rejects_negative_psi():
    A = np.zeros((4, 4), dtype=np.int8)
    g = np.array([1, 1, 2, 2])
    with pytest.raises(ValueError):
        estimate_block(A, [0, 1], [2, 3], g, 2,
                       psi_hat=np.array([1.0, -0.1, 1.0, 1.0]))
    with pytest.raises(ValueError):
        estimate_block(A, [0, 1], [2, 3], g, 2, psi_hat=np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dcbm_rejects_non_finite_psi(bad):
    A = np.zeros((4, 4), dtype=np.int8)
    g = np.array([1, 1, 2, 2])
    with pytest.raises(ValueError, match="finite"):
        estimate_block(A, [0, 1], [2, 3], g, 2,
                       psi_hat=np.array([1.0, bad, 1.0, 1.0]))


def test_dcbm_zero_psi_fallback_is_finite():
    A = np.zeros((6, 6), dtype=np.int8)
    A[0, 1] = A[1, 0] = 1
    g = np.array([1, 1, 1, 2, 2, 2])
    fit = estimate_block(A, [0, 1, 2], [3, 4, 5], g, 2, psi_hat=np.zeros(6))
    assert np.all(np.isfinite(fit.B_hat))


def test_dcbm_reduces_to_sbm_with_blockwise_constant_psi():
    # the identity holds wherever the block denominators are populated;
    # empty blocks fall back to a fill that depends on psi
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(30):
        A, N1, N2, g, k, _ = random_instance(rng)
        _, Den = _pair_sums(A, N1, N2, g, k)
        if not np.all(Den > 0):
            continue
        scale = rng.uniform(0.5, 1.5, size=k)
        psi = scale[g - 1]
        sfit = estimate_block(A, N1, N2, g, k)
        dfit = estimate_block(A, N1, N2, g, k, psi_hat=psi)
        assert np.allclose(predict_P_matrix(sfit), predict_P_matrix(dfit),
                           atol=1e-10)
        checked += 1
    assert checked >= 10


# ---------------------------------------------------------------- predictions

def sbm_fit_2x2():
    return BlockFit(g_hat=np.array([1, 2, 1]), B_hat=np.array([[0.6, 0.2],
                                                               [0.2, 0.6]]))


def test_predict_P_lookup_and_symmetry():
    fit = sbm_fit_2x2()
    assert predict_P(fit, 0, 1) == 0.2
    assert predict_P(fit, 0, 2) == 0.6
    assert predict_P(fit, 1, 0) == predict_P(fit, 0, 1)


def test_predict_P_rejects_self_pair():
    with pytest.raises(ValueError):
        predict_P(sbm_fit_2x2(), 1, 1)


def test_predict_P_clamps_dcbm_overflow():
    fit = BlockFit(g_hat=np.array([1, 1]), B_hat=np.array([[1.3]]),
                   psi_hat=np.array([1.0, 1.0]))
    assert predict_P(fit, 0, 1) == 1 - 1e-6


def test_clamp_leaves_interior_untouched():
    p = np.array([1e-6, 0.5, 1 - 1e-6])
    assert np.array_equal(clamp_probs(p), p)
    assert clamp_probs(np.array([0.0]))[0] == 1e-6
    assert clamp_probs(np.array([1.0]))[0] == 1 - 1e-6


def test_predict_P_matrix_matches_scalar():
    rng = np.random.default_rng(5)
    A, N1, N2, g, k, psi = random_instance(rng, with_psi=True)
    fit = estimate_block(A, N1, N2, g, k, psi_hat=psi)
    P = predict_P_matrix(fit)
    n = len(g)
    assert np.all(np.diag(P) == 0)
    for i in range(0, n, 3):
        for j in range(0, n, 2):
            if i != j:
                assert np.isclose(P[i, j], predict_P(fit, i, j), atol=1e-15)


def test_unit_psi_is_the_plain_fit_bit_for_bit():
    # the plain block model is the degree-corrected one with psi = 1,
    # including the fallback fill of block pairs with no observed pair
    rng = np.random.default_rng(6)
    empty = 0
    for _ in range(300):
        n = int(rng.integers(4, 31))
        k = int(rng.integers(1, min(5, n) + 1))
        top = k - 1 if k > 1 and rng.random() < 0.3 else k  # label k unused
        g = rng.integers(1, top + 1, size=n)
        empty += np.unique(g).size < k
        A = (rng.random((n, n)) < rng.uniform(0.05, 0.7)).astype(np.int8)
        A = np.triu(A, 1)
        A = A + A.T
        perm = rng.permutation(n)
        cut = int(rng.integers(1, n))
        N1, N2 = np.sort(perm[:cut]), np.sort(perm[cut:])
        plain = estimate_block(A, N1, N2, g, k)
        unit = estimate_block(A, N1, N2, g, k, psi_hat=np.ones(n))
        assert plain.psi_hat is None
        assert plain.B_hat.tobytes() == unit.B_hat.tobytes()
        assert (predict_P_matrix(plain).tobytes()
                == predict_P_matrix(unit).tobytes())
    assert empty >= 50
