"""Cross-validation core: fold losses, selection, reports, reproducibility."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netcv.graphs import partition_nodes
from netcv.models import SbmParams, sample, sim1_params
from netcv.ncv import (Candidate, candidate_grid, canonical_loss,
                       fold_fit_validate, loss, ncv_select, repeat_ncv)


def planted_A(n=120, seed=0, p_in=1.0, p_out=0.0):
    g = np.repeat([1, 2], n // 2)
    B = np.array([[p_in, p_out], [p_out, p_in]])
    return sample(SbmParams(g=g, k=2, B=B), np.random.default_rng(seed)), g


# ---------------------------------------------------------------- loss

def test_loss_values():
    assert loss("squared", 1, 0.5) == 0.25
    assert np.isclose(loss("negloglik", 1, 0.5), np.log(2))
    assert loss("squared", 0, 0) == 0.0
    assert np.isclose(loss("nll", 0, 0.25), -np.log(0.75))
    assert loss("l2", 1, 1) == 0.0


def test_loss_aliases_and_unknown():
    assert canonical_loss("l2") == "squared"
    assert canonical_loss("nll") == "negloglik"
    with pytest.raises(ValueError):
        canonical_loss("hinge")


# ---------------------------------------------------------------- folds

def test_noiseless_fold_loss_near_zero():
    A, _ = planted_A(60)
    partition = partition_nodes(60, 3, np.random.default_rng(1))
    val = fold_fit_validate(A, partition, 0, Candidate("sbm", 2), "squared",
                            np.random.default_rng(2))
    # exact recovery; only the probability clamp keeps it from literal zero
    assert val < 1e-6


def test_fold_loss_is_ordered_pair_sum():
    # dual route: recompute the same loss by an explicit double loop
    A, g = planted_A(30, p_in=0.9, p_out=0.1, seed=3)
    partition = partition_nodes(30, 3, np.random.default_rng(4))
    cand = Candidate("sbm", 2)
    got = fold_fit_validate(A, partition, 1, cand, "squared",
                            np.random.default_rng(5))

    from netcv.spectral import spectral_cluster_rect
    from netcv.estimators import estimate_block, predict_P

    Nv = partition[1]
    rows = np.setdiff1d(np.arange(30), Nv)
    g_hat = spectral_cluster_rect(A[rows, :], 2, np.random.default_rng(5))
    fit = estimate_block(A, rows, Nv, g_hat, 2)
    manual = 0.0
    for i in Nv:
        for j in Nv:
            if i != j:
                manual += (A[i, j] - predict_P(fit, int(i), int(j))) ** 2
    assert np.isclose(got, manual, rtol=1e-12)
    # ordered sum is twice the unordered sum by symmetry
    unordered = manual / 2
    assert np.isclose(got, 2 * unordered)


def full_matrix_fold_loss(A, partition, v, cand, kind, rng, basis):
    """The held-out loss read off the full n x n predicted matrix, with the
    whole adjacency matrix cast to float."""
    from netcv.estimators import estimate_block, predict_P_matrix
    from netcv.ncv import _loss_array
    from netcv.spectral import spectral_cluster_rect, spherical_spectral_cluster_rect

    Af = np.asarray(A, dtype=float)
    Nv = np.asarray(partition[v])
    rows = np.setdiff1d(np.arange(A.shape[0]), Nv)
    if cand.model == "sbm":
        g = spectral_cluster_rect(Af[rows, :], cand.K, rng, basis=basis)
        psi = None
    else:
        g, psi = spherical_spectral_cluster_rect(Af[rows, :], cand.K, rng, basis=basis)
    fit = estimate_block(Af, rows, Nv, g, cand.K, psi_hat=psi)
    block = np.ix_(Nv, Nv)
    off = ~np.eye(Nv.size, dtype=bool)
    return float(_loss_array(kind, Af[block][off], predict_P_matrix(fit)[block][off]).sum())


@pytest.mark.parametrize("kind", ["squared", "negloglik"])
def test_fold_loss_bitwise_equals_full_matrix_formula(kind):
    from netcv.models import sim3_params
    from netcv.spectral import top_k_right_singular

    rng = np.random.default_rng(21)
    A = sample(sim3_params(150, 3, "dcbm", rng), rng)
    partition = partition_nodes(150, 3, np.random.default_rng(22))
    for v, Nv in enumerate(partition):
        basis = top_k_right_singular(A[np.setdiff1d(np.arange(150), Nv), :], 3)
        for cand in candidate_grid(("sbm", "dcbm"), 3):
            got = fold_fit_validate(A, partition, v, cand, kind,
                                    np.random.default_rng(23), basis=basis)
            ref = full_matrix_fold_loss(A, partition, v, cand, kind,
                                        np.random.default_rng(23), basis)
            assert got == ref, (v, cand)


@pytest.mark.parametrize("model", ["sbm", "dcbm"])
def test_fold_rejects_a_basis_narrower_than_k(model):
    from netcv.models import sim3_params
    from netcv.spectral import top_k_right_singular

    rng = np.random.default_rng(31)
    A = sample(sim3_params(120, 3, model, rng), rng)
    partition = partition_nodes(120, 3, np.random.default_rng(32))
    basis = top_k_right_singular(A[np.setdiff1d(np.arange(120), partition[0]), :], 2)
    with pytest.raises(ValueError, match="basis has 2 columns, need k=4"):
        fold_fit_validate(A, partition, 0, Candidate(model, 4), "negloglik",
                          np.random.default_rng(0), basis=basis)
    fold_fit_validate(A, partition, 0, Candidate(model, 2), "negloglik",
                      np.random.default_rng(0), basis=basis)


def test_fold_too_small_rejected():
    A, _ = planted_A(10)
    partition = [np.array([0]), np.arange(1, 10)]
    with pytest.raises(ValueError, match="at least 2"):
        fold_fit_validate(A, partition, 0, Candidate("sbm", 2), "squared",
                          np.random.default_rng(0))


def test_k1_loses_to_k2_on_two_block_graph():
    params = sim1_params(600, 2, 300, 0.2)
    wins = 0
    for s in range(10):
        A = sample(params, np.random.default_rng(100 + s))
        partition = partition_nodes(600, 3, np.random.default_rng(200 + s))
        l1 = fold_fit_validate(A, partition, 0, Candidate("sbm", 1), "squared",
                               np.random.default_rng(s))
        l2 = fold_fit_validate(A, partition, 0, Candidate("sbm", 2), "squared",
                               np.random.default_rng(s))
        wins += l1 > l2
    assert wins >= 9


def test_fold_loss_permutation_invariant():
    A, _ = planted_A(90, p_in=0.9, p_out=0.05, seed=6)
    partition = partition_nodes(90, 3, np.random.default_rng(7))
    cand = Candidate("sbm", 2)
    base = fold_fit_validate(A, partition, 0, cand, "squared",
                             np.random.default_rng(8))
    perm = np.random.default_rng(9).permutation(90)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(90)
    A_p = A[np.ix_(perm, perm)]
    partition_p = [np.sort(inv[f]) for f in partition]
    permuted = fold_fit_validate(A_p, partition_p, 0, cand, "squared",
                                 np.random.default_rng(8))
    assert np.isclose(base, permuted, rtol=1e-9)


# ---------------------------------------------------------------- selection

def test_ncv_select_report_invariants():
    A, _ = planted_A(90, p_in=0.8, p_out=0.1, seed=10)
    cands = candidate_grid(("sbm", "dcbm"), 3)
    rep = ncv_select(A, cands, V=3, fn="nll", seed=42)
    for fl, t in zip(rep.fold_losses, rep.totals):
        assert t == sum(fl)
        assert len(fl) == 3
    best = min(rep.totals)
    sel_idx = rep.candidates.index(rep.selected)
    assert rep.totals[sel_idx] == best
    assert rep.seed == 42
    assert rep.selected == Candidate("sbm", 2)


def test_ncv_select_json_schema():
    A, _ = planted_A(60, p_in=0.8, p_out=0.1, seed=11)
    rep = ncv_select(A, [("sbm", 1), ("sbm", 2)], V=3, fn="l2", seed=1)
    blob = json.loads(rep.to_json())
    assert set(blob) == {"seed", "V", "loss", "candidates", "selected"}
    assert blob["loss"] == "squared"
    assert blob["V"] == 3
    entry = blob["candidates"][0]
    assert set(entry) == {"model", "K", "fold_losses", "total"}
    assert len(entry["fold_losses"]) == 3
    assert set(blob["selected"]) == {"model", "K"}


def test_ncv_select_deterministic_and_thread_invariant():
    A, _ = planted_A(60, p_in=0.8, p_out=0.1, seed=12)
    cands = candidate_grid(("sbm", "dcbm"), 3)
    r1 = ncv_select(A, cands, V=3, fn="nll", seed=5)
    r2 = ncv_select(A, cands, V=3, fn="nll", seed=5)
    r4 = ncv_select(A, cands, V=3, fn="nll", seed=5, threads=4)
    assert r1.to_json() == r2.to_json() == r4.to_json()


@pytest.mark.parametrize("sparse_type", ["csr_array", "csr_matrix"])
def test_ncv_select_accepts_scipy_sparse(sparse_type):
    import scipy.sparse
    A, _ = planted_A(60, p_in=0.8, p_out=0.1, seed=12)
    cands = candidate_grid(("sbm", "dcbm"), 3)
    dense = ncv_select(A, cands, V=3, fn="nll", seed=5)
    sparse = ncv_select(getattr(scipy.sparse, sparse_type)(A), cands, V=3,
                        fn="nll", seed=5)
    assert sparse.to_json() == dense.to_json()


def test_ncv_select_generates_and_records_seed():
    A, _ = planted_A(40, p_in=0.9, p_out=0.1, seed=13)
    rep = ncv_select(A, [("sbm", 2)], V=2, fn="l2")
    again = ncv_select(A, [("sbm", 2)], V=2, fn="l2", seed=rep.seed)
    assert again.totals == rep.totals


def test_ncv_select_tie_breaks_to_smaller_k():
    # the empty graph gives every candidate the same all-clamped loss
    A = np.zeros((30, 30), dtype=np.int8)
    rep = ncv_select(A, [("sbm", 3), ("sbm", 2), ("sbm", 1)], V=3, fn="l2",
                     seed=0)
    assert rep.totals[0] == rep.totals[1] == rep.totals[2]
    assert rep.selected == Candidate("sbm", 1)


def test_ncv_select_validates_inputs():
    A, _ = planted_A(20)
    with pytest.raises(ValueError):
        ncv_select(A, [], V=3, seed=0)
    with pytest.raises(ValueError):
        ncv_select(A, [("sbm", 2)], V=1, seed=0)
    with pytest.raises(ValueError):
        ncv_select(A, [("glm", 2)], V=3, seed=0)
    with pytest.raises(ValueError):
        ncv_select(A, [("sbm", 0)], V=3, seed=0)
    with pytest.raises(ValueError):
        ncv_select(A, [("sbm", 19)], V=2, seed=0)  # K exceeds fitting rows


def test_testing_pair_fraction_near_one_over_V():
    n, V = 120, 4
    partition = partition_nodes(n, V, np.random.default_rng(14))
    tested = sum(len(f) * (len(f) - 1) for f in partition)
    frac = tested / (n * (n - 1))
    assert abs(frac - 1 / V) <= V / n


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_squared_fold_loss_bounded(seed):
    rng = np.random.default_rng(seed)
    n = 24
    A = (rng.random((n, n)) < 0.3).astype(np.int8)
    A = np.triu(A, 1)
    A = (A + A.T).astype(np.int8)
    partition = partition_nodes(n, 3, rng)
    val = fold_fit_validate(A, partition, 0, Candidate("sbm", 2), "squared",
                            np.random.default_rng(seed))
    m = len(partition[0])
    assert 0.0 <= val <= m * (m - 1)


# ---------------------------------------------------------------- repeats

def test_repeat_ncv_single_rep():
    A, _ = planted_A(40, p_in=0.9, p_out=0.1, seed=15)
    res = repeat_ncv(A, [("sbm", 1), ("sbm", 2)], V=2, fn="l2", reps=1,
                     master_seed=3)
    assert sum(res.counts.values()) == 1
    assert len(res.selections) == 1


def test_repeat_ncv_deterministic():
    A, _ = planted_A(40, p_in=0.9, p_out=0.1, seed=16)
    cands = [("sbm", 1), ("sbm", 2), ("sbm", 3)]
    a = repeat_ncv(A, cands, V=2, fn="l2", reps=5, master_seed=7)
    b = repeat_ncv(A, cands, V=2, fn="l2", reps=5, master_seed=7)
    assert a.selections == b.selections
    assert a.rep_seeds == b.rep_seeds
    assert a.counts[Candidate("sbm", 2)] == 5


def test_repeat_ncv_rejects_zero_reps():
    A, _ = planted_A(20)
    with pytest.raises(ValueError):
        repeat_ncv(A, [("sbm", 2)], V=2, fn="l2", reps=0, master_seed=0)


def test_public_names_resolve():
    import netcv
    missing = [name for name in netcv.__all__ if not hasattr(netcv, name)]
    assert missing == []
