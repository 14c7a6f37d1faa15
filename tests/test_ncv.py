"""Cross-validation core: fold losses, selection, reports, reproducibility."""

import contextlib
import gc
import json
import logging
import multiprocessing
import os
import signal
import sys
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

import netcv.ncv
from netcv.graphs import check_adjacency, partition_nodes
from netcv.models import SbmParams, sample, sim1_params
from netcv.ncv import (Candidate, _loss_array, candidate_grid, canonical_loss,
                       fold_fit_validate, ncv_select, repeat_ncv)
from test_estimators import predicted_P


def planted_A(n=120, seed=0, p_in=1.0, p_out=0.0):
    g = np.repeat([1, 2], n // 2)
    B = np.array([[p_in, p_out], [p_out, p_in]])
    return sample(SbmParams(g=g, k=2, B=B), np.random.default_rng(seed)).toarray(), g


# ---------------------------------------------------------------- loss

def loss(name, x, p):
    return _loss_array(canonical_loss(name), x, p)


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
    val = fold_fit_validate(check_adjacency(A), partition, 0, Candidate("sbm", 2),
                            "squared", np.random.default_rng(2))
    # exact recovery; only the probability clamp keeps it from literal zero
    assert val < 1e-6


def test_fold_loss_is_ordered_pair_sum():
    # dual route: recompute the same loss by an explicit double loop
    A, g = planted_A(30, p_in=0.9, p_out=0.1, seed=3)
    partition = partition_nodes(30, 3, np.random.default_rng(4))
    cand = Candidate("sbm", 2)
    got = fold_fit_validate(check_adjacency(A), partition, 1, cand, "squared",
                            np.random.default_rng(5))

    from netcv.spectral import spectral_cluster_rect
    from netcv.estimators import estimate_block

    Nv = partition[1]
    rows = np.setdiff1d(np.arange(30), Nv)
    g_hat = spectral_cluster_rect(A[rows, :], 2, np.random.default_rng(5))
    P = predicted_P(estimate_block(A, rows, Nv, g_hat, 2))
    manual = 0.0
    for i in Nv:
        for j in Nv:
            if i != j:
                manual += (A[i, j] - P[i, j]) ** 2
    assert np.isclose(got, manual, rtol=1e-12)
    # ordered sum is twice the unordered sum by symmetry
    unordered = manual / 2
    assert np.isclose(got, 2 * unordered)


def full_matrix_fold_loss(A, partition, v, cand, kind, rng, basis):
    """The held-out loss read off the full n x n predicted matrix, with the
    whole adjacency matrix cast to float."""
    from netcv.estimators import estimate_block
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
    return float(_loss_array(kind, Af[block][off], predicted_P(fit)[block][off]).sum())


# The held-out loss is summed per label pair (plain model) or in row
# chunks (degree-corrected), so it matches the full-matrix formula to a
# relative 1e-12, not bit for bit.
FOLD_LOSS_RTOL = 1e-12
# Entry budgets of one degree-corrected loss chunk besides the default:
# one row per chunk, and chunks of a few rows that end inside a label
# block and mid-way through the held-out rows.
SMALL_LOSS_BLOCKS = (1, 20, 150)


@pytest.mark.parametrize("kind", ["squared", "negloglik"])
def test_fold_loss_bitwise_equals_full_matrix_formula(kind, monkeypatch):
    from netcv import ncv
    from netcv.models import sim3_params
    from netcv.spectral import top_k_right_singular

    rng = np.random.default_rng(21)
    A = sample(sim3_params(150, 3, "dcbm", rng), rng).toarray()
    partition = partition_nodes(150, 3, np.random.default_rng(22))
    for v, Nv in enumerate(partition):
        basis = top_k_right_singular(A[np.setdiff1d(np.arange(150), Nv), :], 3)
        for cand in candidate_grid(("sbm", "dcbm"), 3):
            ref = full_matrix_fold_loss(A, partition, v, cand, kind,
                                        np.random.default_rng(23), basis)
            for block in (ncv._LOSS_BLOCK,) + SMALL_LOSS_BLOCKS:
                with monkeypatch.context() as m:
                    m.setattr(ncv, "_LOSS_BLOCK", block)
                    got = fold_fit_validate(check_adjacency(A), partition, v, cand,
                                            kind, np.random.default_rng(23),
                                            basis=basis)
                assert abs(got - ref) <= FOLD_LOSS_RTOL * abs(ref), (v, cand, block)


def test_block_counts_match_a_pair_loop():
    from netcv.estimators import _estimate_block

    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        k = int(rng.integers(1, 4))
        A = np.triu(rng.random((n, n)) < rng.uniform(0, 1), 1).astype(np.int8)
        A = A + A.T
        g = rng.integers(1, k + 1, size=n)
        Nv = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        N1 = np.setdiff1d(np.arange(n), Nv)
        _, edges, pairs = _estimate_block(check_adjacency(A), N1, Nv, g, k)
        m_ref = np.zeros((k, k))
        n_ref = np.zeros((k, k))
        for i in Nv:
            for j in Nv:
                if i != j:
                    m_ref[g[i] - 1, g[j] - 1] += A[i, j]
                    n_ref[g[i] - 1, g[j] - 1] += 1
        assert np.array_equal(edges, m_ref)
        assert np.array_equal(pairs, n_ref)


def test_sbm_select_slices_only_the_fold_rows(monkeypatch):
    # the cells count their pairs from products with the whole adjacency,
    # so the fold SVDs' row slices are the only CSR slices a select builds
    A = check_adjacency(planted_A(90, seed=3, p_in=0.5, p_out=0.05)[0])
    seed, V = 4, 3
    partition = partition_nodes(90, V, np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0,))))
    keys = []
    getitem = scipy.sparse.csr_array.__getitem__

    def spy(self, key):
        keys.append(key)
        return getitem(self, key)

    monkeypatch.setattr(scipy.sparse.csr_array, "__getitem__", spy)
    rep = ncv_select(A, candidate_grid(["sbm"], 3), V=V, seed=seed, threads=1)
    assert rep.selected == Candidate("sbm", 2)
    assert len(keys) == V
    for key, Nv in zip(keys, partition):
        assert np.array_equal(key, np.setdiff1d(np.arange(90), Nv))


class CountingCsr(scipy.sparse.csr_array):
    """A CSR adjacency that logs its products with ``@`` and its
    ``diagonal()`` calls in ``log``, when one is set."""

    def __matmul__(self, other):
        getattr(self, "log", []).append("matmul")
        return super().__matmul__(other)

    def diagonal(self, k=0):
        getattr(self, "log", []).append("diagonal")
        return super().diagonal(k)


def test_plain_cells_multiply_the_adjacency_once_and_never_rescan_its_diagonal(monkeypatch):
    A = CountingCsr(check_adjacency(planted_A(90, seed=3, p_in=0.5, p_out=0.05)[0]))
    A.log = log = []
    check = netcv.ncv.check_adjacency
    monkeypatch.setattr(netcv.ncv, "check_adjacency",
                        lambda A: log.append("checked") or check(A))
    partition = partition_nodes(90, 3, np.random.default_rng(1))
    fold_fit_validate(A, partition, 0, Candidate("sbm", 2), "nll", np.random.default_rng(2))
    assert log == ["matmul"]
    log.clear()
    rep = ncv_select(A, candidate_grid(["sbm"], 3), V=3, seed=4, threads=1)
    assert rep.selected == Candidate("sbm", 2)
    # check_adjacency reads the diagonal once; the 9 cells one product each
    assert log == ["checked", "diagonal"] + ["matmul"] * 9


@settings(max_examples=60, deadline=None)
@given(n=st.integers(6, 40), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), model=st.sampled_from(["sbm", "dcbm"]),
       kind=st.sampled_from(["squared", "negloglik"]), K=st.integers(1, 3),
       block=st.sampled_from((None,) + SMALL_LOSS_BLOCKS))
def test_fold_loss_matches_full_matrix_formula_on_small_graphs(n, density, seed,
                                                               model, kind, K, block):
    from netcv import ncv
    from netcv.spectral import top_k_right_singular

    rng = np.random.default_rng(seed)
    A = np.triu(rng.random((n, n)) < density, 1).astype(np.int8)
    A = A + A.T
    partition = partition_nodes(n, 3, rng)
    v = int(rng.integers(3))
    basis = top_k_right_singular(A[np.setdiff1d(np.arange(n), partition[v]), :], K)
    cand = Candidate(model, K)
    try:
        ref = full_matrix_fold_loss(A, partition, v, cand, kind,
                                    np.random.default_rng(seed), basis)
    except ValueError:   # too few nonzero embedding rows for K clusters
        with pytest.raises(ValueError):
            fold_fit_validate(check_adjacency(A), partition, v, cand, kind,
                              np.random.default_rng(seed), basis=basis)
        return
    with mock.patch.object(ncv, "_LOSS_BLOCK", block or ncv._LOSS_BLOCK):
        got = fold_fit_validate(check_adjacency(A), partition, v, cand, kind,
                                np.random.default_rng(seed), basis=basis)
    assert abs(got - ref) <= FOLD_LOSS_RTOL * abs(ref)


@pytest.mark.parametrize("model", ["sbm", "dcbm"])
def test_fold_rejects_a_basis_narrower_than_k(model):
    from netcv.models import sim3_params
    from netcv.spectral import top_k_right_singular

    rng = np.random.default_rng(31)
    A = sample(sim3_params(120, 3, model, rng), rng).toarray()
    partition = partition_nodes(120, 3, np.random.default_rng(32))
    basis = top_k_right_singular(A[np.setdiff1d(np.arange(120), partition[0]), :], 2)
    with pytest.raises(ValueError, match="basis has 2 columns, need k=4"):
        fold_fit_validate(check_adjacency(A), partition, 0, Candidate(model, 4),
                          "negloglik", np.random.default_rng(0), basis=basis)
    fold_fit_validate(check_adjacency(A), partition, 0, Candidate(model, 2),
                      "negloglik", np.random.default_rng(0), basis=basis)


def test_fold_too_small_rejected():
    A, _ = planted_A(10)
    partition = [np.array([0]), np.arange(1, 10)]
    with pytest.raises(ValueError, match="at least 2"):
        fold_fit_validate(check_adjacency(A), partition, 0, Candidate("sbm", 2),
                          "squared", np.random.default_rng(0))


def test_k1_loses_to_k2_on_two_block_graph():
    params = sim1_params(600, 2, 300, 0.2)
    wins = 0
    for s in range(10):
        A = sample(params, np.random.default_rng(100 + s))
        partition = partition_nodes(600, 3, np.random.default_rng(200 + s))
        l1 = fold_fit_validate(check_adjacency(A), partition, 0, Candidate("sbm", 1),
                               "squared", np.random.default_rng(s))
        l2 = fold_fit_validate(check_adjacency(A), partition, 0, Candidate("sbm", 2),
                               "squared", np.random.default_rng(s))
        wins += l1 > l2
    assert wins >= 9


def test_fold_loss_permutation_invariant():
    A, _ = planted_A(90, p_in=0.9, p_out=0.05, seed=6)
    partition = partition_nodes(90, 3, np.random.default_rng(7))
    cand = Candidate("sbm", 2)
    base = fold_fit_validate(check_adjacency(A), partition, 0, cand, "squared",
                             np.random.default_rng(8))
    perm = np.random.default_rng(9).permutation(90)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(90)
    A_p = A[np.ix_(perm, perm)]
    partition_p = [np.sort(inv[f]) for f in partition]
    permuted = fold_fit_validate(check_adjacency(A_p), partition_p, 0, cand, "squared",
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


def test_ncv_select_deterministic_and_thread_invariant(monkeypatch):
    # three usable CPUs, so threads 2, 3 and None run worker processes on any box
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 3)
    A, _ = planted_A(60, p_in=0.8, p_out=0.1, seed=12)
    cands = candidate_grid(("sbm", "dcbm"), 3)
    texts = [ncv_select(A, cands, V=3, fn="nll", seed=5, threads=t).to_json()
             for t in (1, 1, 2, 3, None)]
    assert len(set(texts)) == 1


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_cell_error_reaches_the_caller(where, monkeypatch, failing_in):
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(netcv.ncv, "fold_fit_validate",
                        failing_in(netcv.ncv.fold_fit_validate, where, "cell"))
    A = check_adjacency(planted_A(60, p_in=0.8, p_out=0.1, seed=12)[0])
    ref = weakref.ref(A)
    with pytest.raises(ValueError, match=f"cell failed in the {where}"):
        ncv_select(A, [("sbm", 2)], V=2, seed=0, threads=2)
    del A  # the failed select keeps no reference to its input
    gc.collect()
    assert ref() is None


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in this process once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_fold_svd_error_reaches_the_caller(monkeypatch, failing_in):
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 2)
    real_svd, real_cell = netcv.ncv.top_k_right_singular, netcv.ncv.fold_fit_validate
    # the worker's SVD fails while the caller's runs
    monkeypatch.setattr(netcv.ncv, "top_k_right_singular",
                        failing_in(real_svd, "worker", "fold SVD"))
    A = check_adjacency(planted_A(60, p_in=0.8, p_out=0.1, seed=12)[0])
    ref = weakref.ref(A)
    with pytest.raises(ValueError, match="fold SVD failed in the worker"):
        ncv_select(A, [("sbm", 2)], V=3, seed=0)
    del A  # the failed select keeps no reference to its input
    gc.collect()
    assert ref() is None

    # one side's SVD fails while the other side, its own fold and that
    # fold's cell done, waits for the failing fold's basis
    ctx, caller = multiprocessing.get_context("fork"), os.getpid()
    for where in ("worker", "caller"):
        started, other_done, cell_done = ctx.Event(), ctx.Event(), ctx.Event()

        def svd(*args, **kwargs):
            if (os.getpid() == caller) == (where == "caller"):
                started.set()
                if other_done.wait(30) and cell_done.wait(30):
                    time.sleep(0.2)  # the other side is waiting by now
                raise ValueError(f"fold SVD failed in the {where}")
            started.wait(30)
            result = real_svd(*args, **kwargs)
            other_done.set()
            return result

        def cell(*args, **kwargs):
            result = real_cell(*args, **kwargs)
            cell_done.set()
            return result

        monkeypatch.setattr(netcv.ncv, "top_k_right_singular", svd)
        monkeypatch.setattr(netcv.ncv, "fold_fit_validate", cell)
        A = check_adjacency(planted_A(60, p_in=0.8, p_out=0.1, seed=12)[0])
        ref = weakref.ref(A)
        children = set(multiprocessing.active_children())
        with _time_limit(30), pytest.raises(ValueError,
                                            match=f"fold SVD failed in the {where}"):
            ncv_select(A, [("sbm", 2)], V=2, seed=0)
        assert other_done.is_set() and cell_done.is_set()
        assert set(multiprocessing.active_children()) <= children  # no worker left
        del A
        gc.collect()
        assert ref() is None


def test_a_worker_that_dies_in_a_fold_svd_stops_the_select(monkeypatch):
    # the caller, its own fold and that fold's cell done, waits for the
    # dead worker's basis until it sees the broken pool
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 2)
    caller = os.getpid()
    started = multiprocessing.get_context("fork").Event()
    real_svd = netcv.ncv.top_k_right_singular

    def svd(*args, **kwargs):
        if os.getpid() != caller:
            started.set()
            os._exit(1)
        started.wait(30)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(netcv.ncv, "top_k_right_singular", svd)
    A, _ = planted_A(60, p_in=0.8, p_out=0.1, seed=12)
    children = set(multiprocessing.active_children())
    with _time_limit(60), pytest.raises(BrokenProcessPool):
        ncv_select(A, [("sbm", 2)], V=2, seed=0)
    assert set(multiprocessing.active_children()) <= children


def test_a_cell_starts_before_the_last_fold_svd_ends(monkeypatch):
    A, _ = planted_A(60, p_in=0.8, p_out=0.1, seed=12)
    cands = candidate_grid(("sbm", "dcbm"), 2)
    expected = _select_json(A, cands, 5, threads=1)
    ctx = multiprocessing.get_context("fork")
    svds, cell_started, overlapped = ctx.Value("i", 0), ctx.Event(), ctx.Event()
    real_svd, real_cell = netcv.ncv.top_k_right_singular, netcv.ncv.fold_fit_validate

    def svd(*args, **kwargs):
        # the third (last) fold SVD holds on, for up to 10 s, until some
        # cell has started
        with svds.get_lock():
            svds.value += 1
            last = svds.value == 3
        if last and cell_started.wait(10):
            overlapped.set()
        return real_svd(*args, **kwargs)

    def cell(*args, **kwargs):
        cell_started.set()
        return real_cell(*args, **kwargs)

    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(netcv.ncv, "top_k_right_singular", svd)
    monkeypatch.setattr(netcv.ncv, "fold_fit_validate", cell)
    assert _select_json(A, cands, 5) == expected
    assert svds.value == 3 and overlapped.is_set()


def test_fold_singular_values_are_logged_at_debug_level(monkeypatch, caplog):
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 2)
    A, _ = planted_A(60, p_in=0.8, p_out=0.1, seed=12)
    sigmas = []
    real_svd = netcv.ncv.top_k_right_singular

    def svd(*args, **kwargs):
        result = real_svd(*args, **kwargs)
        sigmas.append(result.sigma)
        return result

    monkeypatch.setattr(netcv.ncv, "top_k_right_singular", svd)
    logged = []
    for threads in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="netcv"):
            ncv_select(A, candidate_grid(("sbm", "dcbm"), 3), V=3, seed=5,
                       threads=threads)
        logged.append([r.getMessage() for r in caplog.records if r.name == "netcv.ncv"])
        # the spy records the threads=1 run's SVDs alone, all in this process
        monkeypatch.setattr(netcv.ncv, "top_k_right_singular", real_svd)
    assert len(sigmas) == 3
    assert logged[0] == logged[1] == [
        f"fold {v} of 3: top 3 singular values " + " ".join(f"{x:.6g}" for x in s)
        for v, s in enumerate(sigmas)]


def test_fold_svds_and_cells_both_run_on_two_processes(tmp_path, monkeypatch):
    A, _ = planted_A(60, p_in=0.8, p_out=0.1, seed=12)
    cands = candidate_grid(("sbm", "dcbm"), 2)
    expected = _select_json(A, cands, 5, threads=1)
    caller = os.getpid()
    log = tmp_path / "pids"
    ctx = multiprocessing.get_context("fork")
    started = {"svd": ctx.Event(), "cell": ctx.Event()}

    def spy(phase, real):
        # the caller's calls wait (up to 30 s) until a worker has run one of
        # the phase's tasks, so that both processes run some of them
        def run(*args, **kwargs):
            if os.getpid() != caller or not started[phase].wait(30):
                started[phase].set()
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{phase} {os.getpid()}\n")
            return real(*args, **kwargs)
        return run

    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(netcv.ncv, "top_k_right_singular",
                        spy("svd", netcv.ncv.top_k_right_singular))
    monkeypatch.setattr(netcv.ncv, "fold_fit_validate",
                        spy("cell", netcv.ncv.fold_fit_validate))
    assert _select_json(A, cands, 5) == expected
    runs = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    assert len(runs) == 3 + 3 * len(cands)
    for phase in ("svd", "cell"):
        pids = {int(pid) for p, pid in runs if p == phase}
        assert caller in pids and len(pids) == 2


def test_small_fold_is_refused_before_any_svd_or_fork(monkeypatch):
    # a pool or an SVD would fail with a TypeError, not the fold's message
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(netcv.ncv, "ProcessPoolExecutor", None)
    monkeypatch.setattr(netcv.ncv, "top_k_right_singular", None)
    A = np.ones((5, 5)) - np.eye(5)
    with pytest.raises(ValueError, match=r"fold 2 has 1 node\(s\); need at least 2"):
        ncv_select(A, [("sbm", 1)], V=3, seed=0)


def test_ncv_select_keeps_no_reference_to_its_input(monkeypatch):
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 3)
    A = check_adjacency(planted_A(60, p_in=0.8, p_out=0.1, seed=12)[0])
    assert check_adjacency(A) is A  # canonical: the select runs on A itself
    ref = weakref.ref(A)
    ncv_select(A, candidate_grid(("sbm", "dcbm"), 2), V=3, seed=0)
    del A
    gc.collect()
    assert ref() is None


def test_concurrent_selects_in_threads_keep_their_own_inputs(monkeypatch):
    graphs = [planted_A(60, p_in=0.8, p_out=0.1, seed=s)[0] for s in (12, 13)]
    cands = candidate_grid(("sbm", "dcbm"), 2)
    expected = [_select_json(A, cands, 5, threads=1) for A in graphs]
    # with other threads running no pool may fork, whatever the CPU count
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(netcv.ncv, "ProcessPoolExecutor", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(_select_json, A, cands, 5)
                       for A in graphs * 4]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected * 4


def _select_json(A, candidates, seed, threads=None):
    return ncv_select(A, candidates, V=3, seed=seed, threads=threads).to_json()


def test_select_in_a_daemonic_process_runs_in_sequence(monkeypatch):
    # a pool's worker is daemonic and may not start children; the patch
    # reaches it through the fork, so without the fallback it would try
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 3)
    A, _ = planted_A(60, p_in=0.8, p_out=0.1, seed=12)
    cands = candidate_grid(("sbm", "dcbm"), 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        text = pool.apply_async(_select_json, (A, cands, 5)).get(timeout=120)
    assert text == _select_json(A, cands, 5)


@pytest.mark.parametrize("sparse_type", ["csr_array", "csr_matrix"])
def test_ncv_select_accepts_scipy_sparse(sparse_type):
    A, _ = planted_A(60, p_in=0.8, p_out=0.1, seed=12)
    cands = candidate_grid(("sbm", "dcbm"), 3)
    dense = ncv_select(A, cands, V=3, fn="nll", seed=5)
    sparse = ncv_select(getattr(scipy.sparse, sparse_type)(A), cands, V=3,
                        fn="nll", seed=5)
    assert sparse.to_json() == dense.to_json()


def sbm_csr(sizes, B, rng):
    """Plain block-model adjacency built as CSR, never as an n x n array:
    per block pair, a binomial edge count, then that many pair positions
    drawn uniformly (a repeated pair collapses to one edge)."""
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rows, cols = [], []
    for a in range(len(sizes)):
        for b in range(a, len(sizes)):
            pairs = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            m = rng.binomial(pairs, B[a][b])
            i = offsets[a] + rng.integers(sizes[a], size=m)
            j = offsets[b] + rng.integers(sizes[b], size=m)
            keep = i != j
            rows += [i[keep], j[keep]]
            cols += [j[keep], i[keep]]
    r, c = np.concatenate(rows), np.concatenate(cols)
    n = int(offsets[-1])
    A = scipy.sparse.coo_array((np.ones(r.size), (r, c)), shape=(n, n)).tocsr()
    A.sum_duplicates()
    A.data[:] = 1.0
    return A


@pytest.mark.parametrize("model", ["sbm", "dcbm"])
def test_ncv_select_memory_is_bounded_by_edges(model):
    # n = 20,000 at average degree about 30: a dense int8 A alone would
    # take 381 MiB, and one float held-out block 339 MiB
    A = sbm_csr([10000, 10000], [[0.0025, 0.0005], [0.0005, 0.0025]],
                np.random.default_rng(0))
    assert 25 < A.nnz / A.shape[0] < 35
    tracemalloc.start()
    try:
        rep = ncv_select(A, [(model, 1), (model, 2)], V=3, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.0f} MiB"
    assert rep.selected == Candidate(model, 2)


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
    with pytest.raises(ValueError, match="need threads >= 1, got 0"):
        ncv_select(A, [("sbm", 2)], V=3, seed=0, threads=0)


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
    val = fold_fit_validate(check_adjacency(A), partition, 0, Candidate("sbm", 2),
                            "squared", np.random.default_rng(seed))
    m = len(partition[0])
    assert 0.0 <= val <= m * (m - 1)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(6, 60), density=st.floats(0.0, 0.3), V=st.integers(2, 6),
       kmax=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_select_on_small_sparse_graphs_reports_or_refuses(n, density, V, kmax, seed):
    # either a report whose totals are finite sums of its fold losses, or
    # one of the refusals ncv_select documents; a k-median run that cycles
    # may log its cap warning
    rng = np.random.default_rng(seed)
    A = np.triu(rng.random((n, n)) < density, 1).astype(np.int8)
    candidates = candidate_grid(("sbm", "dcbm"), kmax)
    try:
        rep = ncv_select(A + A.T, candidates, V=V, seed=seed, threads=1)
    except ValueError as exc:
        assert str(exc).endswith("need at least 2") or "exceeds fitting rows" in str(exc)
        sizes = [len(f) for f in partition_nodes(n, V, np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(0,))))]
        assert min(sizes) < 2 or kmax > n - max(sizes)
        return
    assert rep.candidates == candidates
    for fold_losses, total in zip(rep.fold_losses, rep.totals):
        assert len(fold_losses) == V and all(np.isfinite(fold_losses))
        assert np.isfinite(total) and total == sum(fold_losses)


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


def test_repeat_ncv_checks_the_adjacency_once(monkeypatch):
    import netcv.ncv
    calls = []
    check = netcv.ncv.check_adjacency
    monkeypatch.setattr(netcv.ncv, "check_adjacency",
                        lambda A: calls.append(1) or check(A))
    A, _ = planted_A(40, p_in=0.9, p_out=0.1, seed=15)
    res = repeat_ncv(A, [("sbm", 1), ("sbm", 2)], V=2, fn="nll", reps=3,
                     master_seed=4)
    assert len(res.reports) == 3 and len(calls) == 1


def test_repeat_ncv_rejects_zero_reps():
    A, _ = planted_A(20)
    with pytest.raises(ValueError):
        repeat_ncv(A, [("sbm", 2)], V=2, fn="l2", reps=0, master_seed=0)


def test_public_names_resolve():
    import netcv
    missing = [name for name in netcv.__all__ if not hasattr(netcv, name)]
    assert missing == []
