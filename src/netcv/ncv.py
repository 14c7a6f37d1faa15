"""V-fold network cross-validation by block-wise node-pair splitting.

One partition of the nodes into V folds induces V rectangular fitting
sets: fold v holds out node set N_v, the model is fitted on the rows
of all remaining nodes (which still carry information on every node's
membership), and the predictive loss is evaluated on pairs inside
N_v x N_v.  Candidate (model type, K) pairs share the same partition,
and the one with the smallest summed loss wins.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array

from .estimators import _estimate_block, _predict_rows, clamp_probs
from .graphs import check_adjacency, partition_nodes
from .spectral import (top_k_right_singular, spectral_cluster_rect,
                       spherical_spectral_cluster_rect)

logger = logging.getLogger(__name__)

_LOSS_ALIASES = {"l2": "squared", "squared": "squared",
                 "nll": "negloglik", "negloglik": "negloglik"}
_MODEL_ORDER = {"sbm": 0, "dcbm": 1}
_LOSS_BLOCK = 1 << 18  # entries of one row chunk of the degree-corrected held-out loss

# Inputs of each running select, by run key: (A, partition, fit_rows,
# kmax, kind, seed), where fit_rows[v] holds the sorted nodes outside fold
# v.  An entry is set before the select's workers fork, so that they
# inherit the adjacency, the partition and the fitting rows instead of
# unpickling them, and it is removed when the cells are done.  The key
# keeps selects run from several threads of one process apart.
_RUNNING = {}
_RUN_KEYS = itertools.count()


def canonical_loss(name: str) -> str:
    try:
        return _LOSS_ALIASES[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; use one of {sorted(_LOSS_ALIASES)}")


class Candidate(NamedTuple):
    model: str  # "sbm" or "dcbm"
    K: int


def check_candidate(c: Candidate):
    if c.model not in _MODEL_ORDER:
        raise ValueError(f"unknown model {c.model!r}")
    if c.K < 1:
        raise ValueError(f"K must be >= 1, got {c.K}")


def candidate_grid(models, kmax: int):
    """All (model, K) pairs for K in 1..kmax, in model-major order."""
    return [Candidate(m, k) for m in models for k in range(1, kmax + 1)]


def loss(fn: str, x, p) -> float:
    """Per-pair loss: squared error or negative log-likelihood.

    p is assumed already clamped away from {0, 1} (see estimators).
    """
    return float(_loss_array(canonical_loss(fn), np.asarray(x, dtype=float),
                             np.asarray(p, dtype=float)))


def _loss_array(kind, x, p):
    if kind == "squared":
        return (x - p) ** 2
    return -(x * np.log(p) + (1.0 - x) * np.log1p(-p))


@dataclass
class NcvReport:
    seed: int
    V: int
    loss: str
    candidates: list
    fold_losses: list   # per candidate, V values
    totals: list        # per candidate
    selected: Candidate

    def to_dict(self):
        return {
            "seed": self.seed,
            "V": self.V,
            "loss": self.loss,
            "candidates": [
                {"model": c.model, "K": c.K, "fold_losses": fl, "total": t}
                for c, fl, t in zip(self.candidates, self.fold_losses, self.totals)
            ],
            "selected": {"model": self.selected.model, "K": self.selected.K},
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def fold_fit_validate(A, partition, v: int, candidate: Candidate, fn: str,
                      rng: np.random.Generator, basis=None, fit_rows=None) -> float:
    """Predictive loss of one candidate on one fold.

    Fits on the rectangle of rows outside N_v, then sums the loss over
    ordered pairs i != j inside N_v (twice the unordered sum, by
    symmetry; the argmin is unaffected).  The plain model's clamped
    probability B' is constant on each label pair, so its loss is
    sum_ab [m_ab L(1, B'_ab) + (n_ab - m_ab) L(0, B'_ab)], from the ordered
    edge and pair counts m_ab and n_ab among N_v that the fit's own
    product gives.  A is a 0/1 adjacency as a CSR array, the form
    ``check_adjacency`` returns.  A precomputed SingularBasis of the
    rectangle may be passed to share the SVD across candidates, and so
    may the rectangle's rows, the sorted nodes outside N_v, to share them
    across the fold's cells.
    """
    check_candidate(candidate)
    kind = canonical_loss(fn)
    Nv = np.asarray(partition[v], dtype=np.int64)
    if Nv.size < 2:
        raise ValueError(f"fold {v} has {Nv.size} node(s); need at least 2")
    if fit_rows is None:
        fit_rows = np.setdiff1d(np.arange(A.shape[0]), Nv)
    rect = A[fit_rows] if basis is None else None
    if candidate.model == "sbm":
        g_hat = spectral_cluster_rect(rect, candidate.K, rng, basis=basis)
        psi = None
    else:
        g_hat, psi = spherical_spectral_cluster_rect(rect, candidate.K, rng,
                                                     basis=basis)
    fit, edges, pairs = _estimate_block(A, fit_rows, Nv, g_hat, candidate.K, psi_hat=psi)
    if psi is None:
        p = clamp_probs(fit.B_hat)
        return float((edges * _loss_array(kind, 1.0, p)
                      + (pairs - edges) * _loss_array(kind, 0.0, p)).sum())
    held_out = replace(fit, g_hat=fit.g_hat[Nv], psi_hat=fit.psi_hat[Nv])
    return _degree_corrected_loss(kind, A[Nv][:, Nv], held_out)


def _degree_corrected_loss(kind, A_vv, fit):
    """Held-out loss of a degree-corrected fit over ordered pairs i != j.

    The clamp of B_ab psi_i psi_j does not factorise over label pairs,
    so the probabilities are built in row chunks of at most
    ``_LOSS_BLOCK`` entries; the edge terms come from the chunk's CSR
    rows.
    """
    m = A_vv.shape[0]
    step = max(1, _LOSS_BLOCK // m)
    total = 0.0
    for r0 in range(0, m, step):
        r1 = min(r0 + step, m)
        rows = np.arange(r1 - r0)
        P = _predict_rows(fit, slice(r0, r1))
        chunk = A_vv[r0:r1]
        edge = (np.repeat(rows, np.diff(chunk.indptr)), chunk.indices)
        # On 0/1 entries these terms are the bits of _loss_array(kind, x, p),
        # computed in place: (p - 1)^2 or p^2; log(p) or log1p(-p), negated.
        if kind == "squared":
            P[edge] -= 1.0
            np.square(P, out=P)
        else:
            log_p = np.log(P[edge])
            np.log1p(np.negative(P, out=P), out=P)
            P[edge] = log_p
            np.negative(P, out=P)
        P[rows, r0 + rows] = 0.0   # self-pairs
        total += P.sum()
    return float(total)


class _FitRows(csr_array):
    """CSR rows of the adjacency that NumPy reads as the dense matrix.

    SciPy's sparse arrays refuse ``np.asarray``; the fold SVDs take their
    input in this form so that code reading that input as a dense array,
    such as the basis accuracy check of ``perfbench/run.py --trace 1``,
    keeps working.  The SVD itself converts it back to a plain CSR array.
    """

    def __array__(self, dtype=None, copy=None):
        dense = self.toarray()
        return dense if dtype is None else dense.astype(dtype, copy=False)


def _cell_rng(seed, candidate, v):
    key = (1, _MODEL_ORDER[candidate.model], candidate.K, v)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(threads, n_tasks, cpus):
    """Processes to run ``n_tasks`` tasks on: at most ``threads`` (every
    usable CPU when None), one per task and one per usable CPU; 1 means
    no pool."""
    return min(threads or cpus, n_tasks, cpus)


@contextlib.contextmanager
def _processes(threads, n_tasks):
    """Yield ``run(fn, tasks)``, which returns ``[fn(*t) for t in tasks]``
    computed on up to ``threads`` processes; ``n_tasks`` is the length of
    the longest list the caller will run.

    With w > 1 processes the caller and w - 1 workers forked from it at
    the first ``run`` share one counter of claimed tasks
    (``_claim_tasks``): each takes the next task in order whenever it is
    free, so no process idles while a task is left and costliest-first
    lists end on the cheap tasks.  Workers are forked, not spawned,
    because a spawned worker would import netcv again (most of a second)
    and could not inherit the caller's inputs or the counter; what a
    worker needs that did not exist at the fork must travel in the task.
    The tasks run in sequence where the platform cannot fork, in a
    daemonic process (a multiprocessing pool's worker, which may not start
    children), and while other threads run (a child forked then can
    deadlock on a lock another thread held).  A task's exception stops
    every process from claiming more and reaches the caller.
    """
    w = _worker_count(threads, n_tasks, _usable_cpus())
    if (w <= 1 or multiprocessing.current_process().daemon
            or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        yield lambda fn, tasks: [fn(*t) for t in tasks]
        return
    ctx = multiprocessing.get_context("fork")
    claimed = ctx.Value("q", 0)
    with ProcessPoolExecutor(w - 1, mp_context=ctx, initializer=_share_claims,
                             initargs=(claimed,)) as pool:

        def run(fn, tasks):
            with claimed.get_lock():
                claimed.value = 0
            futures = [pool.submit(_claim_tasks, fn, tasks) for _ in range(w - 1)]
            try:
                results = _claim_tasks(fn, tasks, claimed)
                for future in futures:
                    results.update(future.result())
            except BaseException:  # a worker's error, or an interrupt while waiting
                with claimed.get_lock():
                    claimed.value = len(tasks)
                raise
            return [results[i] for i in range(len(tasks))]

        yield run


def _run_tasks(fn, tasks, threads):
    """``[fn(*t) for t in tasks]``, run on up to ``threads`` processes
    (see ``_processes``)."""
    with _processes(threads, len(tasks)) as run:
        return run(fn, tasks)


# In a worker process of ``_processes``: the count of the running task
# list's claimed tasks, shared with the caller and the other workers.
_CLAIMED = None


def _share_claims(claimed):
    global _CLAIMED
    _CLAIMED = claimed


def _claim_tasks(fn, tasks, claimed=None):
    """Run ``fn(*tasks[i])`` for each index i claimed from the shared
    counter (a worker's own ``_CLAIMED`` when None) until none is left;
    returns the results by index.  On an exception it marks every task
    claimed, so that the other processes stop after their current task."""
    claimed = _CLAIMED if claimed is None else claimed
    done = {}
    while True:
        with claimed.get_lock():
            i = claimed.value
            claimed.value = i + 1
        if i >= len(tasks):
            return done
        try:
            done[i] = fn(*tasks[i])
        except BaseException:
            with claimed.get_lock():
                claimed.value = len(tasks)
            raise


def _fold_basis(key, v):
    """Fold SVD of the running select ``key`` (see ``_RUNNING``): the
    top-kmax right singular basis of the rows outside fold v."""
    A, _, fit_rows, kmax, _, _ = _RUNNING[key]
    return top_k_right_singular(_FitRows(A[fit_rows[v]]), kmax)


def _cell_loss(key, candidate, v, basis):
    """Held-out loss of one (candidate, fold) cell of the running select
    ``key`` (see ``_RUNNING``), given the fold's basis."""
    A, partition, fit_rows, _, kind, seed = _RUNNING[key]
    return fold_fit_validate(A, partition, v, candidate, kind,
                             _cell_rng(seed, candidate, v), basis=basis,
                             fit_rows=fit_rows[v])


def ncv_select(A, candidates, V: int = 3, fn: str = "negloglik",
               seed=None, threads: int | None = None) -> NcvReport:
    """Select (model type, K) by V-fold network cross-validation.

    One node partition is drawn and shared by all candidates, so the
    comparison is paired.  Ties in total loss go to the smaller K,
    then to the plain block model.  All randomness derives from the
    integer seed (one is generated and recorded when omitted).  A may be
    dense or any SciPy sparse matrix; it is checked and converted to one
    CSR adjacency (``check_adjacency``), on which the whole select runs
    in memory bounded by the edges plus one held-out block.

    The V fold SVDs, then the (candidate, fold) cells, run on up to
    ``threads`` processes (every usable CPU when None, in sequence when
    1): the caller and workers forked from it once, which inherit the
    adjacency and the partition and are sent the fold bases; each process
    takes the next task whenever it is free.  Each cell draws from its
    own seeded generator, so the report does not depend on ``threads``.
    ``threads`` below 1 is refused, and so is a fold of fewer than 2
    nodes or a K above a fold's fitting rows, before any SVD runs.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    return _select(check_adjacency(A), candidates, V, fn, seed, threads)


def _select(A, candidates, V, fn, seed, threads=None) -> NcvReport:
    """``ncv_select`` on an adjacency already checked into CSR form."""
    if not candidates:
        raise ValueError("need at least one candidate")
    candidates = [Candidate(str(m), int(k)) for m, k in candidates]
    for c in candidates:
        check_candidate(c)
    if V < 2:
        raise ValueError(f"need V >= 2 folds, got V={V}")
    kind = canonical_loss(fn)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    seed = int(seed)

    n = A.shape[0]
    part_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    partition = partition_nodes(n, V, part_rng)

    kmax = max(c.K for c in candidates)
    for v, Nv in enumerate(partition):
        if Nv.size < 2:
            raise ValueError(f"fold {v} has {Nv.size} node(s); need at least 2")
        if kmax > n - Nv.size:
            raise ValueError(f"K={kmax} exceeds fitting rows ({n - Nv.size})")

    # costliest cells first (larger K, then the degree-corrected model), so
    # that the processes end on the cheap cells
    order = sorted(range(len(candidates)),
                   key=lambda i: (-candidates[i].K, -_MODEL_ORDER[candidates[i].model]))
    cells = [(i, v) for i in order for v in range(V)]
    key = next(_RUN_KEYS)
    fit_rows = [np.setdiff1d(np.arange(n), Nv) for Nv in partition]
    _RUNNING[key] = (A, partition, fit_rows, kmax, kind, seed)
    try:
        with _processes(threads, len(cells)) as run:
            # one decomposition per fold, shared by every candidate; the
            # workers forked before the bases existed, so each cell task
            # carries its fold's (a task list is pickled once per worker,
            # and pickling stores an object shared by tasks once)
            bases = run(_fold_basis, [(key, v) for v in range(V)])
            losses = run(_cell_loss, [(key, candidates[i], v, bases[v])
                                      for i, v in cells])
    finally:
        del _RUNNING[key]
    fold_losses = [[None] * V for _ in candidates]
    for (i, v), cell_loss in zip(cells, losses):
        fold_losses[i][v] = cell_loss
    totals = [float(sum(fl)) for fl in fold_losses]
    best = min(range(len(candidates)),
               key=lambda i: (totals[i], candidates[i].K,
                              _MODEL_ORDER[candidates[i].model]))
    return NcvReport(seed=seed, V=V, loss=kind, candidates=candidates,
                     fold_losses=fold_losses, totals=totals,
                     selected=candidates[best])


class RepeatResult(NamedTuple):
    counts: dict           # Candidate -> selection count
    selections: list       # per-rep selected Candidate
    rep_seeds: list
    reports: list          # per-rep NcvReport


def repeat_ncv(A, candidates, V: int, fn: str, reps: int,
               master_seed, threads: int | None = None) -> RepeatResult:
    """Run ncv_select under `reps` independent node splittings, one after
    another (each on up to ``threads`` processes, as in ``ncv_select``),
    and tabulate how often each candidate is selected.  A is checked and
    converted once, before the first rep."""
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    if threads is not None and threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    rep_seeds = [int(s) for s in
                 np.random.SeedSequence(master_seed).generate_state(reps, dtype=np.uint64)]
    A = check_adjacency(A)
    reports = [_select(A, candidates, V, fn, s, threads) for s in rep_seeds]
    selections = [r.selected for r in reports]
    counts = {}
    for sel in selections:
        counts[sel] = counts.get(sel, 0) + 1
    return RepeatResult(counts=counts, selections=selections, rep_seeds=rep_seeds,
                        reports=reports)
