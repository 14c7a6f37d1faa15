"""V-fold network cross-validation by block-wise node-pair splitting.

One partition of the nodes into V folds induces V rectangular fitting
sets: fold v holds out node set N_v, the model is fitted on the rows
of all remaining nodes (which still carry information on every node's
membership), and the predictive loss is evaluated on pairs inside
N_v x N_v.  Candidate (model type, K) pairs share the same partition,
and the one with the smallest summed loss wins.
"""

from __future__ import annotations

import json
import logging
import mmap
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array

from .estimators import _estimate_block, clamp_probs
from .graphs import check_adjacency, partition_nodes
from .spectral import (SingularBasis, top_k_right_singular, spectral_cluster_rect,
                       spherical_spectral_cluster_rect)

logger = logging.getLogger(__name__)

_LOSS_ALIASES = {"nll": "negloglik", "l2": "squared",
                 "negloglik": "negloglik", "squared": "squared"}
_MODEL_ORDER = {"sbm": 0, "dcbm": 1}
_LOSS_BLOCK = 1 << 18  # entries of one row chunk of the degree-corrected held-out loss


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


def _loss_array(kind, x, p):
    """Per-pair loss of ``canonical_loss`` kind: squared error or negative
    log-likelihood, p already clamped away from {0, 1} (see estimators)."""
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
    product gives.  A is a 0/1 adjacency with a zero diagonal, dense or
    CSR (the form ``check_adjacency`` returns; its held-out block then
    shares A's arrays).  A precomputed SingularBasis of the rectangle may
    be passed to share the SVD across candidates, and so may the
    rectangle's rows, the sorted nodes outside N_v, to share them across
    the fold's cells.
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
    return _degree_corrected_loss(kind, csr_array(A[Nv][:, Nv]), fit.B_hat,
                                  fit.g_hat[Nv] - 1, fit.psi_hat[Nv])


def _degree_corrected_loss(kind, A_vv, B, g, psi):
    """Held-out loss of a degree-corrected fit over ordered pairs i != j,
    from the block matrix B and the held-out nodes' 0-based labels g and
    activeness psi.

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
        P = B[np.ix_(g[r0:r1], g)]
        P *= np.outer(psi[r0:r1], psi)
        P = clamp_probs(P)
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


def _process_count(threads, n_tasks):
    """Processes to run ``n_tasks`` tasks on: at most ``threads`` (every
    usable CPU when None), one per task and one per usable CPU; 1 means
    no pool.  Also 1 where no pool may fork: on a platform that cannot
    fork, in a daemonic process (a multiprocessing pool's worker, which
    may not start children), and while other threads run (a child forked
    then can deadlock on a lock another thread held)."""
    if (multiprocessing.current_process().daemon
            or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    cpus = _usable_cpus()
    return min(threads or cpus, n_tasks, cpus)


def _run_on(threads, fn, shared, tasks, after=None):
    """``[fn(shared, *t) for t in tasks]`` computed on w =
    ``_process_count(threads, len(tasks))`` processes; task i starts only
    once task ``after[i]`` < i has returned (-1, or no ``after``: at once).
    With w = 1 the tasks run in order in the caller.

    With w > 1 the caller and w - 1 workers forked from it share one
    ``_Board``: whenever a process is free it takes the first free task
    whose ``after`` task is done, and it waits only while every free task
    waits on a running one, so no process idles while a task it could
    run is left, and costliest-first lists end on the cheap tasks.
    Workers are forked, not spawned, because a spawned worker would
    import netcv again (most of a second) and would have to unpickle
    ``shared``: a forked one gets ``shared`` and the board through the
    pool initializer's arguments, which a fork hands over without
    pickling.  Tasks may pass data to later tasks through anonymous
    shared memory in ``shared``, which the fork also hands over.  A
    task's exception stops every process from claiming more, wakes the
    waiting ones, and reaches the caller.
    """
    w = _process_count(threads, len(tasks))
    if w <= 1:
        return [fn(shared, *t) for t in tasks]
    ctx = multiprocessing.get_context("fork")
    board = _Board(ctx, [-1] * len(tasks) if after is None else after)
    with ProcessPoolExecutor(w - 1, mp_context=ctx, initializer=_share_pool,
                             initargs=(board, shared)) as pool:
        futures = [pool.submit(_claim_tasks, fn, tasks) for _ in range(w - 1)]

        def lost():  # a worker failed or died; its future holds why
            return any(f.done() and f.exception() is not None for f in futures)

        try:
            results = _claim_tasks(fn, tasks, (board, shared), lost)
            for future in futures:
                results.update(future.result())
        except BaseException:  # a worker's error, or an interrupt while waiting
            board.stop()
            raise
    return [results[i] for i in range(len(tasks))]


_POLL_S = 0.1  # a waiting process checks this often whether the others are gone


class _Board:
    """Which tasks of one list are claimed and done, shared by the caller
    and the workers forked after it was made: one byte per task in
    anonymous shared memory, read and written under one condition
    variable, and each task's ``after`` task (-1: none)."""

    def __init__(self, ctx, after):
        self.after = after
        self.caller = os.getpid()
        self.cond = ctx.Condition()
        # each task's state (0 free, 1 claimed, 2 done), then 1 once stopped
        self.state = memoryview(mmap.mmap(-1, len(after) + 1)).cast("b")

    def claim(self, lost):
        """Mark as claimed and return the first free task whose ``after``
        task is done; None once the list is stopped or every task is
        claimed.  While every free task waits on a running one, waits for
        a task to end, and gives up when ``lost()`` is true (asked every
        ``_POLL_S`` seconds of waiting)."""
        s, after = self.state, self.after
        with self.cond:
            while not s[-1]:
                free = [i for i in range(len(after)) if not s[i]]
                if not free:
                    return None
                for i in free:
                    if after[i] < 0 or s[after[i]] == 2:
                        s[i] = 1
                        return i
                if not self.cond.wait(_POLL_S) and lost():
                    return None
            return None

    def finish(self, i):
        with self.cond:
            self.state[i] = 2
            self.cond.notify_all()

    def stop(self):
        with self.cond:
            self.state[-1] = 1
            self.cond.notify_all()


# In a worker process of ``_run_on``: its pool's (board, shared), the
# claim state of the running task list, shared with the caller and the
# other workers, and the argument passed to every task.
_INITARGS = None


def _share_pool(board, shared):
    global _INITARGS
    _INITARGS = (board, shared)


def _claim_tasks(fn, tasks, initargs=None, lost=None):
    """Run ``fn(shared, *tasks[i])`` for each task i claimed from the
    board, with (board, shared) from ``initargs`` (a worker's own
    ``_INITARGS`` when None), until none is left; returns the results by
    index.  ``lost`` tells a waiting process to give up (for a worker: its
    caller is gone).  On an exception it stops the board, so that the
    other processes stop after their current task."""
    board, shared = _INITARGS if initargs is None else initargs
    if lost is None:
        def lost():
            return os.getppid() != board.caller
    done = {}
    while (i := board.claim(lost)) is not None:
        try:
            done[i] = fn(shared, *tasks[i])
        except BaseException:
            board.stop()
            raise
        board.finish(i)
    return done


def _select_task(select, candidate, v):
    """One task of a select's list, with the select's inputs ``select``
    (see ``_select``): when ``candidate`` is None, fold v's SVD, the
    top-kmax right singular basis of the rows outside fold v, which it
    writes into the select's buffer; else the held-out loss of the
    (candidate, fold v) cell, from the basis in that buffer."""
    A, partition, fit_rows, kmax, kind, seed, U, sigma = select
    if candidate is None:
        U[v], sigma[v] = top_k_right_singular(_FitRows(A[fit_rows[v]]), kmax)
        return None
    return fold_fit_validate(A, partition, v, candidate, kind,
                             _cell_rng(seed, candidate, v),
                             basis=SingularBasis(U[v], sigma[v]), fit_rows=fit_rows[v])


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

    One task list, the V fold SVDs and then the (candidate, fold) cells,
    runs on up to ``threads`` processes (every usable CPU when None, in
    sequence when 1): the caller and workers forked from it once, which
    get the adjacency, the partition and the fold bases' buffer through
    the fork (``_run_on``).  That buffer is one anonymous shared mapping,
    however many processes run: each fold SVD writes its basis there, and
    each cell reads its fold's basis there, so no basis is pickled; a free
    process takes the next task whose fold basis is ready.  Each cell
    draws from its own seeded generator, so the report does not depend on
    ``threads``.  At debug level the caller logs each fold's kmax singular
    values.
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

    # the task list: the fold SVDs, then the cells, each after its fold's
    # SVD, costliest first (larger K, then the degree-corrected model), so
    # that the processes end on the cheap cells
    order = sorted(range(len(candidates)),
                   key=lambda i: (-candidates[i].K, -_MODEL_ORDER[candidates[i].model]))
    cells = [(i, v) for i in order for v in range(V)]
    tasks = [(None, v) for v in range(V)] + [(candidates[i], v) for i, v in cells]
    # one basis per fold, shared by every candidate: U[v] and sigma[v] hold
    # the bytes of fold v's SVD, in anonymous shared memory, which forked
    # workers see and write through the fork
    size = V * (n + 1) * kmax
    buf = np.frombuffer(mmap.mmap(-1, 8 * size))
    U, sigma = buf[:V * n * kmax].reshape(V, n, kmax), buf[V * n * kmax:].reshape(V, kmax)
    # the select's inputs: fit_rows[v] holds the sorted nodes outside fold v
    select = (A, partition, [np.setdiff1d(np.arange(n), Nv) for Nv in partition],
              kmax, kind, seed, U, sigma)
    after = [-1] * V + [v for _, v in cells]
    losses = _run_on(threads, _select_task, select, tasks, after)[V:]
    if logger.isEnabledFor(logging.DEBUG):
        for v in range(V):
            logger.debug("fold %d of %d: top %d singular values %s", v, V, kmax,
                         " ".join(f"{s:.6g}" for s in sigma[v]))
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
