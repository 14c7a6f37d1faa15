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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array

from .estimators import _onehot, _predict_rows, clamp_probs, estimate_block
from .graphs import check_adjacency, partition_nodes
from .spectral import (top_k_right_singular, spectral_cluster_rect,
                       spherical_spectral_cluster_rect)

logger = logging.getLogger(__name__)

_LOSS_ALIASES = {"l2": "squared", "squared": "squared",
                 "nll": "negloglik", "negloglik": "negloglik"}
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
                      rng: np.random.Generator, basis=None) -> float:
    """Predictive loss of one candidate on one fold.

    Fits on the rectangle of rows outside N_v, then sums the loss over
    ordered pairs i != j inside N_v (twice the unordered sum, by
    symmetry; the argmin is unaffected).  A is a 0/1 adjacency as a
    CSR array, the form ``check_adjacency`` returns.  A precomputed
    SingularBasis of the rectangle may be passed to share the SVD across
    candidates.
    """
    check_candidate(candidate)
    kind = canonical_loss(fn)
    Nv = np.asarray(partition[v], dtype=np.int64)
    if Nv.size < 2:
        raise ValueError(f"fold {v} has {Nv.size} node(s); need at least 2")
    fit_rows = np.setdiff1d(np.arange(A.shape[0]), Nv)
    rect = A[fit_rows] if basis is None else None
    if candidate.model == "sbm":
        g_hat = spectral_cluster_rect(rect, candidate.K, rng, basis=basis)
        psi = None
    else:
        g_hat, psi = spherical_spectral_cluster_rect(rect, candidate.K, rng,
                                                     basis=basis)
    fit = estimate_block(A, fit_rows, Nv, g_hat, candidate.K, psi_hat=psi)
    held_out = replace(fit, g_hat=fit.g_hat[Nv],
                       psi_hat=None if psi is None else fit.psi_hat[Nv])
    A_vv = A[Nv][:, Nv]
    if psi is None:
        return _block_loss(kind, A_vv, held_out)
    return _degree_corrected_loss(kind, A_vv, held_out)


def _block_counts(A_vv, g, k):
    """Ordered counts among the held-out nodes by label pair: the edge
    counts m_ab = H^T A_vv H and the pair counts n_ab over i != j."""
    H = _onehot(g, k)
    sizes = H.sum(axis=0)
    return H.T @ (A_vv @ H), np.outer(sizes, sizes) - np.diag(sizes)


def _block_loss(kind, A_vv, fit):
    """Held-out loss of a plain block model, from label-pair counts.

    The clamped probability B' is constant on each label pair, so the
    loss is sum_ab [m_ab L(1, B'_ab) + (n_ab - m_ab) L(0, B'_ab)]
    (``_block_counts``): O(stored entries of A_vv + |N_v| k).
    """
    edges, pairs = _block_counts(A_vv, fit.g_hat, fit.k)
    p = clamp_probs(fit.B_hat)
    return float((edges * _loss_array(kind, 1.0, p)
                  + (pairs - edges) * _loss_array(kind, 0.0, p)).sum())


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


def ncv_select(A, candidates, V: int = 3, fn: str = "negloglik",
               seed=None, threads: int | None = None) -> NcvReport:
    """Select (model type, K) by V-fold network cross-validation.

    One node partition is drawn and shared by all candidates, so the
    comparison is paired.  Ties in total loss go to the smaller K,
    then to the plain block model.  All randomness derives from the
    integer seed (one is generated and recorded when omitted).  A may be
    dense or any SciPy sparse matrix; it is checked and converted to one
    CSR adjacency (``check_adjacency``), on which the whole select runs
    in memory bounded by the edges plus one held-out block.  The
    (candidate, fold) cells run in sequence; ``threads`` is accepted and
    has no effect.
    """
    return _select(check_adjacency(A), candidates, V, fn, seed)


def _select(A, candidates, V, fn, seed) -> NcvReport:
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

    # one decomposition per fold, shared by every candidate
    kmax = max(c.K for c in candidates)
    bases = []
    for Nv in partition:
        fit_rows = np.setdiff1d(np.arange(n), Nv)
        if kmax > fit_rows.size:
            raise ValueError(f"K={kmax} exceeds fitting rows ({fit_rows.size})")
        bases.append(top_k_right_singular(_FitRows(A[fit_rows]), kmax))

    fold_losses = [[fold_fit_validate(A, partition, v, cand, kind,
                                      _cell_rng(seed, cand, v), basis=bases[v])
                    for v in range(V)]
                   for cand in candidates]
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
               master_seed) -> RepeatResult:
    """Run ncv_select under `reps` independent node splittings, in
    sequence, and tabulate how often each candidate is selected.  A is
    checked and converted once, before the first rep."""
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    rep_seeds = [int(s) for s in
                 np.random.SeedSequence(master_seed).generate_state(reps, dtype=np.uint64)]
    A = check_adjacency(A)
    reports = [_select(A, candidates, V, fn, s) for s in rep_seeds]
    selections = [r.selected for r in reports]
    counts = {}
    for sel in selections:
        counts[sel] = counts.get(sel, 0) + 1
    return RepeatResult(counts=counts, selections=selections, rep_seeds=rep_seeds,
                        reports=reports)
