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
from scipy.sparse import issparse

from .estimators import estimate_block, predict_P_matrix
from .graphs import check_adjacency, partition_nodes
from .spectral import (top_k_right_singular, spectral_cluster_rect,
                       spherical_spectral_cluster_rect)

logger = logging.getLogger(__name__)

_LOSS_ALIASES = {"l2": "squared", "squared": "squared",
                 "nll": "negloglik", "negloglik": "negloglik"}
_MODEL_ORDER = {"sbm": 0, "dcbm": 1}


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

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)


def fold_fit_validate(A, partition, v: int, candidate: Candidate, fn: str,
                      rng: np.random.Generator, basis=None) -> float:
    """Predictive loss of one candidate on one fold.

    Fits on the rectangle of rows outside N_v, then sums the loss over
    ordered pairs i != j inside N_v (twice the unordered sum, by
    symmetry; the argmin is unaffected).  A is a 0/1 adjacency matrix.  A
    precomputed SingularBasis of the rectangle may be passed to share the
    SVD across candidates.
    """
    check_candidate(candidate)
    kind = canonical_loss(fn)
    Nv = np.asarray(partition[v], dtype=np.int64)
    if Nv.size < 2:
        raise ValueError(f"fold {v} has {Nv.size} node(s); need at least 2")
    n = A.shape[0]
    fit_rows = np.setdiff1d(np.arange(n), Nv)
    rect = A[fit_rows, :] if basis is None else None
    if candidate.model == "sbm":
        g_hat = spectral_cluster_rect(rect, candidate.K, rng, basis=basis)
        psi = None
    else:
        g_hat, psi = spherical_spectral_cluster_rect(rect, candidate.K, rng,
                                                     basis=basis)
    fit = estimate_block(A, fit_rows, Nv, g_hat, candidate.K, psi_hat=psi)
    held_out = replace(fit, g_hat=fit.g_hat[Nv],
                       psi_hat=None if psi is None else fit.psi_hat[Nv])
    # On 0/1 entries these terms are the bits of _loss_array(kind, x, p),
    # computed in place: (p - 1)^2 or p^2; log(p) or log1p(-p), negated.
    off = ~np.eye(Nv.size, dtype=bool)
    edge = A[np.ix_(Nv, Nv)][off] != 0
    p = predict_P_matrix(held_out)[off]
    if kind == "squared":
        p[edge] -= 1.0
        return float(np.square(p, out=p).sum())
    log_p = np.log(p[edge])
    np.log1p(np.negative(p, out=p), out=p)
    p[edge] = log_p
    return float(-p.sum())


def _cell_rng(seed, candidate, v):
    key = (1, _MODEL_ORDER[candidate.model], candidate.K, v)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def ncv_select(A, candidates, V: int = 3, fn: str = "negloglik",
               seed=None, threads: int | None = None) -> NcvReport:
    """Select (model type, K) by V-fold network cross-validation.

    One node partition is drawn and shared by all candidates, so the
    comparison is paired.  Ties in total loss go to the smaller K,
    then to the plain block model.  All randomness derives from the
    integer seed (one is generated and recorded when omitted).  A SciPy
    sparse matrix is densified first.  The (candidate, fold) cells run
    in sequence; ``threads`` is accepted and has no effect.
    """
    A = A.toarray() if issparse(A) else np.asarray(A)
    check_adjacency(A)
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
        bases.append(top_k_right_singular(A[fit_rows, :], kmax))

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
    sequence, and tabulate how often each candidate is selected."""
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    rep_seeds = [int(s) for s in
                 np.random.SeedSequence(master_seed).generate_state(reps, dtype=np.uint64)]
    reports = [ncv_select(A, candidates, V=V, fn=fn, seed=s) for s in rep_seeds]
    selections = [r.selected for r in reports]
    counts = {}
    for sel in selections:
        counts[sel] = counts.get(sel, 0) + 1
    return RepeatResult(counts=counts, selections=selections, rep_seeds=rep_seeds,
                        reports=reports)
