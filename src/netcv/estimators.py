"""Plug-in estimators for block models fitted on a rectangular slice.

All pair counting is restricted to observed pairs, i.e. pairs with at
least one endpoint in the fitting node set N1: unordered pairs within
N1 plus all N1 x N2 pairs.  The block probability is the edge count
over such pairs divided by the pair count (SBM) or by the sum of
activeness products over the same pairs (DCBM).

The adjacency argument may be a float matrix; feeding the population
edge-probability matrix recovers the model parameters exactly, which
the tests rely on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .graphs import check_membership

logger = logging.getLogger(__name__)

PROB_CLAMP_EPS = 1e-6
_DENOM_TOL = 1e-12
_ROW_BLOCK = 256


@dataclass
class SbmFit:
    g_hat: np.ndarray
    B_hat: np.ndarray

    @property
    def k(self):
        return self.B_hat.shape[0]

    def to_dict(self):
        return {"model": "sbm", "g_hat": self.g_hat.tolist(),
                "B_hat": self.B_hat.tolist()}


@dataclass
class DcbmFit:
    g_hat: np.ndarray
    B_prime_hat: np.ndarray
    psi_prime_hat: np.ndarray

    @property
    def k(self):
        return self.B_prime_hat.shape[0]

    def to_dict(self):
        return {"model": "dcbm", "g_hat": self.g_hat.tolist(),
                "B_prime_hat": self.B_prime_hat.tolist(),
                "psi_prime_hat": self.psi_prime_hat.tolist()}


def _onehot(labels, k):
    """n x k indicator matrix for 1-based labels."""
    H = np.zeros((labels.size, k))
    H[np.arange(labels.size), labels - 1] = 1.0
    return H


def _pair_sums(A, N1, N2, g, k, weights=None):
    """Block-wise sums over observed pairs.

    Returns (Num, Den): Num[a, b] is the sum of A_ij over unordered
    observed pairs with labels {a+1, b+1}; Den is ``_pair_counts``.
    Rows of A are cast to float ``_ROW_BLOCK`` at a time, so the float
    copy stays small; on a 0/1 matrix every partial sum is an integer,
    so Num is exact whatever the blocking.
    """
    N1 = np.asarray(N1, dtype=np.int64)
    A = np.asarray(A)
    H = _onehot(g, k)
    H1 = H[N1]
    S = np.zeros((k, k))    # ordered sums, source in N1
    S11 = np.zeros((k, k))  # ordered sums within N1
    for start in range(0, N1.size, _ROW_BLOCK):
        rows = N1[start:start + _ROW_BLOCK]
        Hb = H1[start:start + _ROW_BLOCK]
        R = A[rows, :].astype(float, copy=False)
        R[np.arange(rows.size), rows] = 0.0    # self-pairs are never observed pairs
        S += Hb.T @ R @ H
        S11 += Hb.T @ R[:, N1] @ H1
    Num = S + S.T - S11
    np.fill_diagonal(Num, np.diag(S) - np.diag(S11) / 2.0)
    return Num, _pair_counts(N1, N2, g, k, weights)


def _pair_counts(N1, N2, g, k, weights=None):
    """Den[a, b]: the number of unordered observed pairs with labels
    {a+1, b+1}, weighted by weights_i * weights_j when weights is given."""
    N1 = np.asarray(N1, dtype=np.int64)
    N2 = np.asarray(N2, dtype=np.int64)
    w1 = np.ones(N1.size) if weights is None else weights[N1]
    w2 = np.ones(N2.size) if weights is None else weights[N2]
    t1 = np.bincount(g[N1] - 1, w1, k)
    q1 = np.bincount(g[N1] - 1, w1**2, k)
    t2 = np.bincount(g[N2] - 1, w2, k)
    Den = np.outer(t1, t1) + np.outer(t1, t2) + np.outer(t2, t1)
    np.fill_diagonal(Den, (t1**2 - q1) / 2.0 + t1 * t2)
    return Den


def _global_density(Num, Den_counts):
    iu = np.triu_indices(Num.shape[0])
    total_pairs = Den_counts[iu].sum()
    if total_pairs <= 0:
        return 0.0
    return Num[iu].sum() / total_pairs


def estimate_B_sbm(A, N1, N2, g_hat, k: int) -> SbmFit:
    """Block probability matrix from the rows of A indexed by N1.

    Entries are edge counts over observed pairs divided by pair counts;
    block pairs with no observed pair fall back to the global fitting
    density (logged).
    """
    g_hat = np.asarray(g_hat, dtype=np.int64)
    check_membership(g_hat, k)
    Num, Den = _pair_sums(A, N1, N2, g_hat, k)
    B = np.zeros((k, k))
    ok = Den > 0
    B[ok] = Num[ok] / Den[ok]
    if not ok.all():
        dens = _global_density(Num, Den)
        B[~ok] = dens
        logger.debug("%d empty block pair(s); filled with global density %.4g",
                     int((~ok).sum()), dens)
    return SbmFit(g_hat=g_hat, B_hat=np.clip(B, 0.0, 1.0))


def estimate_dcbm(A, N1, N2, g_hat, psi_prime_hat, k: int) -> DcbmFit:
    """Degree-corrected block estimate: same edge counts as the plain
    model, with sums of activeness products in the denominator.

    B' is a ratio and may exceed 1; only predicted probabilities are
    clamped.  Near-zero denominators fall back to the global density
    over the mean activeness pair product (logged).
    """
    g_hat = np.asarray(g_hat, dtype=np.int64)
    check_membership(g_hat, k)
    psi = np.asarray(psi_prime_hat, dtype=float)
    if psi.shape != g_hat.shape:
        raise ValueError("psi_prime_hat length must match g_hat")
    if (psi < 0).any():
        raise ValueError("psi_prime_hat entries must be nonnegative")
    Num, Den = _pair_sums(A, N1, N2, g_hat, k, weights=psi)
    B = np.zeros((k, k))
    ok = Den > _DENOM_TOL
    B[ok] = Num[ok] / Den[ok]
    if not ok.all():
        counts = _pair_counts(N1, N2, g_hat, k)
        dens = _global_density(Num, counts)
        iu = np.triu_indices(k)
        total_counts = counts[iu].sum()
        mean_pp = Den[iu].sum() / total_counts if total_counts > 0 else 0.0
        fill = dens / mean_pp if mean_pp > _DENOM_TOL else dens
        B[~ok] = fill
        logger.debug("%d near-empty denominator(s); filled with %.4g",
                     int((~ok).sum()), fill)
    return DcbmFit(g_hat=g_hat, B_prime_hat=B, psi_prime_hat=psi)


def clamp_probs(P):
    """Clamp probabilities into [eps, 1-eps] before likelihood evaluation."""
    return np.clip(P, PROB_CLAMP_EPS, 1.0 - PROB_CLAMP_EPS)


def predict_P(fit, i: int, j: int) -> float:
    """Predicted edge probability for one pair, clamped to [1e-6, 1-1e-6]."""
    if i == j:
        raise ValueError("self-pairs have no edge probability")
    gi = fit.g_hat[i] - 1
    gj = fit.g_hat[j] - 1
    if isinstance(fit, DcbmFit):
        p = fit.psi_prime_hat[i] * fit.psi_prime_hat[j] * fit.B_prime_hat[gi, gj]
    else:
        p = fit.B_hat[gi, gj]
    return float(clamp_probs(p))


def predict_P_matrix(fit) -> np.ndarray:
    """Clamped predicted probabilities among the nodes of fit.g_hat (n x n),
    zero diagonal."""
    g0 = fit.g_hat - 1
    if isinstance(fit, DcbmFit):
        P = fit.B_prime_hat[np.ix_(g0, g0)] * np.outer(fit.psi_prime_hat,
                                                       fit.psi_prime_hat)
    else:
        P = fit.B_hat[np.ix_(g0, g0)]
    P = clamp_probs(P)
    np.fill_diagonal(P, 0.0)
    return P
