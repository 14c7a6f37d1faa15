"""Plug-in estimators for block models fitted on a rectangular slice.

All pair counting is restricted to observed pairs, i.e. pairs with at
least one endpoint in the fitting node set N1: unordered pairs within
N1 plus all N1 x N2 pairs.  One estimator serves both model families:
the plain SBM is the degree-corrected model with activeness psi = 1,
so a fit carries psi_hat only in the degree-corrected case.  The block
entry is the edge count over observed pairs divided by the sum of
activeness products over the same pairs, which is the pair count when
there is no psi_hat.

The adjacency argument may be a SciPy CSR array or a dense matrix with
a zero diagonal; one product of the whole matrix with 2k label columns
serves both, its rows indexed by N1 give the sums and its rows indexed
by N2 the held-out edge counts of cross-validation, so no slice of the
adjacency is built and on CSR the sums cost O(stored entries x k + n k).
It may also hold floats: feeding the population edge-probability matrix,
its diagonal zeroed, recovers the model parameters exactly, which the
tests rely on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graphs import check_membership

logger = logging.getLogger(__name__)

PROB_CLAMP_EPS = 1e-6
_DENOM_TOL = 1e-12


@dataclass
class BlockFit:
    """A fitted block model: 1-based labels, the block matrix and, for the
    degree-corrected model, the activeness of each node (None for the
    plain model, which is the degree-corrected one with psi = 1)."""
    g_hat: np.ndarray
    B_hat: np.ndarray
    psi_hat: np.ndarray | None = None

    @property
    def k(self):
        return self.B_hat.shape[0]


def _pair_sums(A, N1, N2, g, k, weights=None):
    """(Num, Den) of ``_sums``."""
    return _sums(A, N1, N2, g, k, weights)[:2]


def _sums(A, N1, N2, g, k, weights=None):
    """Block-wise sums over observed pairs, and the edge counts within N2.

    Returns (Num, Den, M): Num[a, b] is the sum of A_ij over unordered
    observed pairs with labels {a+1, b+1}; Den is ``_pair_counts``; M[a, b]
    sums A_ij over ordered pairs from N2 to the nodes outside N1, labelled
    a+1 and b+1.  With H the one-hot label matrix, H1 its rows in N1 and
    1_N1 the indicator of N1, one product A [H | diag(1_N1) H] (A CSR or
    dense) gives all three: its rows N1 give the ordered sums H1^T A1 H
    (source in N1) and H1^T A1 diag(1_N1) H (both ends in N1), where A1 is
    the rows of A in N1, and the difference of its halves in the rows N2
    gives M; no slice of A is taken.  Self-pairs are never observed pairs,
    so A must have a zero diagonal.  On a 0/1 matrix every partial sum is
    an integer, so Num and M are exact.
    """
    N1 = np.asarray(N1, dtype=np.int64)
    g = np.asarray(g)
    both = np.zeros((g.size, 2 * k))  # [H | diag(1_N1) H]
    both[np.arange(g.size), g - 1] = 1.0
    both[N1, k + g[N1] - 1] = 1.0
    H, H1 = both[:, :k], both[N1, :k]
    AH = A @ both
    S = H1.T @ AH[N1, :k]     # ordered sums, source in N1
    S11 = H1.T @ AH[N1, k:]   # ordered sums within N1
    Num = S + S.T - S11
    np.fill_diagonal(Num, np.diag(S) - np.diag(S11) / 2.0)
    M = H[N2].T @ (AH[N2, :k] - AH[N2, k:])
    return Num, _pair_counts(N1, N2, g, k, weights), M


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


def estimate_block(A, N1, N2, g_hat, k: int, psi_hat=None) -> BlockFit:
    """Block matrix from the rows of A indexed by N1.

    Entries are edge counts over observed pairs divided by the sum of
    activeness products psi_i * psi_j over the same pairs; without
    psi_hat every product is 1 and the denominator is the pair count.
    With psi_hat, B is a ratio and may exceed 1; only predicted
    probabilities are clamped.  Near-zero denominators fall back to the
    global density over the mean activeness pair product (logged),
    which is the global density itself when psi_hat is None.  A must
    have a zero diagonal; a nonzero one is refused with ValueError.
    """
    if A.diagonal().any():
        raise ValueError("adjacency matrix must have zero diagonal")
    return _estimate_block(A, N1, N2, g_hat, k, psi_hat)[0]


def _estimate_block(A, N1, N2, g_hat, k, psi_hat=None):
    """``estimate_block`` with no check of A's diagonal, and the counts
    among the nodes of N2 (N1 and N2 split the nodes) by label pair: the
    ordered edge counts m_ab (M of ``_sums``) and pair counts n_ab."""
    g_hat = np.asarray(g_hat, dtype=np.int64)
    check_membership(g_hat, k)
    if psi_hat is not None:
        psi_hat = np.asarray(psi_hat, dtype=float)
        if psi_hat.shape != g_hat.shape:
            raise ValueError("psi_hat length must match g_hat")
        if not np.all(np.isfinite(psi_hat) & (psi_hat >= 0)):
            raise ValueError("psi_hat entries must be finite and nonnegative")
    Num, Den, edges = _sums(A, N1, N2, g_hat, k, weights=psi_hat)
    B = np.zeros((k, k))
    ok = Den > _DENOM_TOL
    B[ok] = Num[ok] / Den[ok]
    if not ok.all():
        iu = np.triu_indices(k)
        pairs = _pair_counts(N1, N2, g_hat, k)[iu].sum()
        dens = Num[iu].sum() / pairs if pairs > 0 else 0.0
        mean_pp = Den[iu].sum() / pairs if pairs > 0 else 0.0
        fill = dens / mean_pp if mean_pp > _DENOM_TOL else dens
        B[~ok] = fill
        logger.debug("%d near-empty denominator(s); filled with %.4g",
                     int((~ok).sum()), fill)
    sizes = np.bincount(g_hat[N2] - 1, minlength=k)
    return (BlockFit(g_hat=g_hat, B_hat=B, psi_hat=psi_hat), edges,
            np.outer(sizes, sizes) - np.diag(sizes))


def clamp_probs(P):
    """Clamp probabilities into [eps, 1-eps] before likelihood evaluation."""
    return np.clip(P, PROB_CLAMP_EPS, 1.0 - PROB_CLAMP_EPS)


def predict_P(fit: BlockFit, i: int, j: int) -> float:
    """Predicted edge probability for one pair, clamped to [1e-6, 1-1e-6]."""
    if i == j:
        raise ValueError("self-pairs have no edge probability")
    p = fit.B_hat[fit.g_hat[i] - 1, fit.g_hat[j] - 1]
    if fit.psi_hat is not None:
        p = fit.psi_hat[i] * fit.psi_hat[j] * p
    return float(clamp_probs(p))


def _predict_rows(fit: BlockFit, rows) -> np.ndarray:
    """Clamped predicted probabilities from the nodes fit.g_hat[rows] to
    every node of fit.g_hat, self-pairs included."""
    g0 = fit.g_hat - 1
    P = fit.B_hat[np.ix_(g0[rows], g0)]
    if fit.psi_hat is not None:
        P *= np.outer(fit.psi_hat[rows], fit.psi_hat)
    return clamp_probs(P)


def predict_P_matrix(fit: BlockFit) -> np.ndarray:
    """Clamped predicted probabilities among the nodes of fit.g_hat (n x n),
    zero diagonal."""
    P = _predict_rows(fit, slice(None))
    np.fill_diagonal(P, 0.0)
    return P
