"""
Picking the number of communities on one sampled network
=========================================================

Sample a 3-block stochastic block model, then let V-fold network
cross-validation choose K from the candidates 1..5.  The selection is
made from the single observed adjacency matrix; no refitting on fresh
samples is involved.
"""

import numpy as np

from netcv import SbmParams, candidate_grid, ncv_select, sample

# a balanced 3-block model with strong diagonal
n, K = 600, 3
g = np.repeat([1, 2, 3], n // K)
B = 0.2 * (np.ones((K, K)) + 2 * np.eye(K))
A = sample(SbmParams(g=g, k=K, B=B), np.random.default_rng(7))

print(f"sampled graph: n={n}, edges={A.nnz // 2}")

# candidates are (model, K) pairs; here SBM only, K from 1 to 5
cands = candidate_grid(["sbm"], 5)
report = ncv_select(A, cands, V=3, fn="negloglik", seed=11)

print(f"\nper-candidate total held-out loss (V={report.V} folds):")
for cand, total in zip(report.candidates, report.totals):
    mark = "  <- selected" if cand == report.selected else ""
    print(f"  {cand.model} K={cand.K}: {total:12.2f}{mark}")

print(f"\nselected K = {report.selected.K} (truth was {K})")
