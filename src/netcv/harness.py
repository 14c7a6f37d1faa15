"""Scripted benchmark experiments with seeded, tabulated results.

Three simulation families (planted-K recovery over a sparsity grid,
random block matrices filtered by smallest singular value, and joint
model-type + K selection) plus the political-blogs data run.  Every
cell of a run is reproducible bit for bit from (spec, seed): per-rep
generators are derived from the master seed and the cell parameters,
never from global state, so the table is the same whether replicates
run in sequence or spread over worker processes.  ``spec.threads``
caps the processes (every usable CPU when None, in sequence when 1);
each replicate's own select runs its cells in sequence, in the process
that runs the replicate.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .graphs import load_edge_list, largest_connected_component
from .models import sample, sim1_params, sim2_params, sim3_params
from .ncv import _run_on, candidate_grid, canonical_loss, ncv_select, repeat_ncv

logger = logging.getLogger(__name__)

_SIM_IDS = {"sim1": 1, "sim2": 2, "sim3": 3}

# default sparsity grid for sim1 (the interesting range brackets the
# phase transition near r = 0.1 for small planted communities)
SIM1_R_GRID = (0.01, 0.02, 0.05, 0.1, 0.2)


@dataclass
class ExperimentSpec:
    which: str
    n: int = 1000
    K: tuple = (2,)
    n1: tuple | None = None       # sim1 planted community sizes
    r: tuple | None = None        # sim1 sparsity levels
    model: tuple = ("sbm", "dcbm")  # sim3 truth models
    reps: int = 20
    V: int = 3
    seed: int = 0
    loss: str = "negloglik"
    kmax_extra: int = 2           # candidates run over 1..K_true+kmax_extra
    threads: int | None = None    # replicates at once, in processes; None: every usable CPU

    def __post_init__(self):
        if self.which not in _SIM_IDS:
            raise ValueError(f"unknown experiment {self.which!r}")
        if self.reps < 1:
            raise ValueError(f"need reps >= 1, got {self.reps}")
        if self.V < 2:
            raise ValueError(f"need V >= 2, got {self.V}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"need threads >= 1, got {self.threads}")
        if self.kmax_extra < 0:
            raise ValueError(f"need kmax_extra >= 0, got {self.kmax_extra}")
        self.loss = canonical_loss(self.loss)
        self.K = tuple(int(k) for k in self.K)
        if not self.K or min(self.K) < 1:
            raise ValueError(f"need at least one true K, each >= 1, got {self.K}")
        if self.r is not None:
            self.r = tuple(float(x) for x in self.r)
        if self.n1 is not None:
            self.n1 = tuple(int(x) for x in self.n1)
        if not set(self.model) <= {"sbm", "dcbm"}:
            raise ValueError(f"model entries must be 'sbm' or 'dcbm', got {self.model}")


def _write_csv(path_or_file, columns, rows):
    """Write dict rows as CSV to an open text file or to a path."""
    if not hasattr(path_or_file, "write"):
        with open(path_or_file, "w", newline="") as fh:
            return _write_csv(fh, columns, rows)
    w = csv.DictWriter(path_or_file, fieldnames=columns, lineterminator="\n")
    w.writeheader()
    w.writerows(rows)


@dataclass
class SuccessTable:
    which: str
    seed: int
    columns: list
    rows: list = field(default_factory=list)

    def to_csv(self, path_or_file):
        _write_csv(path_or_file, self.columns, self.rows)

    def csv_text(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    def to_json(self):
        """The table as strict JSON: a NaN rate (no denominator) is null."""
        rows = [{c: None if isinstance(x, float) and np.isnan(x) else x
                 for c, x in row.items()} for row in self.rows]
        return json.dumps({"which": self.which, "seed": self.seed, "rows": rows},
                          indent=2, allow_nan=False)


def _cell_seq(seed, sim, *key):
    """Generator seed sequence tied to the cell parameters, so adding or
    reordering grid points does not shift any cell's stream."""
    ints = tuple(int(x) % (2**32) for x in key)
    return np.random.SeedSequence(seed, spawn_key=(_SIM_IDS[sim],) + ints)


def _select_rep(spec, candidates, sim, key, rep, params_of):
    """Selected candidate of replicate ``rep`` of one grid cell.

    Draws, from the generator of ``_cell_seq(spec.seed, sim, *key, rep)``
    and in this order: the model parameters (``params_of(rng)``), the
    graph, and the seed of its NCV run.  The replicate depends on its
    arguments alone, so it gives the same selection in any process.
    """
    rng = np.random.default_rng(_cell_seq(spec.seed, sim, *key, rep))
    A = sample(params_of(rng), rng)
    seed = int(rng.integers(2**63))
    # threads=1: the pool spreads replicates, so their selects start no second pool
    return ncv_select(A, candidates, V=spec.V, fn=spec.loss, seed=seed,
                      threads=1).selected


def _given(params, rng):
    """``params_of`` of a design whose parameters are fixed (sim1)."""
    return params


def _select_cells(spec, sim, cells):
    """Selections of every replicate of every cell, one list per cell.

    ``cells`` holds (key, candidates, params_of) per grid cell; the
    run's replicates form one task list shared by ``spec.threads``
    processes, queued costliest first (the longest candidate list first,
    in grid order among equals), so that the processes end on the cheap
    ones.
    """
    tasks = [(candidates, sim, key, rep, params_of)
             for key, candidates, params_of in cells for rep in range(spec.reps)]
    order = sorted(range(len(tasks)), key=lambda i: -len(tasks[i][0]))
    sels = [None] * len(tasks)
    for i, sel in zip(order, _run_on(spec.threads, _select_rep, spec,
                                     [tasks[i] for i in order])):
        sels[i] = sel
    return [sels[i:i + spec.reps] for i in range(0, len(sels), spec.reps)]


def run_sim1(spec: ExperimentSpec) -> SuccessTable:
    """Planted-K SBM over a (r, K, n1) grid; success means the selected
    K equals the truth.  A K=1 cell plants one community of all n nodes,
    whatever the n1 grid.  A (K, n1) cell with n1 * K > n is skipped with
    a warning; a grid in which no cell fits raises ValueError."""
    r_grid = spec.r if spec.r is not None else SIM1_R_GRID
    n1_grid = spec.n1 if spec.n1 is not None else (spec.n // max(spec.K),)
    cols = ["which", "n", "K", "n1", "r", "kmax", "reps", "successes", "rate",
            "under", "seed"]
    table = SuccessTable("sim1", spec.seed, cols)
    fits = []
    for K in spec.K:
        for n1 in (n1_grid if K > 1 else (spec.n,)):
            if n1 * K <= spec.n:
                fits.append((K, n1))
            else:
                logger.warning("sim1: skipping K=%d, n1=%d: %d planted nodes "
                               "exceed n=%d", K, n1, K * n1, spec.n)
    if not fits:
        raise ValueError(f"sim1: no (K, n1) cell fits n={spec.n}")
    # every cell's parameters first, so a bad grid value fails before any run
    cells = [(r, K, n1, sim1_params(spec.n, K, n1, r)) for r in r_grid for K, n1 in fits]
    sels_of = _select_cells(spec, "sim1", [
        ((K, n1, round(r * 1e6)), candidate_grid(("sbm",), K + spec.kmax_extra),
         partial(_given, params)) for r, K, n1, params in cells])
    for (r, K, n1, _), sels in zip(cells, sels_of):
        kmax = K + spec.kmax_extra
        hits = sum(1 for s in sels if s.K == K)
        under = sum(1 for s in sels if s.K < K)
        table.rows.append({"which": "sim1", "n": spec.n, "K": K,
                           "n1": n1, "r": r, "kmax": kmax,
                           "reps": spec.reps, "successes": hits,
                           "rate": hits / spec.reps, "under": under,
                           "seed": spec.seed})
    return table


def run_sim2(spec: ExperimentSpec) -> SuccessTable:
    """Random symmetric B with entries Unif(0, 0.5), kept only when its
    smallest singular value clears the pilot 25th-percentile bar."""
    cols = ["which", "n", "K", "kmax", "reps", "successes", "rate", "seed"]
    table = SuccessTable("sim2", spec.seed, cols)
    sels_of = _select_cells(spec, "sim2", [
        ((K,), candidate_grid(("sbm",), K + spec.kmax_extra),
         partial(sim2_params, spec.n, K)) for K in spec.K])
    for K, sels in zip(spec.K, sels_of):
        kmax = K + spec.kmax_extra
        hits = sum(1 for s in sels if s.K == K)
        table.rows.append({"which": "sim2", "n": spec.n, "K": K, "kmax": kmax,
                           "reps": spec.reps, "successes": hits,
                           "rate": hits / spec.reps, "seed": spec.seed})
    return table


def run_sim3(spec: ExperimentSpec) -> SuccessTable:
    """Joint (model type, K) selection with both model families as truth.

    Reports the rate of picking the right family and, among those
    reps, the rate of also picking the right K (denominators kept)."""
    cols = ["which", "model", "n", "K", "kmax", "reps",
            "type_correct", "type_rate", "k_given_type", "k_rate", "seed"]
    table = SuccessTable("sim3", spec.seed, cols)
    grid = [(model, K) for model in spec.model for K in spec.K]
    sels_of = _select_cells(spec, "sim3", [
        ((0 if model == "sbm" else 1, K), candidate_grid(("sbm", "dcbm"), K + spec.kmax_extra),
         partial(sim3_params, spec.n, K, model)) for model, K in grid])
    for (model, K), sels in zip(grid, sels_of):
        type_hits = sum(1 for s in sels if s.model == model)
        k_hits = sum(1 for s in sels if s.model == model and s.K == K)
        k_rate = k_hits / type_hits if type_hits else float("nan")
        table.rows.append({"which": "sim3", "model": model, "n": spec.n,
                           "K": K, "kmax": K + spec.kmax_extra, "reps": spec.reps,
                           "type_correct": type_hits,
                           "type_rate": type_hits / spec.reps,
                           "k_given_type": k_hits, "k_rate": k_rate,
                           "seed": spec.seed})
    return table


POLBLOGS_HINT = ("edge list not found at {path}; fetch the political blogs "
                 "network (Adamic & Glance 2005), e.g. the polblogs dataset "
                 "from http://www-personal.umich.edu/~mejn/netdata/, and "
                 "convert it to a two-column whitespace edge list")


def run_polblogs(path, reps: int = 10, V: int = 3, seed: int = 0,
                 loss: str = "negloglik", kmax: int = 6, threads: int | None = None):
    """Model selection on the political-blogs network.

    Restricts to the largest connected component, repeats selection
    over independent splittings, each on up to ``threads`` processes (see
    ``ncv_select``), and returns (SuccessTable of selection frequencies,
    loss curves from the first splitting as a list of {model, K,
    total_loss} rows).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(POLBLOGS_HINT.format(path=path))
    A, _ = load_edge_list(path)
    A_lcc, kept = largest_connected_component(A)
    logger.info("largest connected component: %d of %d nodes", kept.size, A.shape[0])
    candidates = candidate_grid(("sbm", "dcbm"), kmax)
    result = repeat_ncv(A_lcc, candidates, V, loss, reps, master_seed=seed, threads=threads)
    cols = ["which", "n_lcc", "model", "K", "count", "freq", "reps", "seed"]
    table = SuccessTable("polblogs", seed, cols)
    for cand in candidates:
        cnt = result.counts.get(cand, 0)
        table.rows.append({"which": "polblogs", "n_lcc": int(kept.size),
                           "model": cand.model, "K": cand.K, "count": cnt,
                           "freq": cnt / reps, "reps": reps, "seed": seed})
    first = result.reports[0]
    curves = [{"model": c.model, "K": c.K, "total_loss": t}
              for c, t in zip(first.candidates, first.totals)]
    return table, curves


def write_loss_curves_csv(curves, path_or_file):
    """CSV writer for the per-candidate total-loss curves."""
    _write_csv(path_or_file, ["model", "K", "total_loss"], curves)


def run_experiment(spec: ExperimentSpec) -> SuccessTable:
    """Dispatch a simulation spec to its runner."""
    return {"sim1": run_sim1, "sim2": run_sim2, "sim3": run_sim3}[spec.which](spec)
