"""The benchmark's workloads: their inputs, the measured call, and the
checks on what the program returns.

Each workload builds its inputs from the workload seed and an input
index alone: the graph's random stream and the seed handed to the
program both derive from (seed, index).  ``n_inputs`` is the length of
the fixed input list one run measures.  The two single-graph workloads
draw their adjacency with the benchmark's own Bernoulli sampler, one row
at a time so that building an input never holds an n x n float array,
and write their own edge list, so a change to ``netcv.models.sample`` or
``netcv.graphs.write_edge_list`` cannot change what they measure.
``call`` is the measured phase and returns the text
a user would see (the JSON report or the CSV table); ``check`` parses
that text and returns the names of the checks it fails, plus how many
of its selections found the planted (model, K).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

_MODEL_ORDER = {"sbm": 0, "dcbm": 1}


class CliExit(RuntimeError):
    """The command line returned a non-zero exit code."""


def draw_rows(n, K, b_diag, b_off, rng, degree_corrected):
    """Block-model edges with K equal contiguous blocks, drawn one row of
    the upper triangle at a time: yields (i, js) with js > i the
    neighbours of i.  For the degree-corrected model, psi ~ Unif(0.2, 1)
    is divided by its block maximum.  Memory stays O(n)."""
    g = np.repeat(np.arange(K), n // K)
    g = np.concatenate([g, np.full(n - g.size, K - 1)])
    B = np.full((K, K), b_off)
    np.fill_diagonal(B, b_diag)
    psi = np.ones(n)
    if degree_corrected:
        psi = rng.uniform(0.2, 1.0, size=n)
        for c in range(K):
            psi[g == c] /= psi[g == c].max()
    for i in range(n - 1):
        p = B[g[i], g[i + 1:]] * (psi[i] * psi[i + 1:])
        yield i, i + 1 + np.flatnonzero(rng.random(n - i - 1) < p)


def draw_adjacency(n, K, b_diag, b_off, rng, degree_corrected):
    """Block-model adjacency: int8, symmetric, zero diagonal."""
    A = np.zeros((n, n), dtype=np.int8)
    for i, js in draw_rows(n, K, b_diag, b_off, rng, degree_corrected):
        A[i, js] = 1
        A[js, i] = 1
    return A


def _streams(seed, key, index):
    """Generator for the benchmark's own draws, and the program's seed."""
    seq = np.random.SeedSequence(seed, spawn_key=(key, index))
    return np.random.default_rng(seq), int(seq.generate_state(1)[0])


def check_report(text, seed, candidates, V, truth):
    """Checks on one ncv_select report (as JSON text).  Returns
    (failure names, hits, selections)."""
    try:
        rep = json.loads(text)
        cands = [(c["model"], int(c["K"])) for c in rep["candidates"]]
        folds = [[float(x) for x in c["fold_losses"]] for c in rep["candidates"]]
        totals = [float(c["total"]) for c in rep["candidates"]]
        selected = (rep["selected"]["model"], int(rep["selected"]["K"]))
    except (ValueError, KeyError, TypeError):
        return ["report_unparseable"], 0, 1
    failures = []
    if rep.get("seed") != seed or rep.get("V") != V or rep.get("loss") != "negloglik":
        failures.append("report_fields")
    if cands != [tuple(c) for c in candidates]:
        failures.append("candidates_mismatch")
    if any(len(fl) != V or not all(map(math.isfinite, fl)) for fl in folds):
        failures.append("fold_losses_invalid")
    if not all(map(math.isfinite, totals)):
        failures.append("total_not_finite")
    elif any(abs(t - sum(fl)) > 1e-9 * max(1.0, abs(t))
             for t, fl in zip(totals, folds)):
        failures.append("total_not_sum_of_folds")
    if cands:
        best = min(range(len(cands)),
                   key=lambda i: (totals[i], cands[i][1],
                                  _MODEL_ORDER.get(cands[i][0], 2)))
        if selected != cands[best]:
            failures.append("selected_not_argmin")
    return failures, int(selected == truth), 1


class SelectDcbm:
    """One ncv_select on a planted degree-corrected block model."""

    name = "select-dcbm-1200"
    truth = ("dcbm", 3)
    V = 3
    n_inputs = 4

    def __init__(self, toy=False):
        self.n, self.kmax = (90, 3) if toy else (1200, 4)
        self.B = (0.6, 0.1) if toy else (0.25, 0.1)
        self.candidates = [(m, k) for m in ("sbm", "dcbm")
                           for k in range(1, self.kmax + 1)]

    def inputs(self, seed, index, workdir):
        rng, program_seed = _streams(seed, 1, index)
        A = draw_adjacency(self.n, 3, *self.B, rng, degree_corrected=True)
        return {"A": A, "seed": program_seed}

    def call(self, netcv, inp):
        report = netcv.ncv.ncv_select(inp["A"], self.candidates, V=self.V,
                                      fn="nll", seed=inp["seed"], threads=None)
        return report.to_json()

    def check(self, text, inp):
        return check_report(text, inp["seed"], self.candidates, self.V, self.truth)


class CliSelectSbm:
    """``netcv select`` run in-process on an edge-list file."""

    name = "cli-select-sbm-3300"
    truth = ("sbm", 3)
    V = 3
    n_inputs = 2

    def __init__(self, toy=False):
        self.n, self.kmax = (120, 3) if toy else (3300, 4)
        self.B = (0.5, 0.05) if toy else (0.02, 0.004)
        self.candidates = [("sbm", k) for k in range(1, self.kmax + 1)]

    def inputs(self, seed, index, workdir):
        rng, program_seed = _streams(seed, 2, index)
        path = os.path.join(workdir, f"{self.name}-{self.n}-{index}-edges.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for i, js in draw_rows(self.n, 3, *self.B, rng, degree_corrected=False):
                fh.write("".join(f"{i} {j}\n" for j in js.tolist()))
        return {"path": path, "seed": program_seed}

    def call(self, netcv, inp):
        argv = ["select", "--input", inp["path"], "--kmax", str(self.kmax),
                "--models", "sbm", "--seed", str(inp["seed"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = netcv.cli.main(argv)
        if rc != 0:
            raise CliExit(f"exit code {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(self, text, inp):
        return check_report(text, inp["seed"], self.candidates, self.V, self.truth)


class Sim1Sweep:
    """``run_sim1`` over K = 2, 3 at r = 0.05, replicates on the harness
    thread pool."""

    name = "sim1-sweep-600"
    n_inputs = 3
    columns = ["which", "n", "K", "n1", "r", "kmax", "reps", "successes",
               "rate", "under", "seed"]

    def __init__(self, toy=False):
        self.n, self.K, self.r, self.reps = ((60, (2,), 0.3, 2) if toy
                                             else (600, (2, 3), 0.05, 8))
        self.threads = min(2, len(os.sched_getaffinity(0)))

    def inputs(self, seed, index, workdir):
        return {"seed": _streams(seed, 3, index)[1]}

    def call(self, netcv, inp):
        spec = netcv.harness.ExperimentSpec(
            "sim1", n=self.n, K=self.K, r=(self.r,), reps=self.reps, V=3,
            seed=inp["seed"], threads=self.threads)
        return netcv.harness.run_sim1(spec).csv_text()

    def check(self, text, inp):
        try:
            rows = list(csv.DictReader(io.StringIO(text)))
            header = text.splitlines()[0].split(",")
            got = [(int(r["K"]), int(r["reps"]), int(r["successes"]),
                    float(r["rate"]), int(r["under"])) for r in rows]
        except (ValueError, KeyError, IndexError, TypeError):
            return ["table_unparseable"], 0, 1
        failures = []
        if header != self.columns or [k for k, *_ in got] != list(self.K):
            failures.append("table_shape")
        if any(r["which"] != "sim1" or int(r["n"]) != self.n
               or int(r["seed"]) != inp["seed"] or float(r["r"]) != self.r
               for r in rows):
            failures.append("table_fields")
        if any(reps != self.reps or not 0 <= hits <= reps
               or rate != hits / reps or not 0 <= under <= reps - hits
               for _, reps, hits, rate, under in got):
            failures.append("table_counts")
        return (failures, sum(hits for _, _, hits, _, _ in got),
                max(1, sum(reps for _, reps, *_ in got)))


WORKLOADS = {w.name: w for w in (SelectDcbm, CliSelectSbm, Sim1Sweep)}
