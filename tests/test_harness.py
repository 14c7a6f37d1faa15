"""Benchmark harness: spec validation, tables, reproducibility."""

import json
import os
import time

import numpy as np
import pytest
from scipy.sparse import issparse

import netcv.harness
import netcv.ncv
from netcv.graphs import largest_connected_component, load_edge_list, write_edge_list
from netcv.models import SbmParams, sample
from netcv.harness import (ExperimentSpec, run_experiment, run_polblogs,
                           run_sim1, run_sim2, run_sim3, write_loss_curves_csv)
from netcv.ncv import candidate_grid, ncv_select, repeat_ncv


def small_spec(**kw):
    base = dict(which="sim1", n=120, K=(2,), n1=(60,), r=(0.2,), reps=3,
                V=3, seed=0)
    base.update(kw)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------- spec

def test_spec_rejects_zero_reps():
    with pytest.raises(ValueError):
        small_spec(reps=0)


def test_spec_rejects_unknown_experiment():
    with pytest.raises(ValueError):
        small_spec(which="sim9")


def test_spec_rejects_bad_V():
    with pytest.raises(ValueError):
        small_spec(V=1)


@pytest.mark.parametrize("K", [(), (0,), (2, -1)])
def test_spec_rejects_missing_or_nonpositive_K(K):
    with pytest.raises(ValueError, match="true K"):
        small_spec(K=K)


@pytest.mark.parametrize("model", [("sbm", "erdos"), ("dcbm ",)])
def test_spec_rejects_unknown_model(model):
    with pytest.raises(ValueError, match="'sbm' or 'dcbm'"):
        small_spec(which="sim3", model=model)


@pytest.mark.parametrize("threads", [0, -2])
def test_spec_rejects_threads_below_one(threads):
    with pytest.raises(ValueError, match="threads >= 1"):
        small_spec(threads=threads)


@pytest.mark.parametrize("kmax_extra", [-1, -2])
def test_spec_rejects_negative_kmax_extra(kmax_extra):
    with pytest.raises(ValueError, match="kmax_extra >= 0"):
        small_spec(kmax_extra=kmax_extra)
    assert small_spec(kmax_extra=0).kmax_extra == 0


def test_spec_canonicalizes_loss():
    assert small_spec(loss="nll").loss == "negloglik"
    with pytest.raises(ValueError):
        small_spec(loss="huber")


# ---------------------------------------------------------------- sim1

def test_run_sim1_small_grid():
    table = run_sim1(small_spec())
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row["K"] == 2 and row["n1"] == 60 and row["r"] == 0.2
    assert row["kmax"] == 4
    assert row["reps"] == 3
    assert 0.0 <= row["rate"] <= 1.0
    assert row["successes"] == 3  # strong signal at r=0.2, balanced


@pytest.mark.parametrize("grid", [dict(r=(0.05, 0.2, 0.5)), dict(n1=(60, 0))])
def test_run_sim1_bad_grid_value_fails_before_any_run(grid, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ncv_select ran before the grid was checked")

    monkeypatch.setattr(netcv.harness, "ncv_select", never)
    with pytest.raises(ValueError, match="r must lie|n1"):
        run_sim1(small_spec(**grid))


def test_run_sim1_skips_infeasible_cells(caplog):
    table = run_sim1(small_spec(K=(2, 3), n1=(60,)))
    # n1=60, K=3 needs 180 > 120 nodes, so only the K=2 cell remains
    assert [r["K"] for r in table.rows] == [2]
    skipped = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert skipped == ["sim1: skipping K=3, n1=60: 180 planted nodes exceed n=120"]


def test_run_sim1_rejects_grid_with_no_feasible_cell():
    with pytest.raises(ValueError, match="no \\(K, n1\\) cell fits"):
        run_sim1(small_spec(K=(3,), n1=(60,)))


def test_run_sim1_k1_plants_all_nodes_and_keeps_the_other_rows():
    # a K=1 cell runs once per r with n1 = n, whatever the n1 grid; every
    # cell is seeded by its own key, so the K=2 rows keep their bytes
    spec = dict(n1=(30, 60), r=(0.1, 0.2), reps=2)
    both = run_sim1(small_spec(K=(1, 2), **spec)).csv_text().splitlines()
    alone = run_sim1(small_spec(K=(2,), **spec)).csv_text().splitlines()
    assert [line.split(",")[2:4] for line in both[1:]] == [
        ["1", "120"], ["2", "30"], ["2", "60"]] * 2
    assert [both[0]] + [line for line in both[1:] if line.split(",")[2] == "2"] == alone


def test_run_sim1_bitwise_reproducible():
    a = run_sim1(small_spec()).csv_text()
    b = run_sim1(small_spec()).csv_text()
    c = run_sim1(small_spec(threads=3)).csv_text()
    assert a == b == c


# ------------------------------------------------------ worker processes

@pytest.mark.parametrize("threads,n_tasks,cpus,expected", [
    (None, 10, 4, 4),   # unset: every usable CPU
    (1, 10, 4, 1),
    (3, 10, 4, 3),
    (8, 10, 4, 4),      # never more processes than usable CPUs
    (8, 2, 4, 2),       # never more processes than tasks
    (10**6, 5, 2, 2),
    (4, 0, 4, 0),
])
def test_worker_count_is_capped(threads, n_tasks, cpus, expected, monkeypatch):
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: cpus)
    assert netcv.ncv._process_count(threads, n_tasks) == expected


def _marked_task(marks, busy_in_caller, caller, i, n):
    """Task i of n; returns the pid that ran it.  The first task that the
    busy process (the caller or the one worker) runs waits until every
    later task is done; the other process's tasks wait until the busy
    process has started one.  Each wait gives up after 30 s."""
    busy = (os.getpid() == caller) == busy_in_caller
    if busy and not (marks / "busy").exists():
        (marks / "busy").touch()
        wait_for = [marks / f"done{j}" for j in range(i + 1, n)]
    else:
        wait_for = [] if busy else [marks / "busy"]
    deadline = time.monotonic() + 30
    while not all(path.exists() for path in wait_for):
        if time.monotonic() > deadline:
            raise TimeoutError(f"task {i} waited 30 s for {wait_for}")
        time.sleep(0.002)
    (marks / f"done{i}").touch()
    return os.getpid()


def test_tasks_keep_their_order(monkeypatch):
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 3)
    powers = netcv.ncv._run_on(3, pow, 2, [(i,) for i in range(7)])
    assert powers == [2**i for i in range(7)]


@pytest.mark.parametrize("busy", ["caller", "worker"])
def test_a_free_process_takes_every_task_left_while_the_other_is_busy(
        busy, tmp_path, monkeypatch):
    # a deal fixed in advance, or a worker holding tasks ahead of the one
    # it runs, leaves the busy process tasks that it waits for itself
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 2)
    n = 8
    tasks = [(busy == "caller", os.getpid(), i, n) for i in range(n)]
    pids = netcv.ncv._run_on(2, _marked_task, tmp_path, tasks)
    in_busy = [(pid == os.getpid()) == (busy == "caller") for pid in pids]
    waited = in_busy.index(True)
    assert waited <= 1 and not any(in_busy[waited + 1:])
    assert len(set(pids)) == 2


@pytest.mark.parametrize("which,kw", [
    ("sim2", dict(n=120, K=(2, 3), reps=2)),
    ("sim3", dict(n=90, K=(2,), model=("sbm", "dcbm"), reps=2)),
])
def test_tables_do_not_depend_on_threads(which, kw, monkeypatch):
    # three usable CPUs, so threads 2, 3 and None run worker processes on any box
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 3)
    texts = [run_experiment(small_spec(which=which, seed=7, threads=t, **kw)).csv_text()
             for t in (1, 2, 3, None)]
    assert texts[0] == texts[1] == texts[2] == texts[3]


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_replicate_error_reaches_the_caller(where, monkeypatch, failing_in):
    monkeypatch.setattr(netcv.ncv, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(netcv.harness, "ncv_select",
                        failing_in(netcv.harness.ncv_select, where, "replicate"))
    with pytest.raises(ValueError, match=f"replicate failed in the {where}"):
        run_sim1(small_spec(reps=2, threads=2))


def test_replicates_queue_costliest_first_and_keep_their_rows(monkeypatch):
    # the K=3 cell has the longer candidate list, so its replicates go
    # first; each replicate selects its cell's true K only at rep 0, so a
    # selection put back in the wrong row changes the counts
    queued = []

    def select(spec, candidates, sim, key, rep, params_of):
        queued.append((key, rep))
        return netcv.ncv.Candidate("sbm", key[0] if rep == 0 else 1)

    monkeypatch.setattr(netcv.harness, "_select_rep", select)
    table = run_sim2(small_spec(which="sim2", K=(2, 3), reps=3, threads=1))
    assert queued == [((3,), 0), ((3,), 1), ((3,), 2), ((2,), 0), ((2,), 1), ((2,), 2)]
    assert [(row["K"], row["successes"]) for row in table.rows] == [(2, 1), (3, 1)]


def test_replicates_run_their_selects_in_sequence(monkeypatch):
    threads = []
    real = netcv.harness.ncv_select

    def spy(*args, **kwargs):
        threads.append(kwargs.get("threads"))
        return real(*args, **kwargs)

    monkeypatch.setattr(netcv.harness, "ncv_select", spy)
    # replicates in one process, so the spy's list is the caller's own
    run_sim1(small_spec(reps=2, threads=1))
    assert threads == [1, 1]


# ---------------------------------------------------------------- sim2

def test_run_sim2_structure_and_determinism():
    spec = small_spec(which="sim2", n=150, K=(2,), reps=2)
    t1 = run_sim2(spec)
    t2 = run_sim2(spec)
    assert t1.csv_text() == t2.csv_text()
    row = t1.rows[0]
    assert set(row) == {"which", "n", "K", "kmax", "reps", "successes",
                        "rate", "seed"}


# ---------------------------------------------------------------- sim3

def test_run_sim3_columns_and_denominators():
    spec = small_spec(which="sim3", n=120, K=(2,), reps=3, model=("sbm",))
    table = run_sim3(spec)
    row = table.rows[0]
    assert row["model"] == "sbm"
    assert row["type_correct"] <= row["reps"]
    assert row["k_given_type"] <= max(row["type_correct"], 1)
    if row["type_correct"] > 0:
        assert row["k_rate"] == row["k_given_type"] / row["type_correct"]


def test_run_sim3_covers_both_models():
    spec = small_spec(which="sim3", n=90, K=(1,), reps=1)
    table = run_sim3(spec)
    assert [r["model"] for r in table.rows] == ["sbm", "dcbm"]


# ---------------------------------------------------------------- dispatch

def test_run_experiment_dispatch():
    t = run_experiment(small_spec())
    assert t.which == "sim1"
    with pytest.raises(ValueError, match="unknown experiment 'polblogs'"):
        run_experiment(ExperimentSpec(which="polblogs"))


# ---------------------------------------------------------------- polblogs

def test_polblogs_missing_file_hint(tmp_path):
    with pytest.raises(FileNotFoundError, match="polblogs"):
        run_polblogs(str(tmp_path / "nope.txt"), reps=1)


def test_polblogs_runner_on_synthetic_graph(tmp_path, monkeypatch):
    g = np.repeat([1, 2], 40)
    B = np.array([[0.5, 0.05], [0.05, 0.5]])
    A = sample(SbmParams(g=g, k=2, B=B), np.random.default_rng(0))
    path = tmp_path / "edges.txt"
    write_edge_list(A, path)
    seen = []

    def spy(A, *args, **kwargs):
        seen.append(A)
        return repeat_ncv(A, *args, **kwargs)

    monkeypatch.setattr(netcv.harness, "repeat_ncv", spy)
    table, curves = run_polblogs(str(path), reps=2, V=3, seed=1, kmax=2)
    assert [issparse(A_lcc) for A_lcc in seen] == [True]  # never densified
    assert len(table.rows) == 4  # {sbm,dcbm} x {1,2}
    assert all(r["n_lcc"] == table.rows[0]["n_lcc"] for r in table.rows)
    assert sum(r["count"] for r in table.rows) == 2
    assert len(curves) == 4
    assert {c["model"] for c in curves} == {"sbm", "dcbm"}
    # totals in the curves are finite and positive
    assert all(np.isfinite(c["total_loss"]) and c["total_loss"] > 0
               for c in curves)


def test_polblogs_curves_reuse_the_first_report(tmp_path, monkeypatch):
    g = np.repeat([1, 2], 40)
    B = np.array([[0.5, 0.05], [0.05, 0.5]])
    A = sample(SbmParams(g=g, k=2, B=B), np.random.default_rng(0))
    path = tmp_path / "edges.txt"
    write_edge_list(A, path)
    A_lcc, _ = largest_connected_component(load_edge_list(path)[0])
    rep_seeds = repeat_ncv(A_lcc, [("sbm", 1)], V=3, fn="nll", reps=3,
                           master_seed=1).rep_seeds
    expected = ncv_select(A_lcc, candidate_grid(("sbm", "dcbm"), 2), V=3, fn="nll",
                          seed=rep_seeds[0]).totals
    calls = []
    select = netcv.ncv._select

    def counting_select(A, candidates, V, fn, seed, threads=None):
        calls.append(seed)
        return select(A, candidates, V, fn, seed, threads)

    # repeat_ncv checks A once, then runs one _select per rep
    monkeypatch.setattr(netcv.ncv, "_select", counting_select)
    monkeypatch.setattr(netcv.harness, "ncv_select", counting_select)
    _, curves = run_polblogs(str(path), reps=3, V=3, seed=1, kmax=2)
    assert calls == rep_seeds
    assert [c["total_loss"] for c in curves] == expected


def test_loss_curves_csv(tmp_path):
    curves = [{"model": "sbm", "K": 1, "total_loss": 10.5},
              {"model": "sbm", "K": 2, "total_loss": 8.25}]
    path = tmp_path / "curves.csv"
    write_loss_curves_csv(curves, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "model,K,total_loss"
    assert lines[1] == "sbm,1,10.5"


# ---------------------------------------------------------------- table IO

def test_success_table_csv_and_json(tmp_path):
    table = run_sim1(small_spec(reps=1))
    path = tmp_path / "t.csv"
    table.to_csv(str(path))
    assert path.read_text() == table.csv_text()
    blob = json.loads(table.to_json())
    assert blob["which"] == "sim1"
    assert blob["rows"] == table.rows


def test_success_table_json_writes_a_nan_rate_as_null():
    # a strict JSON parser refuses NaN; the CSV keeps writing it as nan
    table = netcv.harness.SuccessTable("sim3", 1, ["K", "k_rate"],
                                       [{"K": 2, "k_rate": float("nan")},
                                        {"K": 3, "k_rate": 0.5}])

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    blob = json.loads(table.to_json(), parse_constant=refuse)
    assert blob["rows"] == [{"K": 2, "k_rate": None}, {"K": 3, "k_rate": 0.5}]
    assert table.csv_text() == "K,k_rate\n2,nan\n3,0.5\n"
