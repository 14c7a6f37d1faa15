"""Benchmark harness: spec validation, tables, reproducibility."""

import json

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


def test_run_sim1_bitwise_reproducible():
    a = run_sim1(small_spec()).csv_text()
    b = run_sim1(small_spec()).csv_text()
    c = run_sim1(small_spec(threads=3)).csv_text()
    assert a == b == c


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

    def counting_select(A, candidates, V, fn, seed):
        calls.append(seed)
        return select(A, candidates, V, fn, seed)

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
