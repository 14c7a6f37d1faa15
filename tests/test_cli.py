"""Command-line interface: exit codes, output formats, seeding."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from netcv.cli import main
from netcv.graphs import load_edge_list, write_edge_list
from netcv.models import SbmParams, sample


@pytest.fixture
def graph_file(tmp_path):
    g = np.repeat([1, 2], 30)
    B = np.array([[0.7, 0.1], [0.1, 0.7]])
    A = sample(SbmParams(g=g, k=2, B=B), np.random.default_rng(0))
    path = tmp_path / "g.txt"
    write_edge_list(A, path)
    return str(path)


# ---------------------------------------------------------------- simulate

def test_simulate_writes_graph_and_labels(tmp_path, capsys):
    out = str(tmp_path / "edges.txt")
    code = main(["simulate", "sbm", "--n", "50", "--k", "2", "--b-diag", "0.6",
                 "--b-off", "0.2", "--seed", "1", "--output", out])
    assert code == 0
    A, _ = load_edge_list(out)
    assert A.shape[0] <= 50  # isolated nodes may drop out of the edge list
    labels = (tmp_path / "edges.txt.labels").read_text().splitlines()
    assert len(labels) == 50
    assert labels[0] == "0 1"
    assert labels[-1] == "49 2"


# sha256 of the files `netcv simulate MODEL --n 600 --k 3 --b-diag 0.3
# --b-off 0.05 --seed 42` wrote when the sampler built a dense n x n array
@pytest.mark.parametrize("model, edges, edges_sha256", [
    ("sbm", 24009, "05b4ddfecb7f59ebcdb2754d6e6d2e9a1f030547ef1870dfba5d28ff54d2c08d"),
    ("dcbm", 8661, "02bbe8aa245d6fa3787eeef74287da0f0c11faa06eb9eee40de7561477736fcb"),
])
def test_simulate_output_is_pinned(tmp_path, capsys, model, edges, edges_sha256):
    out = tmp_path / "edges.txt"
    code = main(["simulate", model, "--n", "600", "--k", "3", "--b-diag", "0.3",
                 "--b-off", "0.05", "--seed", "42", "--output", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == edges_sha256
    labels = (tmp_path / "edges.txt.labels").read_bytes()
    assert hashlib.sha256(labels).hexdigest() == (
        "d258bc66b7c527ea4275938548c599ac208f2095efbbea391db46036e0755280")
    assert f"wrote 600 nodes, {edges} edges" in capsys.readouterr().err


def test_degree_corrected_select_is_pinned(tmp_path, capsys):
    # sha256 of the report before the k-median medians were solved in batches
    edges, report = tmp_path / "edges.txt", tmp_path / "report.json"
    assert main(["simulate", "dcbm", "--n", "600", "--k", "3", "--b-diag", "0.3",
                 "--b-off", "0.05", "--seed", "42", "--output", str(edges)]) == 0
    assert main(["select", "--input", str(edges), "--models", "sbm,dcbm", "--kmax", "4",
                 "--seed", "5", "--threads", "1", "--output", str(report)]) == 0
    assert json.loads(report.read_text())["selected"] == {"model": "dcbm", "K": 3}
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "e791b84b58fc58612d86213d639cc8d1a4c592858301faae18a8bd582bbaec73")


def test_simulate_rejects_bad_probability(tmp_path, capsys):
    out = str(tmp_path / "edges.txt")
    code = main(["simulate", "sbm", "--n", "20", "--k", "2", "--b-diag", "1.5",
                 "--b-off", "0.2", "--seed", "1", "--output", out])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_simulate_dcbm_with_psi_file(tmp_path):
    psi_path = tmp_path / "psi.txt"
    rng = np.random.default_rng(2)
    psi = rng.uniform(0.2, 1.0, 40)
    psi_path.write_text("\n".join(str(x) for x in psi) + "\n")
    out = str(tmp_path / "d.txt")
    code = main(["simulate", "dcbm", "--n", "40", "--k", "2", "--b-diag", "0.8",
                 "--b-off", "0.1", "--psi-file", str(psi_path), "--seed", "3",
                 "--output", out])
    assert code == 0
    A, _ = load_edge_list(out)
    assert A.sum() > 0


def test_simulate_dcbm_psi_length_mismatch(tmp_path, capsys):
    psi_path = tmp_path / "psi.txt"
    psi_path.write_text("0.5\n0.5\n")
    code = main(["simulate", "dcbm", "--n", "40", "--k", "2", "--b-diag", "0.8",
                 "--b-off", "0.1", "--psi-file", str(psi_path), "--seed", "3",
                 "--output", str(tmp_path / "d.txt")])
    assert code == 2


def test_simulate_dcbm_rejects_nan_psi(tmp_path, capsys):
    psi_path = tmp_path / "psi.txt"
    psi_path.write_text("1\n0.5\nnan\n1\n0.5\n0.5\n")
    out = tmp_path / "d.txt"
    code = main(["simulate", "dcbm", "--n", "6", "--k", "2", "--b-diag", "0.8",
                 "--b-off", "0.1", "--psi-file", str(psi_path), "--seed", "3",
                 "--output", str(out)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_dcbm_rejects_a_zero_activeness_community(tmp_path, capsys):
    psi_path = tmp_path / "psi.txt"
    psi_path.write_text("0\n0\n0\n1\n0.5\n0.5\n")  # community 1 all zero
    out = tmp_path / "d.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["simulate", "dcbm", "--n", "6", "--k", "2", "--b-diag", "0.8",
                     "--b-off", "0.1", "--psi-file", str(psi_path), "--seed", "3",
                     "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: activeness entries must be finite and positive\n"
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-2"])
def test_simulate_rejects_nonpositive_k(tmp_path, capsys, k):
    code = main(["simulate", "sbm", "--n", "20", "--k", k, "--b-diag", "0.5",
                 "--b-off", "0.1", "--seed", "1", "--output", str(tmp_path / "e.txt")])
    assert code == 2
    assert f"--k must be >= 1, got {k}" in capsys.readouterr().err
    assert not (tmp_path / "e.txt").exists()


@pytest.mark.parametrize("n", ["0", "-5"])
def test_simulate_rejects_nonpositive_n(tmp_path, capsys, n):
    code = main(["simulate", "sbm", "--n", n, "--k", "2", "--b-diag", "0.5",
                 "--b-off", "0.1", "--seed", "1", "--output", str(tmp_path / "e.txt")])
    assert code == 2
    assert f"--n must be >= 1, got {n}" in capsys.readouterr().err
    assert not (tmp_path / "e.txt").exists()


# ---------------------------------------------------------------- select

def test_select_reports_json(graph_file, capsys):
    code = main(["select", "--input", graph_file, "--kmax", "3", "--folds", "3",
                 "--models", "sbm", "--loss", "nll", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr()
    blob = json.loads(out.out)
    assert blob["selected"] == {"model": "sbm", "K": 2}
    assert blob["seed"] == 7
    assert "selected" in out.err  # human table on stderr


def test_select_byte_identical_and_thread_invariant(graph_file, capsys):
    argv = ["select", "--input", graph_file, "--kmax", "3", "--models",
            "sbm,dcbm", "--seed", "9"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    main(argv + ["--threads", "4"])
    third = capsys.readouterr().out
    assert first == second == third


def test_select_verbose_logs_to_stderr_and_keeps_stdout(graph_file, capsys):
    argv = ["select", "--input", graph_file, "--kmax", "3", "--models", "sbm,dcbm",
            "--seed", "9", "--threads", "1"]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert main(argv + ["-vv"]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    lines = loud.err.splitlines()
    assert any(line.startswith("DEBUG netcv.spectral: clustering of ") for line in lines)
    assert "netcv." not in quiet.err
    assert main(argv + ["-v"]) == 0  # info only, and the handler of -vv is gone
    assert "DEBUG" not in capsys.readouterr().err


def test_select_writes_output_file(graph_file, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(["select", "--input", graph_file, "--kmax", "2", "--models",
                 "sbm", "--seed", "3", "--output", out])
    assert code == 0
    blob = json.loads(open(out).read())
    assert blob["V"] == 3


def test_select_missing_input_exits_2(tmp_path, capsys):
    code = main(["select", "--input", str(tmp_path / "none.txt"), "--seed", "1"])
    assert code == 2


def test_select_out_of_memory_exits_2(graph_file, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 3.0 TiB")
    monkeypatch.setattr("netcv.cli.load_edge_list", exhausted)
    code = main(["select", "--input", graph_file, "--seed", "1"])
    assert code == 2
    assert capsys.readouterr().err == ("error: not enough memory for this input: "
                                       "Unable to allocate 3.0 TiB\n")


def test_select_infeasible_kmax_exits_2(tmp_path, capsys):
    p = tmp_path / "tiny.txt"
    p.write_text("0 1\n1 2\n2 0\n")
    code = main(["select", "--input", str(p), "--kmax", "6", "--seed", "1"])
    assert code == 2


def test_select_env_seed_fallback(graph_file, capsys, monkeypatch):
    monkeypatch.setenv("NCV_SEED", "123")
    code = main(["select", "--input", graph_file, "--kmax", "2", "--models",
                 "sbm"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["seed"] == 123


@pytest.mark.parametrize("env,message", [
    ("abc", "NCV_SEED must be a non-negative integer, got 'abc'"),
    ("-3", "NCV_SEED must be a non-negative integer, got '-3'"),
])
def test_select_bad_env_seed_exits_2(env, message, graph_file, capsys, monkeypatch):
    monkeypatch.setenv("NCV_SEED", env)
    code = main(["select", "--input", graph_file, "--kmax", "2", "--models", "sbm"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["select", "--input", "unused.txt"],
    ["simulate", "sbm", "--n", "10", "--k", "2", "--b-diag", "0.5", "--b-off", "0.1",
     "--output", "unused.txt"],
    ["bench", "sim1", "--n", "60", "--reps", "1"],
], ids=["select", "simulate", "bench"])
def test_negative_seed_exits_2(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(command + ["--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
    assert not list(tmp_path.iterdir())  # refused before any file is read or written


def test_select_generated_seed_is_printed_and_replayable(graph_file, capsys,
                                                         monkeypatch):
    monkeypatch.delenv("NCV_SEED", raising=False)
    code = main(["select", "--input", graph_file, "--kmax", "2", "--models",
                 "sbm"])
    assert code == 0
    out = capsys.readouterr()
    assert "generated seed" in out.err
    blob = json.loads(out.out)
    main(["select", "--input", graph_file, "--kmax", "2", "--models", "sbm",
          "--seed", str(blob["seed"])])
    replay = json.loads(capsys.readouterr().out)
    assert replay == blob


# ---------------------------------------------------------------- bench

def test_bench_sim1_csv(capsys):
    code = main(["bench", "sim1", "--n", "90", "--k", "2", "--n1", "45",
                 "--r", "0.2", "--reps", "2", "--seed", "11"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("which,n,K,n1,r")
    assert len(lines) == 2


def test_bench_sim1_with_k1_and_another_k(capsys):
    # the K=1 cell plants all n nodes, not the n // max(K) of the other cells
    code = main(["bench", "sim1", "--n", "200", "--k", "1,2", "--r", "0.1",
                 "--reps", "2", "--seed", "1"])
    assert code == 0
    rows = [line.split(",")[2:4] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["1", "200"], ["2", "100"]]


def test_bench_deterministic_bytes(capsys):
    argv = ["bench", "sim1", "--n", "90", "--k", "2", "--n1", "45", "--r",
            "0.2", "--reps", "2", "--seed", "11"]
    main(argv)
    a = capsys.readouterr().out
    main(argv + ["--threads", "2"])
    b = capsys.readouterr().out
    assert a == b


def test_bench_rejects_threads_below_one(capsys):
    code = main(["bench", "sim1", "--n", "90", "--k", "2", "--n1", "45", "--r",
                 "0.2", "--reps", "1", "--seed", "1", "--threads", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "need threads >= 1, got 0" in captured.err


def test_select_rejects_threads_below_one(graph_file, capsys):
    code = main(["select", "--input", graph_file, "--kmax", "2", "--seed", "1",
                 "--threads", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "need threads >= 1, got 0" in captured.err


@pytest.mark.parametrize("k", ["0", ""])
def test_bench_rejects_missing_or_zero_k(k, capsys):
    code = main(["bench", "sim1", "--n", "90", "--k", k, "--reps", "1",
                 "--seed", "1"])
    assert code == 2
    assert "true K" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["-1", "-2"])
def test_bench_rejects_negative_kmax_extra(extra, capsys):
    code = main(["bench", "sim1", "--n", "200", "--k", "2", "--reps", "2",
                 "--kmax-extra", extra, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "kmax_extra >= 0" in captured.err


def test_bench_sim1_with_no_feasible_cell_exits_2(capsys, caplog):
    code = main(["bench", "sim1", "--n", "100", "--k", "2", "--n1", "80",
                 "--r", "0.2", "--reps", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no (K, n1) cell fits n=100" in captured.err
    assert "skipping K=2, n1=80" in caplog.text


def test_bench_sim3_columns(capsys):
    code = main(["bench", "sim3", "--n", "60", "--k", "1", "--reps", "1",
                 "--seed", "2"])
    assert code == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert "type_rate" in header and "k_rate" in header


def test_bench_writes_files(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    js = str(tmp_path / "t.json")
    code = main(["bench", "sim1", "--n", "90", "--k", "2", "--n1", "45",
                 "--r", "0.2", "--reps", "1", "--seed", "4", "--out", out,
                 "--json", js])
    assert code == 0
    assert open(out).read().startswith("which,")
    assert json.loads(open(js).read())["which"] == "sim1"


def test_bench_polblogs_on_synthetic(graph_file, tmp_path, capsys):
    curves = str(tmp_path / "curves.csv")
    code = main(["bench", "polblogs", "--input", graph_file, "--reps", "2",
                 "--kmax", "2", "--seed", "5", "--curves", curves])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("which,n_lcc,")
    assert open(curves).read().startswith("model,K,total_loss")


def test_bench_polblogs_threads(graph_file, tmp_path, capsys):
    argv = ["bench", "polblogs", "--input", graph_file, "--reps", "2", "--kmax", "2",
            "--seed", "5"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--threads", "1"]) == 0
    assert capsys.readouterr().out == default
    assert main(argv + ["--threads", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "need threads >= 1, got 0" in captured.err


def test_bench_missing_polblogs_exits_2(tmp_path, capsys):
    code = main(["bench", "polblogs", "--input", str(tmp_path / "no.txt"),
                 "--reps", "1", "--seed", "1"])
    assert code == 2
    assert "fetch" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "sim9"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "sbm", "--n", "10"])
    assert exc.value.code == 2
