"""Self-test of the benchmark on toy-size inputs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import run
from spans import Tracer, summarize
from workloads import WORKLOADS, CliSelectSbm, SelectDcbm

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def netcv():
    return run.load_netcv()


def _run(*args, cwd=run.ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{workload} {name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith(f"{workload} failure_rate 0 ratio") for line in lines)


def _corrupt_total(text):
    rep = json.loads(text)
    rep["candidates"][0]["total"] += 1.0
    return json.dumps(rep)


def _corrupt_selection(text):
    rep = json.loads(text)
    rep["selected"] = {"model": "dcbm", "K": 1}
    return json.dumps(rep)


@pytest.mark.parametrize("corrupt,check_name", [
    (_corrupt_total, "total_not_sum_of_folds"),
    (_corrupt_selection, "selected_not_argmin"),
    (lambda text: text[: len(text) // 2], "report_unparseable"),
])
def test_corrupted_report_counts_as_failure(netcv, tmp_path, corrupt, check_name):
    class Corrupted(SelectDcbm):
        def call(self, netcv, inp):
            return corrupt(super().call(netcv, inp))

    out, metrics, _ = run.measure(Corrupted(toy=True), netcv, SelectDcbm(toy=True),
                                  seed=5, seconds=0, workdir=tmp_path,
                                  log=lambda msg: None)
    assert out.attempted == Corrupted.n_inputs
    assert out.failed == out.attempted
    assert out.failures[check_name] == out.attempted
    assert out.result(metrics)["correct"] is False


def test_correct_rate_does_not_depend_on_the_time_budget(netcv, tmp_path):
    wl, toy = SelectDcbm(toy=True), SelectDcbm(toy=True)
    wl.n_inputs = 2  # toy calls take well under a second each
    runs = [run.measure(wl, netcv, toy, seed=5, seconds=seconds, workdir=tmp_path,
                        log=lambda msg: None) for seconds in (0, 3.0)]
    (short, short_m, _), (long, long_m, _) = runs
    assert short.attempted == wl.n_inputs < long.attempted
    assert short.selections == long.selections == wl.n_inputs
    assert short_m["correct_rate"] == long_m["correct_rate"]
    assert long.failed == 0  # repeated calls printed what the first call did


@pytest.mark.parametrize("cls", [SelectDcbm, CliSelectSbm])
def test_full_size_input_build_never_holds_a_dense_float_matrix(tmp_path, cls):
    wl = cls()
    tracemalloc.start()
    try:
        wl.inputs(5, 0, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * wl.n ** 2  # one n x n float64 array is 8 n^2 bytes


def test_cli_failure_is_counted_by_name(netcv, tmp_path):
    wl = CliSelectSbm(toy=True)
    inp = wl.inputs(5, 0, tmp_path)
    inp["path"] = str(tmp_path / "missing.txt")
    out = run.Outcome(log=lambda msg: None)
    text, _ = out.attempt(wl, netcv, inp)
    assert text is None
    assert out.failed == 1 and out.failures["raised_CliExit"] == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_toy_outputs_are_identical(netcv, tmp_path, name):
    wl = WORKLOADS[name](toy=True)
    inp = wl.inputs(5, 0, tmp_path)
    plain = wl.call(netcv, inp)
    with Tracer() as tracer:
        start = time.perf_counter()
        traced = wl.call(netcv, inp)
        wall = time.perf_counter() - start
    assert traced == plain
    assert wl.check(traced, inp)[0] == []
    summary = summarize(tracer.spans)
    assert summary.nesting_errors == []
    top = sum(s.dur for s in summary.roots)
    assert 0.9 <= top / wall <= 1.0
    if name != "sim1-sweep-600":  # no thread pool: self times tile the top spans
        assert sum(summary.self_s.values()) == pytest.approx(top, rel=1e-9)
    # the originals are back at every call-site name
    assert netcv.ncv.top_k_right_singular is netcv.spectral.top_k_right_singular
    assert netcv.harness.sample is netcv.models.sample
    assert not hasattr(netcv.cli.load_edge_list, "__wrapped__")


def test_pool_thread_spans_nest_under_run_sim1(netcv, tmp_path):
    wl = WORKLOADS["sim1-sweep-600"](toy=True)
    wl.threads = 2
    with Tracer() as tracer:
        wl.call(netcv, wl.inputs(5, 0, tmp_path))
    by_id = {s.id: s for s in tracer.spans}
    selects = [s for s in tracer.spans if s.name == "ncv.ncv_select"]
    assert selects
    for s in selects:
        while s.parent is not None:
            s = by_id[s.parent]
        assert s.name == "harness.run_sim1"


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "select-dcbm-1200", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
