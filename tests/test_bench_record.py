"""tools/bench_record.py: one benchmark run kept in one file."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_record.py"


def test_bench_record_keeps_the_record_and_the_metrics(tmp_path):
    out = tmp_path / "BENCH_toy.json"
    args = ["--workload", "select-dcbm-1200", "--toy", "--seconds", "0"]
    proc = subprocess.run([sys.executable, str(TOOL), str(out), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert bench["command"] == ["python3", "perfbench/run.py", *args]
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (ROOT / "src" / "netcv").glob("*.py"))
    assert bench["records"]["select-dcbm-1200"]["src_netcv_lines"] == lines
    assert bench["result"] == json.loads(proc.stdout.splitlines()[-1])
    assert bench["result"]["failed"] == 0 and "wall_s" in bench["result"]["metrics"]


def test_bench_record_needs_an_output_path(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "--workload", "all"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode == 2 and "usage" in proc.stderr
    assert not list(tmp_path.iterdir())
