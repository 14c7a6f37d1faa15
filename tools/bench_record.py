"""Run the benchmark and keep its run records and metrics in one file.

    python3 tools/bench_record.py BENCH_<label>.json --workload all --seed 1 --seconds 10

Runs ``perfbench/run.py`` with the arguments after OUT.json, from the root
of the checkout, and passes its output through.  When it succeeds, writes
OUT.json with three keys: ``command``, the run.py command line;
``records``, each workload's ``record`` line (machine, BLAS, versions,
commit and ``src_netcv_lines``) by workload name; and ``result``, the
final JSON line of metrics.  Exits with run.py's exit code.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_file(command, stdout):
    """The OUT.json object of a run.py run: each ``record`` line is keyed by
    the workload name that starts the summary line after it."""
    lines = stdout.splitlines()
    records = {lines[i + 1].split()[0]: json.loads(line[len("record "):])
               for i, line in enumerate(lines[:-1]) if line.startswith("record ")}
    return {"command": command, "records": records, "result": json.loads(lines[-1])}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0].startswith("-"):
        print("usage: bench_record.py OUT.json [run.py arguments...]", file=sys.stderr)
        return 2
    out, args = argv[0], argv[1:]
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        return proc.returncode or 1
    bench = bench_file(["python3", "perfbench/run.py", *args], proc.stdout)
    Path(out).write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
