"""Print the sha256 of what each benchmark workload prints, per input.

    python3 tools/output_hashes.py [--seed S] [--toy]

Builds every input of every workload in ``perfbench/workloads.py`` from
the seed (default 1), makes the workload's measured call once on it with
netcv imported from this checkout's ``src``, and prints one line
``<workload> <input> <sha256>`` per input.  Two checkouts whose seeded
output is the same bytes print the same lines.  BLAS and OpenMP thread
pools are pinned to one thread, as in ``perfbench/run.py``.  ``--toy``
uses the workloads' toy-size inputs.  Exits 1 if a call raises or a
workload's check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import netcv  # noqa: E402  (after the thread pins)
import netcv.cli  # noqa: E402
import netcv.harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--toy", action="store_true", help="toy-size inputs")
    args = parser.parse_args(argv)
    if Path(netcv.__file__).resolve().parent != ROOT / "src" / "netcv":
        print(f"netcv imported from {netcv.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 1
    ok = True
    with tempfile.TemporaryDirectory() as workdir:
        for name, workload in WORKLOADS.items():
            w = workload(toy=args.toy)
            for index in range(w.n_inputs):
                inp = w.inputs(args.seed, index, workdir)
                try:
                    text = w.call(netcv, inp)
                except Exception:
                    traceback.print_exc()
                    print(f"{name} {index} failed", file=sys.stderr)
                    ok = False
                    continue
                failures = w.check(text, inp)[0]
                if failures:
                    print(f"{name} {index} failed checks: {' '.join(failures)}",
                          file=sys.stderr)
                    ok = False
                print(name, index, hashlib.sha256(text.encode()).hexdigest(), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
