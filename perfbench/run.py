"""netcv benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload select-dcbm-1200 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; netcv is imported from its ``src``
directory.  BLAS and OpenMP thread pools are pinned to one thread.

``--trace 0`` sets up the workload three times (a fresh interpreter
importing netcv, building one input, and a toy-size warm-up call) and
reports the median as ``setup_s``.  The run measures a fixed list of
inputs drawn from the seed (``n_inputs`` of the workload).  Calls cycle
over that list, each input at least once, for about ``--seconds``
seconds; the median call time is ``wall_s``.  ``correct_rate`` is the
share of the list's selections that found the planted (model, K), each
input counted once, so it depends on the seed alone.  A repeated call
must print what the first call on that input printed.  ``peak_rss_mb``
is the peak RSS of the process and its children; the peak reached by
the end of set-up is printed beside it.  Every output is checked.

``--trace 1`` makes one untraced and one traced call on the first
input, checks that the two print the same bytes, and reports the
``per_layer`` metrics of ``BENCHMARK.json``: ``<span>.s`` (summed span
time), ``<span>.self_s`` (span time minus child spans) and
``<span>.calls``, with 0 for a function the workload never calls; the
trace overhead; and the largest principal-angle sine between each
fold's ``top_k_right_singular`` basis and a SciPy reference computed
after the traced call.  Spans are written to
``.perfbench-out/spans-<workload>-seed<seed>.jsonl``.

Each metric is printed as ``<workload> <name> <value> <unit>``,
followed by ``failure_rate`` (failed calls over attempted calls) and
the names of the checks that failed.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--toy`` runs the same code on toy-size inputs, for
the self-test (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

from spans import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUPS = 3
SPAN_STATS = ("s", "self_s", "calls")
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import netcv; "
                 "print(time.perf_counter() - t); print(netcv.__file__)")


class NotRunnable(Exception):
    """The checkout has no netcv source to benchmark."""


def load_netcv():
    """Import netcv from the checkout's src directory, nowhere else."""
    if not (SRC / "netcv" / "__init__.py").is_file():
        raise NotRunnable(f"no netcv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import netcv
    import netcv.cli
    import netcv.harness
    if Path(netcv.__file__).resolve().parent != SRC / "netcv":
        raise NotRunnable(f"netcv imported from {netcv.__file__}, not {SRC}")
    return netcv


def child_import_seconds():
    """`import netcv` timed inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True).stdout.split("\n")
    if Path(out[1]).resolve().parent != SRC / "netcv":
        raise NotRunnable(f"child imported netcv from {out[1]}")
    return float(out[0])


def peak_rss_mib():
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return max(usage) / 1024.0  # ru_maxrss is in KiB on Linux


def run_record(netcv):
    """Machine and build facts printed with every run."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    import scipy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "netcv").glob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "thread_env": {v: os.environ.get(v) for v in PINNED},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "netcv": netcv.__version__,
        "commit": commit,
        "src_netcv_lines": src_lines,
    }


class Outcome:
    """Failure accounting: every attempted call, and every check it
    failed, by name."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.hits = 0
        self.selections = 0
        self._log = log

    def attempt(self, wl, netcv, inp):
        """One measured call.  Returns (text or None, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            text = wl.call(netcv, inp)
        except Exception as exc:  # counted and reported, never swallowed
            elapsed = time.perf_counter() - start
            self._log(traceback.format_exc())
            self.fail([f"raised_{type(exc).__name__}"])
            return None, elapsed
        return text, time.perf_counter() - start

    def check(self, wl, text, inp, same_as=None, differs="output_differs"):
        """Checks on one call's output; counts the call as failed if any
        fails.  A first output counts towards correct_rate; a repeated or
        traced call must print ``same_as``, or fails as ``differs``."""
        names, hits, selections = wl.check(text, inp)
        if same_as is None:
            self.hits += hits
            self.selections += selections
        elif text != same_as:
            names = names + [differs]
        if names:
            self.fail(names)

    def fail(self, names):
        self.failed += 1
        self.failures.update(names)
        self._log(f"failed checks: {', '.join(names)}")

    def result(self, metrics):
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def measure(wl, netcv, toy_wl, seed, seconds, workdir, log):
    """Untraced run: the end-to-end metrics, and the peak RSS (MiB)
    reached by the end of set-up.

    The inputs are the first ``wl.n_inputs`` of the seed; the first
    SETUPS builds are timed as set-ups (a build past ``n_inputs`` is
    not measured).  Calls cycle over the inputs, each at least once,
    so both sides of a comparison time the same graphs.
    """
    inputs, setups = [], []
    for index in range(SETUPS):
        imported = child_import_seconds()
        start = time.perf_counter()
        inputs.append(wl.inputs(seed, index, workdir))
        toy_wl.call(netcv, toy_wl.inputs(seed, index, workdir))
        setups.append(imported + time.perf_counter() - start)
    inputs += [wl.inputs(seed, index, workdir) for index in range(SETUPS, wl.n_inputs)]
    inputs = inputs[:wl.n_inputs]
    setup_peak = peak_rss_mib()

    out = Outcome(log)
    walls, first = [], {}
    began = time.perf_counter()
    # stop at the call boundary nearest to `seconds`
    while (len(walls) < len(inputs) or time.perf_counter() - began
           + 0.5 * statistics.fmean(walls) < seconds):
        index = len(walls) % len(inputs)
        text, wall = out.attempt(wl, netcv, inputs[index])
        walls.append(wall)
        log(f"{wl.name} call {len(walls)} (input {index}): {wall:.3f} s")
        if text is not None:
            out.check(wl, text, inputs[index], same_as=first.get(index),
                      differs="repeat_output_differs")
            first.setdefault(index, text)
    return out, {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_rss_mib(), "MiB"),
        "correct_rate": _metric(out.hits / max(1, out.selections), "ratio"),
    }, setup_peak


def subspace_sin_max(calls):
    """Largest principal-angle sine between each recorded basis and a
    SciPy reference: dense LAPACK up to 1000 rows or columns, ARPACK at
    tolerance 1e-12 beyond."""
    import scipy.linalg
    import scipy.sparse.linalg
    worst = 0.0
    for M, U in calls:
        M = np.asarray(M, dtype=float)
        k = U.shape[1]
        if min(M.shape) <= 1000:
            ref = scipy.linalg.svd(M, full_matrices=False)[2][:k].T
        else:
            ref = scipy.sparse.linalg.svds(M, k=k, tol=1e-12, solver="arpack",
                                           v0=np.ones(min(M.shape)))[2].T
        angle = float(np.max(scipy.linalg.subspace_angles(U, ref)))
        worst = max(worst, float(np.sin(angle)))
    return worst


def measure_traced(wl, netcv, toy_wl, seed, workdir, log, spans_path):
    """Traced run: per-layer metrics, and the traced output must equal
    the untraced one."""
    inp = wl.inputs(seed, 0, workdir)
    toy_wl.call(netcv, toy_wl.inputs(seed, 0, workdir))

    out = Outcome(log)
    cpu0 = time.process_time()
    plain, plain_wall = out.attempt(wl, netcv, inp)
    cpu_s = time.process_time() - cpu0
    if plain is not None:
        out.check(wl, plain, inp)

    svd_calls = []
    record = {"spectral.top_k_right_singular":
              lambda args, kwargs, res: svd_calls.append(
                  (args[0] if args else kwargs["M"], res.U))}
    with Tracer(on_return=record) as tracer:
        traced, traced_wall = out.attempt(wl, netcv, inp)
    if traced is not None:
        out.check(wl, traced, inp, same_as=plain, differs="traced_output_differs")

    summary = summarize(tracer.spans)
    coverage = sum(s.dur for s in summary.roots) / traced_wall
    trace_faults = []
    if summary.nesting_errors:
        log("\n".join(summary.nesting_errors))
        trace_faults.append("trace_nesting")
    if not 0.98 <= coverage <= 1.0 + 1e-9:
        trace_faults.append("trace_coverage")
    if trace_faults:
        out.fail(trace_faults)
    tracer.write_jsonl(spans_path)

    values = {
        "trace.wall_s": traced_wall,
        "spectral.top_k_right_singular.subspace_sin_max": subspace_sin_max(svd_calls),
        "process.cpu_s": cpu_s,
        "trace.overhead_ratio": traced_wall / plain_wall,
        "trace.top_coverage": coverage,
    }
    tables = dict(zip(SPAN_STATS, (summary.total_s, summary.self_s, summary.calls)))
    metrics = {}
    for m in BENCH["per_layer"]:
        if m["name"] in values:
            value = values[m["name"]]
        else:  # <span>.<stat>; a span that never opened spent 0 s
            span, stat = m["name"].rsplit(".", 1)
            value = tables[stat].get(span, 0)
        metrics[m["name"]] = _metric(value, m["unit"])
    return out, metrics


def run_one(name, seed, seconds, trace, toy=False, log=None):
    """Run one workload in this process: (Outcome, metrics, run record)."""
    log = log or (lambda msg: print(msg, file=sys.stderr, flush=True))
    netcv = load_netcv()
    wl, toy_wl = WORKLOADS[name](toy=toy), WORKLOADS[name](toy=True)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        if trace:
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
            out, metrics = measure_traced(wl, netcv, toy_wl, seed, workdir, log,
                                          spans_path)
        else:
            out, metrics, setup_peak = measure(wl, netcv, toy_wl, seed, seconds,
                                               workdir, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = run_record(netcv)
    if not trace:
        record["setup_peak_rss_mb"] = setup_peak
    return out, metrics, record


def print_summary(name, out, metrics, record):
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    if "setup_peak_rss_mb" in record:
        print(f"{name} setup_peak_rss_mb {record['setup_peak_rss_mb']:.6g} MiB"
              " (peak RSS at the end of set-up; not a metric)")
    rate = out.failed / max(1, out.attempted)
    print(f"{name} failure_rate {rate:.6g} ratio ({out.failed} of {out.attempted} calls)")
    names = ", ".join(f"{k} x{v}" for k, v in sorted(out.failures.items()))
    print(f"{name} failed_checks {names or 'none'}")


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy-size inputs (self-test)")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        out, metrics, record = run_one(args.workload, args.seed, args.seconds,
                                       args.trace, toy=args.toy)
    except NotRunnable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("record " + json.dumps(record))
    print_summary(args.workload, out, metrics, record)
    print(json.dumps(out.result(metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
