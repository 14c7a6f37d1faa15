"""Command-line frontend: model selection, graph simulation, benchmarks.

Machine-readable output (JSON report or CSV table) goes to stdout or
the requested file; human-readable summaries, and with -v/--verbose the
library's log lines (-v: info, -vv: debug), go to stderr.  All
randomness flows from --seed (falling back to the NCV_SEED environment
variable); when neither is given a fresh seed is generated and printed
so the run can be repeated.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .graphs import load_edge_list, write_edge_list
from .harness import (ExperimentSpec, run_experiment, run_polblogs,
                      write_loss_curves_csv)
from .models import DcbmParams, SbmParams, normalize_activeness, sample
from .ncv import _LOSS_ALIASES, _MODEL_ORDER, candidate_grid, ncv_select


def _resolve_seed(args):
    """The seed from --seed, else from NCV_SEED, else a fresh one (printed);
    a seed that is not a non-negative integer is refused, naming its source."""
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    env = os.environ.get("NCV_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            seed = -1
        if seed < 0:
            raise ValueError(f"NCV_SEED must be a non-negative integer, got {env!r}")
        return seed
    seed = int(np.random.SeedSequence().entropy % (2**63))
    print(f"seed not given; generated seed {seed}", file=sys.stderr)
    return seed


def _int_list(text):
    return tuple(int(tok) for tok in text.split(",") if tok)


def _float_list(text):
    return tuple(float(tok) for tok in text.split(",") if tok)


def _write_text(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_select(args):
    seed = _resolve_seed(args)
    A, _ = load_edge_list(args.input)
    models = tuple(tok for tok in args.models.split(",") if tok)
    candidates = candidate_grid(models, args.kmax)
    report = ncv_select(A, candidates, V=args.folds, fn=args.loss, seed=seed,
                        threads=args.threads)
    _write_text(report.to_json() + "\n", args.output)
    print(f"{'model':>6} {'K':>3} {'total loss':>14}", file=sys.stderr)
    for c, t in zip(report.candidates, report.totals):
        mark = " <- selected" if c == report.selected else ""
        print(f"{c.model:>6} {c.K:>3} {t:>14.4f}{mark}", file=sys.stderr)
    return 0


def cmd_simulate(args):
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    n, k = args.n, args.k
    if n < 1:
        raise ValueError(f"--n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"--k must be >= 1, got {k}")
    sizes = [n // k] * k
    sizes[-1] += n - sum(sizes)
    g = np.repeat(np.arange(1, k + 1), sizes)
    B = np.full((k, k), args.b_off, dtype=float)
    np.fill_diagonal(B, args.b_diag)
    if args.model == "sbm":
        params = SbmParams(g=g, k=k, B=B)
    else:
        if args.psi_file is not None:
            psi_raw = np.loadtxt(args.psi_file, dtype=float).reshape(-1)
            if psi_raw.size != n:
                raise ValueError(f"psi file has {psi_raw.size} values, need n={n}")
        else:
            psi_raw = rng.uniform(0.2, 1.0, size=n)
        params = DcbmParams(g=g, k=k, B=B, psi=normalize_activeness(psi_raw, g, k))
    A = sample(params, rng)
    write_edge_list(A, args.output)
    labels_path = args.output + ".labels"
    with open(labels_path, "w") as fh:
        for i, gi in enumerate(g):
            fh.write(f"{i} {gi}\n")
    n_edges = A.nnz // 2
    print(f"wrote {n} nodes, {n_edges} edges to {args.output}; "
          f"labels in {labels_path}; seed {seed}", file=sys.stderr)
    return 0


def cmd_bench(args):
    seed = _resolve_seed(args)
    if args.which == "polblogs":
        table, curves = run_polblogs(args.input, reps=args.reps, V=args.folds,
                                     seed=seed, loss=args.loss, kmax=args.kmax,
                                     threads=args.threads)
        _write_text(table.csv_text(), args.out)
        if args.curves is not None:
            write_loss_curves_csv(curves, args.curves)
            print(f"loss curves written to {args.curves}", file=sys.stderr)
    else:
        spec = ExperimentSpec(which=args.which, n=args.n, K=args.k,
                              n1=args.n1, r=args.r, reps=args.reps,
                              V=args.folds, seed=seed, loss=args.loss,
                              kmax_extra=args.kmax_extra, threads=args.threads)
        table = run_experiment(spec)
        _write_text(table.csv_text(), args.out)
    if args.json is not None:
        with open(args.json, "w") as fh:
            fh.write(table.to_json() + "\n")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="netcv",
        description="Community-count and block-model selection for networks "
                    "by V-fold cross-validation on node-pair splits.")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="write the library's log lines to stderr: -v info, -vv debug")

    ps = sub.add_parser("select", parents=[common], help="pick (model, K) for one network")
    ps.add_argument("--input", required=True, help="edge list file (two ids per line)")
    ps.add_argument("--kmax", type=int, default=6)
    ps.add_argument("--folds", type=int, default=3)
    ps.add_argument("--models", default="sbm,dcbm",
                    help="comma list from {sbm,dcbm}")
    ps.add_argument("--loss", default="nll", choices=list(_LOSS_ALIASES))
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--threads", type=int, default=None,
                    help="run the (candidate, fold) cells on up to this many "
                         "processes (default: every usable CPU; 1: in "
                         "sequence); the report does not depend on it")
    ps.add_argument("--output", default=None, help="JSON report path (default stdout)")
    ps.set_defaults(func=cmd_select)

    pm = sub.add_parser("simulate", parents=[common], help="sample a block-model graph")
    pm.add_argument("model", choices=list(_MODEL_ORDER))
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--k", type=int, required=True)
    pm.add_argument("--b-diag", type=float, required=True,
                    help="within-community edge probability")
    pm.add_argument("--b-off", type=float, required=True,
                    help="between-community edge probability")
    pm.add_argument("--psi-file", default=None,
                    help="node activeness values, one per line (dcbm; "
                         "default Unif(0.2,1), normalized per community)")
    pm.add_argument("--seed", type=int, default=None)
    pm.add_argument("--output", default="sample_edges.txt")
    pm.set_defaults(func=cmd_simulate)

    pb = sub.add_parser("bench", parents=[common], help="run a benchmark experiment")
    pb.add_argument("which", choices=["sim1", "sim2", "sim3", "polblogs"])
    pb.add_argument("--n", type=int, default=1000)
    pb.add_argument("--k", type=_int_list, default=(2,), help="comma list of true K")
    pb.add_argument("--n1", type=_int_list, default=None,
                    help="comma list of planted community sizes (sim1)")
    pb.add_argument("--r", type=_float_list, default=None,
                    help="comma list of sparsity levels (sim1)")
    pb.add_argument("--reps", type=int, default=20)
    pb.add_argument("--folds", type=int, default=3)
    pb.add_argument("--loss", default="nll", choices=list(_LOSS_ALIASES))
    pb.add_argument("--kmax-extra", type=int, default=2,
                    help="candidate K runs to true K plus this")
    pb.add_argument("--kmax", type=int, default=6, help="candidate K cap (polblogs)")
    pb.add_argument("--input", default="polblogs.txt", help="edge list (polblogs)")
    pb.add_argument("--curves", default=None, help="loss-curve CSV path (polblogs)")
    pb.add_argument("--seed", type=int, default=None)
    pb.add_argument("--threads", type=int, default=None,
                    help="sim1/sim2/sim3: run up to this many replicates at "
                         "once; polblogs: run each select's cells on up to this "
                         "many processes (default: every usable CPU; 1: in "
                         "sequence); the table does not depend on it")
    pb.add_argument("--out", default=None, help="CSV path (default stdout)")
    pb.add_argument("--json", default=None, help="also write the table as JSON here")
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    log, handler = logging.getLogger("netcv"), None
    level = log.level
    if args.verbose:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)
        log.setLevel(logging.INFO if args.verbose == 1 else logging.DEBUG)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for this input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        if handler is not None:
            log.removeHandler(handler)
            log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
