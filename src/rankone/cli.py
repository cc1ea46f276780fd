"""Command line front end.

Subcommands: plan, search, recover, approx (full pipeline), dispersion,
adversary, curves.  Raw trial data goes to CSV, aggregates to JSON; both
are pure functions of the configuration and the master seed.

Exit codes: 0 success, 2 configuration error, 3 budget or precondition
error, 141 (128 + SIGPIPE) when the reader of stdout has closed it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import stat
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

import numpy as np

from .adversary import fool_deterministic, fool_randomized
from .dispersion import (PointSet, dispersion_lower_estimate, exact_dispersion,
                         halton, uniform_pointset)
from .errors import (BudgetExhaustedError, BudgetTooSmallError, ConfigError,
                     InstanceTooLargeError, NonzeroCenterError, ParameterError)
from .pipeline import ExperimentConfig, convergence_sweep, fit_order, run_pipeline
from .recovery import RecoveryConfig, min_budget, recover
from .search import (STRATEGIES, SubsetSearchParams, plan, run_search,
                     search_uniform_multi)
from .specs import approximant_to_dict, tensor_from_spec
from .tensor import QueryOracle, sup_distance_bound

_CONFIG_ERRORS = (KeyError, ValueError, OSError)
_PRECONDITION_ERRORS = (ParameterError, BudgetTooSmallError,
                        BudgetExhaustedError, InstanceTooLargeError,
                        NonzeroCenterError)


def _write(out: Path, name: str, text: str):
    """Write ``text`` over out/name in place, then cut it to length: on ext4,
    closing a file that open(path, "w") truncated from nonzero size starts writeback."""
    out.mkdir(parents=True, exist_ok=True)
    with open(os.open(out / name, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as fh:
        fh.write(text)
        fh.truncate()
    print(f"wrote {out / name}")


def _write_csv(out: Optional[Path], name: str, rows: Sequence[Dict[str, Any]],
               header: Sequence[str]):
    """Write ``rows`` to out/name, one column per ``header`` key; nothing
    without --out."""
    if out is None:
        return
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([_fmt(row.get(k)) for k in header] for row in rows)
    _write(out, name, buf.getvalue())


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, bool):
        return "true" if v else "false"
    return "" if v is None else str(v)


def _emit(obj: Dict[str, Any], out: Optional[Path], name: str):
    text = json.dumps(obj, indent=2)
    if out is None:
        print(text)
    else:
        _write(out, name, text + "\n")


def _load_json(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_plan(args) -> int:
    bp = plan(args.r, args.M, args.d, args.eps, V=args.V, p=args.p,
              prefer_deterministic=args.deterministic)
    out = {"regime": bp.regime, "n1": bp.n1, "n2": bp.n2,
           "success_prob_lower": bp.success_prob_lower,
           "inputs": {k: getattr(args, k) for k in ("r", "M", "d", "eps", "V", "p")}}
    if bp.subset_params is not None:
        out["subset_params"] = dataclasses.asdict(bp.subset_params)
    _emit(out, args.out, "plan.json")
    return 0


def cmd_search(args) -> int:
    spec = _load_json(args.config)
    tensor = tensor_from_spec(spec)
    params = (SubsetSearchParams.from_problem(tensor.r, tensor.M, args.eps)
              if args.strategy == "subset" else None)
    oracle = QueryOracle(tensor)
    outcome = run_search(args.strategy, oracle, args.n1, args.seed, params)
    _emit({"found": outcome.found,
           "z_star": None if outcome.z_star is None else outcome.z_star.tolist(),
           "value": outcome.value,
           "queries_used": oracle.query_count,
           "iterations": outcome.iterations}, args.out, "search.json")
    return 0


def cmd_recover(args) -> int:
    spec = _load_json(args.config)
    tensor = tensor_from_spec(spec)
    z = np.array([float(t) for t in args.z.split(",")])
    oracle = QueryOracle(tensor, budget=args.budget)
    approx = recover(oracle, z, RecoveryConfig(r=tensor.r, budget_n2=args.budget))
    upper, lower = sup_distance_bound(tensor, approx.line_interpolants,
                                      approx.center_value, seed=args.seed)
    _emit({**approximant_to_dict(approx), "error_upper": upper, "error_lower": lower,
           "queries": oracle.query_count}, args.out, "approximant.json")
    _write_csv(args.out, "error.csv", [{"error_upper": upper, "error_lower": lower,
                                        "queries": oracle.query_count}],
               ["error_upper", "error_lower", "queries"])
    return 0


def cmd_approx(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_json(args.config), seed=args.seed)
    rows, summary = run_pipeline(cfg)
    _write_csv(args.out, "trials.csv", rows,
               ["trial", "seed", "queries_phase1", "queries_phase2", "found",
                "error_upper", "error_lower"])
    _emit(summary, args.out, "summary.json")
    return 0


def cmd_dispersion(args) -> int:
    if args.points is not None:
        ps = PointSet.from_csv(args.points)
    elif args.generator == "halton":
        ps = halton(args.n, args.d)
    else:
        ps = uniform_pointset(args.n, args.d, args.seed)
    if args.export is not None:
        ps.to_csv(args.export)
        print(f"wrote {args.export}")
    if args.estimate:
        value = dispersion_lower_estimate(ps, boxes=args.boxes, seed=args.seed)
        out = {"dispersion_lower_estimate": value, "n": ps.n, "d": ps.d}
    else:
        res = exact_dispersion(ps)
        out = {"dispersion": res.value, "n": ps.n, "d": ps.d,
               "witness_box": {"lower": res.witness_box.lower.tolist(),
                               "upper": res.witness_box.upper.tolist()}}
    _emit(out, args.out, "dispersion.json")
    return 0


def _zero(oracle, seed):
    return None


def _halton_scan(oracle, seed):
    run_search("det", oracle, oracle.budget, seed)
    return None  # a scan that never recovers: the output is zero


def _uniform_recover(oracle, seed):
    budget = oracle.budget
    outcome = search_uniform_multi(oracle, max(1, budget // 2), seed)
    if not outcome.found:
        return None
    r = oracle.target.r
    n2 = budget - oracle.query_count
    if n2 < min_budget(oracle.d, r):
        return None
    return recover(oracle, outcome.z_star, RecoveryConfig(r=r, budget_n2=n2))


# built-in strategies for the lower-bound harnesses, each run as
# strategy(oracle, seed) on an oracle whose budget is the harness's n
ADVERSARY_STRATEGIES = {"zero": _zero, "halton-scan": _halton_scan,
                        "uniform-recover": _uniform_recover}


def _adversary_strategy(name: str, d: int):
    """(det, ran) forms of a built-in strategy: det(oracle) is ran(oracle, 0).
    No command calls it; the benchmark's workloads do, so it keeps its unread d."""
    ran = ADVERSARY_STRATEGIES[name]
    return (lambda oracle: ran(oracle, 0)), ran


def cmd_adversary(args) -> int:
    if args.n < 1:  # the zero strategy asks for no query, so no budget refuses it
        raise ParameterError(f"--n must be positive, got {args.n}")
    strategy = ADVERSARY_STRATEGIES[args.strategy]
    if args.mode == "det":
        err, (k, plus, minus) = fool_deterministic(strategy, args.d, args.r, args.n)
        out = {"mode": "det", "certified_error_lower": err,
               "untouched_orthant": k, "n": args.n, "d": args.d, "r": args.r,
               "theorem_floor": 1.0}
        _emit(out, args.out, "adversary.json")
        return 0
    report = fool_randomized(strategy, args.d, args.r, args.n, args.trials, args.seed)
    _write_csv(args.out, "adversary_trials.csv",
               [{"trial": t, "error": float(e)} for t, e in enumerate(report.trial_errors)],
               ["trial", "error"])
    _emit({"mode": "ran", "rms_error": report.rms_error,
           "theorem_floor": report.theorem_floor,
           "ci_halfwidth": report.ci_halfwidth,
           "passes_floor": report.passes_floor,
           "trials": args.trials, "n": args.n, "d": args.d, "r": args.r},
          args.out, "adversary.json")
    return 0


def cmd_curves(args) -> int:
    budgets = [int(b) for b in args.budgets.split(",")]
    pairs = convergence_sweep(args.d, args.r, budgets, seed=args.seed)
    _write_csv(args.out, "curve.csv", [{"n2": n, "error_upper": e} for n, e in pairs],
               ["n2", "error_upper"])
    slope, stderr = fit_order(pairs)
    _emit({"slope": slope, "stderr": stderr, "r": args.r, "d": args.d,
           "pairs": pairs}, args.out, "curve.json")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rankone",
        description="Two-phase approximation of rank-one tensor products "
                    "from point evaluations.")
    sub = ap.add_subparsers(dest="command", required=True)

    def out(p):
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: print JSON to stdout)")

    def common(p, seed_default=0):
        out(p)
        p.add_argument("--seed", type=int, default=seed_default, help="master seed")

    p = sub.add_parser("plan", help="budgets and guarantees for a problem")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--V", type=float, default=None)
    p.add_argument("--p", type=float, default=0.5,
                   help="target failure probability")
    p.add_argument("--deterministic", action="store_true",
                   help="prefer the low-dispersion scan in the support regime")
    out(p)  # a plan draws nothing, so it takes no seed

    p = sub.add_parser("search", help="phase 1 by itself, on a tensor spec")
    p.add_argument("--config", required=True, help="tensor spec JSON file")
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--n1", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.1,
                   help="target accuracy (subset strategy parameters)")
    common(p)

    p = sub.add_parser("recover", help="phase 2 from a known nonzero point")
    p.add_argument("--config", required=True, help="tensor spec JSON file")
    p.add_argument("--z", required=True, help="comma-separated coordinates of z*")
    p.add_argument("--budget", type=int, required=True)
    common(p)

    p = sub.add_parser("approx", help="full pipeline over repeated trials")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    common(p, seed_default=None)

    p = sub.add_parser("dispersion", help="dispersion of a point set")
    p.add_argument("--points", default=None, help="CSV file, one point per row")
    p.add_argument("--generator", choices=["halton", "uniform"], default="halton")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--estimate", action="store_true",
                   help="Monte-Carlo lower estimate instead of the exact value")
    p.add_argument("--boxes", type=int, default=10_000)
    p.add_argument("--export", default=None, help="write the point set to this CSV")
    common(p)

    p = sub.add_parser("adversary", help="curse-of-dimensionality harness")
    p.add_argument("--mode", choices=["det", "ran"], required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--n", type=int, required=True, help="query budget")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--strategy", default="zero", choices=ADVERSARY_STRATEGIES)
    common(p)

    p = sub.add_parser("curves", help="error against phase-2 budget, with slope")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--budgets", default="31,61,121,241,481",
                   help="comma-separated phase-2 budgets")
    common(p)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:  # one stat refuses an --out that is not a directory before any work
            if args.out is not None and not stat.S_ISDIR(args.out.stat().st_mode):
                raise ConfigError(f"--out {args.out} is not a directory")
        except FileNotFoundError:
            pass
        # looked up per call, so a replaced cmd_* global takes effect
        code = globals()["cmd_" + args.command](args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # quietly, as SIGPIPE would; the flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
