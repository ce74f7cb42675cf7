"""Command-line experiment runner."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ExperimentSpec, load_config_file, run_experiment
from .problems import catalog

_SOLVER_KEYS_BGS = ("m", "eps0", "mu", "alpha", "gamma", "beta", "theta", "sigma")
_SOLVER_KEYS_GS = ("eps0",)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bundlegs",
        description="Run nonsmooth convex benchmark experiments with the "
                    "bundle/gradient-sampling solver or the vanilla "
                    "gradient-sampling baseline.",
    )
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--solver", choices=["bgs", "gs"], help="which solver to run")
    p.add_argument("--problem", help="problem name or table index (see --list-problems)")
    p.add_argument("--n", type=int, help="problem dimension (scalable problems)")
    p.add_argument("--reps", type=int, help="number of replications (default 5)")
    p.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    p.add_argument("--tol", type=float, help="relative-error stopping tolerance")
    p.add_argument("--m", type=int, help="sample size per outer iteration")
    p.add_argument("--eps0", type=float, help="initial sampling radius")
    p.add_argument("--mu", type=float, help="radius reduction factor")
    p.add_argument("--alpha", type=float, help="penalty exponent")
    p.add_argument("--gamma", type=float, help="linearization-error scale")
    p.add_argument("--beta", type=float, help="sufficient-decrease parameter")
    p.add_argument("--theta", type=float, help="maximum multiplier weight kept")
    p.add_argument("--sigma", type=float, help="maximum allowable perturbation")
    p.add_argument("--fd", type=float, metavar="H",
                   help="use forward-difference gradients with step H")
    p.add_argument("--out", help="output path for the per-run report")
    p.add_argument("--format", choices=["csv", "json"], help="report format (default csv)")
    p.add_argument("--trace", help="path prefix for per-run trace export")
    p.add_argument("--list-problems", action="store_true",
                   help="print the problem catalog as JSON and exit")
    return p


def _merge(args: argparse.Namespace) -> dict:
    merged: dict = {}
    if args.config:
        merged.update(load_config_file(args.config))
    # every option the parser defines, except those that steer the CLI itself
    for key, val in vars(args).items():
        if key not in ("config", "list_problems") and val is not None:
            merged[key] = val
    return merged


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_problems:
        print(json.dumps(catalog(), indent=2))
        return 0
    opts = _merge(args)
    if "solver" not in opts or "problem" not in opts:
        print("error: --solver and --problem are required (or set them in --config)",
              file=sys.stderr)
        return 2

    solver = str(opts["solver"])
    keys = _SOLVER_KEYS_BGS if solver == "bgs" else _SOLVER_KEYS_GS
    solver_options = {k: _num(opts[k]) for k in keys if k in opts}
    if solver == "bgs" and "m" in solver_options:
        solver_options["m"] = int(solver_options["m"])
    if solver == "gs" and "m" in opts:
        solver_options["sample_size"] = int(_num(opts["m"]))

    spec = ExperimentSpec(
        solver=solver,
        problem=str(opts["problem"]),
        n=int(opts["n"]) if "n" in opts else None,
        replications=int(opts.get("reps", 5)),
        stop_rel_err=float(opts["tol"]) if "tol" in opts else None,
        seed_base=int(opts.get("seed", 0)),
        output=opts.get("out"),
        format=str(opts.get("format", "csv")),
        solver_options=solver_options,
        fd_step=float(opts["fd"]) if "fd" in opts else None,
        trace_path=opts.get("trace"),
    )
    reports, aggregate = run_experiment(spec)
    for r in reports:
        print(f"  seed={r.seed} iters={r.iters} g_eval={r.g_eval} "
              f"E_final={r.E_final:.3e} converged={r.converged} [{r.stop_reason}]")
    print("aggregate: " + json.dumps(aggregate, sort_keys=True))
    aborted = sum(1 for r in reports if r.stop_reason.startswith("abort"))
    if aborted:
        print(f"error: {aborted} run(s) aborted", file=sys.stderr)
        return 1
    return 0


def _num(v):
    if isinstance(v, (int, float)):
        return v
    try:
        return int(v)
    except ValueError:
        return float(v)


if __name__ == "__main__":
    raise SystemExit(main())
