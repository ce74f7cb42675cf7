"""Command-line experiment runner."""

from __future__ import annotations

import argparse
import json
import sys

from .bgs import SolverConfig
from .gs import GsConfig
from .harness import ExperimentSpec, load_config_file, run_experiment
from .problems import catalog, make_problem

# options of the bundle solver that the GS baseline has no use for
_BGS_ONLY = ("mu", "alpha", "gamma", "beta", "theta")
_SOLVER_KEYS_BGS = ("m", "eps0") + _BGS_ONLY
_SOLVER_KEYS_GS = ("eps0",)
# parser options that steer the CLI itself and are no experiment option
_CLI_ONLY = ("help", "config", "list_problems")


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
    p.add_argument("--fd", type=float, metavar="H",
                   help="use forward-difference gradients with step H")
    p.add_argument("--out", help="output path for the per-run report")
    p.add_argument("--format", choices=["csv", "json"], help="report format (default csv)")
    p.add_argument("--trace", help="path prefix for per-run trace export")
    p.add_argument("--list-problems", action="store_true",
                   help="print the problem catalog as JSON and exit")
    return p


def _merge(args: argparse.Namespace) -> dict:
    merged: dict = _read_config(args.config) if args.config else {}
    for key, val in vars(args).items():
        if key not in _CLI_ONLY and val is not None:
            merged[key] = val
    return merged


def _read_config(path: str) -> dict:
    """The config file's options, each converted and checked as its flag is."""
    actions = {a.dest: a for a in build_parser()._actions if a.dest not in _CLI_ONLY}
    out = {}
    for key, text in load_config_file(path).items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"{path}: unknown key {key!r}")
        try:
            val = action.type(text) if action.type else text
        except ValueError:
            raise ValueError(f"{path}: {key}={text!r} is not a valid "
                             f"{action.type.__name__}") from None
        if action.choices and val not in action.choices:
            raise ValueError(f"{path}: {key}={text!r} is not one of {', '.join(action.choices)}")
        out[key] = val
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_problems:
        print(json.dumps(catalog(), indent=2))
        return 0
    try:
        opts = _merge(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if "solver" not in opts or "problem" not in opts:
        print("error: --solver and --problem are required (or set them in --config)",
              file=sys.stderr)
        return 2

    solver = opts["solver"]
    bgs_only = [f"--{k}" for k in _BGS_ONLY if k in opts] if solver == "gs" else []
    if bgs_only:
        print(f"error: --solver gs takes no {', '.join(bgs_only)}", file=sys.stderr)
        return 2
    keys = _SOLVER_KEYS_BGS if solver == "bgs" else _SOLVER_KEYS_GS
    solver_options = {k: opts[k] for k in keys if k in opts}
    if solver == "gs" and "m" in opts:
        solver_options["sample_size"] = opts["m"]

    try:
        spec = ExperimentSpec(
            solver=solver,
            problem=opts["problem"],
            n=opts.get("n"),
            replications=opts.get("reps", 5),
            stop_rel_err=opts.get("tol"),
            seed_base=opts.get("seed", 0),
            output=opts.get("out"),
            format=opts.get("format", "csv"),
            solver_options=solver_options,
            fd_step=opts.get("fd"),
            trace_path=opts.get("trace"),
        )
        # what the spec leaves to run_experiment: the problem, its
        # dimension and the solver options
        make_problem(spec.problem, spec.n)
        (SolverConfig if solver == "bgs" else GsConfig)(**solver_options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


if __name__ == "__main__":
    raise SystemExit(main())
