"""Command-line experiment runner: `ExperimentSpec` judges the experiment
the flags and the `--config` file describe, and a refusal is one `error:` line."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .harness import ExperimentSpec, load_config_file, run_experiment
from .problems import catalog

# forwarded for either solver; the spec refuses those the solver has no use for
_SOLVER_KEYS = ("m", "eps0")
# the ExperimentSpec field of each other key, where its name differs
_SPEC_FIELDS = {"reps": "replications", "seed": "seed_base", "tol": "stop_rel_err",
                "out": "output", "fd": "fd_step", "trace": "trace_path"}
_DEFAULT = {f.name: f.default for f in fields(ExperimentSpec)}
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
    p.add_argument("--reps", type=int,
                   help=f"number of replications (default {_DEFAULT['replications']})")
    p.add_argument("--seed", type=int, help=f"base RNG seed (default {_DEFAULT['seed_base']})")
    p.add_argument("--tol", type=float, help="relative-error stopping tolerance")
    p.add_argument("--m", type=int, help="sample size per outer iteration")
    p.add_argument("--eps0", type=float, help="initial sampling radius (bgs only)")
    p.add_argument("--fd", type=float, metavar="H",
                   help="use forward-difference gradients with step H")
    p.add_argument("--out", help="output path for the per-run report")
    p.add_argument("--format", choices=["csv", "json"],
                   help=f"report format (default {_DEFAULT['format']})")
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

    try:
        # only the keys that are set: the spec holds every default
        spec = ExperimentSpec(
            **{_SPEC_FIELDS.get(k, k): v for k, v in opts.items() if k not in _SOLVER_KEYS},
            solver_options={k: opts[k] for k in _SOLVER_KEYS if k in opts})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        reports, aggregate = run_experiment(spec)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in reports:
        print(f"  seed={r.seed} iters={r.iters} g_eval={r.g_eval} "
              f"E_final={r.E_final:.3e} converged={r.converged} [{r.stop_reason}]")
    print("aggregate: " + json.dumps(aggregate, sort_keys=True))
    if aggregate["n_excluded"]:
        print(f"error: {aggregate['n_excluded']} run(s) aborted", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
