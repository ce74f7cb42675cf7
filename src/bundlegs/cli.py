"""Command-line experiment runner: one parser reads the flags and each
`--config` entry `key=value` as the flag `--key=value`, flags overriding the
file, into `ExperimentSpec` fields; any refusal is one `error:` line."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .harness import ExperimentSpec, json_safe, load_config_file, run_experiment
from .problems import catalog

# forwarded for either solver; the spec refuses those the solver has no use for
_SOLVER_KEYS = ("m", "eps0")
_DEFAULT = {f.name: f.default for f in fields(ExperimentSpec)}


class _Parser(argparse.ArgumentParser):
    """Raises `ValueError` where argparse would print its usage and exit."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="bundlegs",
        description="Run nonsmooth convex benchmark experiments with the "
                    "bundle/gradient-sampling solver or the vanilla "
                    "gradient-sampling baseline.",
        allow_abbrev=False,
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--solver", choices=["bgs", "gs"], help="which solver to run")
    p.add_argument("--problem", help="problem name or table index (see --list-problems)")
    p.add_argument("--n", type=int, help="problem dimension (scalable problems)")
    p.add_argument("--reps", dest="replications", type=int,
                   help=f"number of replications (default {_DEFAULT['replications']})")
    p.add_argument("--seed", dest="seed_base", type=int,
                   help=f"base RNG seed (default {_DEFAULT['seed_base']})")
    p.add_argument("--tol", dest="stop_rel_err", type=float,
                   help="relative-error stopping tolerance")
    p.add_argument("--m", type=int, help="sample size per outer iteration")
    p.add_argument("--eps0", type=float, help="initial sampling radius (bgs only)")
    p.add_argument("--fd", dest="fd_step", type=float, metavar="H",
                   help="use forward-difference gradients with step H")
    p.add_argument("--out", dest="output", help="output path for the per-run report")
    p.add_argument("--format", choices=["csv", "json"],
                   help=f"report format (default {_DEFAULT['format']})")
    p.add_argument("--trace", dest="trace_path", help="path prefix for per-run trace export")
    p.add_argument("--list-problems", action="store_true",
                   help="print the problem catalog as JSON and exit")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        opts = vars(parser.parse_args(argv))
        if opts.pop("list_problems", False):
            print(json.dumps(catalog(), indent=2))
            return 0
        if "config" in opts:
            path = opts.pop("config")
            try:
                entries = vars(parser.parse_args(
                    [f"--{key}={val}" for key, val in load_config_file(path).items()]))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            if "config" in entries:
                raise ValueError(f"{path}: a config file cannot name another")
            opts = {**entries, **opts}
        if "solver" not in opts or "problem" not in opts:
            raise ValueError("--solver and --problem are required (or set them in --config)")
        spec = ExperimentSpec(
            **{k: v for k, v in opts.items() if k not in _SOLVER_KEYS},
            solver_options={k: opts[k] for k in _SOLVER_KEYS if k in opts})
    except (OSError, ValueError) as exc:
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
    print("aggregate: " + json.dumps(json_safe(aggregate), sort_keys=True))
    if aggregate["n_excluded"]:
        print(f"error: {aggregate['n_excluded']} run(s) aborted", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
