"""The FDP table: every protocol with FDP off and on.

Run from the root of a checkout, with no options:

    python3 tools/fdp_table.py

FDP (`bgs.fdp_perturb`) runs wherever the oracle has `smooth_at`, so "on"
is the problem as `make_problem` builds it and "off" is the problem with
`smooth_at` replaced by None.  For each protocol and problem it prints one
line per setting: the gradients summed over the runs, the runs that reach
their target, and the FDP give-ups (`RunResult.fdp_give_ups`, summed).  The
protocols:

- battery: problems 1-8, n=50, m=5, seeds 0-4, exact, target 5e-4;
- small: problems 1-8, n=10, the default m, seeds 0-4, exact, target 5e-4;
- large: problems 1-5, 7, 8, n=500, the default m, seed 0, exact, target
  5e-3 (the `bgs_large` workload);
- forward: MXHILB and MAXL-gen, n=50, m=5, seeds 0-19, forward differences
  with h=1e-8, target 5e-4;
- rosen: Rosen, m=8, seeds 0-4, 300 outer iterations to the solver's own
  stop, exact and forward with h=1e-9 (the `rosen_fd` workload); its
  target is a relative error of 1e-3.

Runs are untimed, so two trees that print the same lines ran alike.  The
whole table takes about 55 s on a 2-core VM.
"""

import dataclasses
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

# one BLAS thread, as in perfbench/run.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from bundlegs import bgs, harness  # noqa: E402
from bundlegs.problems import GradientMode, make_problem  # noqa: E402

ROSEN_TARGET = 1e-3


def _without_smooth_at(oracle):
    """The oracle that FDP never moves."""
    return dataclasses.replace(oracle, smooth_at=None)


@contextmanager
def _harness_patched(fdp: bool, results: list):
    """Within, every `bgs.run` result is appended to `results`, and with
    `fdp` off `harness.make_problem` builds its problems without `smooth_at`."""
    make, solve = harness.make_problem, bgs.run

    def run(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    bgs.run = run
    if not fdp:
        harness.make_problem = lambda *a, **k: _without_smooth_at(make(*a, **k))
    try:
        yield
    finally:
        harness.make_problem, bgs.run = make, solve


def _harness_row(problem: str, fdp: bool, *, n, reps, m, tol, fd_step=None):
    """(gradients, runs at target, runs, give-ups) of one `run_experiment`."""
    options = {} if m is None else {"m": m}
    spec = harness.ExperimentSpec(solver="bgs", problem=problem, n=n, replications=reps,
                                  stop_rel_err=tol, seed_base=0, solver_options=options,
                                  fd_step=fd_step, measure_time=False)
    results = []
    with _harness_patched(fdp, results):
        reports, _ = harness.run_experiment(spec)
    return (sum(r.g_eval for r in reports), sum(r.converged for r in reports), reps,
            sum(r.fdp_give_ups for r in results))


def _rosen_row(mode: GradientMode, fdp: bool):
    """(gradients, runs at target, runs, give-ups) of the `rosen_fd` solves in one mode."""
    oracle = make_problem("Rosen")
    if not fdp:
        oracle = _without_smooth_at(oracle)
    grads = hits = give_ups = 0
    for s in range(5):
        start = harness.perturb_start(oracle.x0, 4, np.random.default_rng([s, 1]))
        res = bgs.run(oracle, bgs.SolverConfig(seed=s, m=8, max_outer=300), start,
                      grad_mode=mode)
        grads += res.grad_evals
        hits += harness.relative_error(res.f, oracle.f_star) <= ROSEN_TARGET
        give_ups += res.fdp_give_ups
    return grads, hits, 5, give_ups


HARNESS_PROTOCOLS = (
    ("battery", range(1, 9), dict(n=50, reps=5, m=5, tol=5e-4)),
    ("small", range(1, 9), dict(n=10, reps=5, m=None, tol=5e-4)),
    ("large", (1, 2, 3, 4, 5, 7, 8), dict(n=500, reps=1, m=None, tol=5e-3)),
    ("forward", (2, 7), dict(n=50, reps=20, m=5, tol=5e-4, fd_step=1e-8)),
)


def _cells():
    """(protocol, problem, row function of `fdp`) in print order."""
    for protocol, problems, kw in HARNESS_PROTOCOLS:
        for p in problems:
            yield protocol, make_problem(str(p), 10).name, partial(_harness_row, str(p), **kw)
    for mode in (GradientMode.exact(), GradientMode.forward(1e-9)):
        yield "rosen", mode.kind, partial(_rosen_row, mode)


def main() -> int:
    print(f"{'protocol':<8} {'problem':<12} {'fdp':<6} {'grads':>7} {'target':>7} "
          f"{'give-ups':>8}")
    for protocol, problem, row in _cells():
        for fdp in (False, True):
            grads, hits, runs, give_ups = row(fdp)
            print(f"{protocol:<8} {problem:<12} {'on' if fdp else 'off':<6} {grads:>7} "
                  f"{f'{hits}/{runs}':>7} {give_ups:>8}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
