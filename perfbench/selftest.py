"""Self-test of the benchmark's checks: genuine solves pass, doctored ones fail.

Run from the root of a checkout (a few seconds):

    python3 perfbench/selftest.py

It captures a few small genuine solves the way a benchmark round does, checks
that they pass, then feeds `checks.check_solve` copies with one fault each
(a wrong optimum, a rising w inside an inner chain, a gradient count that
disagrees with the oracle, and others) and exits non-zero unless every copy
is rejected.  It also checks the pacing arithmetic on made-up kernel marks.
"""

import copy
import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from bundlegs import bgs, harness  # noqa: E402
from bundlegs.harness import ExperimentSpec  # noqa: E402
from bundlegs.problems import GradientMode, make_problem  # noqa: E402

import checks  # noqa: E402
from pace import REF_S, Pacer  # noqa: E402
from probe import Probe  # noqa: E402


def genuine_solves() -> list:
    probe = Probe(timing=False)
    with probe.installed(lambda oracle: 5e-4 if oracle.name != "Rosen" else 1e-3):
        for solver in ("bgs", "gs"):
            harness.run_experiment(ExperimentSpec(
                solver=solver, problem="ChainedLQ", n=10, replications=1,
                stop_rel_err=5e-4, solver_options={"m": 5} if solver == "bgs" else {}))
        oracle = probe.wrap_oracle(make_problem("Rosen"))
        start = harness.perturb_start(oracle.x0, 4, np.random.default_rng([0, 1]))
        bgs.run(oracle, bgs.SolverConfig(seed=0, m=8, max_outer=300), start,
                grad_mode=GradientMode.forward(1e-9))
    return probe.solves


def doctored(s: checks.Solve) -> dict:
    """One copy of `s` per fault, by name."""
    def with_result(**changes):
        d = copy.copy(s)
        d.result = dataclasses.replace(s.result, **changes)
        return d

    trace = s.result.trace
    out = {}
    x0 = make_problem(s.problem, s.n).x0
    out["wrong optimum (x and f agree)"] = with_result(
        x=x0, f=make_problem(s.problem, s.n).f(x0))
    out["f that is not f(x)"] = with_result(f=s.result.f - 1.0)
    out["radius rises"] = with_result(
        trace=trace + [dataclasses.replace(trace[-1], radius=2.0 * trace[-1].radius)])
    out["stop on inner_limit"] = with_result(stop_reason="inner_limit")
    aborted = copy.copy(s)
    aborted.result, aborted.error = None, "QpFailureError: stalled"
    out["aborted"] = aborted
    if s.grad_mode == "exact":
        miscounted = copy.copy(s)
        miscounted.grad_calls += 1
        out["gradient count off by one"] = miscounted
    else:
        exact_calls = copy.copy(s)
        exact_calls.grad_calls = 1
        out["exact gradient in forward mode"] = exact_calls
    if hasattr(trace[0], "w"):
        rec = trace[0]
        rise = dataclasses.replace(rec, i=rec.i + 1, w=rec.w + 1e-6 * (1.0 + abs(rec.w)))
        out["w rises within an inner chain"] = with_result(trace=[rec, rise] + trace[1:])
    return out


def pacing_ok() -> bool:
    """1 s between kernels of REF_S counts 1 s; 2 s between kernels of REF_S
    and 2*REF_S (a host 1.5 times slower on average) count 2/1.5 s."""
    k = REF_S
    pacer = Pacer()
    pacer.marks = [(0.0, k), (1.0 + k, 1.0 + 2 * k), (3.0 + 2 * k, 3.0 + 4 * k)]
    return (abs(pacer.raw_s() - 3.0) < 1e-12
            and abs(pacer.paced_s() - (1.0 + 2.0 / 1.5)) < 1e-12)


def main() -> int:
    bad = 0
    ok = pacing_ok()
    print(f"{'ok  ' if ok else 'FAIL'} pacing arithmetic")
    bad += not ok
    for s in genuine_solves():
        label = f"{s.solver} {s.problem} {s.grad_mode}"
        found = checks.check_solve(s)
        print(f"{'ok  ' if not found else 'FAIL'} genuine {label} passes {found or ''}")
        bad += bool(found)
        for fault, d in doctored(s).items():
            found = checks.check_solve(d)
            print(f"{'ok  ' if found else 'FAIL'} {label}, {fault}: "
                  f"{found[0] if found else 'accepted'}")
            bad += not found
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
