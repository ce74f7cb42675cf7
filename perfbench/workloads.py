"""The four workloads: what one round solves, built from the seed.

A round is a fixed list of solves; every round of a run repeats the same
list, so the counts of each round must come out identical.  The solves are
those of the acceptance protocols, with their replication seeds 0-4; the
seed only draws the order in which a round runs them.  Shifting the
replication seeds with the seed was tried and dropped: the gradient counts
of the GS runs then spread by 14% across seeds, and some seeds miss their
targets (see perfbench/README.md).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from bundlegs import bgs, harness
from bundlegs.harness import ExperimentSpec
from bundlegs.problems import GradientMode, make_problem

REPS = 5
BATTERY = range(1, 9)
GS_PROBLEMS = (1, 3, 4, 8)
LARGE_PROBLEMS = (1, 2, 3, 4, 5, 7, 8)
ROSEN_TARGET = 1e-3
ROSEN_FD_STEP = 1e-9


class Workload:
    """`solves` per round; `target_of(oracle)` is the error a solve must reach."""

    solves = 0

    def __init__(self, seed: int, out_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.out_dir = out_dir

    def shuffled(self, items: list) -> list:
        return [items[j] for j in self.rng.permutation(len(items))]

    def run_round(self, probe) -> None:
        raise NotImplementedError

    def check_outputs(self, solves) -> list[str]:
        """Checks on files the round wrote; none by default."""
        return []


class HarnessWorkload(Workload):
    """Experiments run through `harness.run_experiment`; `tol` None is its default."""

    tol: float | None = None

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self._specs = self.shuffled(self.specs())
        self.solves = sum(s.replications for s in self._specs)

    def specs(self) -> list[ExperimentSpec]:
        raise NotImplementedError

    def target_of(self, oracle) -> float:
        return harness.default_tolerance(oracle.dimension) if self.tol is None else self.tol

    def run_round(self, probe) -> None:
        for spec in self._specs:
            harness.run_experiment(spec)


class BgsBattery(HarnessWorkload):
    tol = 5e-4

    def specs(self):
        return [ExperimentSpec(solver="bgs", problem=str(p), n=50, replications=REPS,
                               stop_rel_err=self.tol, seed_base=0,
                               solver_options={"m": 5},
                               output=str(self.out_dir / f"battery-p{p}.csv"),
                               trace_path=str(self.out_dir / f"battery-p{p}.trace"))
                for p in BATTERY]

    def check_outputs(self, solves) -> list[str]:
        """The CSV reports and traces the harness wrote match the solves."""
        out = []
        it = iter(solves)
        for spec in self._specs:
            with open(spec.output, newline="") as fh:
                rows = list(csv.DictReader(fh))
            for r, row in enumerate(rows):
                s = next(it, None)
                if s is None or s.result is None:
                    out.append(f"{spec.output}: row {r} has no matching solve")
                    continue
                if int(row["g_eval"]) != s.result.grad_evals or row["converged"] != "True":
                    out.append(f"{spec.output}: row {r} disagrees with its solve")
                trace = Path(f"{spec.trace_path}.seed{row['seed']}")
                with trace.open() as fh:
                    lines = sum(1 for _ in fh)
                if lines != len(s.result.trace) + 1:
                    out.append(f"{trace}: {lines - 1} rows for {len(s.result.trace)} steps")
            if len(rows) != spec.replications:
                out.append(f"{spec.output}: {len(rows)} rows, want {spec.replications}")
        return out


class GsEconomy(HarnessWorkload):
    tol = 5e-4

    def specs(self):
        return [ExperimentSpec(solver="gs", problem=str(p), n=50, replications=REPS,
                               stop_rel_err=self.tol, seed_base=0)
                for p in GS_PROBLEMS]


class BgsLarge(HarnessWorkload):
    # tol None: the harness default, 5e-3 for n > 200
    def specs(self):
        return [ExperimentSpec(solver="bgs", problem=str(p), n=500, replications=1,
                               seed_base=0)
                for p in LARGE_PROBLEMS]


class RosenFd(Workload):
    """Rosen, m=8, 300 outer iterations; each replication seed runs once with
    exact gradients and once with forward differences, to the solver's own stop."""

    solves = 2 * REPS

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        modes = (GradientMode.exact(), GradientMode.forward(ROSEN_FD_STEP))
        self.runs = self.shuffled([(s, mode) for s in range(REPS) for mode in modes])

    def target_of(self, oracle) -> float:
        return ROSEN_TARGET

    def run_round(self, probe) -> None:
        oracle = probe.wrap_oracle(make_problem("Rosen"))
        for s, mode in self.runs:
            start = harness.perturb_start(oracle.x0, 4, np.random.default_rng([s, 1]))
            bgs.run(oracle, bgs.SolverConfig(seed=s, m=8, max_outer=300), start,
                    grad_mode=mode)


WORKLOADS = {
    "bgs_battery": BgsBattery,
    "gs_economy": GsEconomy,
    "rosen_fd": RosenFd,
    "bgs_large": BgsLarge,
}
