"""Experiment runner: randomized starts, stopping rules, replication, reports.

Each run stops on the first of: relative error (f - f*) / (|f*| + 1) at or
below the tolerance, 1000 iterations (outer iterations for the bundle
solver), or sampling radius below 1e-12.  Per-problem results are averaged
over replications and persisted as CSV or JSON.
"""

from __future__ import annotations

import csv
import json
import math
import re
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import bgs, gs
from .problems import (EvaluationError, GradientMode, ObjectiveOracle, make_problem,
                       require_integers)
from .sampling import sample_ball

@dataclass
class ExperimentSpec:
    """One experiment: a solver, a problem, and the replication protocol.

    Construction raises `ValueError` for any experiment that could not run:
    among others an unknown problem, a solver option the solver's config
    lacks or refuses, and an output or trace path in a missing directory.
    """

    solver: str  # "bgs" | "gs"
    problem: str
    n: Optional[int] = None
    replications: int = 5
    stop_rel_err: Optional[float] = None  # default: 5e-4 for n<=200, else 5e-3
    seed_base: int = 0
    output: Optional[str] = None
    format: str = "csv"
    solver_options: dict = field(default_factory=dict)
    fd_step: Optional[float] = None  # forward differences when set
    trace_path: Optional[str] = None
    measure_time: bool = True

    def __post_init__(self) -> None:
        if self.solver not in ("bgs", "gs"):
            raise ValueError(f"unknown solver {self.solver!r}")
        require_integers(replications=self.replications, seed_base=self.seed_base)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed_base < 0:
            raise ValueError("seed_base must be nonnegative")
        if self.stop_rel_err is not None and not 0.0 < self.stop_rel_err < math.inf:
            raise ValueError("stop_rel_err must be positive and finite")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.fd_step is not None:
            try:
                GradientMode.forward(self.fd_step)
            except ValueError as exc:
                raise ValueError(f"fd_step={self.fd_step!r}: {exc}") from None
        make_problem(self.problem, self.n)
        config = bgs.SolverConfig if self.solver == "bgs" else gs.GsConfig
        names = {f.name for f in fields(config)} - {"seed"}
        unknown = [key for key in self.solver_options if key not in names]
        if unknown:
            raise ValueError(f"solver {self.solver} takes no option {', '.join(unknown)}")
        config(seed=self.seed_base, **self.solver_options)
        for path in (self.output, self.trace_path):
            if path and not Path(path).parent.is_dir():
                raise ValueError(f"{path}: directory {Path(path).parent} does not exist")


@dataclass
class RunReport:
    solver: str
    problem: str
    n: int
    seed: int
    iters: int
    g_eval: int
    time_s: float
    E_final: float
    converged: bool
    stop_reason: str = "unknown"  # internal; not persisted


REPORT_FIELDS = [f.name for f in fields(RunReport) if f.name != "stop_reason"]


def relative_error(f_val: float, f_star: float) -> float:
    return (f_val - f_star) / (abs(f_star) + 1.0)


def perturb_start(x0: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the ball of radius (||x0|| + 1)/n around x0."""
    x0 = np.asarray(x0, dtype=float)
    if x0.size != n:
        raise ValueError("n must equal the length of x0")
    radius = (float(np.linalg.norm(x0)) + 1.0) / n
    return sample_ball(x0, radius, 1, rng)[0]


def default_tolerance(n: int) -> float:
    return 5e-4 if n <= 200 else 5e-3


def _single_run(spec: ExperimentSpec, oracle: ObjectiveOracle, seed: int,
                tol: float) -> tuple[RunReport, object]:
    """One replication's report, and the solver's result (None for a start
    already at the target or an aborted run)."""
    n = oracle.dimension
    start = perturb_start(oracle.x0, n, np.random.default_rng([seed, 1]))
    mode = GradientMode.forward(spec.fd_step) if spec.fd_step else GradientMode.exact()
    result, iters, g_eval, elapsed, reason = None, 0, 0, 0.0, "rel_err"
    e_final = relative_error(oracle.f(start), oracle.f_star)
    if e_final > tol:
        def stop(rec) -> bool:
            return relative_error(rec.f_val, oracle.f_star) <= tol

        # looked up per call: a profiler may wrap the solvers
        solve, config = ((bgs.run, bgs.SolverConfig) if spec.solver == "bgs"
                         else (gs.gs_run, gs.GsConfig))
        t0 = time.perf_counter()
        try:
            result = solve(oracle, config(seed=seed, **spec.solver_options), start,
                           grad_mode=mode, stop_callback=stop)
        except (bgs.QpFailureError, bgs.ConvexityError, EvaluationError) as exc:
            e_final, reason = math.nan, f"abort: {exc}"
        elapsed = time.perf_counter() - t0 if spec.measure_time else 0.0
        if result is not None:
            iters, g_eval = result.outer_iters, result.grad_evals
            e_final = relative_error(result.f, oracle.f_star)
            reason = {"callback": "rel_err"}.get(result.stop_reason, result.stop_reason)
    report = RunReport(spec.solver, oracle.name, n, seed, iters, g_eval, elapsed, e_final,
                       e_final <= tol, reason)
    return report, result


def run_experiment(spec: ExperimentSpec) -> tuple[list[RunReport], dict]:
    """Run the replications and return per-run reports plus the aggregate row."""
    oracle = make_problem(spec.problem, spec.n)
    tol = spec.stop_rel_err if spec.stop_rel_err is not None else default_tolerance(oracle.dimension)
    reports: list[RunReport] = []
    for r in range(spec.replications):
        report, result = _single_run(spec, oracle, spec.seed_base + r, tol)
        reports.append(report)
        if spec.trace_path and result is not None:
            suffix = f".seed{report.seed}" if spec.replications > 1 else ""
            export_trace(result, oracle, Path(str(spec.trace_path) + suffix))
    ok = [r for r in reports if not r.stop_reason.startswith("abort")]
    aggregate = {
        "solver": spec.solver,
        "problem": oracle.name,
        "n": oracle.dimension,
        "replications": spec.replications,
        **{key: float(np.mean([getattr(r, key) for r in ok])) if ok else math.nan
           for key in ("iters", "g_eval", "time_s", "E_final")},
        "n_converged": sum(r.converged for r in ok),
        "n_excluded": len(reports) - len(ok),
    }
    if spec.output:
        emit_report(reports, spec.output, spec.format)
    return reports, aggregate


def json_safe(row: dict) -> dict:
    """`row` with each non-finite float as None, which JSON writes as null:
    RFC 8259 has no NaN or Infinity."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in row.items()}


def emit_report(reports: list[RunReport], path: str | Path, fmt: str = "csv") -> Path:
    """Persist per-run reports, one row of the `REPORT_FIELDS` each.

    CSV writes a float as its repr and JSON round-trips it, so both keep
    every bit; JSON writes a non-finite float as null.
    """
    if not reports:
        raise ValueError("no reports to persist")
    path = Path(path)
    rows = [[getattr(r, key) for key in REPORT_FIELDS] for r in reports]
    try:
        if fmt == "csv":
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(REPORT_FIELDS)
                writer.writerows(rows)
        elif fmt == "json":
            payload = [json_safe(dict(zip(REPORT_FIELDS, row))) for row in rows]
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc
    return path


def export_trace(result, oracle: ObjectiveOracle, path: str | Path) -> Path:
    """Write (k, i, f - f*, eps_k, kind) rows for plotting error trajectories."""
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "i", "err", "eps", "kind"])
            for rec in result.trace:
                kind = rec.kind.value if hasattr(rec.kind, "value") else rec.kind
                writer.writerow([rec.k, rec.i, repr(rec.f_val - oracle.f_star),
                                 repr(rec.radius), kind])
    except OSError as exc:
        raise OSError(f"failed writing trace to {path}: {exc}") from exc
    return path


def load_config_file(path: str | Path) -> dict:
    """Parse a plain-text key=value config file.

    A '#' at the start of a line or after whitespace starts a comment, so
    `m=4  # note` sets m to 4 and `out=run#1.csv` keeps its '#'.
    """
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out
