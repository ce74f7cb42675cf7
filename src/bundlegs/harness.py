"""Experiment runner: randomized starts, stopping rules, replication, reports.

Each run stops on the first of: relative error (f - f*) / (|f*| + 1) at or
below the tolerance, 1000 iterations (outer iterations for the bundle
solver), or sampling radius below 1e-12.  Per-problem results are averaged
over replications and persisted as CSV or JSON.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import bgs, gs
from .problems import EvaluationError, GradientMode, ObjectiveOracle, make_problem
from .sampling import sample_ball

REPORT_FIELDS = ["solver", "problem", "n", "seed", "iters", "g_eval",
                 "time_s", "E_final", "converged"]


@dataclass
class ExperimentSpec:
    """One experiment: a solver, a problem, and the replication protocol."""

    solver: str  # "bgs" | "gs"
    problem: str
    n: Optional[int] = None
    replications: int = 5
    stop_rel_err: Optional[float] = None  # default: 5e-4 for n<=200, else 5e-3
    seed_base: int = 0
    output: Optional[str] = None
    format: str = "csv"
    max_iters: int = 1000
    min_radius: float = 1e-12
    solver_options: dict = field(default_factory=dict)
    fd_step: Optional[float] = None  # forward differences when set
    trace_path: Optional[str] = None
    measure_time: bool = True

    def __post_init__(self) -> None:
        if self.solver not in ("bgs", "gs"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.stop_rel_err is not None and not self.stop_rel_err > 0:
            raise ValueError("stop_rel_err must be positive")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")


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

    def row(self) -> list:
        return [self.solver, self.problem, self.n, self.seed, self.iters,
                self.g_eval, repr(self.time_s), repr(self.E_final), self.converged]


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
    n = oracle.dimension
    start = perturb_start(oracle.x0, n, np.random.default_rng([seed, 1]))
    mode = GradientMode.forward(spec.fd_step) if spec.fd_step else GradientMode.exact()

    e_start = relative_error(oracle.f(start), oracle.f_star)
    if e_start <= tol:
        report = RunReport(spec.solver, oracle.name, n, seed, 0, 0, 0.0, e_start,
                           True, "rel_err")
        return report, None

    def stop(rec) -> bool:
        return relative_error(rec.f_val, oracle.f_star) <= tol

    t0 = time.perf_counter()
    aborted = None
    try:
        if spec.solver == "bgs":
            config = bgs.SolverConfig(seed=seed, max_outer=spec.max_iters,
                                      min_radius=spec.min_radius,
                                      **spec.solver_options)
            result = bgs.run(oracle, config, start, grad_mode=mode, stop_callback=stop)
        else:
            config = gs.GsConfig(seed=seed, max_iters=spec.max_iters,
                                 min_radius=spec.min_radius,
                                 **spec.solver_options)
            result = gs.gs_run(oracle, config, start, grad_mode=mode, stop_callback=stop)
    except (bgs.QpFailureError, bgs.ConvexityError, EvaluationError) as exc:
        aborted = str(exc)
    elapsed = time.perf_counter() - t0 if spec.measure_time else 0.0

    if aborted is not None:
        report = RunReport(spec.solver, oracle.name, n, seed, 0, 0, elapsed,
                           float("nan"), False, "abort")
        report.stop_reason = f"abort: {aborted}"
        return report, None

    e_final = relative_error(result.f, oracle.f_star)
    reason = {"callback": "rel_err"}.get(result.stop_reason, result.stop_reason)
    report = RunReport(spec.solver, oracle.name, n, seed, result.outer_iters,
                       result.grad_evals, elapsed, e_final,
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
        "iters": float(np.mean([r.iters for r in ok])) if ok else float("nan"),
        "g_eval": float(np.mean([r.g_eval for r in ok])) if ok else float("nan"),
        "time_s": float(np.mean([r.time_s for r in ok])) if ok else float("nan"),
        "E_final": float(np.mean([r.E_final for r in ok])) if ok else float("nan"),
        "n_converged": sum(r.converged for r in ok),
        "n_excluded": len(reports) - len(ok),
    }
    if spec.output:
        emit_report(reports, spec.output, spec.format)
    return reports, aggregate


def emit_report(reports: list[RunReport], path: str | Path, fmt: str = "csv") -> Path:
    """Persist per-run reports; CSV columns are fixed, JSON mirrors them."""
    if not reports:
        raise ValueError("no reports to persist")
    path = Path(path)
    try:
        if fmt == "csv":
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(REPORT_FIELDS)
                for r in reports:
                    writer.writerow(r.row())
        elif fmt == "json":
            payload = []
            for r in reports:
                d = asdict(r)
                d.pop("stop_reason")
                payload.append(d)
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
    """Parse a plain-text key=value config file; '#' starts a comment."""
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out
