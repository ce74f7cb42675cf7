"""Bundle method driven by gradient sampling for nonsmooth convex minimization.

Public surface: benchmark problem oracles (`make_problem`, `catalog`), the
simplex-constrained QP solver (`solve_simplex_qp`) and its nearest-point
kernel (`min_norm_point`), the bundle solver
(`bgs.run` / `SolverConfig`), the vanilla gradient-sampling baseline
(`gs.gs_run` / `GsConfig`), and the experiment harness
(`run_experiment` / `ExperimentSpec`).
"""

from . import bgs, gs, harness, problems, qp, sampling
from .bgs import RunResult, SolverConfig, StepKind
from .gs import GsConfig, gs_run
from .harness import ExperimentSpec, RunReport, emit_report, perturb_start, run_experiment
from .problems import GradientMode, ObjectiveOracle, catalog, gradient, make_problem
from .qp import SimplexQpInstance, SimplexQpSolution, min_norm_point, solve_simplex_qp
from .sampling import sample_ball

__all__ = [
    "bgs", "gs", "harness", "problems", "qp", "sampling",
    "RunResult", "SolverConfig", "StepKind",
    "GsConfig", "gs_run",
    "ExperimentSpec", "RunReport", "emit_report", "perturb_start", "run_experiment",
    "GradientMode", "ObjectiveOracle", "catalog", "gradient", "make_problem",
    "SimplexQpInstance", "SimplexQpSolution", "min_norm_point", "solve_simplex_qp",
    "sample_ball",
]

__version__ = "0.1.0"
