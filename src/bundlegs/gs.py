"""Vanilla gradient-sampling baseline.

Each iteration samples `sample_size` points uniformly from B(x_k, eps_k),
takes the minimum-norm element of the convex hull of the gradient at x_k and
the sampled gradients (Wolfe's nearest-point problem, solved by
`qp.min_norm_point`; a hull solve that does not converge ends the run with
QpFailureError), and runs an Armijo backtracking line search along the
normalized steepest-descent direction.  The radius shrinks when the hull
point is nearly zero or the line search fails.  Used as the
gradient-evaluation-count comparison baseline; its radius shrink factor,
line-search constants, stationarity tolerance and radius floor are
conventional choices, fixed as module constants.

The gradient at x_k and the sampled block, evaluated by one
`problems.sample_rows` call in either gradient mode, go into one
preallocated (m+1, n) array; the sampled points' values are not asked for,
so forward differences spend n + 1 objective values per point and exact
gradients none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bgs import RunResult
from .problems import EvaluationError, GradientMode, ObjectiveOracle, gradient, sample_rows
# solve_simplex_qp and SimplexQpInstance stay importable from here: perfbench's
# probe looks both up on this module by name
from .qp import QpFailureError, SimplexQpInstance, min_norm_point, solve_simplex_qp  # noqa: F401
from .sampling import sample_ball

_EPS_SHRINK = 0.1  # radius factor on a shrink
_ARMIJO_BETA = 1e-4  # sufficient-decrease fraction
_ARMIJO_GAMMA = 0.5  # backtracking factor
_MAX_BACKTRACKS = 50
_STATIONARITY_TOL = 1e-6  # hull-point norm below which the radius shrinks
_MIN_RADIUS = 1e-12


@dataclass
class GsConfig:
    """Baseline parameters; sample_size=None resolves to 2n."""

    sample_size: Optional[int] = None
    eps0: float = 1.0
    seed: int = 0
    max_iters: int = 1000

    def __post_init__(self) -> None:
        if self.sample_size is not None and self.sample_size < 1:
            raise ValueError("sample_size must be positive")
        if not self.eps0 > 0:
            raise ValueError("eps0 must be positive")

    def resolve_sample_size(self, n: int) -> int:
        return int(self.sample_size) if self.sample_size is not None else 2 * n


@dataclass
class GsTraceRecord:
    k: int
    i: int  # always 0; kept for uniform trace export
    f_val: float
    gnorm: float
    radius: float
    kind: str  # "step" | "shrink"
    grad_evals_cum: int


def gs_run(
    oracle: ObjectiveOracle,
    config: GsConfig,
    x0: np.ndarray | None = None,
    grad_mode: GradientMode | None = None,
    stop_callback: Optional[Callable[[GsTraceRecord], bool]] = None,
) -> RunResult:
    """Run the baseline; gradient evaluations are sample_size + 1 per iteration."""
    mode = grad_mode or GradientMode.exact()
    x = np.array(x0 if x0 is not None else oracle.x0, dtype=float)
    if x.size != oracle.dimension or not np.all(np.isfinite(x)):
        raise ValueError("x0 must be a finite vector of the oracle's dimension")
    n = oracle.dimension
    sample_size = config.resolve_sample_size(n)
    rng = np.random.default_rng(config.seed)
    eps = float(config.eps0)
    f_x = oracle.f(x)
    g_evals = 0
    trace: list[GsTraceRecord] = []
    iters = 0
    # row 0 the gradient at x_k, then the sampled block
    grads = np.empty((sample_size + 1, n))

    for k in range(config.max_iters):
        if eps < _MIN_RADIUS:
            stop_reason = "radius_floor"
            break
        iters += 1
        grads[0] = gradient(oracle, mode, x, f_x=f_x)
        points = sample_ball(x, eps, sample_size, rng)
        bad = sample_rows(oracle, mode, points, grads[1:])
        if bad:
            i = bad[0]
            raise EvaluationError(f"{oracle.name}: non-finite gradient at row {i} of a block "
                                  f"of {sample_size} points, x={points[i]!r}")
        g_evals += sample_size + 1

        sol = min_norm_point(grads)
        if not sol.converged:
            raise QpFailureError(f"hull QP of {len(grads)} gradients did not converge in "
                                 f"{sol.iterations} pivots (KKT residual {sol.kkt_residual:.3e})")
        gnorm = float(np.linalg.norm(sol.g_tilde))

        if gnorm <= _STATIONARITY_TOL:
            kind = "shrink"
        else:
            d = -sol.g_tilde / gnorm
            t = 1.0
            accepted = False
            for _ in range(_MAX_BACKTRACKS):
                f_t = oracle.f(x + t * d)
                if f_t < f_x - _ARMIJO_BETA * t * gnorm:
                    accepted = True
                    break
                t *= _ARMIJO_GAMMA
            if accepted:
                x = x + t * d
                f_x = f_t
                kind = "step"
            else:
                kind = "shrink"

        rec = GsTraceRecord(k=k, i=0, f_val=f_x, gnorm=gnorm, radius=eps,
                            kind=kind, grad_evals_cum=g_evals)
        trace.append(rec)
        if kind == "shrink":
            eps *= _EPS_SHRINK
        if stop_callback is not None and stop_callback(rec):
            stop_reason = "callback"
            break
    else:  # every iteration ran
        stop_reason = "budget"

    return RunResult(x=x, f=f_x, trace=trace, stop_reason=stop_reason,
                     outer_iters=iters, grad_evals=g_evals)
