"""Vanilla gradient-sampling baseline.

Each iteration samples `sample_size` points uniformly from B(x_k, eps_k),
takes the minimum-norm element of the convex hull of the gradient at x_k and
the sampled gradients (Wolfe's nearest-point problem, solved by
`qp.min_norm_point`; a hull solve that does not converge ends the run with
QpFailureError), and runs an Armijo backtracking line search along the
normalized steepest-descent direction.  The radius shrinks when the hull
point is nearly zero or the line search fails.  Used as the
gradient-evaluation-count comparison baseline; its line-search constants are
conventional choices and are all config-exposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bgs import RunResult
from .problems import GradientMode, ObjectiveOracle, gradient
# solve_simplex_qp and SimplexQpInstance stay importable from here: perfbench's
# probe looks both up on this module by name
from .qp import QpFailureError, SimplexQpInstance, min_norm_point, solve_simplex_qp  # noqa: F401
from .sampling import sample_ball


@dataclass
class GsConfig:
    """Baseline parameters; sample_size=None resolves to 2n."""

    sample_size: Optional[int] = None
    eps0: float = 1.0
    eps_shrink: float = 0.1
    armijo_beta: float = 1e-4
    armijo_gamma: float = 0.5
    max_backtracks: int = 50
    stationarity_tol: float = 1e-6
    seed: int = 0
    max_iters: int = 1000
    min_radius: float = 1e-12

    def __post_init__(self) -> None:
        if self.sample_size is not None and self.sample_size < 1:
            raise ValueError("sample_size must be positive")
        if not self.eps0 > 0:
            raise ValueError("eps0 must be positive")
        if not 0.0 < self.eps_shrink < 1.0:
            raise ValueError("eps_shrink must be in (0, 1)")
        if not 0.0 < self.armijo_beta < 1.0:
            raise ValueError("armijo_beta must be in (0, 1)")
        if not 0.0 < self.armijo_gamma < 1.0:
            raise ValueError("armijo_gamma must be in (0, 1)")
        if self.stationarity_tol < 0:
            raise ValueError("stationarity_tol must be nonnegative")

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
    stop_reason = None
    iters = 0

    for k in range(config.max_iters):
        if eps < config.min_radius:
            stop_reason = "radius_floor"
            break
        iters += 1
        grads = [gradient(oracle, mode, x)]
        for s in sample_ball(x, eps, sample_size, rng):
            grads.append(gradient(oracle, mode, s))
        g_evals += sample_size + 1

        sol = min_norm_point(np.array(grads))
        if not sol.converged:
            raise QpFailureError(f"hull QP of {len(grads)} gradients did not converge in "
                                 f"{sol.iterations} pivots (KKT residual {sol.kkt_residual:.3e})")
        gnorm = float(np.linalg.norm(sol.g_tilde))

        if gnorm <= config.stationarity_tol:
            kind = "shrink"
        else:
            d = -sol.g_tilde / gnorm
            t = 1.0
            accepted = False
            for _ in range(config.max_backtracks):
                f_t = oracle.f(x + t * d)
                if f_t < f_x - config.armijo_beta * t * gnorm:
                    accepted = True
                    break
                t *= config.armijo_gamma
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
            eps *= config.eps_shrink
        if stop_callback is not None and stop_callback(rec):
            stop_reason = "callback"
            break
    if stop_reason is None:
        stop_reason = "budget" if iters >= config.max_iters else "radius_floor"

    return RunResult(x=x, f=f_x, trace=trace, stop_reason=stop_reason,
                     outer_iters=iters, grad_evals=g_evals)
