"""Bundle solver whose polyhedral model is built by gradient sampling.

Each outer iteration samples m points from the ball B(x_k, eps_k), builds the
polyhedral model from the gradients there (plus the gradient at x_k itself),
and solves the dual search-direction subproblem over the simplex.  If the
resulting direction fails the sufficient-decrease test, an inner improvement
process either enriches the model one linearization at a time, compressing
the old constraints into a single aggregated pair via the dual multipliers,
or gives up and shrinks the sampling radius (a null step).

The model is one array of rows [g_j, e_j]: a gradient and its linearization
error at x_k.  Row 0 holds the gradient at x_k itself (error 0) and stays
first; the m sampled points get their values and gradients from one
`problems.sample_rows` call in either gradient mode, and their errors
are taken at once (see `build_initial_model`).  An
enrichment keeps the rows whose multipliers carry the weight theta
(`select_indices`), stacks the new cut and the prior aggregate below them in
a preallocated buffer, and solves that stack.  The initial model's
aggregate is the QP's own lam @ G; an enrichment's is the row-by-row sum of
`aggregate`.  Near-duplicate rows make round-off decide how lam splits among
them, so each aggregate keeps its own summation order: either order used for
both moves the gradient counts.

The improvement process gives up when the new linearization fails the
improvement criterion, or when the model has stopped paying for its
enrichments: the dual value w fell by less than the factor gamma over the
last m + 1 of them (see `model_stalled`).  A serious step found by the
initial sampled model is stretched by doubling while f keeps falling (see
`extrapolate`); a step found after enrichment is taken as it is.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .problems import EvaluationError, GradientMode, ObjectiveOracle, gradient, sample_rows
from .qp import QpFailureError, SimplexQpInstance, SimplexQpSolution, solve_simplex_qp
from .sampling import sample_ball

# enrichments per outer iteration, in units of m + 1, before `run` stops on
# "inner_limit": a guard against a hang, far above where `model_stalled`
# ends a chain
_INNER_LIMIT_FACTOR = 500

# `run` stops on "converged" once v <= _EPS_TOL and on "radius_floor" once the
# radius is below _MIN_RADIUS; `fdp_perturb` stays within _FDP_SIGMA of x + d
_EPS_TOL = 1e-16
_MIN_RADIUS = 1e-12
_FDP_SIGMA = 1e-8
# trials of `fdp_perturb`, each at half the previous radius, before it gives up
_FDP_MAX_HALVINGS = 64


class ConvexityError(RuntimeError):
    """A linearization error came out significantly negative."""


class StepKind(enum.Enum):
    SERIOUS_STEP = "serious"
    NULL_STEP = "null"
    INNER_ENRICH = "enrich"
    CONVERGED = "converged"


@dataclass
class SolverConfig:
    """The parameters of the solver that a caller sets.

    The defaults are the safe practical values: eps0=1, mu=0.5, alpha=0.5,
    gamma=0.9, beta=1e-6, theta=0.9.  When `m` is None it resolves to 2n for
    n <= 20 and ceil(n/10) otherwise.  `differentiability_checks` turns on
    the FDP1/FDP2 perturbations, `collect_diagnostics` the per-record audits;
    the tolerances `_EPS_TOL`, `_MIN_RADIUS` and `_FDP_SIGMA` are fixed.
    """

    eps0: float = 1.0
    mu: float = 0.5
    m: Optional[int] = None
    beta: float = 1e-6
    alpha: float = 0.5
    gamma: float = 0.9
    theta: float = 0.9
    seed: int = 0
    max_outer: int = 1000
    differentiability_checks: bool = False
    collect_diagnostics: bool = False

    def __post_init__(self) -> None:
        if not self.eps0 > 0:
            raise ValueError("eps0 must be positive")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must be in (0, 1)")
        if self.m is not None and self.m < 0:
            raise ValueError("m must be nonnegative")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        try:
            # the radius never grows, so every eps^alpha is finite
            self.eps0 ** self.alpha
        except OverflowError:
            raise ValueError(f"eps0 ** alpha overflows ({self.eps0} ** {self.alpha})") from None
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")

    def resolve_m(self, n: int) -> int:
        if self.m is not None:
            return int(self.m)
        return 2 * n if n <= 20 else math.ceil(n / 10)


@dataclass
class AggregateAtom:
    """The compressed pair (g_tilde, e_tilde) produced by aggregation."""

    g_tilde: np.ndarray
    e_tilde: float


@dataclass
class StepOutcome:
    """Direction and the scalars derived from the dual solution.

    Identities: direction = -eps^alpha * g_tilde, z = -eps^alpha*||g_tilde||^2
    - e_tilde <= 0, v = 0.5*||g_tilde||^2 + e_tilde (the stationarity
    measure), w = 0.5*||g_tilde||^2 + e_tilde/eps^alpha (the dual optimal
    value, non-increasing along the inner loop).
    """

    direction: np.ndarray
    z: float
    v: float
    w: float


@dataclass
class StepDiagnostics:
    """Optional per-record payload for auditing the dual identities."""

    x_k: np.ndarray
    f_xk: float
    g_tilde: np.ndarray
    e_tilde: float
    d: np.ndarray
    z: float
    eps_alpha: float
    grad_xk: np.ndarray
    new_atom_grad: Optional[np.ndarray] = None
    new_atom_err: Optional[float] = None
    d_prev: Optional[np.ndarray] = None
    z_prev: Optional[float] = None
    model_z_max: Optional[float] = None


@dataclass
class IterationTrace:
    """Per-step record: outer index k, inner index i, f value, v, w, radius, kind."""

    k: int
    i: int
    f_val: float
    v: float
    w: float
    radius: float
    kind: StepKind
    grad_evals_cum: int
    diag: Optional[StepDiagnostics] = None


@dataclass
class RunResult:
    x: np.ndarray
    f: float
    trace: list
    stop_reason: str
    outer_iters: int
    grad_evals: int


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def linearization_error(f_xk: float, f_s: float, g_s: np.ndarray, x_k: np.ndarray,
                        s: np.ndarray, strict: bool = True) -> float:
    """Gap at x_k between f and the tangent plane f_s + <g_s, . - s>; >= 0 for convex f.

    Tiny negative values from round-off are clamped to zero.  In strict mode a
    value below the floating-point noise floor raises ConvexityError; with
    inexact gradients (strict=False) any negative value is clamped.
    """
    dot = float(g_s @ (x_k - s))
    e = f_xk - (f_s + dot)
    if e >= 0.0:
        return e
    if not strict:
        return 0.0
    # noise floor scaled by the magnitudes entering the cancellation
    floor = 1e-12 * max(1.0, abs(f_xk), abs(f_s) + abs(dot))
    if e < -floor:
        raise _convexity_error(e, floor)
    return 0.0


def _convexity_error(e: float, floor: float) -> ConvexityError:
    return ConvexityError(
        f"linearization error {e} below -{floor}: non-convex or broken oracle")


def _linearization_errors(f_xk: float, F: np.ndarray, G: np.ndarray, x_k: np.ndarray,
                          S: np.ndarray, strict: bool) -> np.ndarray:
    """`linearization_error` of every row (F[j], G[j], S[j]) at once, byte-equal to it.

    `np.vecdot` takes each row's dot as `g_s @ (x_k - s)` does; an einsum
    or a matmul sums in another order.  A strict error below its noise
    floor raises ConvexityError for the first such row.
    """
    dots = np.vecdot(G, x_k - S)
    e = f_xk - (F + dots)
    low = ~(e >= 0.0)  # NaN too, as in the scalar test; -0.0 is kept
    if low.any():
        if strict:
            # max(1.0, |f_xk|, ...) differs from np.maximum only on a NaN
            # dot, whose error is NaN and below no floor in either
            floor = 1e-12 * np.maximum(max(1.0, abs(f_xk)), np.abs(F) + np.abs(dots))
            below = np.flatnonzero(e < -floor)
            if below.size:
                j = below[0]
                raise _convexity_error(float(e[j]), float(floor[j]))
        e[low] = 0.0
    return e


def build_initial_model(
    oracle: ObjectiveOracle,
    x_k: np.ndarray,
    eps_k: float,
    m: int,
    rng: np.random.Generator,
    f_xk: float | None = None,
    mode: GradientMode | None = None,
) -> tuple[np.ndarray, int]:
    """Rows [g_j, e_j]: row 0 at x_k (error 0) plus m sampled rows, and the gradients spent.

    `f_xk`, f at x_k, is also the base of row 0's forward differences.  The
    m sampled points are evaluated by one `sample_rows` call, which also
    gives their values, in either gradient mode.  A point whose gradient or
    objective value is not finite is replaced by one fresh draw from the
    ball, the bad points in index order, each evaluated by its own call, and
    a second failure raises EvaluationError.  The m errors are then taken at
    once.  The rows and the draws from `rng` are those of a loop that takes
    the points one at a time, and an error raised is the one that loop
    raises first.  Every evaluated point costs one gradient: m + 1 plus one
    per replaced point.
    """
    mode = mode or GradientMode.exact()
    x_k = np.asarray(x_k, dtype=float)
    if f_xk is None:
        f_xk = oracle.f(x_k)
    rows = np.zeros((m + 1, x_k.size + 1))
    rows[0, :-1] = gradient(oracle, mode, x_k, f_x=f_xk)
    G, F = rows[1:, :-1], np.empty(m)
    points = sample_ball(x_k, eps_k, m, rng)
    bad = sample_rows(oracle, mode, points, G, F)
    for j in bad:
        s = sample_ball(x_k, eps_k, 1, rng)
        if sample_rows(oracle, mode, s, G[j:j + 1], F[j:j + 1]):
            # one at a time, a non-convex row before j would have raised
            # first, and a bad gradient before a bad value
            _linearization_errors(f_xk, F[:j], G[:j], x_k, points[:j], mode.strict)
            what = "objective value" if np.isfinite(G[j]).all() else "gradient"
            raise EvaluationError(f"{oracle.name}: non-finite {what} at x={s[0]!r}")
        points[j] = s[0]
    rows[1:, -1] = _linearization_errors(f_xk, F, G, x_k, points, mode.strict)
    return rows, m + 1 + len(bad)


def direction_from_dual(agg: SimplexQpSolution | AggregateAtom, eps_k: float,
                        alpha: float) -> StepOutcome:
    """Recover (d, z, v, w) from a pair (g_tilde, e_tilde) via the duality identities."""
    g, e = agg.g_tilde, agg.e_tilde
    scale = eps_k ** alpha
    gg = float(g @ g)
    return StepOutcome(direction=-scale * g, z=-scale * gg - e,
                       v=0.5 * gg + e, w=0.5 * gg + e / scale)


def sufficient_decrease(f_xk: float, f_trial: float, z: float, beta: float) -> bool:
    """True iff f(x_k + d) - f(x_k) <= beta * z, given f_xk = f(x_k) and f_trial = f(x_k + d)."""
    return f_trial - f_xk <= beta * z


def extrapolate(
    oracle: ObjectiveOracle,
    x: np.ndarray,
    d: np.ndarray,
    f_x: float,
    f_step: float,
    z: float,
    beta: float,
) -> tuple[float, float]:
    """Longest step t*d, t = 2^j, along which f keeps falling.

    Starts from an accepted step (f_step = f(x + d) with f_step - f_x <=
    beta*z) and doubles t while the doubled step both lowers f further and
    passes the sufficient-decrease test f(x + t*d) - f_x <= beta*t*z.  A
    non-finite value or the 60th doubling ends the search.  Costs function
    values only; returns (t, f(x + t*d)).
    """
    t, f_t = 1.0, f_step
    for _ in range(60):
        try:
            f_next = oracle.f(x + (2.0 * t) * d)
        except EvaluationError:
            break
        if not (f_next < f_t and f_next - f_x <= beta * 2.0 * t * z):
            break
        t, f_t = 2.0 * t, f_next
    return t, f_t


def fdp_perturb(
    oracle: ObjectiveOracle,
    x: np.ndarray,
    f_x: float,
    d: np.ndarray,
    f_d: float,
    beta: float,
    z: float,
    mode: str,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Differentiable perturbation of x + d that preserves the step's status.

    mode "FDP1" requires (and preserves) f(x+d) - f_x <= beta*z on entry;
    "FDP2" the strict opposite; f_x is f(x), f_d is f(x + d).  x_hat is
    resampled from B(x, sigma_hat), sigma_hat = `_FDP_SIGMA` halved per trial,
    until x_hat + d is a differentiable point with the mode's inequality
    intact.  Returns that point and f there, evaluated once and not at x + d.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if mode not in ("FDP1", "FDP2"):
        raise ValueError(f"unknown perturbation mode {mode!r}")

    point, f_point = x + d, f_d
    sigma_hat = _FDP_SIGMA
    for _ in range(_FDP_MAX_HALVINGS):
        if oracle.differentiable_at(point):
            if f_point is None:
                f_point = oracle.f(point)
            gap = f_point - f_x
            if gap <= beta * z if mode == "FDP1" else gap > beta * z:
                return point, f_point
        point, f_point = sample_ball(x, sigma_hat, 1, rng)[0] + d, None
        sigma_hat *= 0.5
    warnings.warn(f"{mode}: no acceptable perturbation within {_FDP_MAX_HALVINGS} trials")
    return point, oracle.f(point)


def improvement_criterion(e_new: float, agg: AggregateAtom, f_gap: float, gamma: float) -> bool:
    """True iff the new linearization should enrich the model.

    Either its error is small against the aggregated error (e_new <= gamma *
    e_tilde), or the function gap at the trial point is within the model's
    own measure (|f(x_k+d) - f(x_k)| <= 0.5*||g_tilde||^2 + e_tilde).  False
    means a null step: shrink the radius and rebuild.

    Near a minimizer the first disjunct can keep holding while each new cut
    lowers w only like 1/i, so `run` also takes a null step when
    `model_stalled` reports that w no longer falls.
    """
    if e_new <= gamma * agg.e_tilde:
        return True
    return f_gap <= 0.5 * float(agg.g_tilde @ agg.g_tilde) + agg.e_tilde


def model_stalled(w_history: list[float], window: int, gamma: float) -> bool:
    """True iff w fell by less than the factor gamma over the last `window` steps.

    `w_history` holds the dual values w_0, ..., w_i of the current inner
    loop; the test is w_i > gamma * w_{i-window}.  `run` uses window = m + 1,
    so an enrichment chain that no longer shrinks w by 10% (gamma = 0.9) per
    m + 1 gradients ends in a null step.  A single slow step does not count:
    long model-building chains whose w falls in bursts keep going.  With at
    most `window` entries the loop is still young and this is False.
    """
    if len(w_history) <= window:
        return False
    return w_history[-1] > gamma * w_history[-1 - window]


def select_indices(lam: np.ndarray, theta: float, forced: tuple[int, ...] = ()) -> list[int]:
    """Positions of the largest multipliers with cumulative weight up to theta.

    Weights are normalized by the total of `lam`, so theta=1 keeps every
    position and theta=0 keeps none.  `forced` positions are always included.
    Ties sort by lowest position.
    """
    lam = np.asarray(lam, dtype=float)
    total = float(lam.sum())
    keep: set[int] = set(int(j) for j in forced)
    if total > 0.0:
        # Python floats order and add as the array's entries do, at a
        # fraction of the cost; a stable sort keeps ties in position order
        vals = lam.tolist()
        order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
        cum = 0.0
        slack = 1e-12 * max(1.0, total)
        for j in order:
            cum += vals[j]
            if cum <= theta * total + slack:
                keep.add(j)
            else:
                break
    return sorted(keep)


def aggregate(lam: np.ndarray, rows: np.ndarray) -> AggregateAtom:
    """Convex combination sum_j lam_j [g_j, e_j] of the rows, with e_tilde clamped at 0.

    The sum runs row by row in order, the prior aggregate (last row, when
    present) last; `lam @ rows` rounds differently.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.size != len(rows):
        raise ValueError(f"lambda length {lam.size} does not match {len(rows)} rows")
    row = (lam[:, None] * rows).sum(axis=0)
    return AggregateAtom(g_tilde=row[:-1], e_tilde=max(row[-1], 0.0))


def _solve_model(rows: np.ndarray, scale: float, warm: np.ndarray | None,
                 where: str) -> SimplexQpSolution:
    """The dual subproblem over the rows [g_j, e_j]; QpFailureError if a row
    overflowed or the QP stalls."""
    try:
        inst = SimplexQpInstance(np.ascontiguousarray(rows[:, :-1]), rows[:, -1], scale)
    except ValueError as exc:
        # the rows hold finite gradients and errors >= 0, so only an overflow
        # gets here: of a linearization error, or of the aggregate's sum
        cause = "a linearization error overflows" if math.isinf(rows[:, -1].max()) else exc
        raise QpFailureError(f"{where}: {cause}") from None
    sol = solve_simplex_qp(inst, warm_start=warm)
    if not sol.converged:
        raise QpFailureError(f"{where} stalled (residual {sol.kkt_residual:.3e})")
    return sol


# ---------------------------------------------------------------------------
# the full solver
# ---------------------------------------------------------------------------


def run(
    oracle: ObjectiveOracle,
    config: SolverConfig,
    x0: np.ndarray | None = None,
    grad_mode: GradientMode | None = None,
    stop_callback: Optional[Callable[[IterationTrace], bool]] = None,
) -> RunResult:
    """Minimize the oracle's objective from x0.

    Stops when the stationarity measure v falls to `_EPS_TOL`, the outer
    budget runs out, the sampling radius drops below `_MIN_RADIUS`, or
    `stop_callback` (called with every emitted trace record) returns True.
    Every gradient evaluation is counted in the trace.

    An inner improvement loop ends on a serious step or on a null step.  The
    null step comes when the new linearization fails `improvement_criterion`
    or when `model_stalled` finds that w fell by less than the factor gamma
    over the last m + 1 enrichments.  A serious step taken from the initial
    model (inner index 0) is stretched by `extrapolate`.  A cap of
    `_INNER_LIMIT_FACTOR` * (m + 1) enrichments per outer iteration only
    guards against a hang (stop reason "inner_limit").
    """
    mode = grad_mode or GradientMode.exact()
    strict = mode.strict
    checks = config.differentiability_checks
    x = np.array(x0 if x0 is not None else oracle.x0, dtype=float)
    if x.size != oracle.dimension or not np.all(np.isfinite(x)):
        raise ValueError("x0 must be a finite vector of the oracle's dimension")
    n = oracle.dimension
    m = config.resolve_m(n)
    rng = np.random.default_rng(config.seed)
    eps = float(config.eps0)
    g_evals = 0
    trace: list[IterationTrace] = []
    inner_cap = _INNER_LIMIT_FACTOR * (m + 1)
    stop_reason: str | None = None
    # enrichment i writes its model into buffers[i % 2] and takes the kept
    # rows from the previous model, which lives in the other buffer; a first
    # model has at most m + 3 rows, and a longer one gets a larger buffer
    buffers = [np.empty((2 * m + 6, n + 1)) for _ in range(2)]

    def emit(k, i, f_val, step, kind, diag=None) -> bool:
        rec = IterationTrace(
            k=k, i=i, f_val=f_val, v=step.v, w=step.w, radius=eps,
            kind=kind, grad_evals_cum=g_evals, diag=diag,
        )
        trace.append(rec)
        return bool(stop_callback(rec)) if stop_callback is not None else False

    def make_diag(step, agg, f_xk_val, grad_xk, **extra):
        if not config.collect_diagnostics:
            return None
        return StepDiagnostics(
            x_k=x.copy(), f_xk=f_xk_val, g_tilde=agg.g_tilde.copy(),
            e_tilde=agg.e_tilde, d=step.direction.copy(), z=step.z,
            eps_alpha=eps ** config.alpha, grad_xk=grad_xk.copy(), **extra,
        )

    f_x = oracle.f(x)
    k = 0
    while stop_reason is None:
        if k >= config.max_outer:
            stop_reason = "budget"
            break
        if eps < _MIN_RADIUS:
            stop_reason = "radius_floor"
            break
        try:
            scale = eps ** (-config.alpha)
        except OverflowError:
            raise QpFailureError(f"eps^-alpha overflows at k={k}, eps={eps:.3e}") from None

        # rows [g_j, e_j] of the model and their multipliers; row 0 is x_k's
        rows, spent = build_initial_model(oracle, x, eps, m, rng, f_xk=f_x, mode=mode)
        g_evals += spent
        grad_xk = rows[0, :-1]
        sol = _solve_model(rows, scale, None, f"initial subproblem at k={k}")
        lam = sol.lam
        # the initial aggregate is the QP's own lam @ G: the row-by-row sum of
        # `aggregate` rounds differently and moves the gradient counts
        agg = AggregateAtom(sol.g_tilde, max(sol.e_tilde, 0.0))
        step = direction_from_dual(sol, eps, config.alpha)
        w_history = [step.w]

        i = 0
        while True:
            if i > inner_cap:
                # guard against a hang; model_stalled ends chains long before
                warnings.warn(
                    f"improvement process exceeded {inner_cap} steps at k={k} "
                    f"(v={step.v:.3e}, w={step.w:.3e}, eps={eps:.3e}); stopping")
                stop_reason = "inner_limit"
                break
            if step.v <= _EPS_TOL:
                emit(k, i, f_x, step, StepKind.CONVERGED,
                     make_diag(step, agg, f_x, grad_xk))
                stop_reason = "converged"
                break

            trial = x + step.direction
            f_trial = oracle.f(trial)
            if sufficient_decrease(f_x, f_trial, step.z, config.beta):
                # serious step: radius unchanged
                t = 1.0
                if i == 0:
                    # the initial model's step length was never tested
                    # against f: stretch it while f keeps falling
                    t, f_trial = extrapolate(oracle, x, step.direction, f_x,
                                             f_trial, step.z, config.beta)
                    if t > 1.0:
                        trial = x + t * step.direction
                if checks:
                    x_next, f_next = fdp_perturb(oracle, x, f_x, t * step.direction, f_trial,
                                                 config.beta, t * step.z, "FDP1", rng)
                else:
                    x_next, f_next = trial, f_trial
                diag = make_diag(step, agg, f_x, grad_xk)
                hit = emit(k, i, f_next, step, StepKind.SERIOUS_STEP, diag)
                x, f_x = x_next, f_next
                if hit:
                    stop_reason = "callback"
                break

            # improvement process: new auxiliary point and linearization
            if checks:
                s_new, f_s = fdp_perturb(oracle, x, f_x, step.direction, f_trial,
                                         config.beta, step.z, "FDP2", rng)
            else:
                s_new, f_s = trial, f_trial
            g_new = gradient(oracle, mode, s_new, f_x=f_s)
            g_evals += 1
            e_new = linearization_error(f_x, f_s, g_new, x, s_new, strict)
            f_gap = abs(f_trial - f_x)

            if (model_stalled(w_history, m + 1, config.gamma)
                    or not improvement_criterion(e_new, agg, f_gap, config.gamma)):
                # null step: the model stopped improving or the new cut is
                # useless; shrink the sampling region, keep the iterate
                hit = emit(k, i, f_x, step, StepKind.NULL_STEP,
                           make_diag(step, agg, f_x, grad_xk))
                eps = config.mu * eps
                if hit:
                    stop_reason = "callback"
                break

            # kept rows (row 0 first), the new cut, the prior aggregate; the
            # warm start puts the weight the kept rows do not carry on the last
            keep = select_indices(lam, config.theta, forced=(0,))
            q = len(keep)
            if len(buffers[i % 2]) < q + 2:
                buffers[i % 2] = np.empty((2 * (q + 2), n + 1))
            model = buffers[i % 2][:q + 2]
            rows.take(keep, axis=0, out=model[:q])
            model[q, :-1], model[q, -1] = g_new, e_new
            model[q + 1, :-1], model[q + 1, -1] = agg.g_tilde, agg.e_tilde
            warm = np.zeros(q + 2)
            lam.take(keep, out=warm[:q])
            warm[-1] = max(0.0, 1.0 - warm.sum())
            d_prev, z_prev = step.direction, step.z
            sol = _solve_model(model, scale, warm, f"subproblem at k={k}, i={i}")
            # an enrichment's aggregate is the row-by-row sum: the QP's own
            # lam @ G rounds differently and moves the gradient counts
            agg = aggregate(sol.lam, model)
            step = direction_from_dual(agg, eps, config.alpha)
            w_history.append(step.w)
            rows, lam = model[:-1], sol.lam[:-1]

            diag = None
            if config.collect_diagnostics:
                # per row: a matmul rounds this diagnostic differently
                model_z = max(float(r[:-1] @ step.direction) - r[-1] for r in model)
                diag = make_diag(step, agg, f_x, grad_xk,
                                 new_atom_grad=g_new.copy(), new_atom_err=e_new,
                                 d_prev=d_prev.copy(), z_prev=z_prev,
                                 model_z_max=model_z)
            hit = emit(k, i, f_x, step, StepKind.INNER_ENRICH, diag)
            if hit:
                stop_reason = "callback"
                break
            i += 1

        k += 1

    return RunResult(x=x, f=f_x, trace=trace, stop_reason=stop_reason,
                     outer_iters=k, grad_evals=g_evals)
