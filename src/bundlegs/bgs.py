"""Bundle solver whose polyhedral model is built by gradient sampling.

Each outer iteration samples m points from the ball B(x_k, eps_k), builds the
polyhedral model from the gradients there (plus the gradient at x_k itself),
and solves the dual search-direction subproblem over the simplex
(`start_model`).  If the resulting direction fails the sufficient-decrease
test, an inner chain (`inner_chain`, which says how a chain ends) either
enriches the model one linearization at a time, compressing the old
constraints into a single aggregated pair via the dual multipliers, or gives
up and shrinks the sampling radius (a null step).  No point's gradient is
evaluated twice.

Every cut is one row [g_j | e_j]: a gradient and its linearization error at
x_k.  The model is an array of such rows, and the aggregate and the new cut
of an enrichment are rows of the same form.  Row 0 holds the gradient at x_k
itself (error 0) and stays first; a null step leaves x_k where it is, so the
next model takes row 0 as it was.  The m sampled points get their values and
gradients from one `problems.sample_rows` call in either gradient mode, and
their errors are taken at once (see `build_initial_model`).  An enrichment
keeps the rows whose multipliers carry the weight theta (`select_indices`),
stacks the new cut and the aggregate below them in a new array, and solves
that stack.  The initial model's aggregate is the QP's own lam @ G; an
enrichment's is the row-by-row sum of `aggregate`.  Near-duplicate rows make
round-off decide how lam splits among them, so each aggregate keeps its own
summation order: either order used for both moves the gradient counts.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .problems import (EvaluationError, GradientMode, ObjectiveOracle, gradient,
                       require_integers, sample_rows)
from .qp import QpFailureError, SimplexQpInstance, SimplexQpSolution, solve_simplex_qp
from .sampling import sample_ball

# enrichments per outer iteration, in units of m + 1, before `inner_chain`
# stops the run on "inner_limit": a guard against a hang, far above where
# `model_stalled` ends a chain
_INNER_LIMIT_FACTOR = 500

# `run` stops on "converged" once v <= _EPS_TOL and on "radius_floor" once the
# radius is below _MIN_RADIUS; `fdp_perturb` stays within _FDP_SIGMA of x + d
_EPS_TOL = 1e-16
_MIN_RADIUS = 1e-12
_FDP_SIGMA = 1e-8
# trials of `fdp_perturb`, x + d then draws at halving radii, before it gives up
_FDP_MAX_TRIALS = 64

# the paper's step parameters, at its practical values
_MU = 0.5  # radius factor on a null step
_ALPHA = 0.5  # penalty exponent: the direction is -eps^alpha * g_tilde
_BETA = 1e-6  # sufficient-decrease fraction of z
_GAMMA = 0.9  # error ratio of `improvement_criterion`, w ratio of `model_stalled`
_THETA = 0.9  # multiplier weight kept by `select_indices` on an enrichment


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

    eps0 is the initial sampling radius.  When `m` is None it resolves to 2n
    for n <= 20 and ceil(n/10) otherwise.  The step parameters `_MU`,
    `_ALPHA`, `_BETA`, `_GAMMA`, `_THETA` and the tolerances `_EPS_TOL`,
    `_MIN_RADIUS` and `_FDP_SIGMA` are fixed.  FDP is no option: an oracle
    without `smooth_at` is never moved by it.
    """

    eps0: float = 1.0
    m: Optional[int] = None
    seed: int = 0
    max_outer: int = 1000

    def __post_init__(self) -> None:
        require_integers(m=self.m, seed=self.seed, max_outer=self.max_outer)
        if not 0.0 < self.eps0 < math.inf:
            raise ValueError("eps0 must be positive and finite")
        if self.m is not None and self.m < 0:
            raise ValueError("m must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")

    def resolve_m(self, n: int) -> int:
        if self.m is not None:
            return int(self.m)
        return 2 * n if n <= 20 else math.ceil(n / 10)


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


@dataclass
class RunResult:
    x: np.ndarray
    f: float
    trace: list
    stop_reason: str
    outer_iters: int
    grad_evals: int
    fdp_give_ups: int = 0  # cuts that `fdp_perturb` left on a kink; GS takes none


@dataclass
class Model:
    """A chain's model at x_k: rows [g_j | e_j] (row 0 x_k's gradient, error
    0), their multipliers, the aggregate row [g_tilde | e_tilde] and its step."""

    rows: np.ndarray
    lam: np.ndarray
    agg: np.ndarray
    step: StepOutcome


@dataclass
class ChainEnd:
    """How `inner_chain` ended, and the iterate and the counts it leaves."""

    kind: StepKind  # of the chain's last record
    stop: Optional[str]  # the stop reason it gives `run`, None to go on
    x: np.ndarray
    f_x: float
    grad_evals: int  # the run's
    fdp_give_ups: int  # the chain's
    t: float = 1.0  # a serious step's stretch
    cause: Optional[str] = None  # a null step's: "revisit", "stall" or "criterion"


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
    g_xk: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Rows [g_j, e_j]: row 0 at x_k (error 0) plus m sampled rows, and the gradients spent.

    `f_xk`, f at x_k, is also the base of row 0's forward differences.
    `g_xk`, when given, is the gradient at x_k that the caller already holds
    (`run` keeps it across a null step); row 0 then costs no gradient.  The
    m sampled points are evaluated by one `sample_rows` call, which also
    gives their values, in either gradient mode.  A point whose gradient or
    objective value is not finite is replaced by one fresh draw from the
    ball, the bad points in index order, each evaluated by its own call, and
    a second failure raises EvaluationError.  The m errors are then taken at
    once.  The rows and the draws from `rng` are those of a loop that takes
    the points one at a time, and an error raised is the one that loop
    raises first.  Every evaluated point costs one gradient: m, plus one for
    row 0 unless `g_xk` is given, plus one per replaced point.
    """
    mode = mode or GradientMode.exact()
    x_k = np.asarray(x_k, dtype=float)
    if f_xk is None:
        f_xk = oracle.f(x_k)
    rows = np.zeros((m + 1, x_k.size + 1))
    spent = m
    if g_xk is None:
        g_xk, spent = gradient(oracle, mode, x_k, f_x=f_xk), m + 1
    rows[0, :-1] = g_xk
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
    return rows, spent + len(bad)


def direction_from_dual(agg: np.ndarray, eps_k: float, alpha: float) -> StepOutcome:
    """(d, z, v, w) of the aggregate row [g_tilde | e_tilde], by the duality identities."""
    g, e = agg[:-1], float(agg[-1])
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
        if not (f_next < f_t and sufficient_decrease(f_x, f_next, 2.0 * t * z, beta)):
            break
        t, f_t = 2.0 * t, f_next
    return t, f_t


def fdp_perturb(
    oracle: ObjectiveOracle,
    x: np.ndarray,
    f_x: float,
    d: np.ndarray,
    trial: np.ndarray,
    f_trial: float,
    beta: float,
    z: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, bool]:
    """Differentiable perturbation of a cut's auxiliary point trial = x + d (FDP2).

    The trial point fails `sufficient_decrease`; f_x is f(x), f_trial is
    f(trial).  The trials are the trial point, then x_hat + d for x_hat
    drawn from B(x, sigma_hat), sigma_hat = `_FDP_SIGMA` halved per draw.
    Returns the first that `oracle.differentiable_at` accepts and that still
    fails the test, f there and False, evaluating no point twice; an oracle
    without `smooth_at` gets the trial point back at once.  After
    `_FDP_MAX_TRIALS` trials (the trial point and 63 draws) it gives up and
    returns the trial point, f_trial and True.
    """
    point, f_point = trial, f_trial
    for j in range(_FDP_MAX_TRIALS):
        if j > 0:
            point, f_point = sample_ball(x, _FDP_SIGMA * 0.5 ** (j - 1), 1, rng)[0] + d, None
        if oracle.differentiable_at(point):
            if f_point is None:
                f_point = oracle.f(point)
            if not sufficient_decrease(f_x, f_point, z, beta):
                return point, f_point, False
    return trial, f_trial, True


def improvement_criterion(e_new: float, e_tilde: float, f_gap: float, v: float,
                          gamma: float) -> bool:
    """True iff the new linearization should enrich the model.

    Either its error is small against the aggregated error (e_new <= gamma *
    e_tilde), or the function gap at the trial point is within the model's
    own measure, the stationarity measure v = 0.5*||g_tilde||^2 + e_tilde of
    the current step (|f(x_k+d) - f(x_k)| <= v).  False means a null step:
    shrink the radius and rebuild.

    Near a minimizer the first disjunct can keep holding while each new cut
    lowers w only like 1/i, so `inner_chain` also takes a null step when
    `model_stalled` reports that w no longer falls.
    """
    return e_new <= gamma * e_tilde or f_gap <= v


def model_stalled(w_history: list[float], window: int, gamma: float) -> bool:
    """True iff w fell by less than the factor gamma over the last `window` steps.

    `w_history` holds the dual values w_0, ..., w_i of the current inner
    loop; the test is w_i > gamma * w_{i-window}.  `inner_chain` uses m + 1,
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


def aggregate(lam: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The row [g_tilde | e_tilde] = sum_j lam_j [g_j | e_j], its last entry clamped at 0.

    The sum runs row by row in order, the prior aggregate (last row, when
    present) last; `lam @ rows` rounds differently.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.size != len(rows):
        raise ValueError(f"lambda length {lam.size} does not match {len(rows)} rows")
    row = (lam[:, None] * rows).sum(axis=0)
    row[-1] = max(row[-1], 0.0)
    return row


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


def start_model(oracle: ObjectiveOracle, mode: GradientMode, config: SolverConfig,
                x: np.ndarray, f_x: float, eps: float, g_x: np.ndarray | None,
                rng: np.random.Generator, k: int) -> tuple[Model, int]:
    """Outer iteration k's starting model at x, and the gradients it spent.

    Row 0 is the held gradient `g_x`, evaluated afresh when None, and m rows
    are sampled from B(x, eps) (`build_initial_model`).  The aggregate is the
    QP's own lam @ G."""
    rows, spent = build_initial_model(oracle, x, eps, config.resolve_m(x.size), rng,
                                      f_xk=f_x, mode=mode, g_xk=g_x)
    sol = _solve_model(rows, eps ** -_ALPHA, None, f"initial subproblem at k={k}")
    agg = np.append(sol.g_tilde, max(sol.e_tilde, 0.0))
    return Model(rows, sol.lam, agg, direction_from_dual(agg, eps, _ALPHA)), spent


def _enrich(model: Model, g_new: np.ndarray, e_new: float, eps: float, where: str) -> Model:
    """The model of the kept rows (row 0 first), the new cut and the prior
    aggregate, warm-started with the weight the kept rows do not carry on the
    last.  Its aggregate is `aggregate`'s row-by-row sum."""
    keep = select_indices(model.lam, _THETA, forced=(0,))
    q = len(keep)
    rows = np.empty((q + 2, model.rows.shape[1]))
    model.rows.take(keep, axis=0, out=rows[:q])
    rows[q, :-1], rows[q, -1] = g_new, e_new
    rows[q + 1] = model.agg
    warm = np.zeros(q + 2)
    model.lam.take(keep, out=warm[:q])
    warm[-1] = max(0.0, 1.0 - warm.sum())
    sol = _solve_model(rows, eps ** -_ALPHA, warm, where)
    agg = aggregate(sol.lam, rows)
    return Model(rows[:-1], sol.lam[:-1], agg, direction_from_dual(agg, eps, _ALPHA))


def _report(trace: list, stop_callback, kind: StepKind, k: int, i: int, f_val: float,
            eps: float, step: StepOutcome, g_evals: int) -> Optional[str]:
    """Append the record of `step` at (k, i) to `trace`; "callback" if the
    callback asks to stop."""
    trace.append(IterationTrace(k=k, i=i, f_val=f_val, v=step.v, w=step.w, radius=eps,
                                kind=kind, grad_evals_cum=g_evals))
    return "callback" if stop_callback is not None and stop_callback(trace[-1]) else None


def inner_chain(oracle: ObjectiveOracle, mode: GradientMode, x: np.ndarray, f_x: float,
                eps: float, m: int, model: Model, rng: np.random.Generator, k: int,
                g_evals: int, report: Callable[..., Optional[str]]) -> ChainEnd:
    """Improve `model` at x until a step is taken, and say how it ended.

    Each pass tests the trial point x + d.  The chain converges once v <=
    `_EPS_TOL`.  A serious step passes `sufficient_decrease`; the initial
    model's (i = 0) is stretched by `extrapolate`.  Otherwise the chain
    takes a null step on one of three causes, tested in this order: x + d
    is a trial point the chain has tried (a revisit, before any oracle
    call); `model_stalled` finds that w fell by less than the factor gamma
    over the last m + 1 enrichments (a stall, after f(x + d), before the
    cut's gradient); the new cut fails `improvement_criterion`.  Else the
    cut, its point first moved by `fdp_perturb`, enriches the model.  Every
    record goes to `report` (`_report`), whose "callback" after an
    enrichment stops the chain; so do `_INNER_LIMIT_FACTOR` * (m + 1)
    enrichments, a guard against a hang, on "inner_limit".
    """
    w_history, tried, give_ups = [model.step.w], set(), 0
    for i in range(_INNER_LIMIT_FACTOR * (m + 1) + 1):
        step = model.step
        if step.v <= _EPS_TOL:
            report(StepKind.CONVERGED, k, i, f_x, eps, step, g_evals)
            return ChainEnd(StepKind.CONVERGED, "converged", x, f_x, g_evals, give_ups)
        trial = x + step.direction
        key = trial.tobytes()
        cause = "revisit" if key in tried else None
        if cause is None:
            tried.add(key)
            f_trial = oracle.f(trial)
            f_gap = abs(f_trial - f_x)
            if sufficient_decrease(f_x, f_trial, step.z, _BETA):
                t = 1.0
                if i == 0:
                    # the initial model's step length was never tested
                    # against f: stretch it while f keeps falling
                    t, f_trial = extrapolate(oracle, x, step.direction, f_x, f_trial,
                                             step.z, _BETA)
                    if t > 1.0:
                        trial = x + t * step.direction
                stop = report(StepKind.SERIOUS_STEP, k, i, f_trial, eps, step, g_evals)
                return ChainEnd(StepKind.SERIOUS_STEP, stop, trial, f_trial, g_evals, give_ups, t)
            if model_stalled(w_history, m + 1, _GAMMA):
                cause = "stall"
        if cause is None:
            trial, f_trial, gave_up = fdp_perturb(oracle, x, f_x, step.direction, trial,
                                                  f_trial, _BETA, step.z, rng)
            give_ups += gave_up
            g_new = gradient(oracle, mode, trial, f_x=f_trial)
            g_evals += 1
            e_new = linearization_error(f_x, f_trial, g_new, x, trial, mode.strict)
            if not improvement_criterion(e_new, model.agg[-1], f_gap, step.v, _GAMMA):
                cause = "criterion"
        if cause is not None:
            stop = report(StepKind.NULL_STEP, k, i, f_x, eps, step, g_evals)
            return ChainEnd(StepKind.NULL_STEP, stop, x, f_x, g_evals, give_ups, cause=cause)
        model = _enrich(model, g_new, e_new, eps, f"subproblem at k={k}, i={i}")
        w_history.append(model.step.w)
        if report(StepKind.INNER_ENRICH, k, i, f_x, eps, model.step, g_evals):
            return ChainEnd(StepKind.INNER_ENRICH, "callback", x, f_x, g_evals, give_ups)
    return ChainEnd(StepKind.INNER_ENRICH, "inner_limit", x, f_x, g_evals, give_ups)


def run(
    oracle: ObjectiveOracle,
    config: SolverConfig,
    x0: np.ndarray | None = None,
    grad_mode: GradientMode | None = None,
    stop_callback: Optional[Callable[[IterationTrace], bool]] = None,
) -> RunResult:
    """Minimize the oracle's objective from x0.

    Each outer iteration runs `inner_chain` on a `start_model`: a serious
    step moves x; a null step shrinks the radius by `_MU` and keeps x's
    gradient for the next row 0.  The run stops where a chain stops it, when
    the outer budget runs out or when the radius drops below `_MIN_RADIUS`.
    `stop_callback` sees every trace record and leaves "converged" as it is.
    """
    mode = grad_mode or GradientMode.exact()
    x = np.array(x0 if x0 is not None else oracle.x0, dtype=float)
    if x.shape != (oracle.dimension,) or not np.all(np.isfinite(x)):
        raise ValueError("x0 must be a finite vector of the oracle's dimension")
    m = config.resolve_m(oracle.dimension)
    rng = np.random.default_rng(config.seed)
    eps = float(config.eps0)
    trace: list[IterationTrace] = []
    report = functools.partial(_report, trace, stop_callback)
    f_x, held = oracle.f(x), None  # held: x's gradient, kept by a null step
    g_evals = give_ups = k = 0
    stop_reason: str | None = None
    while stop_reason is None:
        if k >= config.max_outer:
            stop_reason = "budget"
        elif eps < _MIN_RADIUS:
            stop_reason = "radius_floor"
        else:
            model, spent = start_model(oracle, mode, config, x, f_x, eps, held, rng, k)
            end = inner_chain(oracle, mode, x, f_x, eps, m, model, rng, k, g_evals + spent,
                              report)
            x, f_x, g_evals, stop_reason = end.x, end.f_x, end.grad_evals, end.stop
            give_ups += end.fdp_give_ups
            held = model.rows[0, :-1] if end.kind is StepKind.NULL_STEP else None
            eps = eps if held is None else _MU * eps
            k += 1
    return RunResult(x=x, f=f_x, trace=trace, stop_reason=stop_reason,
                     outer_iters=k, grad_evals=g_evals, fdp_give_ups=give_ups)
