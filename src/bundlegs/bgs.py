"""Bundle solver whose polyhedral model is built by gradient sampling.

Each outer iteration samples m points from the ball B(x_k, eps_k), builds the
polyhedral model from the gradients there (plus the gradient at x_k itself),
and solves the dual search-direction subproblem over the simplex.  If the
resulting direction fails the sufficient-decrease test, an inner improvement
process either enriches the model one linearization at a time, compressing
the old constraints into a single aggregated pair via the dual multipliers,
or gives up and shrinks the sampling radius (a null step).

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

The improvement process gives up, with a null step, on one of three causes,
in this order: the trial point x_k + d is one the chain has tried already
(a revisit, which costs no oracle call); the model has stopped paying for
its enrichments, the dual value w having fallen by less than the factor
gamma over the last m + 1 of them (a stall, see `model_stalled`, which
costs no cut); or the new linearization fails the improvement criterion.
No point's gradient is evaluated twice.  A serious step found by the
initial sampled model is stretched by doubling while f keeps falling (see
`extrapolate`); a step found after enrichment is taken as it is.  Each new
cut's point is first moved by FDP to a differentiable point nearby (see
`fdp_perturb`), wherever the oracle has `smooth_at`.  The step, its stretch
and FDP are all judged by `sufficient_decrease`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .problems import (EvaluationError, GradientMode, ObjectiveOracle, gradient,
                       require_integers, sample_rows)
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
    for n <= 20 and ceil(n/10) otherwise.  `collect_diagnostics` turns on
    the per-record audits.  The step parameters `_MU`, `_ALPHA`, `_BETA`,
    `_GAMMA`, `_THETA` and the tolerances `_EPS_TOL`, `_MIN_RADIUS` and
    `_FDP_SIGMA` are fixed.  FDP is no option: an oracle without
    `smooth_at` is never moved by it.
    """

    eps0: float = 1.0
    m: Optional[int] = None
    seed: int = 0
    max_outer: int = 1000
    collect_diagnostics: bool = False

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
    fdp_give_ups: int = 0  # cuts that `fdp_perturb` left on a kink; GS takes none


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
    lowers w only like 1/i, so `run` also takes a null step when
    `model_stalled` reports that w no longer falls.
    """
    return e_new <= gamma * e_tilde or f_gap <= v


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
    Every gradient the oracle computes is counted in the trace, and none is
    computed twice at one point: a null step keeps x_k's gradient for the
    next model's row 0.

    An inner improvement loop ends on a serious step or on a null step.  The
    null step has three causes, tested in this order: the trial point x_k + d
    repeats one of the chain's earlier trial points (tested before any oracle
    call); `model_stalled` finds that w fell by less than the factor gamma
    over the last m + 1 enrichments (tested after f(x_k + d) rules out a
    serious step, before the cut's gradient); the new linearization fails
    `improvement_criterion`.  Each cut's point is moved by `fdp_perturb`
    before its gradient is taken, and the cuts it gives up on are counted in
    `fdp_give_ups`.  A serious step taken from the initial model (inner
    index 0) is stretched by `extrapolate`.  A cap of
    `_INNER_LIMIT_FACTOR` * (m + 1) enrichments per outer iteration only
    guards against a hang.  It is reported by the stop reason "inner_limit"
    alone, with no warning; the last record holds v, w and the radius.  A
    callback that returns True on the converged record leaves "converged".
    """
    mode = grad_mode or GradientMode.exact()
    x = np.array(x0 if x0 is not None else oracle.x0, dtype=float)
    if x.shape != (oracle.dimension,) or not np.all(np.isfinite(x)):
        raise ValueError("x0 must be a finite vector of the oracle's dimension")
    n = oracle.dimension
    m = config.resolve_m(n)
    rng = np.random.default_rng(config.seed)
    eps = float(config.eps0)
    g_evals = give_ups = 0
    trace: list[IterationTrace] = []
    inner_cap = _INNER_LIMIT_FACTOR * (m + 1)
    stop_reason: str | None = None

    def emit(kind, f_val) -> None:
        # reads k, i, x, f_x, agg, step, grad_xk and eps before any of them
        # moves; a callback stop never overrides a recorded convergence
        nonlocal stop_reason
        diag = None
        if config.collect_diagnostics:
            diag = StepDiagnostics(
                x_k=x.copy(), f_xk=f_x, g_tilde=agg[:-1].copy(),
                e_tilde=agg[-1], d=step.direction.copy(), z=step.z,
                eps_alpha=eps ** _ALPHA, grad_xk=grad_xk.copy(),
            )
            if kind is StepKind.INNER_ENRICH:
                diag.new_atom_grad, diag.new_atom_err = g_new.copy(), e_new
                diag.d_prev, diag.z_prev = prior.direction.copy(), prior.z
                # per row: a matmul rounds this diagnostic differently
                diag.model_z_max = max(float(r[:-1] @ step.direction) - r[-1] for r in model)
        rec = IterationTrace(k=k, i=i, f_val=f_val, v=step.v, w=step.w, radius=eps,
                             kind=kind, grad_evals_cum=g_evals, diag=diag)
        trace.append(rec)
        if stop_callback is not None and stop_callback(rec) and stop_reason is None:
            stop_reason = "callback"

    # g_x: the gradient at x that a null step hands to the next model's row 0
    f_x, g_x = oracle.f(x), None
    k = 0
    while stop_reason is None:
        if k >= config.max_outer:
            stop_reason = "budget"
            break
        if eps < _MIN_RADIUS:
            stop_reason = "radius_floor"
            break
        # eps >= _MIN_RADIUS here, so eps^-alpha is at most 1e6
        scale = eps ** -_ALPHA

        # rows [g_j, e_j] of the model and their multipliers; row 0 is x_k's
        rows, spent = build_initial_model(oracle, x, eps, m, rng, f_xk=f_x, mode=mode,
                                          g_xk=g_x)
        g_evals += spent
        grad_xk, g_x = rows[0, :-1], None
        sol = _solve_model(rows, scale, None, f"initial subproblem at k={k}")
        lam = sol.lam
        # the initial aggregate row is the QP's own lam @ G: the row-by-row
        # sum of `aggregate` rounds differently and moves the gradient counts
        agg = np.append(sol.g_tilde, max(sol.e_tilde, 0.0))
        step = direction_from_dual(agg, eps, _ALPHA)
        w_history = [step.w]
        tried = set()  # the bytes of this chain's trial points x_k + d

        # model_stalled ends chains long before the guard inner_cap does
        for i in range(inner_cap + 1):
            if step.v <= _EPS_TOL:
                stop_reason = "converged"
                emit(StepKind.CONVERGED, f_x)
                break

            # a null step ends the chain at a trial point it has tried
            # already, at no oracle call; on a stalled model, at no gradient;
            # else when the new cut fails the improvement criterion
            trial = x + step.direction
            key = trial.tobytes()
            null = key in tried
            if not null:
                tried.add(key)
                f_trial = oracle.f(trial)
                f_gap = abs(f_trial - f_x)
                if sufficient_decrease(f_x, f_trial, step.z, _BETA):
                    if i == 0:
                        # the initial model's step length was never tested
                        # against f: stretch it while f keeps falling
                        t, f_trial = extrapolate(oracle, x, step.direction, f_x,
                                                 f_trial, step.z, _BETA)
                        if t > 1.0:
                            trial = x + t * step.direction
                    # serious step: radius unchanged
                    emit(StepKind.SERIOUS_STEP, f_trial)
                    x, f_x = trial, f_trial
                    break
                null = model_stalled(w_history, m + 1, _GAMMA)
            if not null:
                # improvement process: new auxiliary point, moved by FDP,
                # and its linearization
                trial, f_trial, gave_up = fdp_perturb(oracle, x, f_x, step.direction, trial,
                                                      f_trial, _BETA, step.z, rng)
                give_ups += gave_up
                g_new = gradient(oracle, mode, trial, f_x=f_trial)
                g_evals += 1
                e_new = linearization_error(f_x, f_trial, g_new, x, trial, mode.strict)
                null = not improvement_criterion(e_new, agg[-1], f_gap, step.v, _GAMMA)
            if null:
                # shrink the sampling region, keep the iterate and its gradient
                emit(StepKind.NULL_STEP, f_x)
                eps, g_x = _MU * eps, grad_xk
                break

            # kept rows (row 0 first), the new cut, the prior aggregate; the
            # warm start puts the weight the kept rows do not carry on the last
            keep = select_indices(lam, _THETA, forced=(0,))
            q = len(keep)
            model = np.empty((q + 2, n + 1))
            rows.take(keep, axis=0, out=model[:q])
            model[q, :-1], model[q, -1] = g_new, e_new
            model[q + 1] = agg
            warm = np.zeros(q + 2)
            lam.take(keep, out=warm[:q])
            warm[-1] = max(0.0, 1.0 - warm.sum())
            prior = step
            sol = _solve_model(model, scale, warm, f"subproblem at k={k}, i={i}")
            # an enrichment's aggregate is the row-by-row sum: the QP's own
            # lam @ G rounds differently and moves the gradient counts
            agg = aggregate(sol.lam, model)
            step = direction_from_dual(agg, eps, _ALPHA)
            w_history.append(step.w)
            rows, lam = model[:-1], sol.lam[:-1]
            emit(StepKind.INNER_ENRICH, f_x)
            if stop_reason is not None:
                break
        else:
            stop_reason = "inner_limit"

        k += 1

    return RunResult(x=x, f=f_x, trace=trace, stop_reason=stop_reason,
                     outer_iters=k, grad_evals=g_evals, fdp_give_ups=give_ups)
