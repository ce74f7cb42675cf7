"""Convex quadratic minimization over the probability simplex.

Solves

    min_lam  0.5 * || sum_j lam_j g_j ||^2  +  penalty_scale * sum_j lam_j e_j
    s.t.     lam >= 0,  sum_j lam_j = 1

for a small dense set of atoms g_j with attached nonnegative weights e_j.
The search-direction subproblems of the bundle solver and the minimum-norm
hull point of the gradient-sampling baseline are both instances of this
problem (the latter with all e_j = 0 and unit scale).

Two kernels solve it; instances here are tiny and dense, so no sparse or
large-scale machinery is used.  Both are primal active-set methods on the
simplex and differ only in how the working set W grows.  They share one
pivot (`_pivot`), which solves the equality-constrained subproblem of W
through the bordered KKT matrix

    [[H + delta I, -1], [1', 0]] [y; mu] = [-c; 1],   H = G G',

restricted to the rows and columns of W and the border (built once per
solve by `_bordered_kkt`), one ratio test (`_ratio_step`), one
projected-gradient polish for an active set that round-off stalls
(`_polish`), one stopping rule (`_stop_tol`) and one pivot limit
(`_max_pivots`).

* `solve_simplex_qp` takes any instance, adds one atom per pivot, and
  polishes also when the pivot limit runs out.  Its arithmetic is that of
  assembling each subsystem afresh, bit for bit: with near-duplicate atoms
  the system is near-singular, and round-off decides how the multipliers
  split among them.  The bundle solver needs exactly that split, because
  its multipliers pick the atoms it keeps and warm-start the next solve, and
  its gradient counts move with the last bit of them.
* `min_norm_point` takes only the zero-error, unit-scale hull and prices in
  blocks: every violating atom enters at once.  It needs about half the
  pivots on the baseline's hulls of 2n+1 gradients, and it rounds
  differently.  Only the hull point is unique, and it is all the
  gradient-sampling baseline uses.

The bundle solver builds about 9.4k instances of 3-8 atoms per battery
round, so per-call overhead, not arithmetic, is most of their cost.
`SimplexQpInstance` takes a float64 array of the right rank as it is and
converts anything else, to the same stored bytes.  The finite checks
(`_all_finite`, shared with the oracles in `problems`) raise no numpy
warning, so a finite input whose sum overflows is accepted and inf next to
-inf is refused also under warnings as errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NEG_ERR_TOL = 1e-12
_TOL = 1e-10  # KKT tolerance of both kernels, relative to max(1, |mu|)
_F64 = np.dtype(float)


class QpFailureError(RuntimeError):
    """A subproblem failed: its Gram matrix overflows, or it stalled short of its tolerance."""


def _all_finite(a: np.ndarray) -> bool:
    """True iff every element of the float array `a` is finite; never warns.

    The largest magnitude is finite exactly when every element is, and
    neither `abs` nor `max` can overflow or meet inf - inf, so unlike
    `a.sum()` this raises no numpy warning.  `np.vdot(a, a)` is about 1 us
    faster per call and does not warn today, but only because numpy,
    unlike after `np.dot`, checks no floating-point flags after that call.
    """
    return math.isfinite(np.abs(a).max(initial=0.0))


@dataclass
class SimplexQpInstance:
    """Atoms (one per row), aligned nonnegative weights, and the penalty scale."""

    atoms: np.ndarray
    errors: np.ndarray
    penalty_scale: float

    def __post_init__(self) -> None:
        # float64 arrays of the right rank are taken as they are; anything
        # else goes through the conversion, to the same array
        atoms = self.atoms
        if not (type(atoms) is np.ndarray and atoms.dtype is _F64 and atoms.ndim == 2):
            atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        errors = self.errors
        if not (type(errors) is np.ndarray and errors.dtype is _F64 and errors.ndim == 1):
            errors = np.asarray(errors, dtype=float).ravel()
        if atoms.shape[0] == 0:
            raise ValueError("instance needs at least one atom")
        if errors.shape[0] != atoms.shape[0]:
            raise ValueError(
                f"errors length {errors.shape[0]} does not match atom count {atoms.shape[0]}"
            )
        if not (_all_finite(atoms) and _all_finite(errors)):
            raise ValueError("non-finite input")
        e_min = float(errors.min())
        if e_min < -_NEG_ERR_TOL:
            raise ValueError(f"negative error {e_min} below -{_NEG_ERR_TOL}")
        # round-off below zero is clamped; the stored errors are always a
        # contiguous copy of the caller's
        errors = np.where(errors < 0.0, 0.0, errors) if e_min < 0.0 else errors.copy()
        if not self.penalty_scale > 0:
            raise ValueError("penalty_scale must be positive")
        if not math.isfinite(self.penalty_scale):
            raise ValueError("penalty_scale must be finite")
        self.atoms = atoms
        self.errors = errors
        self.penalty_scale = float(self.penalty_scale)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dimension(self) -> int:
        return self.atoms.shape[1]

    def to_text(self) -> str:
        """Plain-text dump: a header line, then one `e g_1 ... g_n` line per atom."""
        lines = [f"simplex-qp v1 atoms={self.n_atoms} dim={self.dimension} "
                 f"penalty_scale={self.penalty_scale!r}"]
        for e, g in zip(self.errors, self.atoms):
            lines.append(" ".join([repr(float(e))] + [repr(float(v)) for v in g]))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "SimplexQpInstance":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        header = dict(tok.split("=") for tok in lines[0].split()[2:])
        rows = [[float(v) for v in ln.split()] for ln in lines[1:]]
        data = np.asarray(rows)
        return SimplexQpInstance(data[:, 1:], data[:, 0], float(header["penalty_scale"]))


@dataclass
class SimplexQpSolution:
    lam: np.ndarray
    g_tilde: np.ndarray
    e_tilde: float
    w: float
    kkt_residual: float
    iterations: int
    converged: bool


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.clip(v - theta, 0.0, None)


def _projected_gradient(H: np.ndarray, c: np.ndarray, lam0: np.ndarray,
                        stop_tol: float, max_iter: int = 20000) -> tuple[np.ndarray, int]:
    # FISTA with simplex projection; polish path when the active set stalls.
    # The step is 1 / ||H||_F.  That norm overflows while H is finite once
    # entries pass about 1e154; H scaled by its largest (diagonal) entry has
    # a norm of at most p.
    with np.errstate(over="ignore"):
        lip = float(np.linalg.norm(H, ord="fro"))
    if not math.isfinite(lip):
        h_max = float(H.diagonal().max())
        lip = h_max * float(np.linalg.norm(H / h_max, ord="fro"))
    lip = max(lip, 1e-12)
    x = lam0.copy()
    y = lam0.copy()
    t = 1.0
    for it in range(1, max_iter + 1):
        x_new = _project_simplex(y - (H @ y + c) / lip)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + (t - 1.0) / t_new * (x_new - x)
        x, t = x_new, t_new
        if it % 50 == 0:
            grad = H @ x + c
            if float(x @ grad) - float(grad.min()) <= stop_tol:
                return x, it
    return x, max_iter


def _stop_tol(mu: float) -> float:
    """The KKT gap mu - min_j grad_j accepted at the multiplier mu, by both kernels."""
    return _TOL * max(1.0, abs(mu))


def _max_pivots(p: int) -> int:
    """Pivot limit of both kernels on p atoms."""
    return max(20, 10 * p * p)


def _bordered_kkt(G: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H = G G', and the bordered matrix and right-hand side of every pivot.

    The equality-constrained subproblem on a working set W is

        (H + delta I) y - mu 1 = -c,  1' y = 1,

    so the full (p+1) x (p+1) system is [[H + delta I, -1], [1', 0]] with
    right-hand side [-c; 1], and a pivot solves its rows and columns of W
    plus the border (index p).  Raises QpFailureError when G G' overflows
    (atoms of norm past about 1.3e154).
    """
    p = G.shape[0]
    H = G @ G.T
    # the largest diagonal entry bounds every entry of H, so a finite one
    # proves H finite; LAPACK must not see an overflowed H
    h_max = float(H.diagonal().max())
    if not math.isfinite(h_max):
        raise QpFailureError(f"Gram matrix overflows (largest squared atom norm {h_max})")
    delta = 1e-14 * max(1.0, h_max)
    kkt = np.empty((p + 1, p + 1))
    kkt[:p, :p] = H
    kkt.reshape(-1)[:p * (p + 2):p + 2] += delta  # diagonal of the H block
    kkt[:p, p] = -1.0
    kkt[p, :p] = 1.0
    kkt[p, p] = 0.0
    rhs = np.empty(p + 1)
    np.negative(c, out=rhs[:p])
    rhs[p] = 1.0
    return H, kkt, rhs


def _pivot(kkt: np.ndarray, rhs: np.ndarray,
           member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The working set W and the equality-constrained weights y on it.

    `member` marks W plus the border (index p, always set), so the rows and
    columns it selects from `_bordered_kkt`'s system are those of the
    pivot.  A singular or non-finite solve, which no finite instance has
    been seen to reach, is replaced by the least-squares solution.
    """
    rows = member.nonzero()[0]
    k = rows.size - 1
    sub = kkt.take(rows, axis=0).take(rows, axis=1)
    sub_rhs = rhs.take(rows)
    try:
        y = np.linalg.solve(sub, sub_rhs)
    except np.linalg.LinAlgError:
        y = np.linalg.lstsq(sub, sub_rhs, rcond=None)[0]
    if not _all_finite(y):
        y = np.linalg.lstsq(sub, sub_rhs, rcond=None)[0]
    return rows[:k], y[:k]


def _ratio_step(lam: np.ndarray, idx: np.ndarray, y: np.ndarray, active: np.ndarray) -> None:
    """Move `lam` on W = `idx` toward `y` until one weight hits zero, and drop that atom.

    Some entry of y is negative.  `lam` is zero off W and is updated in place.
    """
    cur = lam[idx]
    ratios = np.full(idx.size, np.inf)
    np.divide(cur, cur - y, out=ratios, where=y < 0.0)
    b = int(ratios.argmin())
    cur += ratios[b] * (y - cur)
    cur[b] = 0.0
    lam[idx] = np.maximum(cur, 0.0)
    active[idx[b]] = False


def _polish(H: np.ndarray, c: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Projected gradient from `lam` unless it already meets the stopping rule.

    Returns the weights, the polish's iterations and whether they meet the rule.
    """
    grad = H @ lam + c
    mu = float(lam @ grad)
    stop = _stop_tol(mu)
    iters = 0
    if mu - float(grad.min()) > stop:
        lam, iters = _projected_gradient(H, c, lam, stop)
        grad = H @ lam + c
        mu = float(lam @ grad)
    return lam, iters, mu - float(grad.min()) <= _stop_tol(mu)


def _solution(lam: np.ndarray, G: np.ndarray, H: np.ndarray, e: np.ndarray, c: np.ndarray,
              penalty_scale: float, iterations: int, converged: bool) -> SimplexQpSolution:
    """The solution record of the weights `lam`, renormalized onto the simplex."""
    lam = np.maximum(lam, 0.0)
    lam /= lam.sum()
    g_tilde = lam @ G
    e_tilde = float(lam @ e)
    w = 0.5 * float(g_tilde @ g_tilde) + penalty_scale * e_tilde
    grad = H @ lam + c
    mu = float(lam @ grad)
    residual = max(0.0, mu - float(grad.min()))
    support = lam > _TOL
    if support.any():
        residual = max(residual, float(np.abs(grad[support] - mu).max()))
    return SimplexQpSolution(
        lam=lam,
        g_tilde=g_tilde,
        e_tilde=e_tilde,
        w=w,
        kkt_residual=residual,
        iterations=iterations,
        converged=converged,
    )


def solve_simplex_qp(instance: SimplexQpInstance,
                     warm_start: np.ndarray | None = None) -> SimplexQpSolution:
    """Return the global minimizer over the simplex.

    The KKT gap is accepted below `_TOL * max(1, |mu|)`, scaled by the
    multiplier magnitude for badly scaled data.  `warm_start` is any point
    on the simplex; the result does not depend on it beyond round-off.  One
    of the wrong size, with no positive entry, with an entry that is not
    finite, or whose entries could sum past the largest double is ignored.
    Raises QpFailureError when G G' overflows (atoms of norm past about
    1.3e154) or when a penalty term penalty_scale * e_j does.
    """
    G = instance.atoms
    e = instance.errors
    p = instance.n_atoms
    # a product of Python floats overflows to inf without a numpy warning
    e_max = float(e.max())
    if not math.isfinite(instance.penalty_scale * e_max):
        raise QpFailureError(f"penalty terms overflow (penalty_scale {instance.penalty_scale}, "
                             f"largest error {e_max})")
    c = instance.penalty_scale * e
    H, kkt, rhs = _bordered_kkt(G, c)
    max_pivots = _max_pivots(p)

    # each pivot takes the rows and columns of W plus the border (index p),
    # kept as the last entry of `member`
    member = np.zeros(p + 1, dtype=bool)
    member[p] = True
    active = member[:p]

    lam = None
    if warm_start is not None:
        if not (type(warm_start) is np.ndarray and warm_start.dtype is _F64
                and warm_start.ndim == 1):
            warm_start = np.asarray(warm_start, dtype=float).ravel()
        ws = np.maximum(warm_start, 0.0)
        # p entries of at most max(ws) sum to below 2 p max(ws), so the sum
        # cannot overflow when that bound is finite; inf and NaN fail it
        if ws.size == p and math.isfinite(2.0 * p * float(ws.max())):
            s = ws.sum()
            if s > 0:
                lam = ws / s
    if lam is None:
        j0 = int(np.argmin(0.5 * H.diagonal() + c))
        lam = np.zeros(p)
        lam[j0] = 1.0
    np.greater(lam, 0.0, out=active)

    iterations = 0
    converged = False
    while iterations < max_pivots:
        iterations += 1
        idx, y = _pivot(kkt, rhs, member)
        if y.min() >= -1e-12:
            lam = np.zeros(p)
            lam[idx] = np.maximum(y, 0.0)
            grad = H @ lam + c
            mu = float(lam @ grad)
            j = int(grad.argmin())
            if mu - float(grad[j]) <= _stop_tol(mu):
                converged = True
                break
            if active[j]:
                break  # numerical stall; polish below
            active[j] = True
        else:
            _ratio_step(lam, idx, y, active)

    if not converged:
        lam, pg_iters, converged = _polish(H, c, lam)
        iterations += pg_iters

    return _solution(lam, G, H, e, c, instance.penalty_scale, iterations, converged)


def min_norm_point(G: np.ndarray) -> SimplexQpSolution:
    """Minimum-norm point of the convex hull of the rows of G (Wolfe's nearest-point problem).

    The simplex QP with all errors zero and unit scale, solved by an active
    set with block pricing: every atom below the KKT threshold
    `mu - _stop_tol(mu)` enters the working set at once, and every
    zero-weight member whose equality-constrained weight is negative leaves
    at once (a zero step); otherwise the ratio test drops one atom.  When
    the same block of atoms is about to enter twice in a row, only the most
    violating one enters; one entering atom always gets positive weight
    (Wolfe 1976), so the method is finite.  Pivots, ratio test, stopping
    rule and pivot limit are those of `solve_simplex_qp`.  When round-off
    stalls the active set (only members violate), the point is polished by
    projected gradient, as there.

    The hull point `g_tilde` is unique; the weights `lam` are not, and they
    round differently from `solve_simplex_qp`'s.  `converged` is False when
    the pivot limit runs out or the polish falls short of the tolerance.
    Raises QpFailureError when G G' overflows.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    p = G.shape[0]
    zeros = np.zeros(p)
    # The regularization and the stopping rule are absolute below unit scale,
    # where they would stop a hull of short atoms far from its nearest point.
    # A hull whose atoms are all shorter than 1 is solved scaled by the power
    # of two (exact) that brings its largest entry into [1, 2); every other
    # hull is solved as given.  (An entry of 1 or more rules the first case
    # out before G * G can overflow.)
    shift = 0
    a_max = float(np.abs(G).max())
    if a_max < 1.0 and (G * G).sum(axis=1).max() < 1.0:
        shift = 1 - math.frexp(a_max)[1]
        G = np.ldexp(G, shift)
    H, kkt, rhs = _bordered_kkt(G, zeros)
    max_pivots = _max_pivots(p)
    member = np.zeros(p + 1, dtype=bool)
    member[p] = True
    active = member[:p]
    lam = np.zeros(p)
    j0 = int(H.diagonal().argmin())
    lam[j0] = 1.0
    active[j0] = True

    entered = None
    iterations = 0
    converged = False
    while iterations < max_pivots:
        iterations += 1
        idx, y = _pivot(kkt, rhs, member)
        if y.min() >= -1e-12:
            lam[:] = 0.0
            lam[idx] = np.maximum(y, 0.0)
            grad = H @ lam
            mu = float(lam @ grad)
            stop = _stop_tol(mu)
            if mu - float(grad.min()) <= stop:
                converged = True
                break
            block = np.flatnonzero((grad < mu - stop) & ~active)
            if block.size == 0:  # numerical stall: only members violate
                lam, pg_iters, converged = _polish(H, zeros, lam)
                iterations += pg_iters
                break
            if entered is not None and np.array_equal(block, entered):
                block = block[[int(grad[block].argmin())]]
            active[block] = True
            entered = block
            continue
        leave = (y < 0.0) & (lam[idx] == 0.0)
        if leave.any():
            active[idx[leave]] = False
        else:
            _ratio_step(lam, idx, y, active)

    sol = _solution(lam, G, H, zeros, zeros, 1.0, iterations, converged)
    if shift:
        sol.g_tilde = np.ldexp(sol.g_tilde, -shift)
        sol.w = math.ldexp(sol.w, -2 * shift)
        sol.kkt_residual = math.ldexp(sol.kkt_residual, -2 * shift)
    return sol
