"""Shared test utilities: independent brute-force oracles and tiny fixtures."""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from bundlegs.bgs import ConvexityError
from bundlegs.problems import (EvaluationError, GradientMode, ObjectiveOracle, gradient,
                               make_problem)
from bundlegs.qp import SimplexQpInstance, SimplexQpSolution


@lru_cache(maxsize=None)
def simplex_grid(parts: int, steps: int) -> np.ndarray:
    """All weight vectors with entries k_i/steps on the simplex, shape (N, parts)."""
    if parts == 1:
        k = np.array([[steps]])
    elif parts == 2:
        a = np.arange(steps + 1)
        k = np.stack([a, steps - a], axis=1)
    elif parts == 3:
        a, b = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        m = a + b <= steps
        k = np.stack([a[m], b[m], steps - a[m] - b[m]], axis=1)
    elif parts == 4:
        a, b, c = np.meshgrid(*(np.arange(steps + 1),) * 3, indexing="ij")
        m = a + b + c <= steps
        k = np.stack([a[m], b[m], c[m], steps - a[m] - b[m] - c[m]], axis=1)
    else:
        raise ValueError("grids with more than 4 parts are not supported")
    return k.astype(float) / steps


def _objective(lam2d: np.ndarray, G: np.ndarray, c: np.ndarray) -> np.ndarray:
    gt = lam2d @ G
    return 0.5 * np.einsum("ij,ij->i", gt, gt) + lam2d @ c


def _refine(G, c, k_best, steps_old, steps_new, radius_units=8):
    # integer grid around k_best rescaled to steps_new, within +-radius_units
    scale = steps_new // steps_old
    center = k_best * scale
    p = center.size
    offs = np.arange(-radius_units, radius_units + 1)
    grids = np.meshgrid(*(offs,) * p, indexing="ij")
    k = np.stack([g.ravel() for g in grids], axis=1) + center
    k = k[(k >= 0).all(axis=1) & (k.sum(axis=1) == steps_new)]
    lam = k.astype(float) / steps_new
    vals = _objective(lam, G, c)
    j = int(np.argmin(vals))
    return float(vals[j]), k[j]


def grid_min_objective(atoms: np.ndarray, errors: np.ndarray, penalty_scale: float,
                       step: float = 1e-3) -> float:
    """Brute-force simplex grid minimum of 0.5*||lam G||^2 + scale * lam.e.

    For up to 3 atoms this is the full Cartesian grid at the requested step.
    For 4 atoms a full grid at step 1e-3 is ~1.7e8 points, so a full coarse
    grid (step 0.02) is refined twice down to the requested resolution; the
    objective is convex, so the minimizer stays within a cell of the coarse
    optimum and the refinement windows cover it with margin.
    """
    G = np.atleast_2d(np.asarray(atoms, float))
    c = penalty_scale * np.asarray(errors, float).ravel()
    p = G.shape[0]
    if p <= 3:
        lam = simplex_grid(p, round(1.0 / step))
        return float(_objective(lam, G, c).min())
    lam = simplex_grid(4, 50)
    vals = _objective(lam, G, c)
    j = int(np.argmin(vals))
    best, k_best = float(vals[j]), np.round(lam[j] * 50).astype(int)
    v1, k1 = _refine(G, c, k_best, 50, 250)
    v2, _ = _refine(G, c, k1, 250, 1000)
    return min(best, v1, v2)


def quadratic_oracle(n: int = 2) -> ObjectiveOracle:
    """Smooth strongly convex f(x) = ||x||^2 with minimum 0 at the origin."""
    return ObjectiveOracle(
        name="sq",
        dimension=n,
        f_star=0.0,
        x0=np.ones(n),
        eval_f=lambda x: float(x @ x),
        eval_grad=lambda x: 2.0 * x,
    )


def abs_oracle() -> ObjectiveOracle:
    """One-dimensional f(x) = |x|."""
    return ObjectiveOracle(
        name="abs1d",
        dimension=1,
        f_star=0.0,
        x0=np.array([1.0]),
        eval_f=lambda x: float(abs(x[0])),
        eval_grad=lambda x: np.array([np.sign(x[0])]),
        smooth_at=lambda x: bool(abs(x[0]) > 1e-12),
    )


def huge_gradient_oracle() -> ObjectiveOracle:
    """f(x) = 1e155 * ||x||_1: finite gradients whose Gram matrix overflows."""
    return ObjectiveOracle(
        name="huge",
        dimension=2,
        f_star=0.0,
        x0=np.ones(2),
        eval_f=lambda x: 1e155 * float(np.abs(x).sum()),
        eval_grad=lambda x: 1e155 * np.sign(x),
    )


def steep_oracle() -> ObjectiveOracle:
    """f(x) = 1e308 * |x_1| + |x_2| from (0.5, 0): finite near x0, with
    linearization errors that overflow."""
    return ObjectiveOracle(
        name="steep",
        dimension=2,
        f_star=0.0,
        x0=np.array([0.5, 0.0]),
        eval_f=lambda x: 1e308 * abs(float(x[0])) + abs(float(x[1])),
        eval_grad=lambda x: np.array([1e308 * np.sign(x[0]), np.sign(x[1])]),
    )


def relative_err(f_val: float, f_star: float) -> float:
    return (f_val - f_star) / (abs(f_star) + 1.0)


# ---------------------------------------------------------------------------
# reference simplex QP kernel
# ---------------------------------------------------------------------------
# A verbatim copy of `bundlegs.qp.solve_simplex_qp` and its helpers as they
# stood when every pivot assembled its bordered KKT matrix afresh.
# `bundlegs.qp` must reproduce it bit for bit: round-off decides how the
# multipliers split among near-duplicate atoms, and that split drives the
# bundle solver's index selection and warm starts.


def _ref_project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.clip(v - theta, 0.0, None)


def _ref_solve_restricted(H: np.ndarray, c: np.ndarray, mask: np.ndarray, delta: float) -> np.ndarray:
    # equality-constrained subproblem on the working set:
    #   (H + delta I) y - mu 1 = -c,  1' y = 1
    idx = np.flatnonzero(mask)
    k = idx.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = H[np.ix_(idx, idx)]
    kkt[:k, :k][np.diag_indices(k)] += delta
    kkt[:k, k] = -1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([-c[idx], [1.0]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    if not np.all(np.isfinite(sol)):
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:k]


def _ref_projected_gradient(H: np.ndarray, c: np.ndarray, lam0: np.ndarray,
                        stop_tol: float, max_iter: int = 20000) -> tuple[np.ndarray, int]:
    # FISTA with simplex projection; polish path when the active set stalls.
    lip = max(float(np.linalg.norm(H, ord="fro")), 1e-12)
    x = lam0.copy()
    y = lam0.copy()
    t = 1.0
    for it in range(1, max_iter + 1):
        x_new = _ref_project_simplex(y - (H @ y + c) / lip)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + (t - 1.0) / t_new * (x_new - x)
        x, t = x_new, t_new
        if it % 50 == 0:
            grad = H @ x + c
            if float(x @ grad) - float(grad.min()) <= stop_tol:
                return x, it
    return x, max_iter


def reference_solve_simplex_qp(
    instance: SimplexQpInstance,
    tol: float = 1e-10,
    warm_start: np.ndarray | None = None,
    max_iter: int | None = None,
    dump_to: str | Path | None = None,
) -> SimplexQpSolution:
    """Return the global minimizer over the simplex.

    `tol` bounds the accepted KKT violation (scaled by the multiplier
    magnitude for badly scaled data).  `warm_start` is any point on the
    simplex; the result does not depend on it beyond round-off.  `dump_to`
    writes the instance in the documented text form before solving.
    """
    if dump_to is not None:
        Path(dump_to).write_text(instance.to_text())
    G = instance.atoms
    e = instance.errors
    p = instance.n_atoms
    c = instance.penalty_scale * e
    H = G @ G.T
    delta = 1e-14 * max(1.0, float(H.diagonal().max()))
    if max_iter is None:
        max_iter = max(20, 10 * p * p)

    lam = None
    if warm_start is not None:
        ws = np.clip(np.asarray(warm_start, dtype=float).ravel(), 0.0, None)
        s = ws.sum()
        if ws.size == p and np.all(np.isfinite(ws)) and s > 0:
            lam = ws / s
    if lam is None:
        j0 = int(np.argmin(0.5 * H.diagonal() + c))
        lam = np.zeros(p)
        lam[j0] = 1.0
    active = lam > 0.0

    stop_tol = lambda mu: tol * max(1.0, abs(mu))  # noqa: E731
    iterations = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        y = _ref_solve_restricted(H, c, active, delta)
        if y.min(initial=0.0) >= -1e-12:
            lam = np.zeros(p)
            lam[active] = np.clip(y, 0.0, None)
            grad = H @ lam + c
            mu = float(lam @ grad)
            j = int(np.argmin(grad))
            if mu - float(grad[j]) <= stop_tol(mu):
                converged = True
                break
            if active[j]:
                break  # numerical stall; polish below
            active[j] = True
        else:
            idx = np.flatnonzero(active)
            cur = lam[idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(y < 0.0, cur / (cur - y), np.inf)
            b = int(np.argmin(ratios))
            step = float(ratios[b])
            cur = cur + step * (y - cur)
            cur[b] = 0.0
            lam[:] = 0.0
            lam[idx] = np.clip(cur, 0.0, None)
            active[idx[b]] = False
            if not active.any():  # degenerate; restart from best vertex
                j0 = int(np.argmin(0.5 * H.diagonal() + c))
                lam[:] = 0.0
                lam[j0] = 1.0
                active[j0] = True

    if not converged:
        grad = H @ lam + c
        mu = float(lam @ grad)
        if mu - float(grad.min()) > stop_tol(mu):
            lam, pg_iters = _ref_projected_gradient(H, c, lam, stop_tol(mu))
            iterations += pg_iters
        grad = H @ lam + c
        mu = float(lam @ grad)
        converged = mu - float(grad.min()) <= stop_tol(mu)

    lam = np.clip(lam, 0.0, None)
    lam /= lam.sum()
    g_tilde = lam @ G
    e_tilde = float(lam @ e)
    w = 0.5 * float(g_tilde @ g_tilde) + instance.penalty_scale * e_tilde
    grad = H @ lam + c
    mu = float(lam @ grad)
    residual = max(0.0, mu - float(grad.min()))
    support = lam > tol
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


# ---------------------------------------------------------------------------
# reference oracle bodies
# ---------------------------------------------------------------------------
# Verbatim copies of the `eval_f` / `eval_grad` bodies of the problems whose
# bodies were rewritten for speed, as they stood before: numpy scalars for
# Rosen, `vstack` + `argmax` for the CB3 pair pieces, `np.linalg.norm` for
# TiltedNorm and PartlySmooth, and MXHILB's Hilbert product taken afresh in
# each body.
# `bundlegs.problems` must reproduce them byte for byte, including the sign
# of zero and argmax's first-index tie rule, because the solvers' counts
# react to the last bit of a gradient.


def _ref_cb3_terms(x: np.ndarray):
    t1 = x[:-1] ** 4 + x[1:] ** 2
    t2 = (2.0 - x[:-1]) ** 2 + (2.0 - x[1:]) ** 2
    t3 = 2.0 * np.exp(x[1:] - x[:-1])
    return t1, t2, t3


def _ref_chained_lq(n):
    def f(x):
        a = -x[:-1] - x[1:]
        b = a + (x[:-1] ** 2 + x[1:] ** 2 - 1.0)
        return float(np.maximum(a, b).sum())

    def g(x):
        out = np.zeros_like(x)
        quad = (x[:-1] ** 2 + x[1:] ** 2 - 1.0) > 0.0
        out[:-1] += -1.0 + np.where(quad, 2.0 * x[:-1], 0.0)
        out[1:] += -1.0 + np.where(quad, 2.0 * x[1:], 0.0)
        return out

    return f, g


def _ref_chained_cb3_1(n):
    def f(x):
        t1, t2, t3 = _ref_cb3_terms(x)
        return float(np.maximum(t1, np.maximum(t2, t3)).sum())

    def g(x):
        t1, t2, t3 = _ref_cb3_terms(x)
        which = np.argmax(np.vstack([t1, t2, t3]), axis=0)
        out = np.zeros_like(x)
        e3 = 2.0 * np.exp(x[1:] - x[:-1])
        gi = np.where(which == 0, 4.0 * x[:-1] ** 3,
                      np.where(which == 1, -2.0 * (2.0 - x[:-1]), -e3))
        gj = np.where(which == 0, 2.0 * x[1:],
                      np.where(which == 1, -2.0 * (2.0 - x[1:]), e3))
        out[:-1] += gi
        out[1:] += gj
        return out

    return f, g


def _ref_chained_cb3_2(n):
    def f(x):
        t1, t2, t3 = _ref_cb3_terms(x)
        return float(max(t1.sum(), t2.sum(), t3.sum()))

    def g(x):
        t1, t2, t3 = _ref_cb3_terms(x)
        which = int(np.argmax([t1.sum(), t2.sum(), t3.sum()]))
        out = np.zeros_like(x)
        if which == 0:
            out[:-1] += 4.0 * x[:-1] ** 3
            out[1:] += 2.0 * x[1:]
        elif which == 1:
            out[:-1] += -2.0 * (2.0 - x[:-1])
            out[1:] += -2.0 * (2.0 - x[1:])
        else:
            e3 = 2.0 * np.exp(x[1:] - x[:-1])
            out[:-1] -= e3
            out[1:] += e3
        return out

    return f, g


def _ref_rosen(n):
    def pieces(x):
        x1, x2, x3, x4 = x
        f1 = x1 ** 2 + x2 ** 2 + 2.0 * x3 ** 2 + x4 ** 2 - 5.0 * x1 - 5.0 * x2 - 21.0 * x3 + 7.0 * x4
        g1 = x1 ** 2 + x2 ** 2 + x3 ** 2 + x4 ** 2 + x1 - x2 + x3 - x4 - 8.0
        g2 = x1 ** 2 + 2.0 * x2 ** 2 + x3 ** 2 + 2.0 * x4 ** 2 - x1 - x4 - 10.0
        g3 = x1 ** 2 + x2 ** 2 + x3 ** 2 + 2.0 * x1 - x2 - x4 - 5.0
        return f1, g1, g2, g3

    def f(x):
        f1, g1, g2, g3 = pieces(x)
        return float(max(f1, f1 + 10.0 * g1, f1 + 10.0 * g2, f1 + 10.0 * g3))

    def g(x):
        f1, g1, g2, g3 = pieces(x)
        which = int(np.argmax([f1, f1 + 10.0 * g1, f1 + 10.0 * g2, f1 + 10.0 * g3]))
        x1, x2, x3, x4 = x
        out = np.array([2.0 * x1 - 5.0, 2.0 * x2 - 5.0, 4.0 * x3 - 21.0, 2.0 * x4 + 7.0])
        if which == 1:
            out += 10.0 * np.array([2.0 * x1 + 1.0, 2.0 * x2 - 1.0, 2.0 * x3 + 1.0, 2.0 * x4 - 1.0])
        elif which == 2:
            out += 10.0 * np.array([2.0 * x1 - 1.0, 4.0 * x2, 2.0 * x3, 4.0 * x4 - 1.0])
        elif which == 3:
            out += 10.0 * np.array([2.0 * x1 + 2.0, 2.0 * x2 - 1.0, 2.0 * x3, -1.0])
        return out

    return f, g


def _ref_mxhilb(n):
    i = np.arange(n)
    hilb = 1.0 / (i[:, None] + i[None, :] + 1.0)

    def f(x):
        return np.abs(hilb @ x).max()

    def g(x):
        t = hilb @ x
        k = int(np.argmax(np.abs(t)))
        s = 1.0 if t[k] >= 0 else -1.0
        return s * hilb[k]

    return f, g


def _ref_tilted_norm(n):
    w = 4.0

    def f(x):
        return w * np.linalg.norm(x) + (w - 1.0) * x[0]

    def g(x):
        nrm = np.linalg.norm(x)
        out = np.zeros_like(x) if nrm == 0.0 else w * x / nrm
        out[0] += w - 1.0
        return out

    return f, g


def _ref_partly_smooth(n):
    h = (n + 1) // 2

    def f(x):
        return float(np.linalg.norm(x[:h]) + (x[h:] ** 2).sum())

    def g(x):
        out = np.empty_like(x)
        nrm = np.linalg.norm(x[:h])
        out[:h] = 0.0 if nrm == 0.0 else x[:h] / nrm
        out[h:] = 2.0 * x[h:]
        return out

    return f, g


_REFERENCE_BODIES = {
    "TiltedNorm": _ref_tilted_norm,
    "MXHILB": _ref_mxhilb,
    "ChainedLQ": _ref_chained_lq,
    "ChainedCB3I": _ref_chained_cb3_1,
    "ChainedCB3II": _ref_chained_cb3_2,
    "PartlySmooth": _ref_partly_smooth,
    "Rosen": _ref_rosen,
}


def reference_problem(name: str, n: int | None = None) -> ObjectiveOracle:
    """`make_problem(name, n)` with the reference `eval_f` and `eval_grad`.

    The problems without an entry in `_REFERENCE_BODIES` still have their
    original bodies, so the registry's own oracle is their reference.
    """
    oracle = make_problem(name, n)
    bodies = _REFERENCE_BODIES.get(oracle.name)
    if bodies is None:
        return oracle
    eval_f, eval_grad = bodies(oracle.dimension)
    return replace(oracle, eval_f=eval_f, eval_grad=eval_grad)


# ---------------------------------------------------------------------------
# the bundle solver's subproblem path as it stood before its per-call
# overhead was cut
# ---------------------------------------------------------------------------
# Verbatim copies of `bgs.select_indices`, the input handling of
# `SimplexQpInstance`, the point-by-point loop of `bgs.build_initial_model`
# with its `linearization_error`, and `sampling.sample_ball`.
# The program must reproduce them byte for byte: the bundle solver's gradient
# counts move with the last bit of its model.


def reference_select_indices(lam: np.ndarray, theta: float,
                             forced: tuple[int, ...] = ()) -> list[int]:
    lam = np.asarray(lam, dtype=float)
    total = float(lam.sum())
    keep: set[int] = set(int(j) for j in forced)
    if total > 0.0:
        order = sorted(range(lam.size), key=lambda j: (-lam[j], j))
        cum = 0.0
        slack = 1e-12 * max(1.0, total)
        for j in order:
            cum += float(lam[j])
            if cum <= theta * total + slack:
                keep.add(j)
            else:
                break
    return sorted(keep)


def _ref_all_finite(a: np.ndarray) -> bool:
    # the old check; its sum warns on inf + -inf or an overflow, which the
    # elementwise test then decides, so the warnings are silenced here
    with np.errstate(over="ignore", invalid="ignore"):
        return math.isfinite(a.sum()) or bool(np.isfinite(a).all())


def reference_instance_arrays(atoms, errors, penalty_scale) -> tuple[np.ndarray, np.ndarray, float]:
    """The (atoms, errors, penalty_scale) that `SimplexQpInstance` stored, or its error."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    errors = np.asarray(errors, dtype=float).ravel()
    if atoms.shape[0] == 0:
        raise ValueError("instance needs at least one atom")
    if errors.shape[0] != atoms.shape[0]:
        raise ValueError(
            f"errors length {errors.shape[0]} does not match atom count {atoms.shape[0]}"
        )
    if not (_ref_all_finite(atoms) and _ref_all_finite(errors)):
        raise ValueError("non-finite input")
    if float(errors.min(initial=0.0)) < -1e-12:
        raise ValueError(f"negative error {errors.min()} below -{1e-12}")
    errors = np.where(errors < 0.0, 0.0, errors)
    if not penalty_scale > 0:
        raise ValueError("penalty_scale must be positive")
    return atoms, errors, float(penalty_scale)


def _ref_linearization_error(f_xk: float, f_s: float, g_s: np.ndarray, x_k: np.ndarray,
                             s: np.ndarray, strict: bool = True) -> float:
    plane = f_s + float(g_s @ (x_k - s))
    e = f_xk - plane
    if e >= 0.0:
        return e
    if not strict:
        return 0.0
    floor = 1e-12 * max(1.0, abs(f_xk), abs(f_s) + abs(float(g_s @ (x_k - s))))
    if e < -floor:
        raise ConvexityError(
            f"linearization error {e} below -{floor}: non-convex or broken oracle"
        )
    return 0.0


def reference_build_initial_model(oracle: ObjectiveOracle, x_k: np.ndarray, eps_k: float,
                                  m: int, rng: np.random.Generator, f_xk: float | None = None,
                                  mode: GradientMode | None = None) -> np.ndarray:
    mode = mode or GradientMode.exact()
    strict = mode.kind == "exact"
    x_k = np.asarray(x_k, dtype=float)
    if f_xk is None:
        f_xk = oracle.f(x_k)
    rows = np.zeros((m + 1, x_k.size + 1))
    rows[0, :-1] = gradient(oracle, mode, x_k)
    for row, s in zip(rows[1:], reference_sample_ball(x_k, eps_k, m, rng)):
        for attempt in range(2):
            try:
                g_s = gradient(oracle, mode, s)
                e_s = _ref_linearization_error(f_xk, oracle.f(s), g_s, x_k, s, strict)
                break
            except EvaluationError:
                if attempt == 1:
                    raise
                s = reference_sample_ball(x_k, eps_k, 1, rng)[0]
        row[:-1], row[-1] = g_s, e_s
    return rows


def reference_sample_ball(center: np.ndarray, radius: float, count: int,
                          rng: np.random.Generator) -> np.ndarray:
    """`sampling.sample_ball` as it stood before it worked in place."""
    center = np.asarray(center, dtype=float)
    n = center.size
    if count <= 0:
        return np.empty((0, n))
    if not radius > 0:
        raise ValueError("radius must be positive")
    dirs = rng.standard_normal((count, n))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / n)
    return center + dirs / norms * radii[:, None]
