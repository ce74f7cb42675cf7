"""Convex quadratic minimization over the probability simplex.

Solves

    min_lam  0.5 * || sum_j lam_j g_j ||^2  +  penalty_scale * sum_j lam_j e_j
    s.t.     lam >= 0,  sum_j lam_j = 1

for a small dense set of atoms g_j with attached nonnegative weights e_j.
The search-direction subproblems of the bundle solver and the minimum-norm
hull point of the gradient-sampling baseline are both instances of this
problem (the latter with all e_j = 0 and unit scale).

The solver is a primal active-set method on the simplex with a projected
gradient fallback; instances here are tiny and dense, so no sparse or
large-scale machinery is used.  Each pivot solves the equality-constrained
subproblem of its working set W through the bordered KKT matrix

    [[H + delta I, -1], [1', 0]] [y; mu] = [-c; 1],   H = G G',

restricted to the rows and columns of W and the border.  The full
(p+1) x (p+1) matrix and right-hand side are built once per solve, and a
pivot only gathers its subsystem from them, so the cost of a solve is
dominated by the dense solves rather than by assembling them.  The
arithmetic is that of assembling each subsystem afresh, bit for bit: with
near-duplicate atoms the system is near-singular, and round-off decides how
the multipliers split among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NEG_ERR_TOL = 1e-12


class QpFailureError(RuntimeError):
    """A subproblem failed: its Gram matrix overflows, or it stalled short of its tolerance."""


def _all_finite(a: np.ndarray) -> bool:
    # a finite sum proves every element finite; only a non-finite sum (a
    # non-finite element, or finite elements that overflow) needs the
    # elementwise test
    return math.isfinite(a.sum()) or bool(np.isfinite(a).all())


@dataclass
class SimplexQpInstance:
    """Atoms (one per row), aligned nonnegative weights, and the penalty scale."""

    atoms: np.ndarray
    errors: np.ndarray
    penalty_scale: float

    def __post_init__(self) -> None:
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        errors = np.asarray(self.errors, dtype=float).ravel()
        if atoms.shape[0] == 0:
            raise ValueError("instance needs at least one atom")
        if errors.shape[0] != atoms.shape[0]:
            raise ValueError(
                f"errors length {errors.shape[0]} does not match atom count {atoms.shape[0]}"
            )
        if not (_all_finite(atoms) and _all_finite(errors)):
            raise ValueError("non-finite input")
        if float(errors.min(initial=0.0)) < -_NEG_ERR_TOL:
            raise ValueError(f"negative error {errors.min()} below -{_NEG_ERR_TOL}")
        errors = np.where(errors < 0.0, 0.0, errors)
        if not self.penalty_scale > 0:
            raise ValueError("penalty_scale must be positive")
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
    lip = max(float(np.linalg.norm(H, ord="fro")), 1e-12)
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


def solve_simplex_qp(
    instance: SimplexQpInstance,
    tol: float = 1e-10,
    warm_start: np.ndarray | None = None,
    max_iter: int | None = None,
) -> SimplexQpSolution:
    """Return the global minimizer over the simplex.

    `tol` bounds the accepted KKT violation (scaled by the multiplier
    magnitude for badly scaled data).  `warm_start` is any point on the
    simplex; the result does not depend on it beyond round-off.  Raises
    QpFailureError when G G' overflows (atoms of norm past about 1.3e154).
    """
    G = instance.atoms
    e = instance.errors
    p = instance.n_atoms
    c = instance.penalty_scale * e
    H = G @ G.T
    # the largest diagonal entry bounds every entry of H, so a finite one
    # proves H finite; LAPACK must not see an overflowed H
    h_max = float(H.diagonal().max())
    if not math.isfinite(h_max):
        raise QpFailureError(f"Gram matrix overflows (largest squared atom norm {h_max})")
    delta = 1e-14 * max(1.0, h_max)
    if max_iter is None:
        max_iter = max(20, 10 * p * p)

    # equality-constrained subproblem on the working set W:
    #   (H + delta I) y - mu 1 = -c,  1' y = 1
    # The bordered matrix and right-hand side are built once for all atoms;
    # each pivot takes the rows and columns of W plus the border (index p),
    # kept as the last entry of `member`.
    kkt = np.empty((p + 1, p + 1))
    kkt[:p, :p] = H
    kkt.reshape(-1)[:p * (p + 2):p + 2] += delta  # diagonal of the H block
    kkt[:p, p] = -1.0
    kkt[p, :p] = 1.0
    kkt[p, p] = 0.0
    rhs = np.empty(p + 1)
    np.negative(c, out=rhs[:p])
    rhs[p] = 1.0
    member = np.zeros(p + 1, dtype=bool)
    member[p] = True
    active = member[:p]

    lam = None
    if warm_start is not None:
        ws = np.maximum(np.asarray(warm_start, dtype=float).ravel(), 0.0)
        s = ws.sum()
        if ws.size == p and _all_finite(ws) and s > 0:
            lam = ws / s
    if lam is None:
        j0 = int(np.argmin(0.5 * H.diagonal() + c))
        lam = np.zeros(p)
        lam[j0] = 1.0
    np.greater(lam, 0.0, out=active)

    stop_tol = lambda mu: tol * max(1.0, abs(mu))  # noqa: E731
    iterations = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        rows = np.flatnonzero(member)
        k = rows.size - 1
        idx = rows[:k]
        sub = kkt.take(rows, axis=0).take(rows, axis=1)
        sub_rhs = rhs.take(rows)
        try:
            y = np.linalg.solve(sub, sub_rhs)
        except np.linalg.LinAlgError:
            y = np.linalg.lstsq(sub, sub_rhs, rcond=None)[0]
        if not _all_finite(y):
            y = np.linalg.lstsq(sub, sub_rhs, rcond=None)[0]
        y = y[:k]
        if y.min(initial=0.0) >= -1e-12:
            lam = np.zeros(p)
            lam[idx] = np.maximum(y, 0.0)
            grad = H @ lam + c
            mu = float(lam @ grad)
            j = int(grad.argmin())
            if mu - float(grad[j]) <= stop_tol(mu):
                converged = True
                break
            if active[j]:
                break  # numerical stall; polish below
            active[j] = True
        else:
            cur = lam[idx]
            ratios = np.full(k, np.inf)
            np.divide(cur, cur - y, out=ratios, where=y < 0.0)
            b = int(ratios.argmin())
            step = float(ratios[b])
            cur = cur + step * (y - cur)
            cur[b] = 0.0
            lam[:] = 0.0
            lam[idx] = np.maximum(cur, 0.0)
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
            lam, pg_iters = _projected_gradient(H, c, lam, stop_tol(mu))
            iterations += pg_iters
        grad = H @ lam + c
        mu = float(lam @ grad)
        converged = mu - float(grad.min()) <= stop_tol(mu)

    lam = np.maximum(lam, 0.0)
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
