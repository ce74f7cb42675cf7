"""Nonsmooth convex benchmark objectives with exact gradient oracles.

Each problem carries its known optimal value and the starting point used in
the nonsmooth-optimization test literature.  Problems 1-8 are scalable to any
dimension n >= 2; problems 9-13 have a fixed dimension.

At a kink the gradient oracles return the gradient of one active branch,
which is always a valid subgradient of the convex objective: where pieces
tie, the lowest-numbered piece wins (argmax's first-index rule).  Points of
nondifferentiability have measure zero and are never hit by the samplers
with probability 1.

The bodies are written for speed: every sub-expression is computed once,
the active piece is picked by comparisons, Rosen works on Python floats,
and the 2-norms skip `np.linalg.norm`'s dispatch.  Their outputs are pinned
byte for byte, including the sign of zero, to the plain bodies kept in
`tests/helpers.py`, because the solvers' gradient counts react to the last
bit of a gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .qp import _all_finite


class EvaluationError(RuntimeError):
    """An oracle produced a non-finite value."""


@dataclass(frozen=True)
class GradientMode:
    """How gradients are supplied: analytically or by forward differences."""

    kind: str  # "exact" | "forward"
    h: float = 1e-9

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "forward"):
            raise ValueError(f"unknown gradient mode {self.kind!r}")
        if self.kind == "forward" and not self.h > 0:
            raise ValueError("forward-difference step h must be positive")

    @staticmethod
    def exact() -> "GradientMode":
        return GradientMode("exact")

    @staticmethod
    def forward(h: float = 1e-9) -> "GradientMode":
        return GradientMode("forward", h)


@dataclass(frozen=True)
class ObjectiveOracle:
    """A convex objective with value/gradient evaluation and known minimum.

    Attributes:
        name: registry name of the problem.
        dimension: number of variables n.
        f_star: known optimal value.
        x0: reference starting point from the literature.
        eval_f: maps an n-vector to the objective value.
        eval_grad: maps an n-vector to the gradient (a subgradient at kinks).
        smooth_at: optional predicate that is True away from the kink set;
            used only when differentiability checks are enabled.

    `grad` evaluates one point and `grad_rows` a block of points, one
    `eval_grad` call per row in both, so a wrapper around `eval_grad` counts
    every gradient the solvers use.
    """

    name: str
    dimension: int
    f_star: float
    x0: np.ndarray
    eval_f: Callable[[np.ndarray], float]
    eval_grad: Callable[[np.ndarray], np.ndarray]
    smooth_at: Optional[Callable[[np.ndarray], bool]] = field(default=None)

    def f(self, x: np.ndarray) -> float:
        val = float(self.eval_f(np.asarray(x, dtype=float)))
        if not math.isfinite(val):
            raise EvaluationError(f"{self.name}: non-finite objective value at x={x!r}")
        return val

    def grad(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.eval_grad(np.asarray(x, dtype=float)), dtype=float)
        if not _all_finite(g):
            raise EvaluationError(f"{self.name}: non-finite gradient at x={x!r}")
        return g

    def grad_rows(self, X: np.ndarray) -> np.ndarray:
        """Gradients at the rows of X as an (m, n) array, row i byte-equal to grad(X[i]).

        One finite check covers the whole block, so a non-finite row is
        reported only after every row has been evaluated.
        """
        X = np.asarray(X, dtype=float)
        G = np.empty((len(X), self.dimension))
        eval_grad = self.eval_grad
        for i, x in enumerate(X):
            G[i] = eval_grad(x)
        if not _all_finite(G):
            i = int(np.flatnonzero(~np.isfinite(G).all(axis=1))[0])
            raise EvaluationError(f"{self.name}: non-finite gradient at row {i} of a block "
                                  f"of {len(X)} points, x={X[i]!r}")
        return G

    def differentiable_at(self, x: np.ndarray) -> bool:
        if self.smooth_at is not None:
            return bool(self.smooth_at(np.asarray(x, dtype=float)))
        try:
            self.grad(x)
        except EvaluationError:
            return False
        return True


def gradient(oracle: ObjectiveOracle, mode: GradientMode, x: np.ndarray) -> np.ndarray:
    """Evaluate the gradient in the requested mode.

    Forward differences use [f(x + h e_i) - f(x)] / h componentwise and are
    applied blindly, also near kinks.
    """
    x = np.asarray(x, dtype=float)
    if mode.kind == "exact":
        return oracle.grad(x)
    h = mode.h
    f0 = oracle.f(x)
    g = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        g[i] = (oracle.f(xp) - f0) / h
    if not _all_finite(g):
        raise EvaluationError(f"{oracle.name}: non-finite forward-difference gradient")
    return g


# ---------------------------------------------------------------------------
# problem definitions
# ---------------------------------------------------------------------------


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm(v) of a 1-D float array without its dispatch: the same
    # ravel (a copy only for a strided v, whose dot BLAS would sum in another
    # order) and the same dot, and math.sqrt, which rounds as np.sqrt does
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _tilted_norm(n: int) -> ObjectiveOracle:
    # f(x) = 4 ||x|| + 3 x_1;  sharp minimum 0 at the origin.
    w = 4.0

    def f(x):
        return w * _norm(x) + (w - 1.0) * x[0]

    def g(x):
        nrm = _norm(x)
        out = np.zeros_like(x) if nrm == 0.0 else w * x / nrm
        out[0] += w - 1.0
        return out

    def smooth(x):
        return np.linalg.norm(x) > 1e-12

    return ObjectiveOracle("TiltedNorm", n, 0.0, np.ones(n), f, g, smooth)


def _mxhilb(n: int) -> ObjectiveOracle:
    # f(x) = max_i | sum_j x_j / (i + j - 1) |
    i = np.arange(n)
    hilb = 1.0 / (i[:, None] + i[None, :] + 1.0)

    def f(x):
        return np.abs(hilb @ x).max()

    def g(x):
        t = hilb @ x
        k = int(np.argmax(np.abs(t)))
        s = 1.0 if t[k] >= 0 else -1.0
        return s * hilb[k]

    def smooth(x):
        t = np.sort(np.abs(hilb @ x))
        if n == 1:
            return t[-1] > 0
        return t[-1] - t[-2] > 1e-10 * (1.0 + t[-1])

    return ObjectiveOracle("MXHILB", n, 0.0, np.ones(n), f, g, smooth)


def _chained_lq(n: int) -> ObjectiveOracle:
    # sum of max{-x_i - x_{i+1}, -x_i - x_{i+1} + x_i^2 + x_{i+1}^2 - 1}
    f_star = -(n - 1) * math.sqrt(2.0)

    def f(x):
        a = -x[:-1] - x[1:]
        sq = x * x
        return float(np.maximum(a, a + (sq[:-1] + sq[1:] - 1.0)).sum())

    def g(x):
        # the quadratic piece is active strictly outside the unit circle
        sq = x * x
        quad = sq[:-1] + sq[1:] > 1.0
        d = 2.0 * x - 1.0
        out = np.zeros_like(x)
        out[:-1] += np.where(quad, d[:-1], -1.0)
        out[1:] += np.where(quad, d[1:], -1.0)
        return out

    def smooth(x):
        gap = np.abs(x[:-1] ** 2 + x[1:] ** 2 - 1.0)
        return bool(gap.min() > 1e-10)

    return ObjectiveOracle("ChainedLQ", n, f_star, np.full(n, -0.5), f, g, smooth)


def _cb3_terms(x: np.ndarray):
    # the three pieces of every pair (x_i, x_{i+1}), and 2 - x
    p = 2.0 - x
    sq = p * p
    t1 = x[:-1] ** 4 + x[1:] ** 2
    t3 = 2.0 * np.exp(x[1:] - x[:-1])
    return t1, sq[:-1] + sq[1:], t3, p


def _chained_cb3_1(n: int) -> ObjectiveOracle:
    # sum over pairs of max{x_i^4 + x_{i+1}^2, (2-x_i)^2 + (2-x_{i+1})^2, 2 e^(x_{i+1}-x_i)}
    def f(x):
        t1, t2, t3, _ = _cb3_terms(x)
        return float(np.maximum(t1, np.maximum(t2, t3)).sum())

    def g(x):
        t1, t2, t3, p = _cb3_terms(x)
        first = (t1 >= t2) & (t1 >= t3)
        third = t3 > t2  # where the first piece is not active
        m = -2.0 * p
        gi = np.where(first, 4.0 * x[:-1] ** 3, np.where(third, -t3, m[:-1]))
        gj = np.where(first, 2.0 * x[1:], np.where(third, t3, m[1:]))
        out = np.zeros_like(x)
        out[:-1] += gi
        out[1:] += gj
        return out

    def smooth(x):
        t1, t2, t3, _ = _cb3_terms(x)
        stack = np.sort(np.vstack([t1, t2, t3]), axis=0)
        gap = stack[2] - stack[1]
        return bool((gap > 1e-10 * (1.0 + np.abs(stack[2]))).all())

    return ObjectiveOracle("ChainedCB3I", n, 2.0 * (n - 1), np.full(n, 2.0), f, g, smooth)


def _chained_cb3_2(n: int) -> ObjectiveOracle:
    # max of the three full sums of the CB3 pair terms
    def f(x):
        t1, t2, t3, _ = _cb3_terms(x)
        return float(max(t1.sum(), t2.sum(), t3.sum()))

    def g(x):
        t1, t2, t3, p = _cb3_terms(x)
        s1, s2, s3 = t1.sum(), t2.sum(), t3.sum()
        out = np.zeros_like(x)
        if s1 >= s2 and s1 >= s3:
            out[:-1] += 4.0 * x[:-1] ** 3
            out[1:] += 2.0 * x[1:]
        elif s3 > s2:
            out[:-1] -= t3
            out[1:] += t3
        else:
            m = -2.0 * p
            out[:-1] += m[:-1]
            out[1:] += m[1:]
        return out

    def smooth(x):
        t1, t2, t3, _ = _cb3_terms(x)
        sums = np.sort([t1.sum(), t2.sum(), t3.sum()])
        return bool(sums[2] - sums[1] > 1e-10 * (1.0 + abs(sums[2])))

    return ObjectiveOracle("ChainedCB3II", n, 2.0 * (n - 1), np.full(n, 2.0), f, g, smooth)


def _pm_start(n: int) -> np.ndarray:
    # x0_i = i for the first half, -i for the second half (1-based)
    x0 = np.arange(1.0, n + 1.0)
    x0[n // 2:] *= -1.0
    return x0


def _maxq(n: int, name: str = "MAXQ-gen") -> ObjectiveOracle:
    def f(x):
        return float((x ** 2).max())

    def g(x):
        k = int(np.argmax(x ** 2))
        out = np.zeros_like(x)
        out[k] = 2.0 * x[k]
        return out

    def smooth(x):
        sq = np.sort(x ** 2)
        if n == 1:
            return True
        return bool(sq[-1] - sq[-2] > 1e-10 * (1.0 + sq[-1]))

    return ObjectiveOracle(name, n, 0.0, _pm_start(n), f, g, smooth)


def _maxl(n: int) -> ObjectiveOracle:
    # Subgradients are signed unit vectors, so per-step movement is bounded;
    # the start is kept in the unit range: x0_i = (-1)^(i+1) * i/n.
    def f(x):
        return float(np.abs(x).max())

    def g(x):
        k = int(np.argmax(np.abs(x)))
        out = np.zeros_like(x)
        out[k] = np.sign(x[k])
        return out

    def smooth(x):
        a = np.sort(np.abs(x))
        if n == 1:
            return bool(a[-1] > 0)
        return bool(a[-1] - a[-2] > 1e-10 * (1.0 + a[-1]) and a[-1] > 0)

    x0 = np.arange(1.0, n + 1.0) / n
    x0[1::2] *= -1.0
    return ObjectiveOracle("MAXL-gen", n, 0.0, x0, f, g, smooth)


def _partly_smooth(n: int) -> ObjectiveOracle:
    # Euclidean norm of the first ceil(n/2) coordinates plus a smooth
    # quadratic on the rest; sharp in the head block, smooth in the tail.
    h = (n + 1) // 2

    def f(x):
        return float(_norm(x[:h]) + (x[h:] ** 2).sum())

    def g(x):
        out = np.empty_like(x)
        nrm = _norm(x[:h])
        out[:h] = 0.0 if nrm == 0.0 else x[:h] / nrm
        out[h:] = 2.0 * x[h:]
        return out

    def smooth(x):
        return bool(np.linalg.norm(x[:h]) > 1e-12)

    return ObjectiveOracle("PartlySmooth", n, 0.0, np.ones(n), f, g, smooth)


def _ql(n: int) -> ObjectiveOracle:
    def pieces(x):
        f1 = x[0] ** 2 + x[1] ** 2
        f2 = f1 + 10.0 * (-4.0 * x[0] - x[1] + 4.0)
        f3 = f1 + 10.0 * (-x[0] - 2.0 * x[1] + 6.0)
        return f1, f2, f3

    def f(x):
        return float(max(pieces(x)))

    def g(x):
        which = int(np.argmax(pieces(x)))
        out = 2.0 * x.copy()
        if which == 1:
            out += np.array([-40.0, -10.0])
        elif which == 2:
            out += np.array([-10.0, -20.0])
        return out

    def smooth(x):
        vals = np.sort(pieces(x))
        return bool(vals[2] - vals[1] > 1e-10 * (1.0 + abs(vals[2])))

    return ObjectiveOracle("QL", 2, 7.2, np.array([-1.0, 5.0]), f, g, smooth)


def _mifflin1(n: int) -> ObjectiveOracle:
    def f(x):
        return float(-x[0] + 20.0 * max(x[0] ** 2 + x[1] ** 2 - 1.0, 0.0))

    def g(x):
        out = np.array([-1.0, 0.0])
        if x[0] ** 2 + x[1] ** 2 - 1.0 >= 0.0:
            out += 40.0 * x
        return out

    def smooth(x):
        return bool(abs(x[0] ** 2 + x[1] ** 2 - 1.0) > 1e-10)

    return ObjectiveOracle("Mifflin1", 2, -1.0, np.array([0.8, 0.6]), f, g, smooth)


def _goffin(n: int) -> ObjectiveOracle:
    # f(x) = n max_i x_i - sum_i x_i, piecewise linear with minimum 0 on
    # the diagonal {x = c 1}.
    def f(x):
        return float(n * x.max() - x.sum())

    def g(x):
        k = int(np.argmax(x))
        out = np.full(n, -1.0)
        out[k] += float(n)
        return out

    def smooth(x):
        s = np.sort(x)
        return bool(s[-1] - s[-2] > 1e-10 * (1.0 + abs(s[-1])))

    x0 = np.arange(1.0, n + 1.0) - (n + 1.0) / 2.0
    return ObjectiveOracle("Goffin", n, 0.0, x0, f, g, smooth)


def _square(v: float) -> float:
    # v ** 2 by the C library's pow, which numpy also uses on a scalar (an
    # array's square is a product, which can differ in the last bit); where
    # Python raises on overflow, numpy's scalar gives inf
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def _first_max(vals) -> int:
    # np.argmax's rule for non-NaN values: the first of the largest.  A NaN
    # piece of Rosen needs a non-finite f1, where the gradient is non-finite
    # whichever piece gives it, and the oracle refuses it
    k = 0
    for i, v in enumerate(vals):
        if v > vals[k]:
            k = i
    return k


def _rosen(n: int) -> ObjectiveOracle:
    # Rosen-Suzuki: max of a quadratic and three penalized quadratics,
    # minimum -44 at (0, 1, 2, -1).
    def pieces(x1, x2, x3, x4):
        s1, s2, s3, s4 = _square(x1), _square(x2), _square(x3), _square(x4)
        f1 = s1 + s2 + 2.0 * s3 + s4 - 5.0 * x1 - 5.0 * x2 - 21.0 * x3 + 7.0 * x4
        g1 = s1 + s2 + s3 + s4 + x1 - x2 + x3 - x4 - 8.0
        g2 = s1 + 2.0 * s2 + s3 + 2.0 * s4 - x1 - x4 - 10.0
        g3 = s1 + s2 + s3 + 2.0 * x1 - x2 - x4 - 5.0
        return f1, f1 + 10.0 * g1, f1 + 10.0 * g2, f1 + 10.0 * g3

    def f(x):
        return max(pieces(*x.tolist()))

    def g(x):
        x1, x2, x3, x4 = x.tolist()
        which = _first_max(pieces(x1, x2, x3, x4))
        out = (2.0 * x1 - 5.0, 2.0 * x2 - 5.0, 4.0 * x3 - 21.0, 2.0 * x4 + 7.0)
        if which == 1:
            pen = (2.0 * x1 + 1.0, 2.0 * x2 - 1.0, 2.0 * x3 + 1.0, 2.0 * x4 - 1.0)
        elif which == 2:
            pen = (2.0 * x1 - 1.0, 4.0 * x2, 2.0 * x3, 4.0 * x4 - 1.0)
        elif which == 3:
            pen = (2.0 * x1 + 2.0, 2.0 * x2 - 1.0, 2.0 * x3, -1.0)
        else:
            return np.array(out)
        return np.array([o + 10.0 * d for o, d in zip(out, pen)])

    def smooth(x):
        vals = sorted(pieces(*x.tolist()))
        return bool(vals[3] - vals[2] > 1e-10 * (1.0 + abs(vals[3])))

    return ObjectiveOracle("Rosen", 4, -44.0, np.zeros(4), f, g, smooth)


# registry: canonical name -> (builder, fixed dimension or None, index, f* description)
_REGISTRY: dict[str, tuple] = {
    "TiltedNorm": (_tilted_norm, None, 1, "0"),
    "MXHILB": (_mxhilb, None, 2, "0"),
    "ChainedLQ": (_chained_lq, None, 3, "-(n-1)*sqrt(2)"),
    "ChainedCB3I": (_chained_cb3_1, None, 4, "2*(n-1)"),
    "ChainedCB3II": (_chained_cb3_2, None, 5, "2*(n-1)"),
    "MAXQ-gen": (lambda n: _maxq(n, "MAXQ-gen"), None, 6, "0"),
    "MAXL-gen": (_maxl, None, 7, "0"),
    "PartlySmooth": (_partly_smooth, None, 8, "0"),
    "QL": (_ql, 2, 9, 7.2),
    "Mifflin1": (_mifflin1, 2, 10, -1.0),
    "MAXQ": (lambda n: _maxq(20, "MAXQ"), 20, 11, 0.0),
    "Goffin": (_goffin, 50, 12, 0.0),
    "Rosen": (_rosen, 4, 13, -44.0),
}

_ALIASES: dict[str, str] = {}
for _name, (_, _, _idx, _) in _REGISTRY.items():
    _ALIASES[_name.lower().replace("-", "").replace("_", "")] = _name
    _ALIASES[str(_idx)] = _name
_ALIASES.update(
    {
        "tiltednormfunction": "TiltedNorm",
        "mxhilbgen": "MXHILB",
        "lq": "ChainedLQ",
        "cb3": "ChainedCB3I",
        "cb3i": "ChainedCB3I",
        "cb3ii": "ChainedCB3II",
        "maxl": "MAXL-gen",
        "convexpartlysmooth": "PartlySmooth",
        "mifflin": "Mifflin1",
        "rosensuzuki": "Rosen",
    }
)


def problem_names() -> list[str]:
    return list(_REGISTRY)


def catalog() -> list[dict]:
    """Machine-readable listing of the registry: name, valid n, optimal value."""
    out = []
    for name, (_, fixed_n, idx, fstar) in _REGISTRY.items():
        out.append(
            {
                "index": idx,
                "name": name,
                "n": fixed_n if fixed_n is not None else "any",
                "min_n": fixed_n if fixed_n is not None else 2,
                "f_star": fstar,
            }
        )
    return out


def make_problem(name: str, n: int | None = None) -> ObjectiveOracle:
    """Build a benchmark oracle by registry name (or table index) and size."""
    key = str(name).lower().replace("-", "").replace("_", "").replace(" ", "")
    if key not in _ALIASES:
        raise ValueError(f"unknown problem {name!r}; known: {', '.join(_REGISTRY)}")
    canonical = _ALIASES[key]
    builder, fixed_n, _, _ = _REGISTRY[canonical]
    if fixed_n is not None:
        if n is not None and n != fixed_n:
            raise ValueError(f"{canonical} has fixed dimension n={fixed_n}, got n={n}")
        n = fixed_n
    else:
        if n is None:
            raise ValueError(f"{canonical} is scalable; a dimension n >= 2 is required")
        if n < 2:
            raise ValueError(f"{canonical} requires n >= 2, got n={n}")
    return builder(int(n))
