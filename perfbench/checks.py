"""Correctness checks on captured solves, kept apart from the program.

The objective formulas and optimal values below are written out again from
the literature definitions of the test problems, so a wrong optimum or a
wrong objective inside the program cannot vouch for itself.  Every check
returns a list of failure messages; an empty list means the solve passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

W_TOL = 1e-10  # w may rise by at most this much (relative to max(1, |w|)) in an inner chain
F_AGREE = 1e-9  # the program's f(x) and the formula here agree to this relative accuracy
BAD_STOPS = ("inner_limit",)


def _tilted_norm(x):
    return 4.0 * np.linalg.norm(x) + 3.0 * x[0]


def _mxhilb(x):
    i = np.arange(1, x.size + 1)
    return np.abs((1.0 / (i[:, None] + i[None, :] - 1.0)) @ x).max()


def _chained_lq(x):
    a, b = x[:-1], x[1:]
    return np.maximum(-a - b, -a - b + a * a + b * b - 1.0).sum()


def _cb3_pairs(x):
    a, b = x[:-1], x[1:]
    return a ** 4 + b ** 2, (2.0 - a) ** 2 + (2.0 - b) ** 2, 2.0 * np.exp(b - a)


def _chained_cb3_1(x):
    return np.maximum.reduce(_cb3_pairs(x)).sum()


def _chained_cb3_2(x):
    return max(t.sum() for t in _cb3_pairs(x))


def _maxq(x):
    return (x * x).max()


def _maxl(x):
    return np.abs(x).max()


def _partly_smooth(x):
    h = (x.size + 1) // 2
    return np.linalg.norm(x[:h]) + (x[h:] ** 2).sum()


def _rosen(x):
    x1, x2, x3, x4 = x
    f1 = x1 ** 2 + x2 ** 2 + 2 * x3 ** 2 + x4 ** 2 - 5 * x1 - 5 * x2 - 21 * x3 + 7 * x4
    g1 = x1 ** 2 + x2 ** 2 + x3 ** 2 + x4 ** 2 + x1 - x2 + x3 - x4 - 8
    g2 = x1 ** 2 + 2 * x2 ** 2 + x3 ** 2 + 2 * x4 ** 2 - x1 - x4 - 10
    g3 = x1 ** 2 + x2 ** 2 + x3 ** 2 + 2 * x1 - x2 - x4 - 5
    return f1 + 10.0 * max(0.0, g1, g2, g3)


# problem name -> (objective, optimal value as a function of n)
OBJECTIVES: dict[str, tuple[Callable, Callable[[int], float]]] = {
    "TiltedNorm": (_tilted_norm, lambda n: 0.0),
    "MXHILB": (_mxhilb, lambda n: 0.0),
    "ChainedLQ": (_chained_lq, lambda n: -(n - 1) * math.sqrt(2.0)),
    "ChainedCB3I": (_chained_cb3_1, lambda n: 2.0 * (n - 1)),
    "ChainedCB3II": (_chained_cb3_2, lambda n: 2.0 * (n - 1)),
    "MAXQ-gen": (_maxq, lambda n: 0.0),
    "MAXL-gen": (_maxl, lambda n: 0.0),
    "PartlySmooth": (_partly_smooth, lambda n: 0.0),
    "Rosen": (_rosen, lambda n: -44.0),
}


@dataclass
class Solve:
    """One solver call as the benchmark saw it from outside the program.

    `result` is the returned `RunResult` (None when the call raised);
    `f_calls` and `grad_calls` are the objective and gradient calls counted
    at the oracle boundary during the call.
    """

    solver: str  # "bgs.run" | "gs.gs_run"
    problem: str
    n: int
    grad_mode: str  # "exact" | "forward"
    target: float  # relative error (f - f*) / (|f*| + 1) the solve must reach
    result: object = None
    error: Optional[str] = None
    f_calls: int = 0
    grad_calls: int = 0


def relative_error(problem: str, x: np.ndarray) -> tuple[float, float]:
    """(f(x) by the formula here, relative error against the literature f*)."""
    fn, f_star = OBJECTIVES[problem]
    x = np.asarray(x, dtype=float)
    fx = float(fn(x))
    fs = f_star(x.size)
    return fx, (fx - fs) / (abs(fs) + 1.0)


def check_solve(s: Solve) -> list[str]:
    """Every property a finished solve must have; returns the failures."""
    if s.result is None:
        return [f"{s.solver} on {s.problem}: aborted ({s.error})"]
    r = s.result
    out = []
    if r.stop_reason in BAD_STOPS or r.stop_reason.startswith("abort"):
        out.append(f"stopped on {r.stop_reason}")
    if s.problem not in OBJECTIVES:
        return out + [f"no reference formula for {s.problem}"]
    fx, err = relative_error(s.problem, r.x)
    if not abs(fx - r.f) <= F_AGREE * (1.0 + abs(fx)):
        out.append(f"reported f {r.f!r} disagrees with f(x) = {fx!r}")
    if not err <= s.target * (1.0 + F_AGREE) + F_AGREE:
        out.append(f"relative error {err:.3e} misses the target {s.target:.1e}")
    if s.grad_mode == "exact" and s.grad_calls != r.grad_evals:
        out.append(f"solver counts {r.grad_evals} gradients, oracle saw {s.grad_calls}")
    if s.grad_mode == "forward":
        if s.grad_calls != 0:
            out.append(f"forward mode called the exact gradient {s.grad_calls} times")
        if s.f_calls < (s.n + 1) * r.grad_evals:
            out.append(f"{r.grad_evals} difference gradients need at least "
                       f"{(s.n + 1) * r.grad_evals} f calls, oracle saw {s.f_calls}")
    out += check_trace(r.trace)
    return out


def check_trace(trace: list) -> list[str]:
    """The radius never rises; w never rises within one outer iteration."""
    out = []
    radii = [rec.radius for rec in trace]
    if any(b > a for a, b in zip(radii, radii[1:])):
        out.append("sampling radius rose")
    prev = None
    for rec in trace:
        w = getattr(rec, "w", None)
        if w is None:
            break  # the GS baseline has no dual value
        if prev is not None and prev.k == rec.k and w - prev.w > W_TOL * max(1.0, abs(prev.w)):
            out.append(f"w rose from {prev.w!r} to {w!r} at k={rec.k}, i={rec.i}")
            break
        prev = rec
    return out
