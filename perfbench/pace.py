"""Host pace: a fixed reference kernel timed beside the solves.

The VM this benchmark was built on runs identical work at speeds that step
between about 1.0x and 1.8x for tens of seconds at a time, with CPU time
equal to wall time and no steal time, so the slowdown cannot be seen from
inside and a 25-second run cannot average it away.  A `Pacer` times a fixed
kernel (code of its own, nothing from the program) at the start and the end
of a round and, once `EVERY_S` seconds have passed since the last mark, at the
next call into the oracle, so long solves are marked inside too.  Each
stretch of the round between two marks is rescaled by
`REF_S / (mean of the two kernel times)`: its wall time at the host speed
where the kernel takes `REF_S`.  The kernel's own time is left out.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.008  # kernel time that defines the reference host speed
EVERY_S = 0.1  # least time between two marks

_rng = np.random.default_rng(20240101)
_A = _rng.standard_normal((60, 200))
_B = _rng.standard_normal((50, 500))
_S8 = _rng.standard_normal(8)


def kernel() -> float:
    """A fixed mix of what the solves do: matrix-vector products of 60x200
    and 50x500, numpy calls on 8-vectors and scalar interpreter work."""
    s = 0.0
    x = _A[0].copy()
    for _ in range(150):
        x = x - 1e-3 * (_A.T @ (_A @ x))
        s += float(np.dot(x, x)) ** 0.5
    x = _B[0].copy()
    for _ in range(125):
        x = x - 1e-4 * (_B.T @ (_B @ x))
        x = np.abs(x) - 0.01 * x
    z = _S8.copy()
    for _ in range(400):
        z = np.maximum(z * 0.5, -z) + 0.1
        s += float(z.sum())
    t = 0
    for i in range(20000):
        t += i * i % 7
    return s + float(x.sum()) + t


class Pacer:
    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (start, end) of each kernel run

    def mark(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.marks.append((t0, time.perf_counter()))

    def maybe_mark(self) -> None:
        if time.perf_counter() - self.marks[-1][1] >= EVERY_S:
            self.mark()

    def raw_s(self) -> float:
        """Wall time between the first and the last mark, kernels left out."""
        return sum(b[0] - a[1] for a, b in zip(self.marks, self.marks[1:]))

    def paced_s(self) -> float:
        """The same time, each stretch rescaled to the reference host speed."""
        return sum((b[0] - a[1]) * 2.0 * REF_S / ((a[1] - a[0]) + (b[1] - b[0]))
                   for a, b in zip(self.marks, self.marks[1:]))
