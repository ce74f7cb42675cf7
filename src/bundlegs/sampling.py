"""Uniform sampling from Euclidean balls."""

from __future__ import annotations

import numpy as np


def sample_ball(center: np.ndarray, radius: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` points uniformly from the closed ball B(center, radius).

    A point is an isotropic Gaussian direction normalized to the sphere and
    scaled by radius * U^(1/n), which is exactly uniform in any dimension
    without rejection.  Returns an array of shape (count, n); deterministic
    for a given generator state.
    """
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
    # center + dirs / norms * radii, the same operations in the same order,
    # without the temporaries
    dirs /= norms
    dirs *= radii[:, None]
    dirs += center
    return dirs
