"""Uniform ball sampling: support, radial law, determinism."""

import numpy as np
import pytest
from helpers import reference_sample_ball

from bundlegs.sampling import sample_ball


def test_all_points_inside_ball():
    rng = np.random.default_rng(0)
    center = np.array([1.0, -2.0, 0.5])
    pts = sample_ball(center, 0.7, 500, rng)
    assert pts.shape == (500, 3)
    assert np.linalg.norm(pts - center, axis=1).max() <= 0.7 + 1e-12


def test_radial_cdf_binomial():
    # P(||p|| <= r/2) = 2^-n for a uniform ball; binomial 3-sigma band
    n = 2
    rng = np.random.default_rng(123)
    pts = sample_ball(np.zeros(n), 1.0, 1000, rng)
    frac = float((np.linalg.norm(pts, axis=1) <= 0.5).mean())
    p = 2.0 ** -n
    assert abs(frac - p) <= 3.0 * np.sqrt(p * (1 - p) / 1000)


def test_zero_count():
    pts = sample_ball(np.zeros(4), 1.0, 0, np.random.default_rng(0))
    assert pts.shape == (0, 4)


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
def test_non_positive_radius_is_refused(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        sample_ball(np.zeros(3), radius, 4, np.random.default_rng(0))


def test_deterministic_given_seed():
    a = sample_ball(np.ones(5), 2.0, 50, np.random.default_rng(99))
    b = sample_ball(np.ones(5), 2.0, 50, np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("count,n", [(8, 4), (5, 50), (100, 50), (50, 500)])
def test_byte_equal_to_the_old_body(count, n):
    rng, ref_rng = np.random.default_rng(count * n), np.random.default_rng(count * n)
    for radius in (1.0, 1e-3, 7.5):
        center = rng.standard_normal(n)
        ref_rng.standard_normal(n)
        got = sample_ball(center, radius, count, rng)
        want = reference_sample_ball(center, radius, count, ref_rng)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class _Draws:
    """A generator whose normal draws are given: one direction of norm 0."""

    def __init__(self, dirs, u):
        self.dirs, self.u = dirs, u

    def standard_normal(self, shape):
        return self.dirs.copy().reshape(shape)

    def random(self, count):
        return self.u[:count].copy()


def test_zero_norm_draw_byte_equal_to_the_old_body():
    dirs = np.array([[0.3, -1.2, 0.5], [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [2.0, 1.0, -2.0]])
    u = np.array([0.25, 0.5, 0.75, 0.125])
    center = np.array([1.0, -0.0, 3.0])
    got = sample_ball(center, 0.5, 4, _Draws(dirs, u))
    want = reference_sample_ball(center, 0.5, 4, _Draws(dirs, u))
    assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(got[1], center)
