"""Gradient-sampling baseline: hull geometry, descent, accounting."""

import numpy as np
import pytest
from helpers import huge_gradient_oracle, quadratic_oracle

from bundlegs import gs, harness, qp
from bundlegs.gs import GsConfig, gs_run
from bundlegs.harness import ExperimentSpec
from bundlegs.problems import make_problem
from bundlegs.qp import QpFailureError, SimplexQpInstance, solve_simplex_qp


def test_smoke_quadratic():
    res = gs_run(quadratic_oracle(2), GsConfig(seed=0, max_iters=200))
    assert res.f <= 1e-6
    assert res.outer_iters <= 200


def test_min_norm_hull_geometry():
    # hull of {(1,0), (-1,0), (0,0.1)} contains the origin
    grads = np.array([[0.0, 0.1], [1.0, 0.0], [-1.0, 0.0]])
    sol = solve_simplex_qp(SimplexQpInstance(grads, np.zeros(3), 1.0))
    assert abs(sol.g_tilde[0]) <= 1e-8
    assert np.linalg.norm(sol.g_tilde) <= 1e-8


def test_min_norm_certificate():
    # <g_j, g~> >= ||g~||^2 for every atom of the hull
    rng = np.random.default_rng(3)
    for _ in range(20):
        grads = rng.standard_normal((8, 4)) + rng.standard_normal(4)
        sol = solve_simplex_qp(SimplexQpInstance(grads, np.zeros(8), 1.0))
        gn2 = float(sol.g_tilde @ sol.g_tilde)
        assert (grads @ sol.g_tilde).min() >= gn2 - 1e-8


def test_descent_and_accounting():
    oracle = make_problem("ChainedLQ", 8)
    cfg = GsConfig(seed=1, max_iters=120)
    res = gs_run(oracle, cfg)
    sample = cfg.resolve_sample_size(8)
    assert res.grad_evals == res.outer_iters * (sample + 1)
    f_prev = np.inf
    for rec in res.trace:
        assert rec.f_val <= f_prev + 1e-15
        f_prev = rec.f_val
        assert rec.grad_evals_cum == (rec.k + 1) * (sample + 1)


def test_radius_shrinks_on_failure_or_stationarity():
    oracle = make_problem("MAXL-gen", 6)
    res = gs_run(oracle, GsConfig(seed=2, max_iters=300))
    radii = [rec.radius for rec in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(radii, radii[1:]))
    kinds = {rec.kind for rec in res.trace}
    assert "shrink" in kinds and "step" in kinds


def test_callback_and_determinism():
    oracle = make_problem("ChainedLQ", 8)
    target = oracle.f_star + 1e-3 * (abs(oracle.f_star) + 1)
    a = gs_run(oracle, GsConfig(seed=7), stop_callback=lambda r: r.f_val <= target)
    b = gs_run(oracle, GsConfig(seed=7), stop_callback=lambda r: r.f_val <= target)
    assert a.stop_reason == "callback"
    assert a.f == b.f and a.grad_evals == b.grad_evals
    np.testing.assert_array_equal(a.x, b.x)


def test_config_validation():
    with pytest.raises(ValueError):
        GsConfig(eps_shrink=1.0)
    with pytest.raises(ValueError):
        GsConfig(sample_size=0)
    with pytest.raises(ValueError):
        GsConfig(armijo_beta=1.0)
    assert GsConfig().resolve_sample_size(50) == 100


# G G' overflows; the QP raises before LAPACK sees it
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
def test_overflowing_gram_raises_qp_failure():
    with pytest.raises(QpFailureError, match="Gram matrix overflows"):
        gs_run(huge_gradient_oracle(), GsConfig(seed=0))


def test_unconverged_hull_raises_qp_failure(monkeypatch):
    # one pivot cannot reach the nearest point of a sampled hull in n=8
    monkeypatch.setattr(qp, "_max_pivots", lambda p: 1)
    with pytest.raises(QpFailureError, match="did not converge in 1 pivots"):
        gs_run(make_problem("ChainedLQ", 8), GsConfig(seed=0))
    spec = ExperimentSpec(solver="gs", problem="ChainedLQ", n=8, replications=1,
                          measure_time=False)
    report, result = harness._single_run(spec, make_problem("ChainedLQ", 8), 0, 5e-4)
    assert result is None
    assert report.stop_reason.startswith("abort: hull QP of 17 gradients did not converge")
    assert not report.converged and report.g_eval == 0


def test_nearest_point_kernel_keeps_the_trajectories():
    # the GS baseline needs only the hull point, which both kernels find; on
    # the gradient-economy problems their runs take the same steps
    def runs():
        out = []
        for problem in (1, 3, 4, 8):
            spec = ExperimentSpec(solver="gs", problem=str(problem), n=10, replications=5,
                                  stop_rel_err=5e-4, measure_time=False)
            reports, _ = harness.run_experiment(spec)
            out += [(r.problem, r.seed, r.iters, r.g_eval, r.stop_reason) for r in reports]
        return out

    shipped = runs()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gs, "min_norm_point", lambda G: solve_simplex_qp(
            SimplexQpInstance(G, np.zeros(len(G)), 1.0)))
        swapped = runs()
    assert shipped == swapped
    assert all(reason == "rel_err" for *_, reason in shipped)
