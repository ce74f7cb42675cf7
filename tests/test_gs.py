"""Gradient-sampling baseline: hull geometry, descent, accounting."""

from dataclasses import replace

import numpy as np
import pytest
from helpers import huge_gradient_oracle, quadratic_oracle

from bundlegs import gs, harness, qp
from bundlegs.gs import GsConfig, gs_run
from bundlegs.harness import ExperimentSpec
from bundlegs.problems import EvaluationError, GradientMode, make_problem
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
    sample = cfg.resolve_m(8)
    assert res.grad_evals == res.outer_iters * (sample + 1)
    f_prev = np.inf
    for rec in res.trace:
        assert rec.f_val <= f_prev + 1e-15
        f_prev = rec.f_val
        assert rec.grad_evals_cum == (rec.k + 1) * (sample + 1)


def _counting(oracle, bad_call=None):
    """`oracle` with its `eval_grad` calls counted; call number `bad_call` gives NaN."""
    calls = [0]

    def eval_grad(x):
        calls[0] += 1
        g = oracle.eval_grad(x)
        return np.full_like(g, np.nan) if calls[0] == bad_call else g

    return replace(oracle, eval_grad=eval_grad), calls


def test_grad_evals_equal_the_oracle_side_count():
    # the benchmark's check: every counted gradient is one eval_grad call
    oracle, calls = _counting(make_problem("ChainedLQ", 8))
    res = gs_run(oracle, GsConfig(seed=3, max_iters=40))
    assert res.grad_evals == calls[0] == 40 * 17
    # forward differences evaluate f only
    oracle, calls = _counting(make_problem("ChainedLQ", 8))
    res = gs_run(oracle, GsConfig(seed=3, max_iters=5), grad_mode=GradientMode.forward(1e-8))
    assert calls[0] == 0 and res.grad_evals == 5 * 17


def test_non_finite_sampled_gradient_aborts_the_run():
    # call 1 is the gradient at x_k, calls 2-17 the sampled block
    oracle, calls = _counting(make_problem("ChainedLQ", 8), bad_call=5)
    with pytest.raises(EvaluationError, match="non-finite gradient at row 3 of a block of 16"):
        gs_run(oracle, GsConfig(seed=0))
    assert calls[0] == 17
    oracle, _ = _counting(make_problem("ChainedLQ", 8), bad_call=5)
    spec = ExperimentSpec(solver="gs", problem="ChainedLQ", n=8, replications=1,
                          measure_time=False)
    report, result = harness._single_run(spec, oracle, 0, 5e-4)
    assert result is None
    assert report.stop_reason.startswith("abort: ChainedLQ: non-finite gradient at row 3")
    assert not report.converged and report.g_eval == 0


def test_radius_shrinks_on_failure_or_stationarity():
    oracle = make_problem("MAXL-gen", 6)
    res = gs_run(oracle, GsConfig(seed=2, max_iters=300))
    radii = [rec.radius for rec in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(radii, radii[1:]))
    kinds = {rec.kind for rec in res.trace}
    assert "shrink" in kinds and "step" in kinds


def test_ascent_direction_shrinks_after_every_backtrack_fails():
    # the gradient's sign is flipped, so -g~ points uphill and every Armijo
    # backtrack fails: each iteration is a shrink that leaves x where it was
    oracle = replace(quadratic_oracle(2), eval_grad=lambda x: -2.0 * x)
    x0 = np.array([3.0, -4.0])
    res = gs_run(oracle, GsConfig(seed=0, max_iters=5), x0=x0)
    assert [rec.kind for rec in res.trace] == ["shrink"] * 5
    assert all(rec.gnorm > 1.0 for rec in res.trace)
    radii = [rec.radius for rec in res.trace]
    assert radii[0] == 1.0 and all(b == a * 0.1 for a, b in zip(radii, radii[1:]))
    np.testing.assert_array_equal(res.x, x0)
    assert res.f == 25.0


def test_callback_and_determinism():
    oracle = make_problem("ChainedLQ", 8)
    target = oracle.f_star + 1e-3 * (abs(oracle.f_star) + 1)
    a = gs_run(oracle, GsConfig(seed=7), stop_callback=lambda r: r.f_val <= target)
    b = gs_run(oracle, GsConfig(seed=7), stop_callback=lambda r: r.f_val <= target)
    assert a.stop_reason == "callback"
    assert a.f == b.f and a.grad_evals == b.grad_evals
    np.testing.assert_array_equal(a.x, b.x)


def test_config_validation():
    with pytest.raises(ValueError, match="m must be positive"):
        GsConfig(m=0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        GsConfig(seed=-1)
    with pytest.raises(ValueError, match="max_iters must be at least 1"):
        GsConfig(max_iters=0)
    # a float, even an integral one, or a bool is refused, naming the field
    for field, value in [("m", 2.5), ("m", 4.0), ("seed", 1.5), ("max_iters", 2.5),
                         ("seed", False)]:
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            GsConfig(**{field: value})
    assert GsConfig().resolve_m(50) == 100
    assert GsConfig(m=np.int64(3), seed=np.uint8(1), max_iters=np.int32(2)).resolve_m(50) == 3


def test_bad_x0_rejected():
    oracle = quadratic_oracle(2)
    for x0 in (np.array([1.0, np.nan]), np.array([1.0, np.inf]), np.ones(3)):
        with pytest.raises(ValueError, match="x0 must be a finite vector"):
            gs_run(oracle, GsConfig(), x0=x0)
    # the right size in the wrong shape is refused before the oracle sees it
    with pytest.raises(ValueError, match="x0 must be a finite vector"):
        gs_run(make_problem("ChainedLQ", 4), GsConfig(), x0=np.ones((2, 2)))


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
