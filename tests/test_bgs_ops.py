"""Elementary bundle operations: errors, directions, criteria, selection."""

import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import (abs_oracle, quadratic_oracle, reference_build_initial_model,
                     reference_select_indices)

from bundlegs import bgs
from bundlegs.bgs import (
    AggregateAtom,
    ConvexityError,
    SolverConfig,
    aggregate,
    build_initial_model,
    direction_from_dual,
    extrapolate,
    fdp_perturb,
    improvement_criterion,
    linearization_error,
    model_stalled,
    select_indices,
    sufficient_decrease,
)
from bundlegs.harness import perturb_start
from bundlegs.problems import EvaluationError, GradientMode, ObjectiveOracle, make_problem
from bundlegs.qp import SimplexQpSolution
from bundlegs.sampling import sample_ball


def _solution(g, e):
    g = np.asarray(g, float)
    return SimplexQpSolution(lam=np.array([1.0]), g_tilde=g, e_tilde=e,
                             w=0.0, kkt_residual=0.0, iterations=1, converged=True)


class TestLinearizationError:
    def test_abs_same_side(self):
        o = abs_oracle()
        s = np.array([2.0])
        assert linearization_error(1.0, o.f(s), o.grad(s), np.array([1.0]), s) == 0.0

    def test_abs_opposite_side(self):
        o = abs_oracle()
        s = np.array([-1.0])
        e = linearization_error(1.0, o.f(s), o.grad(s), np.array([1.0]), s)
        assert abs(e - 2.0) < 1e-14

    def test_source_point_is_zero(self):
        o = quadratic_oracle(3)
        x = np.array([0.3, -0.2, 1.0])
        assert linearization_error(o.f(x), o.f(x), o.grad(x), x, x) == 0.0

    def test_strict_mode_flags_nonconvex(self):
        # a broken "concave" oracle yields clearly negative errors
        from bundlegs.problems import ObjectiveOracle

        bad = ObjectiveOracle("bad", 1, 0.0, np.zeros(1),
                              lambda x: -float(x @ x), lambda x: -2.0 * x)
        s = np.array([1.0])
        with pytest.raises(ConvexityError):
            linearization_error(0.0, bad.f(s), bad.grad(s), np.array([0.0]), s)

    def test_non_strict_clamps(self):
        from bundlegs.problems import ObjectiveOracle

        bad = ObjectiveOracle("bad", 1, 0.0, np.zeros(1),
                              lambda x: -float(x @ x), lambda x: -2.0 * x)
        s = np.array([1.0])
        e = linearization_error(0.0, bad.f(s), bad.grad(s), np.array([0.0]), s, strict=False)
        assert e == 0.0


class TestBuildInitialModel:
    def test_single_atom(self):
        o = quadratic_oracle(2)
        x = np.array([1.0, 1.0])
        rows, _ = build_initial_model(o, x, 0.5, 0, np.random.default_rng(0))
        assert len(rows) == 1
        assert rows[0, -1] == 0.0
        np.testing.assert_array_equal(rows[0, :-1], o.grad(x))

    def test_row_zero_is_the_gradient_at_x_k(self):
        o = make_problem("MAXQ-gen", 3)
        x = np.array([0.5, -1.0, 2.0])
        rows, _ = build_initial_model(o, x, 0.5, 4, np.random.default_rng(3))
        assert rows.shape == (5, 4)
        np.testing.assert_array_equal(rows[0, :-1], o.grad(x))
        assert rows[0, -1] == 0.0

    def test_errors_bounded_by_curvature(self):
        # for f = ||x||^2 the error equals ||x - s||^2 <= eps^2
        o = quadratic_oracle(4)
        eps = 0.3
        rows, _ = build_initial_model(o, np.ones(4), eps, 12, np.random.default_rng(1))
        assert len(rows) == 13
        for err in rows[1:, -1]:
            assert -1e-14 <= err <= eps ** 2 * (1 + 1e-9)

    def test_maxq_errors_nonnegative(self):
        o = make_problem("MAXQ-gen", 2)
        rows, _ = build_initial_model(o, np.array([1.0, 1.0]), 0.5, 4, np.random.default_rng(2))
        assert all(err >= 0.0 for err in rows[:, -1])


class TestDirectionFromDual:
    def test_zero_aggregate_terminates(self):
        out = direction_from_dual(_solution([0.0, 0.0], 0.0), 1.0, 0.5)
        assert out.v == 0.0 and out.z == 0.0
        np.testing.assert_array_equal(out.direction, [0.0, 0.0])

    def test_unit_scale(self):
        out = direction_from_dual(_solution([1.0, 0.0], 0.5), 1.0, 0.5)
        np.testing.assert_allclose(out.direction, [-1.0, 0.0])
        assert out.z == -1.5 and out.v == 1.0 and out.w == 1.0

    def test_quarter_scale(self):
        # eps^alpha = 0.25
        out = direction_from_dual(_solution([2.0, 0.0], 0.0), 0.0625, 0.5)
        np.testing.assert_allclose(out.direction, [-0.5, 0.0])
        assert abs(out.z + 1.0) < 1e-14
        assert out.v == 2.0 and out.w == 2.0

    def test_aggregate_pair(self):
        # an AggregateAtom gives the same step as a QP solution with its pair
        agg = AggregateAtom(np.array([3.0, -4.0]), 0.5)
        a = direction_from_dual(agg, 0.25, 0.5)
        b = direction_from_dual(_solution([3.0, -4.0], 0.5), 0.25, 0.5)
        np.testing.assert_array_equal(a.direction, b.direction)
        assert (a.z, a.v, a.w) == (b.z, b.v, b.w)

    def test_identities_hold(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = rng.standard_normal(3)
            e = float(rng.uniform(0, 2))
            eps, alpha = float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.2, 1.5))
            out = direction_from_dual(_solution(g, e), eps, alpha)
            s = eps ** alpha
            assert np.linalg.norm(out.direction + s * g) <= 1e-10
            assert abs(out.z + s * float(g @ g) + e) <= 1e-10
            assert out.z <= 0.0 and out.v >= 0.0


class TestSufficientDecrease:
    def test_zero_step(self):
        assert sufficient_decrease(0.0, 0.0, 0.0, 0.5)

    def test_big_drop(self):
        # f = ||x||^2 from (1, 0) by d = (-1, 0)
        assert sufficient_decrease(1.0, 0.0, -1.0, 1e-6)

    def test_increase_fails(self):
        # f = |x| from 1 by d = 1
        assert not sufficient_decrease(1.0, 2.0, -0.1, 1e-6)


def _counting(oracle):
    """The oracle with every `eval_f` point recorded in the returned list."""
    points = []

    def eval_f(x):
        points.append(x.copy())
        return oracle.eval_f(x)
    return replace(oracle, eval_f=eval_f), points


class TestFdpPerturb:
    def test_already_acceptable_is_unchanged(self):
        # x + d and f there are returned as they came, without an evaluation
        o, points = _counting(quadratic_oracle(2))
        rng = np.random.default_rng(0)
        x, d = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        out, f_out = fdp_perturb(o, x, 1.0, d, 0.0, 0.5, -1.0, "FDP1", rng)
        np.testing.assert_array_equal(out, x + d)
        assert f_out == 0.0 and points == []

    def test_kink_gets_perturbed_within_sigma(self):
        # x + d lands exactly on the kink of |x|; the result must move off it,
        # stay within the perturbation radius, and keep the decrease condition
        o, points = _counting(abs_oracle())
        rng = np.random.default_rng(5)
        x, d = np.array([1.0]), np.array([-1.0])
        out, f_out = fdp_perturb(o, x, 1.0, d, 0.0, 0.5, -1.0, "FDP1", rng)
        assert out[0] != 0.0
        assert abs(out[0] - 0.0) < bgs._FDP_SIGMA
        assert f_out == o.f(out)
        assert f_out - 1.0 <= 0.5 * -1.0
        # the kink x + d is not differentiable and costs no evaluation
        assert len(points) == 2 and all(p[0] != 0.0 for p in points)

    def test_fdp2_preserves_violation(self):
        # trial lands on the kink while f(x+d) - f(x) = -0.5 > beta*z = -0.9;
        # the perturbation must move off the kink keeping the inequality
        o, points = _counting(abs_oracle())
        rng = np.random.default_rng(6)
        x, d = np.array([0.5]), np.array([-0.5])
        out, f_out = fdp_perturb(o, x, 0.5, d, 0.0, 0.9, -1.0, "FDP2", rng)
        assert out[0] != 0.0
        assert abs(out[0]) < bgs._FDP_SIGMA
        assert f_out == o.f(out)
        assert f_out - 0.5 > 0.9 * -1.0
        assert len(points) == 2

    def test_tiny_sigma_contract(self, monkeypatch):
        # no trial point is evaluated twice, and none leaves the radius
        monkeypatch.setattr(bgs, "_FDP_SIGMA", 1e-3)
        o, points = _counting(abs_oracle())
        rng = np.random.default_rng(7)
        out, f_out = fdp_perturb(o, np.array([1.0]), 1.0, np.array([-1.0]), 0.0, 0.5, -1.0,
                                 "FDP1", rng)
        assert abs(out[0] - 0.0) <= 1e-3
        assert f_out == o.f(out) == abs(out[0])
        assert len(points) == 2

    def test_fdp1_that_finds_no_point_evaluates_its_last_draw_once(self):
        # FDP1 can never hold when beta*z is below -f(x): every draw fails
        o, points = _counting(abs_oracle())
        rng = np.random.default_rng(8)
        x, d = np.array([1.0]), np.array([-1.0])
        with pytest.warns(UserWarning, match="no acceptable perturbation"):
            out, f_out = fdp_perturb(o, x, 1.0, d, 0.0, 0.5, -4.0, "FDP1", rng)
        assert f_out == abs(out[0])
        np.testing.assert_array_equal(points[-1], out)
        assert len({p.tobytes() for p in points}) == len(points)


class TestImprovementCriterion:
    def test_zero_error_enriches(self):
        agg = AggregateAtom(np.array([1.0]), 0.5)
        assert improvement_criterion(0.0, agg, 10.0, 0.9)

    def test_second_clause(self):
        agg = AggregateAtom(np.array([0.0]), 1.0)
        assert improvement_criterion(10.0, agg, 0.5, 0.9)

    def test_both_fail_means_null(self):
        agg = AggregateAtom(np.array([np.sqrt(0.2)]), 1.0)
        assert not improvement_criterion(10.0, agg, 5.0, 0.9)


class TestModelStalled:
    def test_young_loop_never_stalls(self):
        # w constant, but only window entries so far
        assert not model_stalled([1.0] * 6, 6, 0.9)

    def test_flat_w_stalls(self):
        assert model_stalled([1.0] * 7, 6, 0.9)

    def test_ten_percent_over_window_keeps_going(self):
        assert not model_stalled([1.0, 0.99, 0.98, 0.97, 0.96, 0.95, 0.89], 6, 0.9)

    def test_slow_harmonic_decay_stalls(self):
        # w_i ~ 1/i, as in an inner loop creeping towards a minimizer
        ws = [1.0 / (i + 1) for i in range(200)]
        assert model_stalled(ws, 6, 0.9)
        assert not model_stalled(ws[:8], 6, 0.9)

    def test_compares_against_window_start_only(self):
        # one flat step inside the window does not matter
        assert not model_stalled([1.0, 0.5, 0.5, 0.4], 3, 0.9)
        assert model_stalled([1.0, 0.5, 0.5, 0.5, 0.46], 3, 0.9)


class TestExtrapolate:
    def test_linear_stretch_until_kink(self):
        # f = |x| from x = 10 with d = -1: t doubles to 8, t = 16 overshoots
        o = abs_oracle()
        t, f_t = extrapolate(o, np.array([10.0]), np.array([-1.0]), 10.0, 9.0, -1.0, 1e-6)
        assert t == 8.0
        assert f_t == 2.0

    def test_overshooting_double_keeps_step(self):
        o = abs_oracle()
        t, f_t = extrapolate(o, np.array([1.0]), np.array([-1.0]), 1.0, 0.0, -1.0, 1e-6)
        assert (t, f_t) == (1.0, 0.0)

    def test_sufficient_decrease_bounds_the_stretch(self):
        # f = ||x||^2 from x = 1, d = -0.1: f keeps falling up to t = 10, but
        # with beta = 0.7 the test f(x + t d) - 1 <= -0.14 t fails at t = 8
        o = quadratic_oracle(1)
        x, d = np.array([1.0]), np.array([-0.1])
        z = -0.2
        assert o.f(x + 8.0 * d) < o.f(x + 4.0 * d)
        t, f_t = extrapolate(o, x, d, 1.0, o.f(x + d), z, 0.7)
        assert t == 4.0
        assert f_t == o.f(x + 4.0 * d)
        assert f_t - 1.0 <= 0.7 * t * z

    def test_non_finite_value_ends_search(self):
        from bundlegs.problems import ObjectiveOracle

        o = ObjectiveOracle("wall", 1, 0.0, np.zeros(1),
                            lambda x: -x[0] if x[0] < 3.0 else np.inf,
                            lambda x: np.array([-1.0]))
        t, f_t = extrapolate(o, np.array([0.0]), np.array([1.0]), 0.0, -1.0, -1.0, 1e-6)
        assert (t, f_t) == (2.0, -2.0)

    def test_doubling_cap(self):
        from bundlegs.problems import ObjectiveOracle

        o = ObjectiveOracle("lin", 1, -np.inf, np.zeros(1),
                            lambda x: -x[0], lambda x: np.array([-1.0]))
        # unbounded below: the search still ends
        t, _ = extrapolate(o, np.array([0.0]), np.array([1.0]), 0.0, -1.0, -1.0, 1e-6)
        assert t == 2.0 ** 60


class TestSelectIndices:
    def test_cumulative_rule(self):
        assert select_indices(np.array([0.5, 0.3, 0.2]), 0.9) == [0, 1]

    def test_theta_zero_keeps_only_forced(self):
        assert select_indices(np.array([0.5, 0.3, 0.2]), 0.0) == []
        assert select_indices(np.array([0.5, 0.3, 0.2]), 0.0, forced=(0,)) == [0]

    def test_theta_one_keeps_all(self):
        assert select_indices(np.array([0.25, 0.25, 0.25, 0.25]), 1.0) == [0, 1, 2, 3]

    def test_unnormalized_weights(self):
        # denominator is the total mass of the given multipliers
        assert select_indices(np.array([0.25, 0.15, 0.1]), 0.9) == [0, 1]

    def test_ties_prefer_lowest_index(self):
        assert select_indices(np.array([0.4, 0.4, 0.2]), 0.5) == [0]

    def test_zero_mass(self):
        assert select_indices(np.zeros(3), 0.9, forced=(1,)) == [1]


class TestAggregate:
    # rows are [g_j, e_j]; a prior aggregate is the last row

    def test_single_atom_identity(self):
        row = np.array([1.0, 2.0, 0.25])
        agg = aggregate(np.array([1.0]), row[None, :])
        np.testing.assert_array_equal(agg.g_tilde, row[:-1])
        assert agg.e_tilde == 0.25

    def test_prior_passthrough(self):
        prior = AggregateAtom(np.array([3.0, -1.0]), 0.7)
        rows = np.array([[1.0, 2.0, 0.25], [3.0, -1.0, 0.7]])
        agg = aggregate(np.array([0.0, 1.0]), rows)
        np.testing.assert_array_equal(agg.g_tilde, prior.g_tilde)
        assert agg.e_tilde == prior.e_tilde

    def test_even_mix(self):
        rows = np.array([[1.0, 0.0], [-1.0, 2.0]])
        agg = aggregate(np.array([0.5, 0.5]), rows)
        np.testing.assert_array_equal(agg.g_tilde, [0.0])
        assert agg.e_tilde == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            aggregate(np.array([0.5, 0.5]), np.zeros((1, 2)))

    def test_sums_row_by_row(self):
        # `run` relies on this order bit for bit: with near-duplicate rows,
        # lam @ rows rounds differently in almost every draw
        rng = np.random.default_rng(17)
        for _ in range(200):
            p, n = int(rng.integers(2, 52)), int(rng.integers(1, 501))
            rows = rng.standard_normal(n + 1) + 1e-9 * rng.standard_normal((p, n + 1))
            lam = rng.uniform(size=p)
            lam /= lam.sum()
            want = np.zeros(n + 1)
            for lam_j, row_j in zip(lam, rows):
                want = want + lam_j * row_j
            agg = aggregate(lam, rows)
            assert agg.g_tilde.tobytes() == want[:-1].tobytes()
            assert np.float64(agg.e_tilde).tobytes() == np.float64(max(want[-1], 0.0)).tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0)
    with pytest.raises(ValueError):
        SolverConfig(beta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(theta=1.5)
    with pytest.raises(ValueError):
        SolverConfig(eps0=-1.0)
    assert SolverConfig().resolve_m(10) == 20
    assert SolverConfig().resolve_m(50) == 5
    assert SolverConfig(m=7).resolve_m(50) == 7


# ---------------------------------------------------------------------------
# byte identity with the point-by-point path (tests/helpers.py keeps it)
# ---------------------------------------------------------------------------


def _random_multipliers(rng):
    """Weights with ties, zeros and -0.0, as the QP hands them over."""
    p = int(rng.integers(1, 14))
    kind = rng.integers(0, 4)
    if kind == 0:
        lam = rng.uniform(0.0, 1.0, p)
    elif kind == 1:  # a few distinct values, many ties
        lam = rng.choice([0.0, 0.125, 0.25, 1.0 / 3.0], p)
    elif kind == 2:  # sparse, with signed zeros
        lam = rng.uniform(0.0, 1.0, p) * (rng.uniform(size=p) < 0.4)
        lam[rng.uniform(size=p) < 0.5] *= -1.0
        lam = np.where(lam < 0.0, -0.0, lam)
    else:  # on the simplex, as a solution's lam
        lam = rng.dirichlet(np.full(p, 0.3))
    return lam


def test_select_indices_matches_the_old_selection():
    rng = np.random.default_rng(11)
    for _ in range(3000):
        lam = _random_multipliers(rng)
        theta = float(rng.choice([0.0, 0.5, 0.9, 1.0, rng.uniform()]))
        forced = tuple(int(j) for j in rng.choice(lam.size, int(rng.integers(0, 3))))
        for args in ((lam, theta), (lam, theta, forced), (lam, theta, (0,))):
            got = select_indices(*args)
            assert got == reference_select_indices(*args), (lam.tolist(), theta, forced)
            assert all(type(j) is int for j in got)


def test_select_indices_orders_ties_and_signed_zeros_by_position():
    lam = np.array([0.0, 0.25, -0.0, 0.25, 0.5, 0.0])
    for theta in (0.0, 0.5, 0.75, 1.0):
        assert select_indices(lam, theta) == reference_select_indices(lam, theta)
    assert select_indices(lam, 0.75) == [1, 4]
    assert select_indices(lam, 1.0) == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("n", [2, 50, 500])
@pytest.mark.parametrize("problem", range(1, 9))
def test_initial_model_matches_the_point_by_point_loop(problem, n):
    oracle = make_problem(str(problem), n)
    x = perturb_start(oracle.x0, n, np.random.default_rng([3, 1]))
    f_x = oracle.f(x)
    for m in (0, {2: 4, 50: 5, 500: 50}[n]):
        for eps in (1.0, 1e-3):
            rng, ref_rng = np.random.default_rng(problem), np.random.default_rng(problem)
            rows, spent = build_initial_model(oracle, x, eps, m, rng, f_xk=f_x)
            want = reference_build_initial_model(oracle, x, eps, m, ref_rng, f_xk=f_x)
            assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert spent == m + 1


def _tilted_plane(delta: float) -> ObjectiveOracle:
    """f = 1 + a.x - delta ||x||^2: a plane bent down by delta, whose error at
    the origin for a sample s is -delta ||s||^2 plus round-off."""
    a = np.array([0.3, -0.2, 0.1])
    return ObjectiveOracle("bent-plane", 3, 0.0, np.zeros(3),
                           lambda x: 1.0 + float(a @ x) - delta * float(x @ x),
                           lambda x: a - 2.0 * delta * x)


def _bent_and_broken() -> ObjectiveOracle:
    """The bent plane with a NaN gradient where x_0 > 0.5: rows past the
    noise floor and bad points in one model."""
    bent = _tilted_plane(1.5e-12)
    return replace(bent, name="bent-broken", eval_grad=lambda x: (
        np.full(3, np.nan) if x[0] > 0.5 else bent.eval_grad(x)))


def _model_or_error(build, oracle, seed, m, mode, f_xk=None):
    rng = np.random.default_rng(seed)
    try:
        out = build(oracle, np.zeros(oracle.dimension), 1.0, m, rng, f_xk=f_xk, mode=mode)
    except (ConvexityError, EvaluationError) as exc:
        return type(exc), str(exc)
    rows = out[0] if isinstance(out, tuple) else out
    return rows.tobytes(), rng.bit_generator.state


# delta 0: errors of round-off size on both sides of 0, clamped below 0;
# delta 1.5e-12: every error below 0, some past the noise floor (1e-12 to
# 1.7e-12 here), which raises ConvexityError in strict mode for the first
# such row.  With bad points as well, the error raised is the one the loop
# meets first.  The sets are the outcomes of 200 seeds in strict mode;
# forward differences clamp every error and never call the broken
# gradient, so they always give rows.
@pytest.mark.parametrize("oracle,strict_outcomes", [
    (_tilted_plane(0.0), {"rows"}),
    (_tilted_plane(1.5e-12), {"rows", "ConvexityError"}),
    (_bent_and_broken(), {"rows", "ConvexityError", "EvaluationError"})],
    ids=["plane", "floor", "bent-broken"])
@pytest.mark.parametrize("mode", [GradientMode.exact(), GradientMode.forward(1e-7)],
                         ids=["exact", "forward"])
def test_initial_model_errors_match_the_loop_at_the_clamp_and_the_floor(
        oracle, strict_outcomes, mode):
    seen = {"rows": 0, "clamped": 0, "ConvexityError": 0, "EvaluationError": 0}
    for seed in range(200):
        got = _model_or_error(build_initial_model, oracle, seed, 6, mode)
        want = _model_or_error(reference_build_initial_model, oracle, seed, 6, mode)
        assert got == want, seed
        if isinstance(want[0], bytes):
            seen["rows"] += 1
            seen["clamped"] += int((np.frombuffer(want[0]).reshape(7, 4)[1:, -1] == 0.0).any())
        else:
            seen[want[0].__name__] += 1
    outcomes = {k for k, v in seen.items() if v and k != "clamped"}
    assert outcomes == (strict_outcomes if mode.kind == "exact" else {"rows"}), seen
    assert seen["clamped"], seen


def test_initial_model_keeps_an_error_of_minus_zero():
    # f = 0 with a zero gradient: f_xk = -0.0 gives the error -0.0 - (0.0 + 0.0)
    flat = ObjectiveOracle("flat", 2, 0.0, np.zeros(2), lambda x: 0.0, lambda x: np.zeros(2))
    for mode in (GradientMode.exact(), GradientMode.forward(1e-7)):
        got = _model_or_error(build_initial_model, flat, 0, 3, mode, f_xk=-0.0)
        want = _model_or_error(reference_build_initial_model, flat, 0, 3, mode, f_xk=-0.0)
        assert got == want
        errors = np.frombuffer(got[0]).reshape(4, 3)[1:, -1]
        assert all(math.copysign(1.0, e) == -1.0 for e in errors), errors


def test_initial_model_makes_one_block_call_per_model_in_either_mode(monkeypatch):
    oracle, n, m = make_problem("ChainedLQ", 10), 10, 7
    calls = {"sample_rows": 0, "eval_f": 0, "eval_grad": 0}

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(bgs, "sample_rows", counted("sample_rows", bgs.sample_rows))
    probe = replace(oracle, eval_f=counted("eval_f", oracle.eval_f),
                    eval_grad=counted("eval_grad", oracle.eval_grad))
    x = oracle.x0
    # exact: a gradient at x_k and at each sample, and each sample's value;
    # forward: n + 1 values at each sample, whose base is its value, and n at
    # x_k, whose base is f_xk
    for mode, want in ((GradientMode.exact(), {"eval_f": m, "eval_grad": m + 1}),
                       (GradientMode.forward(1e-8), {"eval_f": (m + 1) * (n + 1) - 1,
                                                     "eval_grad": 0})):
        calls.update(dict.fromkeys(calls, 0))
        _, spent = build_initial_model(probe, x, 0.5, m, np.random.default_rng(0),
                                       f_xk=oracle.f(x), mode=mode)
        assert calls == {"sample_rows": 1, **want} and spent == m + 1
    # each redrawn sample is evaluated by a call of its own
    redrawn = 0
    for broken, mode in (("grad", GradientMode.exact()), ("f", GradientMode.forward(1e-9))):
        for seed in range(20):
            calls["sample_rows"] = 0
            try:
                _, spent = build_initial_model(_half_broken_oracle(broken), np.zeros(2), 1.0, 4,
                                               np.random.default_rng(seed), mode=mode)
            except EvaluationError:
                continue
            assert calls["sample_rows"] == 1 + (spent - 5)
            redrawn += spent - 5
    assert redrawn


# ---------------------------------------------------------------------------
# the resampling rule of the initial model
# ---------------------------------------------------------------------------


def _half_broken_oracle(broken: str) -> ObjectiveOracle:
    """f = ||x||^2 / 2 with gradient x, but `broken` ("grad" or "f") is NaN
    where x_0 > 0.5, about a fifth of the unit disc around the origin."""
    def f(x):
        return math.nan if broken == "f" and x[0] > 0.5 else 0.5 * float(x @ x)

    def g(x):
        return np.full(2, np.nan) if broken == "grad" and x[0] > 0.5 else x.copy()

    return ObjectiveOracle("half-broken", 2, 0.0, np.zeros(2), f, g)


# forward differences never call the broken gradient
@pytest.mark.parametrize("broken,mode", [
    ("grad", GradientMode.exact()), ("f", GradientMode.exact()),
    ("f", GradientMode.forward(1e-9))], ids=["grad-exact", "f-exact", "f-forward"])
def test_initial_model_resamples_a_bad_point_once(broken, mode):
    oracle = _half_broken_oracle(broken)
    x, eps, m = np.zeros(2), 1.0, 4
    seen = {"clean": 0, "resampled": 0, "raised": 0}
    for seed in range(150):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            want = reference_build_initial_model(oracle, x, eps, m, ref_rng, mode=mode)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                build_initial_model(oracle, x, eps, m, rng, mode=mode)
            seen["raised"] += 1
            continue
        rows, spent = build_initial_model(oracle, x, eps, m, rng, mode=mode)
        assert rows.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # each bad sample is replaced by the next single draw from the ball
        draw = np.random.default_rng(seed)
        points = sample_ball(x, eps, m, draw)
        bad = [j for j, s in enumerate(points) if s[0] > 0.5]
        for j, s in enumerate(points):
            fresh = sample_ball(x, eps, 1, draw)[0] if j in bad else s
            if mode.kind == "exact":
                assert rows[j + 1, :-1].tobytes() == fresh.tobytes()
            else:
                np.testing.assert_allclose(rows[j + 1, :-1], fresh, atol=1e-5)
        assert draw.bit_generator.state == rng.bit_generator.state
        # a replaced point costs one more gradient
        assert spent == m + 1 + len(bad)
        seen["resampled" if bad else "clean"] += 1
    # every branch of the rule was taken
    assert min(seen.values()) > 0, seen
