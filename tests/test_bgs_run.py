"""Full solver runs: smoke convergence, trace invariants, determinism."""

import inspect
import warnings
from dataclasses import replace

import numpy as np
import pytest
from helpers import audited_run, huge_gradient_oracle, quadratic_oracle, steep_oracle

from bundlegs import bgs, gs, harness
from bundlegs.bgs import QpFailureError, SolverConfig, StepKind, run
from bundlegs.harness import ExperimentSpec, perturb_start
from bundlegs.problems import EvaluationError, GradientMode, make_problem
from bundlegs.qp import SimplexQpInstance


def traced_run(oracle, seed=0, m=None, eps0=1.0, max_outer=200, stop_abs=None,
               x0=None):
    cfg = SolverConfig(seed=seed, m=m, eps0=eps0, max_outer=max_outer)
    cb = None
    if stop_abs is not None:
        cb = lambda rec: rec.f_val - oracle.f_star <= stop_abs  # noqa: E731
    return audited_run(oracle, cfg, x0, stop_callback=cb)


def test_smooth_quadratic_smoke():
    res = run(quadratic_oracle(2), SolverConfig(seed=1, m=4, max_outer=100))
    assert res.f <= 1e-8
    assert res.outer_iters <= 100


def test_grad_eval_accounting(monkeypatch):
    # m per outer iteration, one per row 0 evaluated afresh (at x0 and after
    # a serious step: a null step keeps x_k's), one per enrichment, and one
    # per null step taken on the improvement criterion (a revisit or a stall
    # costs no cut).  ChainedLQ takes every null step on the criterion, Rosen
    # most of them on a revisit or a stall.
    refused, real = [], bgs.improvement_criterion

    def criterion(*args):
        refused.append(not real(*args))
        return not refused[-1]

    monkeypatch.setattr(bgs, "improvement_criterion", criterion)
    for name, n, seed, m, max_outer in (("ChainedLQ", 10, 2, 6, 30), ("Rosen", None, 0, 8, 300)):
        refused.clear()
        res, _ = traced_run(make_problem(name, n), seed=seed, m=m, max_outer=max_outer)
        outers = res.trace[-1].k + 1
        ends = {r.k: r.kind for r in res.trace}  # the record that ends each outer iteration
        fresh = 1 + sum(ends[k] is StepKind.SERIOUS_STEP for k in range(outers - 1))
        enrich = sum(r.kind is StepKind.INNER_ENRICH for r in res.trace)
        nulls = sum(r.kind is StepKind.NULL_STEP for r in res.trace)
        assert fresh < outers and 0 < sum(refused) <= nulls
        assert res.grad_evals == outers * m + fresh + enrich + sum(refused)
        assert res.grad_evals == res.trace[-1].grad_evals_cum


def _recording(oracle):
    """The oracle with the bytes of every eval_f and eval_grad point recorded."""
    f_points, g_points = [], []
    probe = replace(oracle, eval_f=lambda x: f_points.append(x.tobytes()) or oracle.eval_f(x),
                    eval_grad=lambda x: g_points.append(x.tobytes()) or oracle.eval_grad(x))
    return probe, f_points, g_points


def _rosen_fd_start(seed):
    oracle = make_problem("Rosen")
    return perturb_start(oracle.x0, 4, np.random.default_rng([seed, 1]))


def test_no_point_gets_its_gradient_twice():
    # row 0 is kept across a null step, a stalled model spends no cut and a
    # revisited trial point no call: the exact rosen_fd solves, and ChainedLQ
    cases = [("Rosen", None, _rosen_fd_start(s), SolverConfig(seed=s, m=8, max_outer=300))
             for s in range(5)]
    cases.append(("ChainedLQ", 10, None, SolverConfig(seed=2, m=6, max_outer=30)))
    for name, n, start, config in cases:
        oracle, _, g_points = _recording(make_problem(name, n))
        res = run(oracle, config, start)
        assert len(g_points) == len(set(g_points)) == res.grad_evals


def test_a_revisited_trial_point_ends_the_chain_at_no_oracle_call():
    # seed 0 of the exact rosen_fd solves: some inner chains come back to a
    # trial point x_k + d they have tried; the null step follows the record
    # that set d with no objective or gradient call in between
    oracle, f_points, g_points = _recording(make_problem("Rosen"))
    calls = []  # (objective calls, gradient calls) when each record is emitted
    res, audits = audited_run(
        oracle, SolverConfig(seed=0, m=8, max_outer=300), _rosen_fd_start(0),
        stop_callback=lambda rec: calls.append((len(f_points), len(g_points))))
    revisits, chain_start = 0, 0  # f_points index where the current chain began
    for j, rec in enumerate(res.trace):
        # a trial point evaluated before the record that set d is a revisit
        if rec.kind is StepKind.NULL_STEP and rec.i > 0:
            trial = (audits[j].x_k + audits[j].d).tobytes()
            if trial in f_points[chain_start:calls[j - 1][0]]:
                revisits += 1
                assert calls[j] == calls[j - 1]
        if rec.kind is not StepKind.INNER_ENRICH:
            chain_start = calls[j][0]
    assert revisits > 0


def test_grad_evals_count_every_gradient_the_oracle_computes():
    # f = ||x||^2 from (1, 1) with a NaN gradient where x_0 > 1.6: the first
    # balls reach past that line, and each bad sample is drawn again
    calls = []

    def eval_grad(x):
        calls.append(x[0] > 1.6)
        return np.full(2, np.nan) if x[0] > 1.6 else 2.0 * x

    oracle = replace(quadratic_oracle(2), eval_grad=eval_grad)
    res = run(oracle, SolverConfig(seed=0, m=4))
    assert any(calls)
    assert res.grad_evals == len(calls) == res.trace[-1].grad_evals_cum


SOLVERS = {"bgs": lambda o: run(o, SolverConfig(seed=0, m=4)),
           "gs": lambda o: gs.gs_run(o, gs.GsConfig(seed=0, m=4))}
WRONG_SHAPES = {"scalar": lambda x: 2.0 * float(x.sum()), "short": lambda x: 2.0 * x[:2]}


@pytest.mark.parametrize("solve", list(SOLVERS.values()), ids=list(SOLVERS))
@pytest.mark.parametrize("eval_grad", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES))
def test_gradient_of_the_wrong_shape_is_refused(solve, eval_grad):
    # f = ||x||^2 in 3-D: a scalar gradient would broadcast over a whole row
    # and a short one fail numpy's broadcast; both end at the start point
    calls = []
    oracle = replace(quadratic_oracle(3), eval_grad=lambda x: calls.append(1) or eval_grad(x))
    with pytest.raises(EvaluationError, match=r"sq: gradient of shape \(2?,?\) at x=.*"
                                              r"expected \(3,\)"):
        solve(oracle)
    assert len(calls) == 1


def test_differentiability_checks_spend_no_uncounted_gradient():
    # fdp_perturb asks smooth_at, never the gradient, so an oracle smooth
    # everywhere by its smooth_at runs as one without smooth_at, which FDP
    # never moves
    oracle = quadratic_oracle(3)

    def solve(smooth_at):
        calls = []
        probe = replace(oracle, eval_grad=lambda x: calls.append(1) or oracle.eval_grad(x),
                        smooth_at=smooth_at)
        res = run(probe, SolverConfig(seed=0, m=4, max_outer=30))
        return res.grad_evals, len(calls), res.f.hex(), res.stop_reason, res.fdp_give_ups

    assert solve(lambda x: True) == solve(None) == (21, 21, "0x1.4140000000000p-97",
                                                    "converged", 0)


def test_differentiability_checks_evaluate_no_point_twice():
    # fdp_perturb starts from the trial value run holds and returns the value
    # of the point it picks, so every objective call is at a new point
    points = []
    oracle = make_problem("ChainedLQ", 10)
    probe = replace(oracle, eval_f=lambda x: points.append(x.tobytes()) or oracle.eval_f(x))
    res = run(probe, SolverConfig(seed=4, m=8, max_outer=30))
    assert len(points) == len(set(points)) == 340
    assert res.stop_reason == "budget"


def test_trace_invariants_across_problems():
    for name, n, m in (("ChainedLQ", 10, 20), ("MAXQ-gen", 10, 5), ("Mifflin1", 2, 4)):
        oracle = make_problem(name, n) if name != "Mifflin1" else make_problem(name)
        res, audits = traced_run(oracle, seed=3, m=m, max_outer=60,
                                 stop_abs=1e-9 * (1 + abs(oracle.f_star)))
        assert len(res.trace) > 0
        radius_prev = np.inf
        f_serious_prev = np.inf
        for rec, d in zip(res.trace, audits, strict=True):
            s = d.eps_alpha
            # dual-primal identities
            assert np.linalg.norm(d.d + s * d.g_tilde) <= 1e-10
            assert abs(d.z + s * float(d.g_tilde @ d.g_tilde) + d.e_tilde) <= 1e-10
            assert d.z <= 0.0
            assert rec.v >= 0.0
            assert rec.radius <= radius_prev + 1e-15
            radius_prev = rec.radius
            # dual optimum never beats the plain-gradient atom
            assert rec.w <= 0.5 * float(d.grad_xk @ d.grad_xk) + 1e-10
            if rec.kind == StepKind.SERIOUS_STEP:
                assert rec.f_val <= d.f_xk + 1e-6 * d.z + 1e-12
                assert rec.f_val <= f_serious_prev + 1e-12
                f_serious_prev = rec.f_val
            elif rec.kind == StepKind.NULL_STEP:
                assert rec.f_val == d.f_xk


def test_radius_shrinks_exactly_on_null_steps():
    oracle = make_problem("MAXQ")
    res, _ = traced_run(oracle, seed=0, m=40, eps0=4.0, max_outer=100, stop_abs=1e-6)
    by_k = {}
    for rec in res.trace:
        by_k.setdefault(rec.k, []).append(rec)
    ks = sorted(by_k)
    for k in ks[:-1]:
        last = by_k[k][-1]
        nxt = by_k[k + 1][0]
        if last.kind == StepKind.NULL_STEP:
            assert abs(nxt.radius - 0.5 * last.radius) <= 1e-15 * last.radius
        else:
            assert nxt.radius == last.radius


def test_aggregate_subgradient_certificate():
    oracle = make_problem("ChainedLQ", 6)
    res, audits = traced_run(oracle, seed=5, m=12, max_outer=40, stop_abs=1e-7)
    rng = np.random.default_rng(77)
    for rec, d in zip(res.trace, audits, strict=True):
        slack = 1e-8 * (1.0 + abs(d.f_xk))
        for _ in range(5):
            y = d.x_k + rng.uniform(-2.0, 2.0, oracle.dimension)
            lhs = oracle.f(y)
            rhs = d.f_xk + float(d.g_tilde @ (y - d.x_k)) - d.e_tilde - slack
            assert lhs >= rhs


def test_inner_w_monotone_and_nonredundant_cuts():
    oracle = make_problem("ChainedCB3I", 10)
    res, audits = traced_run(oracle, seed=6, m=5, max_outer=40, stop_abs=5e-4 * 19.0)
    by_k = {}
    for rec in res.trace:
        if rec.kind == StepKind.INNER_ENRICH:
            by_k.setdefault(rec.k, []).append(rec)
    chains = [v for v in by_k.values() if len(v) >= 2]
    assert chains, "expected at least one multi-enrich inner loop"
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            assert b.w <= a.w + 1e-10
    for rec, d in zip(res.trace, audits, strict=True):
        if rec.kind == StepKind.INNER_ENRICH and d.d_prev is not None:
            lhs = float(d.new_atom_grad @ d.d_prev) - d.new_atom_err
            assert lhs > d.z_prev - 1e-8
            # closed-form z agrees with the max over model constraints
            assert abs(d.model_z_max - d.z) <= 1e-8 * (1.0 + abs(d.z))


def test_converged_stop_on_stationarity(monkeypatch):
    monkeypatch.setattr(bgs, "_EPS_TOL", 1e-12)
    oracle = quadratic_oracle(2)
    cfg = SolverConfig(seed=1, m=4, max_outer=100)
    res = run(oracle, cfg)
    assert res.stop_reason == "converged"
    assert res.trace[-1].kind == StepKind.CONVERGED
    assert res.trace[-1].v <= 1e-12


def test_budget_and_radius_floor_stops():
    oracle = make_problem("ChainedLQ", 6)
    res = run(oracle, SolverConfig(seed=2, m=4, max_outer=3))
    assert res.stop_reason == "budget"
    assert res.outer_iters == 3
    res = run(oracle, SolverConfig(seed=2, m=4, max_outer=500, eps0=0.5 * bgs._MIN_RADIUS))
    assert res.stop_reason == "radius_floor"
    assert (res.outer_iters, res.grad_evals, res.trace) == (0, 0, [])


def test_converged_stop_outranks_the_callback(monkeypatch):
    monkeypatch.setattr(bgs, "_EPS_TOL", 1e-12)
    res = run(quadratic_oracle(2), SolverConfig(seed=1, m=4),
              stop_callback=lambda rec: rec.kind is StepKind.CONVERGED)
    assert res.stop_reason == "converged"
    assert res.trace[-1].kind is StepKind.CONVERGED
    assert (res.outer_iters, res.grad_evals) == (3, 16)


def test_inner_limit_is_a_stop_reason_not_a_warning(monkeypatch):
    # a cap of 0 enrichments ends the first chain that enriches, at k=2
    monkeypatch.setattr(bgs, "_INNER_LIMIT_FACTOR", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(make_problem("ChainedLQ", 10), SolverConfig(seed=2, m=6, max_outer=30))
    assert res.stop_reason == "inner_limit"
    assert res.trace[-1].kind is StepKind.INNER_ENRICH
    assert (res.outer_iters, res.grad_evals) == (3, 22)


# from x0 the records run serious, null, enrich: each case stops on the
# first record of its kind
@pytest.mark.parametrize("kind", [StepKind.SERIOUS_STEP, StepKind.NULL_STEP,
                                  StepKind.INNER_ENRICH], ids=lambda kind: kind.value)
def test_callback_stop(kind):
    oracle = make_problem("ChainedLQ", 8)
    res = run(oracle, SolverConfig(seed=3, m=4, max_outer=100),
              stop_callback=lambda rec: rec.kind is kind)
    assert res.stop_reason == "callback"
    assert [rec.kind for rec in res.trace].index(kind) == len(res.trace) - 1
    assert res.f == oracle.f(res.x)
    if kind is StepKind.SERIOUS_STEP:
        assert res.f == res.trace[-1].f_val < oracle.f(oracle.x0)
    else:
        # f(x_k), as the serious step before it left it
        assert res.f == res.trace[-1].f_val == res.trace[-2].f_val


def test_deterministic_trace():
    oracle = make_problem("MAXQ-gen", 10)

    def snap(res):
        return [(r.k, r.i, r.f_val, r.v, r.w, r.radius, r.kind, r.grad_evals_cum)
                for r in res.trace]

    a = run(oracle, SolverConfig(seed=9, m=5, max_outer=40))
    b = run(oracle, SolverConfig(seed=9, m=5, max_outer=40))
    assert snap(a) == snap(b)
    np.testing.assert_array_equal(a.x, b.x)
    assert a.f == b.f


def test_differentiability_checks_run():
    # FDP moves every cut's auxiliary point; the run must finish and
    # keep descent
    oracle = make_problem("MAXL-gen", 4)
    cfg = SolverConfig(seed=4, m=8, max_outer=30)
    res = run(oracle, cfg, stop_callback=lambda rec: rec.f_val <= 1e-5)
    assert res.f <= oracle.f(perturb_start(oracle.x0, 4, np.random.default_rng([4, 1])))


@pytest.mark.parametrize("seed", range(5))
def test_battery_takes_no_cut_gradient_at_a_kink_of_maxl(monkeypatch, seed):
    # the n=50 battery's MAXL-gen runs with the default config: FDP moves
    # every cut's point off the kinks of smooth_at, with no give-up.  Without
    # FDP, 574 of the 1,674 cuts of seeds 0-4 are taken at a kink.  Only a
    # cut's linearization goes through the scalar linearization_error, so
    # its points are the cuts' points
    oracle = make_problem("MAXL-gen", 50)
    points, real = [], bgs.linearization_error

    def cut(f_xk, f_s, g_s, x_k, s, strict=True):
        points.append(s.copy())
        return real(f_xk, f_s, g_s, x_k, s, strict)

    monkeypatch.setattr(bgs, "linearization_error", cut)
    start = perturb_start(oracle.x0, 50, np.random.default_rng([seed, 1]))
    res = run(oracle, SolverConfig(seed=seed, m=5), start,
              stop_callback=lambda rec: harness.relative_error(rec.f_val, 0.0) <= 5e-4)
    assert (res.stop_reason, res.fdp_give_ups) == ("callback", 0)
    assert points and all(oracle.smooth_at(p) for p in points)


def test_differentiability_checks_give_up_nowhere_on_exact_rosen():
    # the rosen_fd protocol, seed 0: every cut's point has a differentiable
    # neighbour that also fails the test, so FDP never gives up
    oracle = make_problem("Rosen")
    start = perturb_start(oracle.x0, 4, np.random.default_rng([0, 1]))
    res = run(oracle, SolverConfig(seed=0, m=8, max_outer=300), start)
    assert (res.stop_reason, res.fdp_give_ups) == ("radius_floor", 0)
    assert harness.relative_error(res.f, oracle.f_star) <= 1e-3


def test_run_counts_each_fdp_give_up(monkeypatch):
    # MAXQ-gen's forward-difference pin: near its minimizer every piece x_i^2
    # is within the smoothness gap 1e-10 of the largest, so no point there
    # counts as differentiable.  The run counts each give-up fdp_perturb
    # returns and warns of none; GS takes no cut and counts none
    returned, real = [], bgs.fdp_perturb

    def fdp(*args):
        out = real(*args)
        returned.append(out[2])
        return out

    monkeypatch.setattr(bgs, "fdp_perturb", fdp)
    oracle = make_problem("MAXQ-gen", 10)
    mode = GradientMode.forward(1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(oracle, SolverConfig(seed=6, m=5, max_outer=60), grad_mode=mode)
        base = gs.gs_run(oracle, gs.GsConfig(seed=6, max_iters=20), grad_mode=mode)
    assert res.fdp_give_ups == sum(returned) == 34
    assert base.fdp_give_ups == 0


def test_differentiability_checks_leave_mxhilb_unmoved():
    # every cut's point of this run is differentiable already, so FDP draws
    # nothing and the run is the one without smooth_at, which FDP never moves
    oracle = make_problem("MXHILB", 10)
    start = perturb_start(oracle.x0, 10, np.random.default_rng([0, 1]))

    def solve(oracle):
        stop = lambda rec: harness.relative_error(rec.f_val, oracle.f_star) <= 5e-4  # noqa: E731
        return run(oracle, SolverConfig(seed=0), start, stop_callback=stop)

    on, off = solve(oracle), solve(replace(oracle, smooth_at=None))
    assert on.grad_evals == off.grad_evals == 170
    assert on.f.hex() == off.f.hex()


def test_forward_difference_mode_runs():
    from bundlegs.problems import GradientMode

    oracle = make_problem("Rosen")
    cfg = SolverConfig(seed=1, m=8, max_outer=100)
    res = run(oracle, cfg, grad_mode=GradientMode.forward(1e-9),
              stop_callback=lambda rec: (rec.f_val - oracle.f_star) / 45.0 <= 1e-3)
    assert (res.f - oracle.f_star) / 45.0 <= 1e-3


def test_rosen_inner_loop_does_not_stall():
    # near the minimizer each new cut lowers w only like 1/i; the stall test
    # must end such chains before the inner_limit guard does
    oracle = make_problem("Rosen")
    res = run(oracle, SolverConfig(seed=0, m=8, max_outer=300))
    assert res.stop_reason != "inner_limit"


# G G' overflows; the QP raises before LAPACK sees it
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
def test_overflowing_gram_raises_qp_failure():
    with pytest.raises(QpFailureError, match="Gram matrix overflows"):
        run(huge_gradient_oracle(), SolverConfig(seed=0, m=3))


# the errors' dots overflow; the model is refused before the QP sees it
@pytest.mark.filterwarnings("ignore:overflow encountered in vecdot:RuntimeWarning")
@pytest.mark.parametrize("seed", [3, 5])
def test_overflowing_linearization_error_aborts_the_run(seed):
    with pytest.raises(QpFailureError, match="a linearization error overflows"):
        run(steep_oracle(), SolverConfig(seed=seed, m=4, eps0=4.0),
            perturb_start(steep_oracle().x0, 2, np.random.default_rng([seed, 1])))
    spec = ExperimentSpec(solver="bgs", problem="ChainedLQ", n=2, replications=1,
                          solver_options={"m": 4, "eps0": 4.0}, measure_time=False)
    report, result = harness._single_run(spec, steep_oracle(), seed, 5e-4)
    assert result is None
    assert report.stop_reason == ("abort: initial subproblem at k=0: "
                                  "a linearization error overflows")


def test_stalled_subproblem_aborts_the_run(monkeypatch):
    solve = bgs.solve_simplex_qp
    monkeypatch.setattr(bgs, "solve_simplex_qp", lambda inst, warm_start=None: replace(
        solve(inst, warm_start=warm_start), converged=False))
    with pytest.raises(QpFailureError, match=r"^initial subproblem at k=0 stalled \(residual "):
        run(make_problem("ChainedLQ", 4), SolverConfig(seed=0, m=3))
    spec = ExperimentSpec(solver="bgs", problem="ChainedLQ", n=4, replications=1,
                          measure_time=False)
    (report,), aggregate = harness.run_experiment(spec)
    assert report.stop_reason.startswith("abort: initial subproblem at k=0 stalled")
    assert aggregate["n_excluded"] == 1


def test_bad_x0_rejected():
    oracle = quadratic_oracle(2)
    with pytest.raises(ValueError):
        run(oracle, SolverConfig(), x0=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        run(oracle, SolverConfig(), x0=np.ones(3))
    # the right size in the wrong shape is refused before the oracle sees it
    for name in ("ChainedLQ", "Rosen", "MXHILB"):
        with pytest.raises(ValueError, match="x0 must be a finite vector"):
            run(make_problem(name, 4), SolverConfig(), x0=np.ones((2, 2)))


# ---------------------------------------------------------------------------
# pinned trajectories: the gradient count and the last bit of f of runs from
# the benchmark's workloads.  Any change to the round-off of the model, the
# QP or the aggregate moves them.
# ---------------------------------------------------------------------------

# seed 0 of the n=50 battery: m=5, stop at relative error 5e-4
BATTERY_PINS = [
    ("TiltedNorm", 103, "0x1.821ec241463bep-45"),
    ("MXHILB", 567, "0x1.06172c9a10698p-11"),
    ("ChainedLQ", 369, "-0x1.1510609e4716fp+6"),
    ("ChainedCB3I", 835, "0x1.883106dd74d7cp+6"),
    ("ChainedCB3II", 147, "0x1.8815dac71651cp+6"),
    ("MAXQ-gen", 910, "0x1.04681f69cb87bp-11"),
    ("MAXL-gen", 472, "0x1.5748b4ff54e80p-12"),
    ("PartlySmooth", 172, "0x1.6cd6cd51fa58dp-16"),
]

# Rosen, m=8, 300 outer iterations, seed 0, to the solver's own stop
ROSEN_PINS = [
    (GradientMode.exact(), 1710, "-0x1.5ffffffffffabp+5"),
    (GradientMode.forward(1e-9), 1786, "-0x1.5ffffffffed49p+5"),
]


@pytest.mark.parametrize("name,grad_evals,f_hex", BATTERY_PINS,
                         ids=[p[0] for p in BATTERY_PINS])
def test_battery_trajectory_pinned(name, grad_evals, f_hex):
    oracle = make_problem(name, 50)
    start = perturb_start(oracle.x0, 50, np.random.default_rng([0, 1]))
    res = run(oracle, SolverConfig(seed=0, m=5), start,
              stop_callback=lambda rec: (rec.f_val - oracle.f_star)
              / (abs(oracle.f_star) + 1.0) <= 5e-4)
    assert res.stop_reason == "callback"
    assert (res.grad_evals, res.f.hex()) == (grad_evals, f_hex)


@pytest.mark.parametrize("mode,grad_evals,f_hex", ROSEN_PINS, ids=["exact", "forward"])
def test_rosen_trajectory_pinned(mode, grad_evals, f_hex):
    oracle = make_problem("Rosen")
    start = perturb_start(oracle.x0, 4, np.random.default_rng([0, 1]))
    res = run(oracle, SolverConfig(seed=0, m=8, max_outer=300), start, grad_mode=mode)
    assert res.stop_reason == "radius_floor"
    assert (res.grad_evals, res.f.hex()) == (grad_evals, f_hex)


@pytest.mark.parametrize("seed", range(5))
def test_rosen_solves_account_for_their_oracle_calls(seed):
    # the forward accounting check of perfbench's rosen_fd workload, on its
    # inputs: a difference gradient needs at least n values besides its base,
    # and every gradient the solver counts costs at least one base, so a
    # forward solve makes at least (n + 1) f calls per counted gradient; its
    # slack over that bound is 70 to 147 calls on these seeds
    oracle = make_problem("Rosen")
    start = perturb_start(oracle.x0, 4, np.random.default_rng([seed, 1]))
    for mode in (GradientMode.exact(), GradientMode.forward(1e-9)):
        calls = {"f": 0, "grad": 0}

        def counted(key, fn):
            def call(x):
                calls[key] += 1
                return fn(x)
            return call

        probe = replace(oracle, eval_f=counted("f", oracle.eval_f),
                        eval_grad=counted("grad", oracle.eval_grad))
        res = run(probe, SolverConfig(seed=seed, m=8, max_outer=300), start, grad_mode=mode)
        if mode.kind == "exact":
            assert calls["grad"] == res.grad_evals
        else:
            assert calls["grad"] == 0
            assert calls["f"] >= (oracle.dimension + 1) * res.grad_evals


# from the literature start at n=10, seed = the problem's index: bgs with
# forward differences (h=1e-8), m=5 and 60 outer iterations; GS in both
# modes with its default 2n samples and 20 iterations.  The objective-value
# counts are pinned too.  In a bgs run each sample of an initial model spends
# the n + 1 values of its differences, the first of which is its value; row
# 0 and each cut spend n, since their differences take the value the solver
# holds as their base; each trial point and each stretch of a serious step
# spend one.  A row 0 kept across a null step, a skipped cut and a revisited
# trial point spend none.
# GS asks for no sample value, so exact GS spends values on its line search
# only.  The GS table holds the counts from before row 0's differences took
# the solver's value as their base, and each GS iteration now spends one
# value fewer.
FD_BGS_PINS = [  # problem, grad_evals, f, eval_f calls
    (1, 707, "0x1.c4b9bba7a9c4cp-26", 7795),
    (2, 564, "0x1.8451813e39240p-13", 6256),
    (3, 798, "-0x1.974af10ad3d2ap+3", 8790),
    (4, 1112, "0x1.2006f515d24bfp+4", 12241),
    (5, 538, "0x1.2000000188c24p+4", 5961),
    (6, 371, "0x1.4888947961591p-68", 4097),
    (7, 727, "0x1.7735a3212a4bbp-30", 8118),
    (8, 660, "0x1.04e063e76a9fcp-23", 7281),
]
GS_PINS = [  # mode, problem, grad_evals, f, eval_f calls
    ("exact", 1, 420, "0x1.f3010c5212764p-8", 82),
    ("exact", 3, 420, "-0x1.957057ca4c7d3p+3", 83),
    ("exact", 4, 420, "0x1.27338eda4436fp+4", 68),
    ("exact", 8, 420, "0x1.a7773330de454p-7", 74),
    ("forward", 1, 420, "0x1.f3009410de840p-8", 4702),
    ("forward", 3, 420, "-0x1.957057de84185p+3", 4703),
    ("forward", 4, 420, "0x1.27338f9a49ec9p+4", 4688),
    ("forward", 8, 420, "0x1.a773b398a945ap-7", 4694),
]


def _counted_f(oracle):
    calls = []
    return replace(oracle, eval_f=lambda x: calls.append(1) or oracle.eval_f(x)), calls


@pytest.mark.parametrize("problem,grad_evals,f_hex,f_calls", FD_BGS_PINS,
                         ids=[str(p[0]) for p in FD_BGS_PINS])
def test_forward_difference_trajectory_pinned(problem, grad_evals, f_hex, f_calls):
    oracle, calls = _counted_f(make_problem(str(problem), 10))
    res = run(oracle, SolverConfig(seed=problem, m=5, max_outer=60),
              grad_mode=GradientMode.forward(1e-8))
    assert (res.grad_evals, res.f.hex(), len(calls)) == (grad_evals, f_hex, f_calls)


@pytest.mark.parametrize("kind,problem,grad_evals,f_hex,f_calls", GS_PINS,
                         ids=[f"{p[0]}-{p[1]}" for p in GS_PINS])
def test_gs_trajectory_pinned(kind, problem, grad_evals, f_hex, f_calls):
    mode = GradientMode.exact() if kind == "exact" else GradientMode.forward(1e-8)
    oracle, calls = _counted_f(make_problem(str(problem), 10))
    res = gs.gs_run(oracle, gs.GsConfig(seed=problem, max_iters=20), grad_mode=mode)
    saved = res.outer_iters if kind == "forward" else 0
    assert (res.grad_evals, res.f.hex(), len(calls)) == (grad_evals, f_hex, f_calls - saved)


# seed 0 of two bgs_large solves: n=500, default m=50, stop at relative
# error 5e-3
LARGE_PINS = [
    ("MXHILB", 3493, "0x1.3f87570aa46f8p-8"),
    ("ChainedCB3I", 4392, "0x1.f56c74c0d097dp+9"),
]


@pytest.mark.parametrize("name,grad_evals,f_hex", LARGE_PINS, ids=[p[0] for p in LARGE_PINS])
def test_large_trajectory_pinned(name, grad_evals, f_hex):
    oracle = make_problem(name, 500)
    start = perturb_start(oracle.x0, 500, np.random.default_rng([0, 1]))
    res = run(oracle, SolverConfig(seed=0), start,
              stop_callback=lambda rec: (rec.f_val - oracle.f_star)
              / (abs(oracle.f_star) + 1.0) <= 5e-3)
    assert res.stop_reason == "callback"
    assert (res.grad_evals, res.f.hex()) == (grad_evals, f_hex)


# theta=1 keeps every row, so the enrichment models grow past 2m + 6 rows,
# far beyond the m + 3 of a first enrichment
GROWTH_PINS = [
    ("ChainedLQ", 10, 1, 342, "-0x1.974b030a4c1aep+3"),
    ("Rosen", None, 0, 238, "-0x1.5fffffffb1dafp+5"),
]


@pytest.mark.parametrize("name,n,m,grad_evals,f_hex", GROWTH_PINS,
                         ids=[p[0] for p in GROWTH_PINS])
def test_long_model_trajectory_pinned(monkeypatch, name, n, m, grad_evals, f_hex):
    atoms = []

    def instance(*args):
        inst = SimplexQpInstance(*args)
        atoms.append(inst.n_atoms)
        return inst

    monkeypatch.setattr(bgs, "SimplexQpInstance", instance)
    monkeypatch.setattr(bgs, "_THETA", 1.0)
    oracle = make_problem(name, n)
    res = run(oracle, SolverConfig(seed=1, m=m, max_outer=40))
    assert max(atoms) > 2 * m + 6
    assert (res.grad_evals, res.f.hex()) == (grad_evals, f_hex)


# ---------------------------------------------------------------------------
# warnings as errors: a numpy warning anywhere on the solvers' paths fails
# here, on every scalable problem in both gradient modes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [GradientMode.exact(), GradientMode.forward(1e-8)],
                         ids=["exact", "forward"])
@pytest.mark.parametrize("problem", range(1, 9))
def test_solvers_raise_no_warning(problem, mode):
    oracle = make_problem(str(problem), 5)
    start = perturb_start(oracle.x0, 5, np.random.default_rng([0, 1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(oracle, SolverConfig(seed=0, max_outer=40), start, grad_mode=mode)
        base = gs.gs_run(oracle, gs.GsConfig(seed=0, max_iters=40), start, grad_mode=mode)
    assert res.grad_evals > 0 and base.grad_evals > 0


# ---------------------------------------------------------------------------
# how each inner chain ends: `inner_chain`'s return value against the trace
# records `run` emits for that outer iteration
# ---------------------------------------------------------------------------


def _record_chain_ends(monkeypatch):
    """(start model, ChainEnd) of every chain `run` runs, in order."""
    ends, real = [], bgs.inner_chain

    def chain(*args, **kwargs):
        model = inspect.signature(real).bind(*args, **kwargs).arguments["model"]
        ends.append((model, real(*args, **kwargs)))
        return ends[-1][1]

    monkeypatch.setattr(bgs, "inner_chain", chain)
    return ends


def _chain_labels(res, audits, ends, m):
    """Check each chain's end against its records and their audits and return
    its label: a null step's cause, "stretched", "serious" or the stop."""
    assert len(ends) == res.outer_iters
    labels = []
    for k, (start, end) in enumerate(ends):
        chain = [(rec, a) for rec, a in zip(res.trace, audits, strict=True) if rec.k == k]
        last, d = chain[-1]
        enriched = [rec for rec, _ in chain if rec.kind is StepKind.INNER_ENRICH]
        enriched_audits = [a for rec, a in chain if rec.kind is StepKind.INNER_ENRICH]
        assert end.kind is last.kind
        assert (end.f_x, end.grad_evals) == (last.f_val, last.grad_evals_cum)
        # the last chain gives the run's stop, unless the run stops on its own
        own = k < len(ends) - 1 or res.stop_reason in ("budget", "radius_floor")
        assert end.stop == (None if own else res.stop_reason)
        if end.kind is StepKind.SERIOUS_STEP:
            np.testing.assert_array_equal(end.x, d.x_k + end.t * d.d)
            assert end.t == 1.0 or (end.t > 1.0 and last.i == 0)
            labels.append("stretched" if end.t > 1.0 else "serious")
        else:
            np.testing.assert_array_equal(end.x, d.x_k)
            assert end.t == 1.0
        if end.kind is StepKind.NULL_STEP:
            # the chain's trial points are those of its enrichments
            tried = {(d.x_k + a.d_prev).tobytes() for a in enriched_audits}
            w_history = [start.step.w] + [rec.w for rec in enriched]
            cause = ("revisit" if (d.x_k + d.d).tobytes() in tried else
                     "stall" if bgs.model_stalled(w_history, m + 1, bgs._GAMMA) else
                     "criterion")
            assert end.cause == cause
            if enriched:  # only the criterion spends the cut's gradient
                assert last.grad_evals_cum - enriched[-1].grad_evals_cum == (cause == "criterion")
            labels.append(cause)
        else:
            assert end.cause is None
        if end.kind is StepKind.CONVERGED:
            assert end.stop == "converged" and last.v <= bgs._EPS_TOL
        if end.kind is StepKind.INNER_ENRICH:
            assert end.stop in ("callback", "inner_limit")
            assert (last.i == bgs._INNER_LIMIT_FACTOR * (m + 1)) == (end.stop == "inner_limit")
        if end.stop is not None:
            labels.append(end.stop)
    np.testing.assert_array_equal(res.x, ends[-1][1].x)
    return labels


def test_chain_ends_name_each_null_step_cause(monkeypatch):
    # the exact rosen_fd solve of seed 0 ends chains on all three causes and
    # stretches serious steps; ChainedLQ ends every one on the criterion
    ends = _record_chain_ends(monkeypatch)
    res, audits = audited_run(make_problem("Rosen"), SolverConfig(seed=0, m=8, max_outer=300),
                              _rosen_fd_start(0))
    labels = _chain_labels(res, audits, ends, 8)
    assert {"revisit", "stall", "criterion", "stretched", "serious"} <= set(labels)
    ends.clear()
    labels = _chain_labels(*traced_run(make_problem("ChainedLQ", 10), seed=2, m=6,
                                       max_outer=30), ends, 6)
    assert "criterion" in labels and not {"revisit", "stall"} & set(labels)


def test_chain_end_converged(monkeypatch):
    monkeypatch.setattr(bgs, "_EPS_TOL", 1e-12)
    ends = _record_chain_ends(monkeypatch)
    res, audits = traced_run(quadratic_oracle(2), seed=1, m=4, max_outer=100)
    assert _chain_labels(res, audits, ends, 4)[-1] == "converged"


def test_chain_end_inner_limit(monkeypatch):
    monkeypatch.setattr(bgs, "_INNER_LIMIT_FACTOR", 0)
    ends = _record_chain_ends(monkeypatch)
    res, audits = traced_run(make_problem("ChainedLQ", 10), seed=2, m=6, max_outer=30)
    assert _chain_labels(res, audits, ends, 6)[-1] == "inner_limit"
    assert ends[-1][1].kind is StepKind.INNER_ENRICH


@pytest.mark.parametrize("kind", [StepKind.SERIOUS_STEP, StepKind.NULL_STEP,
                                  StepKind.INNER_ENRICH], ids=lambda kind: kind.value)
def test_chain_end_callback(monkeypatch, kind):
    ends = _record_chain_ends(monkeypatch)
    res, audits = audited_run(make_problem("ChainedLQ", 8),
                              SolverConfig(seed=3, m=4, max_outer=100),
                              stop_callback=lambda rec: rec.kind is kind)
    assert _chain_labels(res, audits, ends, 4)[-1] == "callback"
    assert ends[-1][1].kind is kind


def test_audits_align_with_the_records(monkeypatch):
    # the exact rosen_fd solve of seed 0 ends chains on all three null-step
    # causes; each enrichment's prior model is the one behind the chain's
    # previous record, or the chain's start model for its first enrichment,
    # and a chain's last record that is no enrichment shows that model itself
    ends = _record_chain_ends(monkeypatch)
    res, audits = audited_run(make_problem("Rosen"), SolverConfig(seed=0, m=8, max_outer=300),
                              _rosen_fd_start(0))
    assert len(audits) == len(res.trace)
    assert [a.kind for a in audits] == [rec.kind for rec in res.trace]
    assert {"revisit", "stall", "criterion"} <= {end.cause for _, end in ends}
    enrichments, prev = 0, None  # prev: the step behind the chain's previous record
    for rec, a in zip(res.trace, audits):
        if prev is None or prev[0] != rec.k:
            prev = (rec.k, ends[rec.k][0].step.direction, ends[rec.k][0].step.z)
        enriched = rec.kind is StepKind.INNER_ENRICH
        assert (a.d_prev is not None) == (a.z_prev is not None) == enriched
        if enriched:
            enrichments += 1
            np.testing.assert_array_equal(a.d_prev, prev[1])
            assert a.z_prev == prev[2]
        else:
            np.testing.assert_array_equal(a.d, prev[1])
            assert a.z == prev[2]
        prev = (rec.k, a.d, a.z)
    assert enrichments > 0
