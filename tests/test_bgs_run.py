"""Full solver runs: smoke convergence, trace invariants, determinism."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from helpers import huge_gradient_oracle, quadratic_oracle, steep_oracle

from bundlegs import bgs, gs, harness
from bundlegs.bgs import QpFailureError, SolverConfig, StepKind, run
from bundlegs.harness import ExperimentSpec, perturb_start
from bundlegs.problems import GradientMode, make_problem
from bundlegs.qp import SimplexQpInstance


def traced_run(oracle, seed=0, m=None, eps0=1.0, max_outer=200, stop_abs=None,
               x0=None):
    cfg = SolverConfig(seed=seed, m=m, eps0=eps0, max_outer=max_outer,
                       collect_diagnostics=True)
    cb = None
    if stop_abs is not None:
        cb = lambda rec: rec.f_val - oracle.f_star <= stop_abs  # noqa: E731
    return run(oracle, cfg, x0, stop_callback=cb)


def test_smooth_quadratic_smoke():
    res = run(quadratic_oracle(2), SolverConfig(seed=1, m=4, max_outer=100))
    assert res.f <= 1e-8
    assert res.outer_iters <= 100


def test_grad_eval_accounting():
    res = traced_run(make_problem("ChainedLQ", 10), seed=2, m=6, max_outer=30)
    m = 6
    outers = res.trace[-1].k + 1
    inner_extra = sum(1 for r in res.trace
                      if r.kind in (StepKind.INNER_ENRICH, StepKind.NULL_STEP))
    assert res.grad_evals == outers * (m + 1) + inner_extra
    assert res.grad_evals == res.trace[-1].grad_evals_cum


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


def test_differentiability_checks_spend_no_uncounted_gradient():
    # an oracle without smooth_at counts as smooth everywhere, so
    # fdp_perturb's checks spend no gradient; the trajectory is unchanged
    calls = []
    oracle = quadratic_oracle(3)
    probe = replace(oracle, eval_grad=lambda x: calls.append(1) or oracle.eval_grad(x))
    res = run(probe, SolverConfig(seed=0, m=4, max_outer=30, differentiability_checks=True))
    assert res.grad_evals == len(calls) == 21
    assert (res.f.hex(), res.stop_reason) == ("0x1.4140000000000p-97", "converged")


def test_differentiability_checks_evaluate_no_point_twice():
    # fdp_perturb starts from the trial value run holds and returns the value
    # of the point it picks, so every objective call is at a new point
    points = []
    oracle = make_problem("ChainedLQ", 10)
    probe = replace(oracle, eval_f=lambda x: points.append(x.tobytes()) or oracle.eval_f(x))
    res = run(probe, SolverConfig(seed=4, m=8, max_outer=30, differentiability_checks=True))
    assert len(points) == len(set(points)) == 340
    assert res.stop_reason == "budget"


def test_trace_invariants_across_problems():
    for name, n, m in (("ChainedLQ", 10, 20), ("MAXQ-gen", 10, 5), ("Mifflin1", 2, 4)):
        oracle = make_problem(name, n) if name != "Mifflin1" else make_problem(name)
        res = traced_run(oracle, seed=3, m=m, max_outer=60,
                         stop_abs=1e-9 * (1 + abs(oracle.f_star)))
        assert len(res.trace) > 0
        radius_prev = np.inf
        f_serious_prev = np.inf
        for rec in res.trace:
            d = rec.diag
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
    res = traced_run(oracle, seed=0, m=40, eps0=4.0, max_outer=100, stop_abs=1e-6)
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
    res = traced_run(oracle, seed=5, m=12, max_outer=40, stop_abs=1e-7)
    rng = np.random.default_rng(77)
    for rec in res.trace:
        d = rec.diag
        slack = 1e-8 * (1.0 + abs(d.f_xk))
        for _ in range(5):
            y = d.x_k + rng.uniform(-2.0, 2.0, oracle.dimension)
            lhs = oracle.f(y)
            rhs = d.f_xk + float(d.g_tilde @ (y - d.x_k)) - d.e_tilde - slack
            assert lhs >= rhs


def test_inner_w_monotone_and_nonredundant_cuts():
    oracle = make_problem("ChainedCB3I", 10)
    res = traced_run(oracle, seed=6, m=5, max_outer=40, stop_abs=5e-4 * 19.0)
    by_k = {}
    for rec in res.trace:
        if rec.kind == StepKind.INNER_ENRICH:
            by_k.setdefault(rec.k, []).append(rec)
    chains = [v for v in by_k.values() if len(v) >= 2]
    assert chains, "expected at least one multi-enrich inner loop"
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            assert b.w <= a.w + 1e-10
    for rec in res.trace:
        d = rec.diag
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


def test_callback_stop():
    oracle = make_problem("ChainedLQ", 8)
    seen = []

    def cb(rec):
        seen.append(rec)
        return len(seen) >= 5

    res = run(oracle, SolverConfig(seed=3, m=4, max_outer=100), stop_callback=cb)
    assert res.stop_reason == "callback"
    assert len(res.trace) == 5


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
    # full FDP1/FDP2 loops active; the run must finish and keep descent
    oracle = make_problem("MAXL-gen", 4)
    cfg = SolverConfig(seed=4, m=8, max_outer=30, differentiability_checks=True)
    res = run(oracle, cfg, stop_callback=lambda rec: rec.f_val <= 1e-5)
    assert res.f <= oracle.f(perturb_start(oracle.x0, 4, np.random.default_rng([4, 1])))


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
    spec = ExperimentSpec(solver="bgs", problem="steep", n=2, replications=1,
                          solver_options={"m": 4, "eps0": 4.0}, measure_time=False)
    report, result = harness._single_run(spec, steep_oracle(), seed, 5e-4)
    assert result is None
    assert report.stop_reason == ("abort: initial subproblem at k=0: "
                                  "a linearization error overflows")


def test_overflowing_penalty_scale_raises_qp_failure():
    # eps^-alpha = 1e360 at the first radius
    with pytest.raises(QpFailureError, match=r"eps\^-alpha overflows at k=0"):
        run(make_problem("ChainedLQ", 10), SolverConfig(alpha=40.0, eps0=1e-9))
    # eps0^alpha = 1e310: every later radius is smaller, so only eps0 is checked
    with pytest.raises(ValueError, match=r"eps0 \*\* alpha overflows"):
        SolverConfig(alpha=31.0, eps0=1e10)


def test_bad_x0_rejected():
    oracle = quadratic_oracle(2)
    with pytest.raises(ValueError):
        run(oracle, SolverConfig(), x0=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        run(oracle, SolverConfig(), x0=np.ones(3))


# ---------------------------------------------------------------------------
# pinned trajectories: the gradient count and the last bit of f of runs from
# the benchmark's workloads.  Any change to the round-off of the model, the
# QP or the aggregate moves them.
# ---------------------------------------------------------------------------

# seed 0 of the n=50 battery: m=5, stop at relative error 5e-4
BATTERY_PINS = [
    ("TiltedNorm", 106, "0x1.821ec241463bep-45"),
    ("MXHILB", 583, "0x1.06172c9a10698p-11"),
    ("ChainedLQ", 377, "-0x1.1510609e4716fp+6"),
    ("ChainedCB3I", 853, "0x1.883106dd74d7cp+6"),
    ("ChainedCB3II", 159, "0x1.8815dac71651cp+6"),
    ("MAXQ-gen", 910, "0x1.04681f69cb87bp-11"),
    ("MAXL-gen", 1149, "0x1.6df82d4d87b6fp-48"),
    ("PartlySmooth", 177, "0x1.6cd6cd51fa58dp-16"),
]

# Rosen, m=8, 300 outer iterations, seed 0, to the solver's own stop
ROSEN_PINS = [
    (GradientMode.exact(), 2101, "-0x1.5ffffffffff87p+5"),
    (GradientMode.forward(1e-9), 1934, "-0x1.5ffffffffed53p+5"),
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
    # slack over that bound is under 100 calls on these seeds
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
# counts are pinned too: each sample of a bgs initial model spends the n + 1
# values of its differences, the first of which is its value; GS asks for
# no sample value, so exact GS spends values on its line search only.  The
# tables hold the counts from before the differences at x_k and at a cut took
# the solver's value there as their base; each such gradient now spends one
# value fewer: every gradient of a bgs run but the m samples per outer
# iteration, and row 0 of every GS iteration.
FD_BGS_PINS = [  # problem, grad_evals, f, eval_f calls
    (1, 758, "0x1.c4b9bba7a9c4cp-26", 8763),
    (2, 647, "0x1.8451813e39240p-13", 7470),
    (3, 827, "-0x1.974af10ad3d2ap+3", 9607),
    (4, 1138, "0x1.2006f515d24bfp+4", 13339),
    (5, 595, "0x1.20000001bd604p+4", 6840),
    (6, 484, "0x1.4888947961591p-68", 5545),
    (7, 867, "0x1.6e8b67b025be4p-30", 10102),
    (8, 709, "0x1.04e063e76a9fcp-23", 8186),
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
    saved = grad_evals - 5 * res.outer_iters
    assert (res.grad_evals, res.f.hex(), len(calls)) == (grad_evals, f_hex, f_calls - saved)


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
    ("MXHILB", 3502, "0x1.3f87570aa46f8p-8"),
    ("ChainedCB3I", 4405, "0x1.f56c74c0d097dp+9"),
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


# theta=1 keeps every row, so the enrichment models outgrow the first
# buffers run() sets aside for them (2m + 6 rows)
GROWTH_PINS = [
    ("ChainedLQ", 10, 1, 354, "-0x1.974b01e0420e4p+3"),
    ("Rosen", None, 0, 247, "-0x1.5fffffffb1dafp+5"),
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
    oracle = make_problem(name, n)
    res = run(oracle, SolverConfig(seed=1, m=m, theta=1.0, max_outer=40))
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
