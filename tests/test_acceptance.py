"""End-to-end acceptance suite.

Each test evaluates one numbered contract check at its stated tolerance and
prints exactly one `[acceptance NN] PASS/FAIL` line with the measured
quantities, then asserts.  Reference gradient-evaluation counts for the
n = 50 benchmark battery are the desk-scale values this battery is expected
to land within 5x of.
"""

import statistics
import time

import numpy as np
import pytest
from helpers import audited_run, grid_min_objective, relative_err

from bundlegs.bgs import SolverConfig, StepKind, run
from bundlegs.gs import GsConfig, gs_run
from bundlegs.harness import ExperimentSpec, perturb_start, run_experiment
from bundlegs.problems import GradientMode, make_problem
from bundlegs.qp import SimplexQpInstance, solve_simplex_qp

# reference mean gradient-evaluation counts, n = 50 battery, tol 5e-4
REFERENCE_G_EVAL = {1: 39, 2: 3189, 3: 240, 4: 221, 5: 220, 6: 612, 7: 419, 8: 73}


def _emit(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")


def _stopper(oracle, tol):
    return lambda rec: relative_err(rec.f_val, oracle.f_star) <= tol


@pytest.fixture(scope="module")
def diagnostic_runs():
    """Full solver runs on problems 3, 6, 9, each with its records' audits."""
    runs = {}
    for name, n, m in (("ChainedLQ", 50, 5), ("MAXQ-gen", 50, 5), ("QL", 2, 4)):
        oracle = make_problem(name, n)
        start = perturb_start(oracle.x0, n, np.random.default_rng([0, 1]))
        cfg = SolverConfig(seed=0, m=m, max_outer=1000)
        res, audits = audited_run(oracle, cfg, start, stop_callback=_stopper(oracle, 5e-4))
        assert res.trace, name
        runs[name] = (oracle, res, audits)
    return runs


@pytest.fixture(scope="module")
def battery_bgs():
    """5-replication experiment per problem 1..8, n=50, m=ceil(n/10), tol 5e-4."""
    t0 = time.perf_counter()
    results = {}
    for idx in range(1, 9):
        spec = ExperimentSpec(solver="bgs", problem=str(idx), n=50, replications=5,
                              stop_rel_err=5e-4, seed_base=0, solver_options={"m": 5})
        reports, agg = run_experiment(spec)
        results[idx] = agg
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_01_qp_grid_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_res = 0.0
    for _ in range(500):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        inst = SimplexQpInstance(rng.standard_normal((p, n)),
                                 rng.uniform(0.0, 1.0, p),
                                 float(rng.choice([0.1, 1.0, 10.0])))
        sol = solve_simplex_qp(inst)
        grid = grid_min_objective(inst.atoms, inst.errors, inst.penalty_scale)
        gap = grid - sol.w
        assert gap >= -1e-9, "solver worse than a grid point"
        worst_gap = max(worst_gap, gap)
        worst_res = max(worst_res, sol.kkt_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-4 and worst_res <= 1e-10 and elapsed < 10.0
    _emit(1, ok, f"500 instances: max |grid - qp| = {worst_gap:.2e} (tol 1e-4), "
                 f"max KKT residual = {worst_res:.2e} (tol 1e-10), {elapsed:.1f}s")
    assert ok


def test_criterion_02_duality_identities(diagnostic_runs):
    worst_d = worst_z = worst_w = -np.inf
    steps = 0
    for name, (oracle, res, audits) in diagnostic_runs.items():
        for rec, d in zip(res.trace, audits, strict=True):
            s = d.eps_alpha
            steps += 1
            worst_d = max(worst_d, float(np.linalg.norm(d.d + s * d.g_tilde)))
            worst_z = max(worst_z, abs(d.z + s * float(d.g_tilde @ d.g_tilde) + d.e_tilde))
            worst_w = max(worst_w, rec.w - 0.5 * float(d.grad_xk @ d.grad_xk))
    ok = worst_d <= 1e-10 and worst_z <= 1e-10 and worst_w <= 1e-10
    _emit(2, ok, f"{steps} steps: max ||d + s*g~|| = {worst_d:.2e}, "
                 f"max |z + s||g~||^2 + e~| = {worst_z:.2e}, "
                 f"max w - 0.5||grad||^2 = {worst_w:.2e} (all tol 1e-10)")
    assert ok


def test_criterion_03_aggregate_subgradient_certificate(diagnostic_runs):
    rng = np.random.default_rng(99)
    violations = 0
    probes = 0
    for name, (oracle, res, audits) in diagnostic_runs.items():
        for rec, d in zip(res.trace, audits, strict=True):
            slack = 1e-8 * (1.0 + abs(d.f_xk))
            for _ in range(20):
                y = d.x_k + rng.uniform(-2.0, 2.0, oracle.dimension)
                probes += 1
                lhs = oracle.f(y)
                rhs = d.f_xk + float(d.g_tilde @ (y - d.x_k)) - d.e_tilde
                if lhs < rhs - slack:
                    violations += 1
    ok = violations == 0
    _emit(3, ok, f"{probes} probes across 3 runs: {violations} violations "
                 f"of the eps-subgradient inequality")
    assert ok


def test_criterion_04_inner_w_monotonicity(diagnostic_runs):
    worst = -np.inf
    chains = 0
    for name, (oracle, res, audits) in diagnostic_runs.items():
        per_k = {}
        for rec in res.trace:
            if rec.kind == StepKind.INNER_ENRICH:
                per_k.setdefault(rec.k, []).append(rec.w)
        for ws in per_k.values():
            if len(ws) >= 2:
                chains += 1
                worst = max(worst, max(b - a for a, b in zip(ws, ws[1:])))
    ok = chains > 0 and worst <= 1e-10
    _emit(4, ok, f"{chains} inner chains with >= 2 enrich steps: "
                 f"max w increase = {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_05_maxq_experiment():
    t0 = time.perf_counter()
    oracle = make_problem("MAXQ")
    start = perturb_start(oracle.x0, 20, np.random.default_rng([0, 1]))
    runs = {}
    for eps0 in (1.0, 4.0):
        cfg = SolverConfig(seed=0, m=40, eps0=eps0, max_outer=1000)
        runs[eps0] = run(oracle, cfg, start,
                         stop_callback=lambda rec: rec.f_val - oracle.f_star <= 1e-8)
    elapsed = time.perf_counter() - t0

    err_default = runs[1.0].f - oracle.f_star
    err_wide = runs[4.0].f - oracle.f_star
    reached = err_default <= 1e-8 and runs[1.0].outer_iters <= 1000 \
        and err_wide <= 1e-8 and runs[4.0].outer_iters <= 1000
    kinds = {rec.kind for r in runs.values() for rec in r.trace}
    both_kinds = StepKind.SERIOUS_STEP in kinds and StepKind.NULL_STEP in kinds

    # with eps0 = 4 the null steps adapt the radius down early, while nearly
    # all of the error decades are still ahead
    trace4 = runs[4.0].trace
    null_pos = [j for j, rec in enumerate(trace4) if rec.kind == StepKind.NULL_STEP]
    adapted = (len(null_pos) >= 2
               and trace4[-1].radius <= 1.0
               and null_pos[-1] <= len(trace4) / 2
               and trace4[null_pos[-1]].f_val - oracle.f_star >= 1e6 * 1e-8)
    ok = reached and both_kinds and adapted and elapsed < 30.0
    _emit(5, ok, f"err(eps0=1) = {err_default:.1e}, err(eps0=4) = {err_wide:.1e} "
                 f"(target 1e-8); serious+null present: {both_kinds}; "
                 f"{len(null_pos)} early radius cuts in the eps0=4 run "
                 f"(last at record {null_pos[-1] if null_pos else -1}"
                 f"/{len(trace4)}); {elapsed:.1f}s (< 30s)")
    assert ok


def test_criterion_06_goffin_jump():
    t0 = time.perf_counter()
    oracle = make_problem("Goffin")
    start = perturb_start(oracle.x0, 50, np.random.default_rng([0, 1]))
    cfg = SolverConfig(seed=0, m=100, max_outer=1000)
    res = run(oracle, cfg, start,
              stop_callback=lambda rec: rec.f_val - oracle.f_star <= 1e-10)
    elapsed = time.perf_counter() - t0
    err = res.f - oracle.f_star
    serious = [rec.f_val - oracle.f_star for rec in res.trace
               if rec.kind == StepKind.SERIOUS_STEP]
    jump = 0.0
    for a, b in zip(serious, serious[1:]):
        if b > 0:
            jump = max(jump, a / b)
        elif a > 0:
            jump = np.inf
    ok = err <= 1e-10 and jump >= 1e4 and elapsed < 60.0
    _emit(6, ok, f"final err = {err:.2e} (target 1e-10), biggest serious-step "
                 f"drop = {jump:.1e}x (need >= 1e4), {elapsed:.1f}s (< 60s)")
    assert ok


def test_criterion_07_benchmark_battery(battery_bgs):
    problems_ok = []
    problems_bad = []
    for idx in range(1, 9):
        agg = battery_bgs[idx]
        ref = REFERENCE_G_EVAL[idx]
        e_ok = agg["E_final"] <= 5e-4
        g_ok = ref / 5.0 <= agg["g_eval"] <= ref * 5.0
        tag = (f"P{idx} g={agg['g_eval']:.0f} (ref {ref}, band "
               f"[{ref / 5:.0f}, {ref * 5:.0f}]) E={agg['E_final']:.1e}")
        (problems_ok if (e_ok and g_ok) else problems_bad).append(tag)
    elapsed = battery_bgs["elapsed"]
    ok = not problems_bad and elapsed < 600.0
    detail = f"{len(problems_ok)}/8 problems in band, {elapsed:.0f}s (< 600s)"
    if problems_bad:
        detail += "; out of contract: " + "; ".join(problems_bad)
    _emit(7, ok, detail)
    assert ok


def test_criterion_08_gradient_economy(battery_bgs):
    ratios = {}
    for idx in (1, 3, 4, 8):
        spec = ExperimentSpec(solver="gs", problem=str(idx), n=50, replications=5,
                              stop_rel_err=5e-4, seed_base=0)
        _, agg = run_experiment(spec)
        ratios[idx] = agg["g_eval"] / battery_bgs[idx]["g_eval"]
    ok = all(r >= 10.0 for r in ratios.values())
    detail = ", ".join(f"P{i}: GS/BGS = {r:.1f}x" for i, r in ratios.items())
    _emit(8, ok, detail + " (need >= 10x each)")
    assert ok


def test_criterion_09_inexact_gradients():
    oracle = make_problem("Rosen")
    finals = {"exact": [], "fd": []}
    for s in range(5):
        start = perturb_start(oracle.x0, 4, np.random.default_rng([s, 1]))
        for label, mode in (("exact", GradientMode.exact()),
                            ("fd", GradientMode.forward(1e-9))):
            cfg = SolverConfig(seed=s, m=8, max_outer=300)
            res = run(oracle, cfg, start, grad_mode=mode)
            finals[label].append(relative_err(res.f, oracle.f_star))
    fd_ok = all(e <= 1e-3 for e in finals["fd"])
    med_exact = statistics.median(finals["exact"])
    med_fd = statistics.median(finals["fd"])
    sharper = med_exact < med_fd
    ok = fd_ok and sharper
    _emit(9, ok, f"fd errors max = {max(finals['fd']):.1e} (tol 1e-3, all 5 runs); "
                 f"median exact = {med_exact:.2e} vs median fd = {med_fd:.2e} "
                 f"(exact must be strictly smaller)")
    assert ok


def test_criterion_10_byte_deterministic_reports(tmp_path):
    kwargs = dict(solver="bgs", problem="ChainedLQ", n=10, replications=2,
                  stop_rel_err=5e-4, seed_base=3, format="csv",
                  solver_options={"m": 5}, measure_time=False)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(ExperimentSpec(output=str(p1), **kwargs))
    run_experiment(ExperimentSpec(output=str(p2), **kwargs))
    identical = p1.read_bytes() == p2.read_bytes()

    # with wall-clock timing enabled, everything but the time column must match
    kwargs["measure_time"] = True
    p3, p4 = tmp_path / "c.csv", tmp_path / "d.csv"
    run_experiment(ExperimentSpec(output=str(p3), **kwargs))
    run_experiment(ExperimentSpec(output=str(p4), **kwargs))

    def drop_time(path):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        return [r[:6] + r[7:] for r in rows]

    stable = drop_time(p3) == drop_time(p4)
    ok = identical and stable
    _emit(10, ok, f"byte-identical CSV: {identical}; "
                  f"non-time columns identical under wall-clock timing: {stable}")
    assert ok
