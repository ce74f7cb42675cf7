"""The benchmark's self-test and its traced probe work on the program as it stands.

`perfbench/selftest.py` runs genuine bgs and GS solves through the
benchmark's probe, which swaps module attributes and counts `eval_grad`
calls, and checks them; a program change that breaks the probe fails here.
The traced probe (`--trace 1`) also swaps the QP, sampling, gradient and
aggregate functions the solvers look up on their modules; a renamed or
bypassed one must fail here rather than read 0 in the per-layer metrics.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from bundlegs import harness
from bundlegs.harness import ExperimentSpec

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks
    import probe

    return checks, probe


def test_traced_probe_sees_every_layer(perfbench_modules):
    checks, probe_mod = perfbench_modules
    probe = probe_mod.Probe(timing=True)
    with probe.installed(lambda oracle: 5e-4):
        t0 = time.perf_counter()
        with probe.span(probe_mod.ROOT):
            for solver in ("bgs", "gs"):
                harness.run_experiment(ExperimentSpec(
                    solver=solver, problem="ChainedLQ", n=10, replications=1,
                    stop_rel_err=5e-4, solver_options={"m": 5} if solver == "bgs" else {}))
        wall = time.perf_counter() - t0

    assert [s.solver for s in probe.solves] == ["bgs.run", "gs.gs_run"]
    for s in probe.solves:
        assert not checks.check_solve(s), s.solver
    for key in ("qp.solves", "qp.iterations", "sampling.calls", "problems.grad"):
        assert probe.count[key] > 0, key
    names = {span[0] for span in probe.spans}
    assert {"qp.instance", "qp.solve", "bgs.aggregate", "problems.gradient",
            "sampling.sample_ball", "bgs.run", "gs.gs_run"} <= names
    # the self times add up to the round, as bench.py checks
    root = next(span for span in probe.spans if span[0] == probe_mod.ROOT)
    self_sum = sum(probe.self_s.values())
    assert self_sum == pytest.approx(root[2] - root[1], rel=1e-9)
    assert abs(self_sum - wall) <= 1e-3
