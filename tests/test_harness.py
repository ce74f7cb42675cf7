"""Experiment harness: starts, stopping rules, reports, CLI."""

import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from bundlegs import cli
from bundlegs.harness import (
    REPORT_FIELDS,
    ExperimentSpec,
    RunReport,
    default_tolerance,
    emit_report,
    load_config_file,
    perturb_start,
    relative_error,
    run_experiment,
)
from bundlegs.problems import make_problem


class TestPerturbStart:
    def test_radius_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = perturb_start(np.zeros(50), 50, rng)
            assert np.linalg.norm(x) <= 1.0 / 50 + 1e-12

    def test_deterministic(self):
        x0 = np.arange(5.0)
        a = perturb_start(x0, 5, np.random.default_rng(3))
        b = perturb_start(x0, 5, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_centered_on_x0(self):
        x0 = np.array([1.0, -2.0, 0.5, 4.0, 0.0])
        rng = np.random.default_rng(11)
        pts = np.array([perturb_start(x0, 5, rng) for _ in range(10000)])
        radius = (np.linalg.norm(x0) + 1.0) / 5
        se = radius / np.sqrt(5 + 2) / np.sqrt(10000)  # per-coordinate std of a uniform ball
        assert np.abs(pts.mean(axis=0) - x0).max() <= 3.0 * se

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            perturb_start(np.zeros(3), 5, np.random.default_rng(0))


def test_default_tolerance():
    assert default_tolerance(50) == 5e-4
    assert default_tolerance(200) == 5e-4
    assert default_tolerance(500) == 5e-3


def test_run_experiment_bgs(tmp_path):
    out = tmp_path / "maxq.csv"
    spec = ExperimentSpec(solver="bgs", problem="MAXQ-gen", n=10, replications=3,
                          stop_rel_err=1e-3, seed_base=5, output=str(out),
                          solver_options={"m": 5})
    reports, agg = run_experiment(spec)
    assert len(reports) == 3
    assert [r.seed for r in reports] == [5, 6, 7]
    for r in reports:
        assert r.converged and r.E_final <= 1e-3
        assert r.stop_reason == "rel_err"
        assert r.g_eval >= r.iters
    assert agg["n_converged"] == 3 and agg["n_excluded"] == 0
    assert abs(agg["E_final"] - np.mean([r.E_final for r in reports])) < 1e-15
    assert abs(agg["g_eval"] - np.mean([r.g_eval for r in reports])) < 1e-12
    assert out.exists()


def test_g_eval_matches_solver_trace():
    from bundlegs.harness import _single_run

    oracle = make_problem("ChainedLQ", 8)
    spec = ExperimentSpec(solver="bgs", problem="ChainedLQ", n=8,
                          solver_options={"m": 4})
    report, result = _single_run(spec, oracle, seed=2, tol=1e-3)
    assert report.g_eval == result.grad_evals == result.trace[-1].grad_evals_cum
    assert report.iters == result.outer_iters
    assert report.E_final == relative_error(result.f, oracle.f_star)


def test_solved_start_evaluates_f_once():
    from bundlegs.harness import _single_run

    calls = []
    base = make_problem("ChainedLQ", 8)

    def eval_f(x):
        calls.append(1)
        return base.eval_f(x)

    oracle = dataclasses.replace(base, eval_f=eval_f)
    spec = ExperimentSpec(solver="bgs", problem="ChainedLQ", n=8)
    report, result = _single_run(spec, oracle, seed=0, tol=1e9)
    assert result is None and report.stop_reason == "rel_err" and report.converged
    assert len(calls) == 1


def test_run_experiment_gs():
    spec = ExperimentSpec(solver="gs", problem="ChainedLQ", n=8, replications=2,
                          stop_rel_err=1e-3, seed_base=0)
    reports, agg = run_experiment(spec)
    assert all(r.converged for r in reports)
    sample = 2 * 8
    for r in reports:
        assert r.g_eval == r.iters * (sample + 1)


def test_emit_report_csv_shape(tmp_path):
    report = RunReport("bgs", "QL", 2, 0, 10, 50, 0.1, 1e-4, True)
    path = emit_report([report], tmp_path / "one.csv", "csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(REPORT_FIELDS)
    with path.open() as fh:
        row = next(csv.DictReader(fh))
    assert row["solver"] == "bgs" and row["problem"] == "QL"
    assert float(row["E_final"]) == 1e-4 and row["converged"] == "True"


def test_emit_report_json_roundtrip(tmp_path):
    reports = [RunReport("gs", "Rosen", 4, 3, 7, 63, 0.25, 2e-3, False)]
    path = emit_report(reports, tmp_path / "r.json", "json")
    data = json.loads(path.read_text())
    assert len(data) == 1
    d = data[0]
    assert set(d) == set(REPORT_FIELDS)
    r = RunReport(**d)
    assert (r.solver, r.problem, r.n, r.seed, r.iters, r.g_eval,
            r.time_s, r.E_final, r.converged) == \
           ("gs", "Rosen", 4, 3, 7, 63, 0.25, 2e-3, False)


@pytest.mark.parametrize("h", [0.0, -1e-8], ids=["zero", "negative"])
def test_fd_step_must_be_positive(h):
    # a zero step used to run exact gradients, a negative one to crash late
    with pytest.raises(ValueError, match="fd_step"):
        ExperimentSpec(solver="bgs", problem="ChainedLQ", n=8, fd_step=h)


def test_emit_report_empty():
    with pytest.raises(ValueError):
        emit_report([], "nowhere.csv")


def test_trace_export(tmp_path):
    trace_path = tmp_path / "trace.csv"
    spec = ExperimentSpec(solver="bgs", problem="MAXQ", replications=1,
                          stop_rel_err=1e-6, seed_base=0,
                          solver_options={"m": 40}, trace_path=str(trace_path))
    run_experiment(spec)
    with trace_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert set(rows[0]) == {"k", "i", "err", "eps", "kind"}
    kinds = {r["kind"] for r in rows}
    assert "serious" in kinds
    errs = [float(r["err"]) for r in rows if r["kind"] == "serious"]
    assert all(b <= a for a, b in zip(errs, errs[1:]))


def test_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# experiment\nsolver=bgs\nproblem = ChainedLQ\nn=8\nreps=1\nm=4\n")
    parsed = load_config_file(cfg)
    assert parsed == {"solver": "bgs", "problem": "ChainedLQ", "n": "8",
                      "reps": "1", "m": "4"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("solver bgs\n")
    with pytest.raises(ValueError):
        load_config_file(bad)


def test_deterministic_csv_bytes(tmp_path):
    spec_kwargs = dict(solver="bgs", problem="ChainedLQ", n=8, replications=2,
                       stop_rel_err=1e-3, seed_base=1, format="csv",
                       solver_options={"m": 4}, measure_time=False)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(ExperimentSpec(output=str(p1), **spec_kwargs))
    run_experiment(ExperimentSpec(output=str(p2), **spec_kwargs))
    assert p1.read_bytes() == p2.read_bytes()


class TestCli:
    def test_list_problems(self, capsys):
        assert cli.main(["--list-problems"]) == 0
        cat = json.loads(capsys.readouterr().out)
        assert len(cat) == 13

    def test_every_flag_reaches_merged_options(self):
        parser = cli.build_parser()
        argv, want = [], set()
        for action in parser._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if flag in (None, "--help", "--config", "--list-problems"):
                continue
            value = action.choices[0] if action.choices else "3"
            argv += [flag, value]
            want.add(action.dest)
        merged = cli._merge(parser.parse_args(argv))
        assert set(merged) == want
        assert {"solver", "problem", "fd", "trace"} <= want

    def test_missing_args(self, capsys):
        assert cli.main([]) == 2

    def test_zero_fd_step_is_refused(self, capsys):
        code = cli.main(["--solver", "bgs", "--problem", "ChainedLQ", "--n", "8", "--fd", "0"])
        assert code == 2
        assert "fd_step" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--solver", "bgs", "--problem", "nosuch", "--n", "5"],
        ["--solver", "bgs", "--problem", "QL", "--n", "5"],
        ["--solver", "gs", "--problem", "QL", "--m", "0"],
        *(["--solver", "gs", "--problem", "ChainedLQ", "--n", "8", f"--{key}", "0.5"]
          for key in ("mu", "alpha", "gamma", "beta", "theta")),
    ], ids=["unknown-problem", "fixed-dimension", "zero-sample-size",
            *(f"gs-takes-no-{key}" for key in ("mu", "alpha", "gamma", "beta", "theta"))])
    def test_bad_problem_or_solver_option_is_refused(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("line", ["eps0=abc", "tolerance=1e-9", "m=4.7", "solver=xyz",
                                      "no equals sign", "solver=gs\ntheta=0.1"],
                             ids=["non-number", "unknown-key", "fractional-m", "unknown-solver",
                                  "not-key-value", "gs-takes-no-theta"])
    def test_bad_config_file_entry_is_refused(self, line, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"solver=bgs\nproblem=ChainedLQ\nn=8\nreps=1\n{line}\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "o.csv").exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    # a value away from the default for each bgs option the CLI forwards
    BGS_OPTION_VALUES = {"m": "3", "eps0": "0.3", "mu": "0.2", "alpha": "0.9",
                         "gamma": "0.5", "beta": "0.3", "theta": "0.5"}

    @staticmethod
    def _run_summary(extra, capsys):
        argv = ["--solver", "bgs", "--problem", "ChainedLQ", "--n", "6", "--reps", "1",
                "--tol", "1e-4", *extra]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        return re.search(r"g_eval=(\d+) E_final=(\S+)", out).groups()

    def test_bgs_option_values_cover_every_forwarded_option(self):
        assert set(self.BGS_OPTION_VALUES) == set(cli._SOLVER_KEYS_BGS)

    @pytest.mark.parametrize("key", sorted(BGS_OPTION_VALUES))
    def test_every_forwarded_bgs_option_changes_the_run(self, key, capsys):
        default = self._run_summary([], capsys)
        assert self._run_summary([f"--{key}", self.BGS_OPTION_VALUES[key]], capsys) != default

    def test_overflowing_penalty_scale_aborts_the_run(self, capsys):
        code = cli.main(["--solver", "bgs", "--problem", "ChainedLQ", "--n", "10", "--reps", "1",
                         "--alpha", "40", "--eps0", "1e-9"])
        assert code == 1
        captured = capsys.readouterr()
        assert "[abort: eps^-alpha overflows at k=0" in captured.out
        assert captured.err == "error: 1 run(s) aborted\n"

    def test_full_run(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli.main(["--solver", "bgs", "--problem", "ChainedLQ", "--n", "8",
                         "--reps", "2", "--seed", "3", "--tol", "1e-3",
                         "--m", "4", "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert "aggregate:" in capsys.readouterr().out

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "o.csv"
        cfg.write_text("solver=bgs\nproblem=ChainedLQ\nn=8\nreps=1\nm=4\ntol=1e-3\n")
        code = cli.main(["--config", str(cfg), "--out", str(out), "--seed", "2"])
        assert code == 0
        with out.open() as fh:
            row = next(csv.DictReader(fh))
        assert row["seed"] == "2"

    def test_gs_solver(self, tmp_path):
        out = tmp_path / "gs.csv"
        code = cli.main(["--solver", "gs", "--problem", "ChainedLQ", "--n", "8",
                         "--reps", "1", "--tol", "1e-3", "--out", str(out)])
        assert code == 0
        with out.open() as fh:
            row = next(csv.DictReader(fh))
        assert row["solver"] == "gs"
