"""Experiment harness: starts, stopping rules, reports, CLI."""

import csv
import dataclasses
import json
import re
from pathlib import Path

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


@pytest.mark.parametrize("h", [0.0, -1e-8, float("inf")], ids=["zero", "negative", "inf"])
def test_fd_step_must_be_positive(h):
    # a zero step used to run exact gradients, a negative or infinite one to
    # crash late
    with pytest.raises(ValueError, match="fd_step"):
        ExperimentSpec(solver="bgs", problem="ChainedLQ", n=8, fd_step=h)


def test_spec_takes_numpy_integers():
    spec = ExperimentSpec(solver="bgs", problem="ChainedLQ", n=np.int64(4),
                          replications=np.int32(1), seed_base=np.uint8(2),
                          solver_options={"m": np.int64(3)}, measure_time=False)
    (report,), _ = run_experiment(spec)
    assert (report.n, report.seed, report.stop_reason) == (4, 2, "rel_err")


def test_negative_seed_base_is_refused():
    # numpy's generators refuse a negative seed only once the first run starts
    with pytest.raises(ValueError, match="seed_base must be nonnegative"):
        ExperimentSpec(solver="bgs", problem="ChainedLQ", n=8, seed_base=-1)


@pytest.mark.parametrize("field,value,message", [
    ("solver", "newton", "unknown solver 'newton'"),
    ("replications", 0, "replications must be >= 1"),
    ("stop_rel_err", 0.0, "stop_rel_err must be positive and finite"),
    ("stop_rel_err", -1e-3, "stop_rel_err must be positive and finite"),
    # an infinite tolerance would certify every start point
    ("stop_rel_err", float("inf"), "stop_rel_err must be positive and finite"),
    ("stop_rel_err", float("nan"), "stop_rel_err must be positive and finite"),
    ("format", "xml", "unknown format 'xml'"),
], ids=["unknown-solver", "zero-replications", "zero-tol", "negative-tol", "infinite-tol",
        "nan-tol", "unknown-format"])
def test_spec_validation(field, value, message):
    args = {"solver": "bgs", "problem": "ChainedLQ", "n": 8, field: value}
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentSpec(**args)


@pytest.mark.parametrize("changes,message", [
    ({"problem": "nosuch"}, "unknown problem 'nosuch'"),
    ({"problem": "QL", "n": 5}, "QL has fixed dimension n=2, got n=5"),
    ({"solver": "gs", "solver_options": {"mu": 0.3}}, "solver gs takes no option mu"),
    ({"solver_options": {"sigma": 0.7}}, "solver bgs takes no option sigma"),
    ({"solver_options": {"seed": 3}}, "solver bgs takes no option seed"),
    ({"solver_options": {"m": -1}}, "m must be nonnegative"),
    ({"solver": "gs", "solver_options": {"m": 0}}, "m must be positive"),
    ({"output": "missing/run.csv"}, "missing/run.csv: directory missing does not exist"),
    ({"trace_path": "missing/run"}, "missing/run: directory missing does not exist"),
    # fields of the wrong numeric type, each named; a float is refused even
    # when integral, where it used to be truncated or to fail in the first run
    ({"replications": 2.5}, "replications must be an integer, got 2.5"),
    ({"seed_base": 1.5}, "seed_base must be an integer, got 1.5"),
    ({"n": 8.5}, "n must be an integer, got 8.5"),
    ({"problem": "QL", "n": 2.0}, "n must be an integer, got 2.0"),
    ({"solver_options": {"m": 2.5}}, "m must be an integer, got 2.5"),
    ({"solver_options": {"max_outer": 2.5}}, "max_outer must be an integer, got 2.5"),
    ({"solver": "gs", "solver_options": {"max_iters": 2.5}},
     "max_iters must be an integer, got 2.5"),
    ({"solver": "gs", "solver_options": {"max_iters": 0}}, "max_iters must be at least 1"),
    # FDP is no switch: an oracle without smooth_at is never moved by it
    ({"solver_options": {"differentiability_checks": True}},
     "solver bgs takes no option differentiability_checks"),
], ids=["unknown-problem", "fixed-dimension", "gs-takes-no-mu", "bgs-takes-no-sigma",
        "seed-option", "bgs-negative-m", "gs-zero-m", "output-directory", "trace-directory",
        "float-replications", "float-seed-base", "float-n", "integral-float-n", "float-m",
        "float-max-outer", "gs-float-max-iters", "gs-zero-max-iters",
        "bgs-takes-no-differentiability-checks"])
def test_spec_refuses_before_any_solve(changes, message, tmp_path, monkeypatch):
    # the experiment is judged where it is built, not once its runs start
    monkeypatch.chdir(tmp_path)
    args = {"solver": "bgs", "problem": "ChainedLQ", "n": 8, **changes}
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentSpec(**args)


def test_emit_report_keeps_every_bit_of_a_float(tmp_path):
    # the CSV writer writes a float as its repr, and JSON round-trips it
    report = RunReport("bgs", "QL", 2, 0, 10, 50, 1 / 3, 0.1 + 0.2, True)
    with emit_report([report], tmp_path / "r.csv", "csv").open(newline="") as fh:
        row = next(csv.DictReader(fh))
    assert (row["time_s"], row["E_final"]) == ("0.3333333333333333", "0.30000000000000004")
    d = json.loads(emit_report([report], tmp_path / "r.json", "json").read_text())[0]
    assert list(d) == sorted(REPORT_FIELDS)
    assert (d["time_s"], d["E_final"]) == (1 / 3, 0.1 + 0.2)
    assert RunReport(**d) == report


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

    def test_readme_lists_every_flag(self):
        # the README's "Flags:" sentence names each option of the parser once
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        listed = re.search(r"^Flags: `([^`]*)`", readme, re.MULTILINE).group(1).split()
        flags = [s for action in cli.build_parser()._actions
                 for s in action.option_strings if s not in ("-h", "--help")]
        assert sorted(listed) == sorted(flags)

    def test_flags_reach_their_spec_fields(self, tmp_path, monkeypatch):
        # a flag left out leaves the spec's own default
        specs = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda spec: specs.append(spec) or ([], {"n_excluded": 0}))
        base = ["--solver", "bgs", "--problem", "ChainedLQ", "--n", "8"]
        assert cli.main(base) == 0
        assert cli.main([*base, "--reps", "2", "--seed", "3", "--tol", "1e-3", "--m", "4",
                         "--fd", "1e-7", "--out", str(tmp_path / "r.json"), "--format", "json",
                         "--trace", str(tmp_path / "t")]) == 0
        assert specs == [
            ExperimentSpec(solver="bgs", problem="ChainedLQ", n=8),
            ExperimentSpec(solver="bgs", problem="ChainedLQ", n=8, replications=2, seed_base=3,
                           stop_rel_err=1e-3, solver_options={"m": 4}, fd_step=1e-7,
                           output=str(tmp_path / "r.json"), format="json",
                           trace_path=str(tmp_path / "t")),
        ]

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
        ["--solver", "gs", "--problem", "ChainedLQ", "--n", "8", "--eps0", "0.5"],
        # gs takes no eps0 at all, so only bgs reaches the finite-eps0 check
        ["--solver", "bgs", "--problem", "ChainedLQ", "--n", "4", "--eps0", "inf"],
        *(["--solver", solver, "--problem", "ChainedLQ", "--n", "4", *bad]
          for solver in ("bgs", "gs")
          for bad in (["--seed", "-1"], ["--fd", "inf"], ["--tol", "inf"], ["--tol", "nan"])),
    ], ids=["unknown-problem", "fixed-dimension", "zero-sample-size",
            "gs-takes-no-eps0", "bgs-infinite-eps0",
            *(f"{solver}-{bad}" for solver in ("bgs", "gs")
              for bad in ("negative-seed", "infinite-fd-step", "infinite-tol", "nan-tol"))])
    def test_bad_problem_or_solver_option_is_refused(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("line", ["eps0=abc", "tolerance=1e-9", "m=4.7", "solver=xyz",
                                      "no equals sign", "solver=gs\neps0=0.1"],
                             ids=["non-number", "unknown-key", "fractional-m", "unknown-solver",
                                  "not-key-value", "gs-takes-no-eps0"])
    def test_bad_config_file_entry_is_refused(self, line, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"solver=bgs\nproblem=ChainedLQ\nn=8\nreps=1\n{line}\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "o.csv").exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    # a value away from the default for each bgs option the CLI forwards
    BGS_OPTION_VALUES = {"m": "3", "eps0": "0.3"}

    @staticmethod
    def _run_summary(extra, capsys):
        argv = ["--solver", "bgs", "--problem", "ChainedLQ", "--n", "6", "--reps", "1",
                "--tol", "1e-4", *extra]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        return re.search(r"g_eval=(\d+) E_final=(\S+)", out).groups()

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_report_or_trace_in_a_missing_directory_is_refused(self, flag, tmp_path, capsys):
        path = tmp_path / "missing" / "run"
        argv = ["--solver", "bgs", "--problem", "ChainedLQ", "--n", "4", "--reps", "1"]
        assert cli.main([*argv, flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: directory {path.parent} does not exist\n"

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_failed_report_or_trace_write_is_one_error_line(self, flag, tmp_path, capsys):
        # the path is a directory: its parent exists, and the write fails
        argv = ["--solver", "bgs", "--problem", "ChainedLQ", "--n", "4", "--reps", "1"]
        assert cli.main([*argv, flag, str(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: failed writing ")

    def test_bgs_option_values_cover_every_forwarded_option(self):
        assert set(self.BGS_OPTION_VALUES) == set(cli._SOLVER_KEYS)

    @pytest.mark.parametrize("key", sorted(BGS_OPTION_VALUES))
    def test_every_forwarded_bgs_option_changes_the_run(self, key, capsys):
        default = self._run_summary([], capsys)
        assert self._run_summary([f"--{key}", self.BGS_OPTION_VALUES[key]], capsys) != default

    @pytest.mark.parametrize("solver", ["bgs", "gs"])
    def test_vanishing_fd_step_aborts_the_run(self, solver, capsys):
        # x_i + 1e-300 == x_i away from 0: the differences would all be a
        # false 0, and bgs certified the start point as converged
        code = cli.main(["--solver", solver, "--problem", "ChainedLQ", "--n", "4",
                         "--reps", "1", "--fd", "1e-300"])
        assert code == 1
        captured = capsys.readouterr()
        assert re.search(r"\[abort: ChainedLQ: non-finite forward-difference gradient at "
                         r"x=array\(\[.*\]\): the step h=1e-300 vanishes against x\[0\]=",
                         captured.out)
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
