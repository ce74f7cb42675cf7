"""Rounds, checks and metrics of one benchmark run; started by run.py."""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bundlegs.bgs import StepKind

import checks
from pace import Pacer
from probe import ROOT, Probe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
MIN_UNITS = (2, 1)  # least rounds untraced, least pairs traced


def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description="Benchmark of bundlegs.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def measure_setup(args) -> float:
    """Median over fresh processes of the time from spawn to the first solve."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed with code {code}")
        times.append(ready - t0)
    return statistics.median(times)


def run_round(workload, timing: bool, paced: bool = False) -> dict:
    """One timed round, then the checks on what it produced."""
    pacer = Pacer() if paced else None
    probe = Probe(timing, pacer)
    with probe.installed(workload.target_of):
        if pacer is not None:
            pacer.mark()
        t0 = time.perf_counter()
        with probe.span(ROOT):
            workload.run_round(probe)
        wall = time.perf_counter() - t0
        if pacer is not None:
            pacer.mark()
            wall = pacer.raw_s()
    failures = {}
    for j, s in enumerate(probe.solves):
        bad = checks.check_solve(s)
        if bad:
            failures[j] = f"{s.solver} {s.problem} n={s.n} {s.grad_mode}: " + "; ".join(bad)
    errors = workload.check_outputs(probe.solves)
    if len(probe.solves) != workload.solves:
        errors.append(f"{len(probe.solves)} solves, want {workload.solves}")
    return {
        "wall": wall,
        "paced": pacer.paced_s() if pacer is not None else None,
        "probe": probe if timing else None,
        "failures": failures,
        "errors": errors,
        "counts": (sum(s.result.grad_evals for s in probe.solves if s.result is not None),
                   probe.count["problems.f"]),
    }


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics: times are means over the traced rounds, counts per round."""
    k = len(traced)
    self_s: dict = {}
    for rd in traced:
        for name, v in rd["probe"].self_s.items():
            self_s[name] = self_s.get(name, 0.0) + v / k
    probe = traced[-1]["probe"]  # every round makes the same calls
    count = probe.count
    bgs_runs = [s.result for s in probe.solves if s.solver == "bgs.run" and s.result]
    gs_runs = [s.result for s in probe.solves if s.solver == "gs.gs_run" and s.result]
    kinds = [rec.kind for r in bgs_runs for rec in r.trace]
    longest = 0
    for r in bgs_runs:
        per_k: dict = {}
        for rec in r.trace:
            if rec.kind == StepKind.INNER_ENRICH:
                per_k[rec.k] = per_k.get(rec.k, 0) + 1
        longest = max([longest, *per_k.values()])
    shapes = np.array(probe.qp_atoms, dtype=float).reshape(-1, 2)
    qp_s = self_s.get("qp.solve", 0.0)
    solves = count["qp.solves"]
    wall_t = statistics.fmean(rd["wall"] for rd in traced)
    wall_u = statistics.fmean(rd["wall"] for rd in untraced)
    return {
        "problems.f_calls": (count["problems.f"], "count"),
        "problems.f_s": (self_s.get("problems.f", 0.0), "s"),
        "problems.grad_calls": (count["problems.grad"], "count"),
        "problems.grad_s": (self_s.get("problems.grad", 0.0), "s"),
        "problems.fd_s": (self_s.get("problems.gradient", 0.0), "s"),
        "sampling.calls": (count["sampling.calls"], "count"),
        "sampling.points": (count["sampling.points"], "count"),
        "sampling.s": (self_s.get("sampling.sample_ball", 0.0), "s"),
        "qp.solves": (solves, "count"),
        "qp.s": (qp_s, "s"),
        "qp.us_per_solve": (1e6 * qp_s / solves if solves else 0.0, "us"),
        "qp.iterations": (count["qp.iterations"], "count"),
        "qp.atoms_mean": (float(shapes[:, 0].mean()) if solves else 0.0, "count"),
        "qp.atoms_max": (int(shapes[:, 0].max()) if solves else 0, "count"),
        "qp.atom_bytes": (int((8 * shapes[:, 0] * shapes[:, 1]).sum()), "bytes"),
        "qp.instance_s": (self_s.get("qp.instance", 0.0), "s"),
        "bgs.self_s": (self_s.get("bgs.run", 0.0) + self_s.get("bgs.extrapolate", 0.0), "s"),
        "bgs.aggregate_s": (self_s.get("bgs.aggregate", 0.0), "s"),
        "bgs.outer_iters": (sum(r.outer_iters for r in bgs_runs), "count"),
        "bgs.serious_steps": (kinds.count(StepKind.SERIOUS_STEP), "count"),
        "bgs.null_steps": (kinds.count(StepKind.NULL_STEP), "count"),
        "bgs.enrich_steps": (kinds.count(StepKind.INNER_ENRICH), "count"),
        "bgs.longest_chain": (longest, "count"),
        "bgs.extrapolate_calls": (count["bgs.extrapolate_calls"], "count"),
        "gs.self_s": (self_s.get("gs.gs_run", 0.0), "s"),
        "gs.iters": (sum(r.outer_iters for r in gs_runs), "count"),
        "gs.shrinks": (sum(rec.kind == "shrink" for r in gs_runs for rec in r.trace), "count"),
        "harness.self_s": (self_s.get("harness.run_experiment", 0.0)
                           + self_s.get("harness.perturb_start", 0.0), "s"),
        "harness.io_s": (self_s.get("harness.emit_report", 0.0)
                         + self_s.get("harness.export_trace", 0.0), "s"),
        "harness.bytes_written": (count["harness.bytes_written"], "bytes"),
        "trace.wall_s": (wall_t, "s"),
        "trace.untraced_wall_s": (wall_u, "s"),
        "trace.overhead_s": (wall_t - wall_u, "s"),
        "trace.overhead_pct": (100.0 * (wall_t - wall_u) / wall_u, "%"),
        "trace.unattributed_s": (self_s.get(ROOT, 0.0), "s"),
        "trace.self_sum_s": (sum(self_s.values()), "s"),
        "trace.spans": (len(probe.spans), "count"),
    }


def write_spans(path: Path, probe: Probe) -> None:
    """The last traced round's spans: id, name, start and end in s, parent id."""
    t0 = probe.spans[0][1] if probe.spans else 0.0
    with path.open("w") as fh:
        fh.write("id,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent) in enumerate(probe.spans):
            fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = HERE / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    setup_s = None if args.trace else measure_setup(args)

    # Whole rounds while the next one is expected to end within --seconds,
    # and at least two.  A traced run takes its rounds in pairs, untraced
    # then traced, for the tracing overhead, and at least one pair.
    rounds: list = []
    t0 = time.perf_counter()
    while True:
        if args.trace:
            rounds.append(run_round(workload, False))
            rounds.append(run_round(workload, True))
        else:
            rounds.append(run_round(workload, False, paced=True))
        done = len(rounds) // (2 if args.trace else 1)
        elapsed = time.perf_counter() - t0
        if done >= MIN_UNITS[args.trace] and elapsed * (done + 1) / done > args.seconds:
            break

    attempted = workload.solves * len(rounds)
    failed = sum(len(rd["failures"]) for rd in rounds)
    errors = [e for rd in rounds for e in rd["errors"]]
    for j, msg in sorted(rounds[0]["failures"].items()):
        print(f"failed solve {j}: {msg}", file=sys.stderr)
    counts = {rd["counts"] for rd in rounds}
    if len(counts) != 1:
        errors.append(f"rounds disagree on (grad_evals, f_evals): {sorted(counts)}")
    if len({tuple(rd["failures"]) for rd in rounds}) != 1:
        errors.append("rounds disagree on which solves fail")

    untraced = [rd for rd in rounds if rd["probe"] is None]
    if args.trace:
        traced = [rd for rd in rounds if rd["probe"] is not None]
        metrics = layer_metrics(traced, untraced)
        if abs(metrics["trace.self_sum_s"][0] - metrics["trace.wall_s"][0]) > 1e-3:
            errors.append("span self times do not add up to the round's wall time")
        write_spans(out_dir.parent / f"spans-{args.workload}.csv", traced[-1]["probe"])
    else:
        walls = [rd["paced"] for rd in rounds]
        metrics = {
            "paced_wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "grad_evals": (rounds[0]["counts"][0], "count"),
            "f_evals": (rounds[0]["counts"][1], "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"rounds {len(rounds)}, wall / paced wall: "
              + " ".join(f"{rd['wall']:.3f}/{rd['paced']:.3f}" for rd in rounds) + " s",
              file=sys.stderr)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
