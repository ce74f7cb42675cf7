"""Counters and spans at the boundaries of the program's modules.

The program is left untouched: a `Probe` swaps the module attributes that
the solver, the baseline and the harness look up at call time for wrappers,
and puts the originals back when its `installed()` block ends.  Oracles are
wrapped with `dataclasses.replace` on `eval_f`/`eval_grad`.

Without timing, only what the end-to-end metrics and the checks need is
collected: objective and gradient calls at the oracle boundary and the
solver results.  With timing, every wrapped call also records a span (name,
start, end, parent) and adds its duration minus its children's to the self
time of its name, so the self times of one round add up to its wall time.
With a `Pacer`, the host's pace may be marked at each oracle call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import Counter, defaultdict
from pathlib import Path

from bundlegs import bgs, gs, harness, problems

from checks import Solve

ROOT = "bench.round"


class Probe:
    def __init__(self, timing: bool, pacer=None):
        self.timing = timing
        self.pacer = pacer
        self.count: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list = []
        self.solves: list[Solve] = []
        self._stack: list = []  # [span index, seconds covered by children]
        self.qp_atoms: list = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append([idx, 0.0])
        return idx, parent, time.perf_counter()

    def _close(self, name: str, idx: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        _, children = self._stack.pop()
        self.self_s[name] += (end - start) - children
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans[idx] = (name, start, end, parent)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.timing:
            yield
            return
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(name, *opened)

    def timed(self, name: str, fn, after=None):
        """`fn` in a span when timing; `after(args, kwargs, result)` sees each result."""
        if not self.timing:
            return fn

        def wrapped(*args, **kwargs):
            opened = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, *opened)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapped

    # -- oracle boundary -------------------------------------------------

    def wrap_oracle(self, oracle):
        """The oracle with `eval_f`/`eval_grad` counted and, when timing, timed;
        with a pacer, each call may first mark the host's pace."""
        pacer = self.pacer

        def counted(key, fn):
            fn = self.timed(key, fn)

            def call(x):
                self.count[key] += 1
                if pacer is not None:
                    pacer.maybe_mark()
                return fn(x)
            return call

        return dataclasses.replace(oracle,
                                   eval_f=counted("problems.f", oracle.eval_f),
                                   eval_grad=counted("problems.grad", oracle.eval_grad))

    # -- solver boundary -------------------------------------------------

    def _solver(self, name: str, fn, target_of):
        def wrapped(oracle, config, x0=None, grad_mode=None, stop_callback=None):
            mode = (grad_mode or problems.GradientMode.exact()).kind
            solve = Solve(name, oracle.name, oracle.dimension, mode, target_of(oracle))
            f0, g0 = self.count["problems.f"], self.count["problems.grad"]
            try:
                solve.result = fn(oracle, config, x0, grad_mode, stop_callback)
            except Exception as exc:  # recorded as a failed solve, then re-raised
                solve.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                solve.f_calls = self.count["problems.f"] - f0
                solve.grad_calls = self.count["problems.grad"] - g0
                self.solves.append(solve)
            return solve.result

        return self.timed(name, wrapped)

    def _after_qp(self, args, kwargs, sol):
        inst = args[0] if args else kwargs["instance"]
        self.count["qp.solves"] += 1
        self.count["qp.iterations"] += sol.iterations
        self.qp_atoms.append(inst.atoms.shape)

    def _after_sample(self, args, kwargs, points):
        self.count["sampling.calls"] += 1
        self.count["sampling.points"] += len(points)

    def _after_extrapolate(self, args, kwargs, out):
        self.count["bgs.extrapolate_calls"] += 1

    def _after_write(self, args, kwargs, path):
        self.count["harness.bytes_written"] += Path(path).stat().st_size

    @contextlib.contextmanager
    def installed(self, target_of):
        """Swap in the wrappers; `target_of(oracle)` gives a solve's target error."""
        t = self.timed
        swaps = [
            (bgs, "run", self._solver("bgs.run", bgs.run, target_of)),
            (gs, "gs_run", self._solver("gs.gs_run", gs.gs_run, target_of)),
            (harness, "make_problem",
             lambda *a, **k: self.wrap_oracle(problems.make_problem(*a, **k))),
        ]
        if self.timing:
            for mod in (bgs, gs):
                swaps += [
                    (mod, "gradient", t("problems.gradient", mod.gradient)),
                    (mod, "sample_ball", t("sampling.sample_ball", mod.sample_ball,
                                           self._after_sample)),
                    (mod, "solve_simplex_qp", t("qp.solve", mod.solve_simplex_qp,
                                                self._after_qp)),
                    (mod, "SimplexQpInstance", t("qp.instance", mod.SimplexQpInstance)),
                ]
            swaps += [
                (bgs, "aggregate", t("bgs.aggregate", bgs.aggregate)),
                (bgs, "extrapolate", t("bgs.extrapolate", bgs.extrapolate,
                                       self._after_extrapolate)),
                (harness, "run_experiment", t("harness.run_experiment", harness.run_experiment)),
                (harness, "perturb_start", t("harness.perturb_start", harness.perturb_start)),
                (harness, "emit_report", t("harness.emit_report", harness.emit_report,
                                           self._after_write)),
                (harness, "export_trace", t("harness.export_trace", harness.export_trace,
                                            self._after_write)),
            ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in swaps]
        try:
            for mod, attr, new in swaps:
                setattr(mod, attr, new)
            yield self
        finally:
            for mod, attr, old in saved:
                setattr(mod, attr, old)
