"""One untimed round of each benchmark workload, digested to one line each.

Run from the root of a checkout, with no options:

    python3 tools/report_digest.py

For each workload of `perfbench/workloads.py` it prints the number of
solves, their total gradient count, the objective calls made inside the
solves, a sha256 over every solve's x, f, stop reason, counts and trace
records, and `outer=`, a sha256 over the outer trajectory alone: every
solve's x, f, stop reason and outer iteration count, the (k, f) of each
serious step (a GS "step") and the (k, radius) of each null step (a GS
"shrink"), in the order the round runs them.  The outer digest leaves out
the counts and the enrichment records.  The benchmark's `f_evals` is larger
by one start-point call per harness replication.

Two trees that print the same lines ran every solve bit for bit alike, so a
refactor that claims to change no result is checked by running this script
in a checkout of the parent and in one of the change and comparing the
output.  A change that claims to cut oracle work without moving the
iterates is checked the same way on the `outer=` field alone: copy this
script into a checkout of the parent (it may predate the field), run it
there and here, and compare the two `outer=` values of each workload.  The
workloads and the probe are imported from `perfbench/` as they are; the
round takes about 12 s on a 2-core VM.
"""

import dataclasses
import enum
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as in perfbench/run.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from probe import Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0  # the order of a round's solves; every seed runs the same solves
# the record kinds of the outer trajectory, bgs and GS
SERIOUS, NULL = ("serious", "step"), ("null", "shrink")


def _feed(h, value) -> None:
    """Add `value` to the hash by its bits; a float and a numpy float of the
    same value hash alike."""
    if value is None or isinstance(value, (str, bool)):
        h.update(repr(value).encode())
    elif isinstance(value, enum.Enum):
        h.update(repr(value.value).encode())
    elif isinstance(value, (int, np.integer)):
        h.update(b"i%d" % value)
    elif isinstance(value, (float, np.floating)):
        h.update(np.float64(value).tobytes())
    elif isinstance(value, tuple):
        for item in value:
            _feed(h, item)
    elif isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")
    h.update(b"|")


def digest(name: str) -> str:
    with tempfile.TemporaryDirectory() as out:
        workload = WORKLOADS[name](SEED, Path(out))
        probe = Probe(timing=False)
        with probe.installed(workload.target_of):
            workload.run_round(probe)
    h, outer = hashlib.sha256(), hashlib.sha256()
    grads = 0
    for s in probe.solves:
        for value in (s.solver, s.problem, s.n, s.grad_mode, s.error):
            _feed(h, value)
            _feed(outer, value)
        for value in (s.f_calls, s.grad_calls):
            _feed(h, value)
        r = s.result
        if r is not None:
            grads += r.grad_evals
            for value in (r.x, r.f, r.stop_reason, r.outer_iters, r.grad_evals, *r.trace):
                _feed(h, value)
            for value in (r.x, r.f, r.stop_reason, r.outer_iters):
                _feed(outer, value)
            for rec in r.trace:
                kind = getattr(rec.kind, "value", rec.kind)
                if kind in SERIOUS:
                    _feed(outer, (rec.k, rec.f_val))
                elif kind in NULL:
                    _feed(outer, (rec.k, rec.radius))
    f_calls = sum(s.f_calls for s in probe.solves)
    return (f"{name} solves={len(probe.solves)} grad_evals={grads} f_calls={f_calls} "
            f"sha256={h.hexdigest()} outer={outer.hexdigest()}")


def main() -> int:
    for name in WORKLOADS:
        print(digest(name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
