"""The benchmark's self-test passes on the program as it stands.

`perfbench/selftest.py` runs genuine bgs and GS solves through the
benchmark's probe, which swaps module attributes and counts `eval_grad`
calls, and checks them; a program change that breaks the probe fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
