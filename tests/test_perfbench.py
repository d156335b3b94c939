"""The benchmark's self-tests pass against this checkout: a change that drops
a function `perfbench/tracer.py` rebinds, or breaks an API a checker calls,
fails here and not only in a benchmark run."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
