"""The narrative scripts under demos/ run cleanly and print the same output
in two processes with different string-hash seeds."""

import os
import subprocess
import sys
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def run_demo(path, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=env, timeout=120)


def test_demos_run_cleanly_and_deterministically():
    assert len(DEMOS) == 6
    for path in DEMOS:
        first, second = run_demo(path, "0"), run_demo(path, "1")
        for run in (first, second):
            assert (run.returncode, run.stderr) == (0, ""), path.name
        assert first.stdout and first.stdout == second.stdout, path.name
