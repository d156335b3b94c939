"""The narrative scripts under demos/ run cleanly, print the same output in
two processes with different string-hash seeds, and print exactly the
output pinned below."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

#: sha256 of each demo's stdout.  A demo whose output changes on purpose
#: gets a new digest in the same change, with the reason.
DEMO_STDOUT_SHA256 = {
    "deficient_dimension_demo.py": "3d97627973587538752d44711aad84f1e217d95d59e5283b87bf391ba2bf098f",
    "line_powers_demo.py": "49ed7fe28cca9fd7cfe93c9d14bc288331df42c963a6a29cdf70504105ec88d3",
    "plane_square_cubic_demo.py": "7c8ad500efb35c10ce9f735a77782dd962f2f7638e89c398d6b9d3b7bb12e05c",
    "star_configurations_demo.py": "b126c6e362673c14e5713ba73629eafb21eea304e0f60f2b1c63b64fd407e35c",
    "tropical_degrees_demo.py": "0b28616ebadb2ee37c1239e9dcb26d1b45320f461fa6a1dc0930a3c4f16edc2d",
    "two_lines_quadric_demo.py": "3f09ddd9d14ad5801f04f89e890840ba2f6e2f382f4d846f5f54d8702481a55a",
}


def run_demo(path, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=env, timeout=120)


def test_demos_run_cleanly_and_deterministically():
    assert sorted(DEMO_STDOUT_SHA256) == [path.name for path in DEMOS]
    for path in DEMOS:
        first, second = run_demo(path, "0"), run_demo(path, "1")
        for run in (first, second):
            assert (run.returncode, run.stderr) == (0, ""), path.name
        assert first.stdout and first.stdout == second.stdout, path.name
        digest = hashlib.sha256(first.stdout.encode()).hexdigest()
        assert digest == DEMO_STDOUT_SHA256[path.name], path.name
