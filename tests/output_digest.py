"""Print one sha256 over the exit codes and stdout of the README payloads
(`perfbench/probes.README_CASES`) and of `paper-suite`, all at the default
seed.  Standard library only, so every installed Python can run it:

    python3 tests/output_digest.py

Two interpreters that print the same digest print the same bytes.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hadamard_spaces import cli  # noqa: E402
from probes import README_CASES, run_case  # noqa: E402

CASES = README_CASES + [("paper-suite", ["paper-suite"], {})]

if __name__ == "__main__":
    digest = hashlib.sha256()
    for name, argv, payload in CASES:
        digest.update(json.dumps([name, run_case(cli, argv, payload)], sort_keys=True).encode())
    print(digest.hexdigest())
