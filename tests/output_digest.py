"""Print one sha256 over the exit codes and stdout of the README payloads
(`perfbench/probes.README_CASES`), compact and with `--format pretty`, of
`paper-suite` and of a `degree --transcript` with reciprocal factors in P^13
(cone masks on both sides of `tropical.MEMO_COORDS`), all at the default
seed, of `degree --tr --seed=5` and `bracket --format=pretty` (flags in
their abbreviated and `=` forms), and of the interp payloads of
`tests/interp_goldens.json` at their seed 20259 (kernels at interp size).
Standard library only, so every installed Python can run it:

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

INTERP_GOLDENS = json.loads((ROOT / "tests" / "interp_goldens.json").read_text())

CASES = README_CASES + [("paper-suite", ["paper-suite"], {})] + [
    ("interp " + g["name"], ["interp", "--seed", "20259"], g["payload"]) for g in INTERP_GOLDENS]
CASES += [(name + " pretty", argv + ["--format", "pretty"], payload)
          for name, argv, payload in README_CASES if "--format" not in argv]
CASES.append(("degree transcript reciprocal P^13", ["degree", "--transcript"],
              {"plain": [[1, 3]], "reciprocal": [[1, 2]], "n": 13}))
# Abbreviated flags and `--flag=value`, as `cli.parse_args` reads them.
CASES += [("degree abbreviated flags", ["degree", "--tr", "--seed=5"], {"plain": [[2, 2]], "n": 5}),
          ("bracket cubic --format=pretty", ["bracket", "--format=pretty"],
           {name: payload for name, _, payload in README_CASES}["bracket cubic"])]

if __name__ == "__main__":
    digest = hashlib.sha256()
    for name, argv, payload in CASES:
        digest.update(json.dumps([name, run_case(cli, argv, payload)], sort_keys=True).encode())
    print(digest.hexdigest())
