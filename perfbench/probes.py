"""Untimed probes: byte identity of the README payloads, and `paper-suite`.

The byte-identity probe runs the README's canonical payload of every
subcommand at the default seed and compares the output bytes and exit code
with goldens.json.  `paper-suite` is left out of it: its report is probed
separately by counting passed checks, and its output is expected to change
once the suite runs on every supported Python.

Re-record the goldens after an intended output change with

    python3 perfbench/probes.py --record
"""

import json
import sys
from pathlib import Path

from workloads import Op, run_cli, zero_sum_space

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

SUITE_SEED = 20259

#: (name, argv, payload) from the README's CLI section, default seed.
README_CASES = [
    ("line-power", ["line-power"], {"line": [[1, 1, 1, 1], [1, 2, 3, 4]], "r": 2}),
    ("star-config", ["star-config"],
     {"line": [[1, 1, 1], [1, 2, 3]], "points": [[1, 1, 1], [1, 2, 3], [2, 3, 4], [3, 4, 5]], "r": 2}),
    ("span-dim spaces", ["span-dim"], {"spaces": [{"generators": [[1, 1, 1, 1], [1, 2, 3, 4]], "mult": 2}]}),
    ("span-dim dims", ["span-dim"], {"dims": [[1, 1], [1, 1]], "n": 3}),
    ("degree two lines", ["degree"], {"plain": [[1, 1], [1, 1]], "n": 3}),
    ("degree plane squared", ["degree"], {"plain": [[2, 2]], "n": 5}),
    ("degree line times reciprocal line", ["degree"], {"plain": [[1, 1]], "reciprocal": [[1, 1]], "n": 3}),
    ("degree transcript", ["degree", "--transcript"], {"plain": [[2, 2]], "n": 5}),
    ("interp", ["interp"],
     {"sampler": {"type": "product", "factors": [
         {"type": "linear", "generators": [[2, 3, 5, 7], [11, 13, 17, 19]]},
         {"type": "linear", "generators": [[23, 29, 31, 37], [41, 43, 47, 53]]}]},
      "dmax": 3}),
    ("dim-estimate", ["dim-estimate"],
     {"x": {"type": "segre", "a": 2, "b": 3}, "y": {"type": "linear", "generators": zero_sum_space()},
      "dim_h": 0, "dim_g": 11}),
    ("bracket quadric", ["bracket"],
     {"mode": "quadric", "line_l": [[2, 3, 5, 7], [11, 13, 17, 19]],
      "line_m": [[23, 29, 31, 37], [41, 43, 47, 53]]}),
    ("bracket quadric pretty", ["bracket", "--format", "pretty"],
     {"mode": "quadric", "line_l": [[2, 3, 5, 7], [11, 13, 17, 19]],
      "line_m": [[23, 29, 31, 37], [41, 43, 47, 53]]}),
    ("bracket cubic", ["bracket"],
     {"mode": "cubic", "plane": [[3, 1, 4, 1, 5, 9], [2, 6, 5, 3, 5, 8], [9, 7, 9, 3, 2, 3]]}),
    ("bracket verify", ["bracket"], {"mode": "verify", "identity": "cubic", "trials": 10}),
]


def run_case(cli, argv, payload):
    """Exit code and stdout of one in-process CLI call; a raise counts as exit -1."""
    try:
        code, out = run_cli(cli, Op("golden", argv, payload, None))
    except Exception as exc:  # a traceback is a probe result, not a crash of the benchmark
        code, out = -1, "raised %s: %s" % (type(exc).__name__, exc)
    return {"code": code, "stdout": out}


def golden_mismatches(cli):
    """Names of README cases whose exit code or output bytes differ from goldens.json."""
    goldens = json.loads(GOLDENS.read_text())
    return [name for name, argv, payload in README_CASES
            if run_case(cli, argv, payload) != goldens.get(name)]


def suite_checks_passed(papersuite):
    """(checks passed, error text or None) of one papersuite.run_all call."""
    try:
        report = papersuite.run_all(SUITE_SEED)
    except Exception as exc:  # the crash is reported, never skipped
        return 0, "run_all raised %s: %s" % (type(exc).__name__, exc)
    return sum(1 for c in report["checks"] if c["pass"]), None


def record(cli):
    data = {name: run_case(cli, argv, payload) for name, argv, payload in README_CASES}
    GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/probes.py --record")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from hadamard_spaces import cli as _cli
    record(_cli)
