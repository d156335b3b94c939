import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hadamard_spaces.papersuite import ALL_CHECKS, run_all

DIGEST_SCRIPT = Path(__file__).resolve().parent / "output_digest.py"

#: Prints the first draws of every check's stream at a few master seeds.
FIRST_DRAWS_SCRIPT = """
import json
from hadamard_spaces.papersuite import ALL_CHECKS, check_rng
draws = {}
for seed in (0, 20259, 2 ** 64 - 1):
    for name, _ in ALL_CHECKS:
        rng = check_rng(seed, name)
        draws["%d:%s" % (seed, name)] = [rng.getrandbits(64) for _ in range(4)]
print(json.dumps(draws, sort_keys=True))
"""


#: The exact stdout of `paper-suite` at the default seed.
PAPER_SUITE_STDOUT = (
    '{"all_pass":true,"checks":['
    '{"detail":"interpolated degree 2; both routes proportional to the benchmark",'
    '"name":"two-lines quadric","pass":true},'
    '{"detail":"r=2 dim=2, r=3 dim=3, r=4 dim=3, r=5 dim=3",'
    '"name":"degenerate line powers","pass":true},'
    '{"detail":"all maximal minors equal pairwise-bracket products, ranks min(r,n)+1",'
    '"name":"line power brackets","pass":true},'
    '{"detail":"10 products of 5 collinear points, star verified",'
    '"name":"star configuration","pass":true},'
    '{"detail":"Terracini dimension 9, expected dimension 10",'
    '"name":"deficient dimension","pass":true},'
    '{"detail":"two distinct lines=2; plane squared=3; three distinct lines=6; '
    'line to the fourth=1; reciprocal plane=3; line times reciprocal line=2; '
    'reciprocal line (rational normal curve)=5",'
    '"name":"degree formulas vs fans","pass":true},'
    '{"detail":"reciprocal plane degree 3, line*reciprocal-line degree 2",'
    '"name":"reciprocal interpolation","pass":true},'
    '{"detail":"symbolic expansion vanishes; self-product squares the hyperplane form",'
    '"name":"quadric identities","pass":true},'
    '{"detail":"bracket cubic proportional to the degree-3 interpolation",'
    '"name":"cubic vs interpolation","pass":true},'
    '{"detail":"Vandermonde rank matches formula; no identifiability collisions",'
    '"name":"span and identifiability","pass":true}'
    ']}\n'
)


def test_run_all_passes_with_default_seed():
    report = run_all(20259)
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert report["all_pass"], "failing checks: %s" % failing
    assert len(report["checks"]) == len(ALL_CHECKS)


def test_run_all_seed_independent():
    # 233258, 342124 and 653720 once drew dependent rows for a random line
    # and reported a false failure of the quadric identities.
    for seed in (4, 233258, 342124, 653720):
        report = run_all(seed)
        failing = [c["name"] for c in report["checks"] if not c["pass"]]
        assert report["all_pass"], "seed %d, failing checks: %s" % (seed, failing)


def test_cli_paper_suite_exit_code():
    proc = subprocess.run([sys.executable, "-m", "hadamard_spaces.cli", "paper-suite"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["all_pass"] is True
    assert proc.stdout == PAPER_SUITE_STDOUT


def _first_draws(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, "-c", FIRST_DRAWS_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_check_streams_independent_of_hash_seed():
    out0, out1 = _first_draws(0), _first_draws(1)
    assert out0 == out1
    draws = json.loads(out0)
    assert len(draws) == 3 * len(ALL_CHECKS)
    streams = {tuple(d) for d in draws.values()}
    assert len(streams) == len(draws), "two (seed, check) pairs share a stream"


def _pyenv_root():
    """`pyenv root`, else $PYENV_ROOT, else ~/.pyenv."""
    try:
        return Path(subprocess.run(["pyenv", "root"], capture_output=True, text=True,
                                   check=True).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        return Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))


def _output_digest(python):
    proc = subprocess.run([str(python), str(DIGEST_SCRIPT)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_outputs_agree_across_installed_pythons():
    """The README payloads and `paper-suite` print the same bytes and exit
    codes under every other installed CPython 3.10+ as under this one."""
    here = Path(sys.executable).resolve()
    others = [p for p in sorted(_pyenv_root().glob("versions/3.1[0-9]*/bin/python3"))
              if p.resolve() != here]
    if not others:
        pytest.skip("no other Python 3.1x interpreter under pyenv")
    want = _output_digest(sys.executable)
    assert {str(p): _output_digest(p) for p in others} == {str(p): want for p in others}
