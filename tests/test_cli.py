import argparse
import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import time
import warnings
from functools import cache
from itertools import islice
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from hadamard_spaces import (brackets, cli, line_powers, linalg, products, projective,
                             samplers, star_configs, tropical)
from hadamard_spaces.linalg import QMatrix, integer_kernel_basis
from hadamard_spaces.poly import SparsePoly, monomial_products, monomials_of_degree
from test_payload_errors import run_main

RUN = [sys.executable, "-m", "hadamard_spaces.cli"]

#: `interp --seed 20259` stdout recorded before the multi-modular kernel and
#: the point-only sampler draw: a product of two lines, a squared plane in
#: P^5, a reciprocal plane in P^3, and the degree-2 forms of the square of a
#: line in P^3 (a four-vector kernel).
INTERP_GOLDENS = json.loads((Path(__file__).parent / "interp_goldens.json").read_text())


def run_cli(command, payload=None, *flags):
    text = json.dumps(payload) if payload is not None else ""
    proc = subprocess.run(RUN + [command, *flags], input=text,
                          capture_output=True, text=True)
    return proc


def test_degree_example():
    proc = run_cli("degree", {"plain": [[1, 1], [1, 1]], "n": 3})
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"dim": 2, "degree": "2"}


def test_degree_reciprocal_and_transcript():
    proc = run_cli("degree", {"reciprocal": [[1, 1]], "n": 4}, "--transcript")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["dim"] == 1 and doc["degree"] == "4"
    transcript = doc["transcript"]
    assert transcript["fan_degree"] == "4"
    assert transcript["cones"]
    assert transcript["contributing_pairs"]
    assert all(p["lattice_index"] == 1 for p in transcript["contributing_pairs"])


@pytest.mark.parametrize("flags", [(), ("--transcript",)])
def test_degree_dimension_above_n_exit_2(flags):
    proc = run_cli("degree", {"plain": [[3, 1]], "n": 2}, *flags)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds ambient" in json.loads(proc.stderr)["error"]["message"]


@pytest.mark.parametrize("payload", [
    {"plain": [[0, 3]], "n": 2},
    {"plain": [[0, 2], [1, 1]], "n": 3},
    {"reciprocal": [[0, 2]], "n": 2},
    {"plain": [[0, 200000]], "n": 1},
])
def test_degree_of_a_zero_dimensional_power_is_1(payload):
    proc = run_cli("degree", payload, "--transcript")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["degree"] == doc["transcript"]["fan_degree"] == "1"


#: sha256 of `degree --transcript` stdout for a squared point times a line in
#: P^3, recorded while every point factor still built its own fan.
POINT_FACTOR_TRANSCRIPT_SHA256 = "c31608fb98e07675378e382c54504cf285ac64d5be040ee15af85fc8316c9648"


def test_degree_transcript_with_point_factors_is_unchanged():
    proc = run_cli("degree", {"plain": [[0, 2], [1, 1]], "n": 3}, "--transcript")
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == POINT_FACTOR_TRANSCRIPT_SHA256


#: sha256 of `degree --transcript` stdout, recorded while cones were pairs of
#: frozensets: a point in P^998 (its complement's cones have 998 of 999
#: coordinates, at the edge of tropical.FAN_BUDGET) and a squared line times a
#: squared reciprocal line in P^12 (mixed signs, several pairs).
WIDE_TRANSCRIPT_SHA256 = [
    ({"plain": [[0, 1]], "n": 998},
     "5630b2684b16bf3add958c0c728348fcfd5811213ad1354dbe86541d87b991da"),
    ({"plain": [[1, 2]], "reciprocal": [[1, 2]], "n": 12},
     "239a709a8da15b04d9f6f41e076c5b394f3c097342bcfd65c5b8bab5455727ff"),
]


@pytest.mark.parametrize("payload, digest", WIDE_TRANSCRIPT_SHA256)
def test_degree_transcript_of_wide_fans_is_unchanged(payload, digest):
    proc = run_cli("degree", payload, "--transcript")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def _cone_doc(fan, cone):
    plus, minus = cone
    return {"plus": tropical.mask_indices(plus), "minus": tropical.mask_indices(minus),
            "mult": fan.cones[cone]}


def _dict_route_degree(payload, seed):
    """The `degree --transcript` document built as one dict per cone, the
    route the CLI took before it wrote the transcript as text: the oracle
    of the writer."""
    args = cli.parse_args(["degree"])
    doc = cli.cmd_degree(cli.read_payload("degree", payload, args), None, args)
    plain = [tuple(x) for x in payload.get("plain", [])]
    reciprocal = [tuple(x) for x in payload.get("reciprocal", [])]
    detail = tropical.fan_degree_pipeline(plain, reciprocal, payload["n"], random.Random(seed))
    fan, complement = detail["fan"], detail["complement"]
    docs = {c: _cone_doc(fan, c) for c in fan.cones}
    doc["transcript"] = {
        "delta": detail["delta"],
        "fan_degree": linalg.rat_str(detail["degree"]),
        "global_weight": linalg.rat_str(fan.global_weight),
        "displacement": [linalg.rat_str(x) for x in detail["displacement"]],
        "cones": list(docs.values()),
        "contributing_pairs": [
            {"sigma1": docs[c1], "sigma2": _cone_doc(complement, c2), "lattice_index": idx}
            for c1, c2, idx in detail["pairs"]],
    }
    return doc


def _degree_grid(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    payloads = []
    for plain, recip, n in workloads.degree_grid():
        payload = {"plain": [list(x) for x in plain], "n": n}
        if recip:
            payload["reciprocal"] = [list(x) for x in recip]
        payloads.append(payload)
    return payloads


#: Reciprocal factors in P^12 (every mask below 2^MEMO_COORDS) and P^13
#: (masks on both sides of it), and the widest fans: in P^998, and a point
#: in P^999, the largest ambient space within tropical.FAN_BUDGET.
WIDE_DEGREE_PAYLOADS = [
    {"reciprocal": [[1, 3]], "n": 12},
    {"plain": [[1, 2]], "reciprocal": [[1, 2]], "n": 12},
    {"reciprocal": [[1, 3]], "n": 13},
    {"plain": [[1, 3]], "reciprocal": [[1, 2]], "n": 13},
    {"plain": [[0, 1]], "n": 998},
    {"plain": [[998, 1]], "n": 998},
    {"plain": [[0, 1]], "n": 999},
]


def test_degree_transcript_text_matches_the_dict_route(monkeypatch, capsys):
    """Compact and pretty bytes of the text writer equal json.dumps of the
    dict route on the criterion 5/6 grid and the wide payloads."""
    for payload in _degree_grid(monkeypatch) + WIDE_DEGREE_PAYLOADS:
        doc = _dict_route_degree(payload, 1)
        for fmt, want in (("json", json.dumps(doc, sort_keys=True, separators=(",", ":"))),
                          ("pretty", json.dumps(doc, indent=2, sort_keys=True))):
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
            assert cli.main(["degree", "--transcript", "--seed", "1", "--format", fmt]) == 0
            assert capsys.readouterr().out == want + "\n", (payload, fmt)


def test_mask_text_memo_holds_only_its_domain(monkeypatch, capsys):
    """Past 2^MEMO_COORDS a mask's text is rendered on every call and never
    held: the fans of P^998 and P^999 leave only the empty mask in the
    memo."""
    tropical._memo_mask_text.cache_clear()
    for payload in WIDE_DEGREE_PAYLOADS[4:]:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        assert cli.main(["degree", "--transcript"]) == 0
    assert tropical._memo_mask_text.cache_info().currsize == 1
    assert tropical.mask_text(0) == "[]" and tropical._memo_mask_text.cache_info().currsize == 1
    # Every mask's text is its index tuple's JSON, on both sides of the
    # memo's domain, up to the last coordinate of P^999.
    assert len(tropical._COORD_TEXT) == 1000
    assert run_cli("degree", {"plain": [[0, 1]], "n": 1000}, "--transcript").returncode == 3
    top = 1 << 999
    for mask in (1, 0b1011, (1 << tropical.MEMO_COORDS) - 1, 1 << tropical.MEMO_COORDS,
                 top, top | 5, 2 * top - 1):
        assert tropical.mask_text(mask) == json.dumps(tropical.mask_indices(mask),
                                                      separators=(",", ":"))


_JSON_STRINGS = st.text(st.characters(exclude_categories=()), max_size=8)
_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | _JSON_STRINGS
    | st.integers(-(10 ** 4300 - 1), 10 ** 4300 - 1) | st.integers(-2 ** 70, 2 ** 70),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_JSON_STRINGS, kids, max_size=4),
    max_leaves=12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_JSON_DOCS)
def test_pretty_of_compact_text_is_json_dumps_indent_2(doc):
    """`--format pretty` re-reads the compact text: for any JSON document
    without floats, whose ints print, the bytes of json.dumps(doc,
    indent=2, sort_keys=True), whether the subcommand returned the
    document or its compact text."""
    compact = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    pretty = json.dumps(doc, indent=2, sort_keys=True)
    # `main` writes a returned str as text, so a string document is handed
    # over as its compact text only.
    for returned in (compact,) if isinstance(doc, str) else (doc, compact):
        for fmt, want in (("json", compact), ("pretty", pretty)):
            saved = cli.COMMANDS["span-dim"], sys.stdin, sys.stdout
            cli.COMMANDS["span-dim"] = lambda payload, rng, args: returned
            sys.stdin, sys.stdout = io.StringIO("{}"), io.StringIO()
            try:
                assert cli.main(["span-dim", "--format", fmt]) == 0
                out = sys.stdout.getvalue()
            finally:
                cli.COMMANDS["span-dim"], sys.stdin, sys.stdout = saved
            assert out == want + "\n"


def test_degree_too_long_to_print_exit_3():
    # 1800 lines in P^1800: degree 1800!, about 5,000 digits.
    proc = run_cli("degree", {"plain": [[1, 1]] * 1800, "n": 1800})
    assert proc.returncode == 3 and proc.stdout == ""
    error = json.loads(proc.stderr)["error"]
    assert error["code"] == 3 and "too long to print" in error["message"]


def test_degree_with_a_bound_too_long_to_print_exit_3():
    # 15,000 lines in P^15000: the genericity bound 2^15000 - 1 of the
    # warning has 4,516 digits, past the int-to-str limit.
    proc = run_cli("degree", {"plain": [[1, 1]] * 15000, "n": 15000})
    assert (proc.returncode, proc.stdout) == (3, "") and "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert error["code"] == 3 and "too long to print" in error["message"]


def test_degree_past_the_digit_bound_exit_3_at_once():
    # Ran past 60 s: 1,000,000! divided by (100,000!)^10 for a degree of
    # millions of digits.  The digit bound refuses it before the degree is formed.
    for payload in ({"plain": [[100000, 10]], "n": 1000000},
                    {"plain": [[1000000, 10]], "n": 10000000}):
        start = time.perf_counter()
        proc = run_cli("degree", payload)
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout) == (3, "") and "Traceback" not in proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["code"] == 3 and "too long to print" in error["message"]


def test_degree_below_the_digit_bound_prints_as_before():
    # About 1,800 digits: the bound, 900 of them, lets it through; the
    # digest is the one printed before the bound existed.
    proc = run_cli("degree", {"plain": [[3000, 2]], "n": 6000})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "1ae73102ebead9c285ecb062b8eb44cbba7641bcb2ad534af60f3b6071000db8")


#: (payload, genericity bound) of `degree` payloads below and at or above it.
DEGREE_BOUND_CASES = [
    ({"plain": [[1, 1], [1, 1]], "n": 2}, 3),
    ({"plain": [[1, 2], [1, 1]], "n": 3}, 5),
    ({"plain": [[2, 3]], "n": 6}, 9),
    ({"plain": [[1, 1]], "reciprocal": [[1, 1]], "n": 2}, 3),
    ({"plain": [[1, 1], [1, 1]], "n": 3}, 3),
    ({"plain": [[2, 2]], "n": 5}, 5),
    ({"reciprocal": [[1, 1]], "n": 4}, 1),
]


@pytest.mark.parametrize("flags", [(), ("--transcript",)])
def test_degree_warns_exactly_below_the_genericity_bound(flags, monkeypatch, capsys):
    for payload, bound in DEGREE_BOUND_CASES:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        assert cli.main(["degree", *flags]) == 0
        doc = json.loads(capsys.readouterr().out)
        if payload["n"] < bound:
            assert doc.pop("warning") == ("ambient dimension %d is below the genericity bound "
                                          "%d of the degree formula" % (payload["n"], bound))
        assert "warning" not in doc and ("transcript" in doc) == bool(flags)
    # At the bound the bytes are the ones printed before the warning existed.
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"plain": [[1, 1], [1, 1]], "n": 3})))
    assert cli.main(["degree"]) == 0
    assert capsys.readouterr().out == '{"degree":"2","dim":2}\n'


#: `degree` stdout, and the sha256 of `degree --transcript` stdout, of the
#: payloads below the bound in DEGREE_BOUND_CASES, recorded while the
#: warning was caught from `warnings.warn`.
DEGREE_WARNING_OUTPUTS = [
    ('{"degree":"2","dim":2,"warning":"ambient dimension 2 is below the genericity bound 3 '
     'of the degree formula"}\n',
     "ad779be7945f377aef460693a82d848930d393816d53f120ccf5143cb6147138"),
    ('{"degree":"3","dim":3,"warning":"ambient dimension 3 is below the genericity bound 5 '
     'of the degree formula"}\n',
     "f9fbcce1f904af03f6063d3d7b49ed42cbe2101ad152fecea2a213f8f6f95f0f"),
    ('{"degree":"15","dim":6,"warning":"ambient dimension 6 is below the genericity bound 9 '
     'of the degree formula"}\n',
     "0a7fb708c58f4265c338d96db524e88d8426de1876abcb82a6c292a0aed6f0e4"),
    ('{"degree":"1","dim":2,"warning":"ambient dimension 2 is below the genericity bound 3 '
     'of the degree formula"}\n',
     "db1589cdf4ca597cbd8ae5ddb297a2924b2ee5af34d5e582dede14c04921e4b3"),
]


def test_degree_warning_leaves_the_warning_filters_alone(monkeypatch, capsys):
    # The CLI reads the warning's text from the closed form; it neither
    # catches warnings nor changes the process-wide filters, so its bytes
    # do not depend on them.
    def refuse(*args, **kwargs):
        raise AssertionError("the CLI changed the process-wide warning filters")

    below = [payload for payload, bound in DEGREE_BOUND_CASES if payload["n"] < bound]
    filters = list(warnings.filters)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        saved = warnings.catch_warnings, warnings.simplefilter
        warnings.catch_warnings = warnings.simplefilter = refuse
        try:
            for payload, (out, digest) in zip(below, DEGREE_WARNING_OUTPUTS, strict=True):
                for flags in ((), ("--transcript",)):
                    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
                    assert cli.main(["degree", *flags]) == 0
                    text = capsys.readouterr().out
                    if flags:
                        assert hashlib.sha256(text.encode()).hexdigest() == digest
                    else:
                        assert text == out
        finally:
            warnings.catch_warnings, warnings.simplefilter = saved
    assert warnings.filters == filters
    # Library callers are still warned.
    with pytest.warns(UserWarning, match="below the genericity bound 3"):
        assert tropical.degree_with_reciprocals([(1, 1), (1, 1)], [], 2) == (2, 2)


def test_degree_transcript_budget_exit_3():
    # The complement fan alone would have binom(2001, 1998) cones.
    proc = run_cli("degree", {"plain": [[1, 1], [1, 1]], "n": 2000}, "--transcript")
    assert proc.returncode == 3 and proc.stdout == ""
    error = json.loads(proc.stderr)["error"]
    assert error["code"] == 3 and "1000000" in error["message"]
    assert run_cli("degree", {"plain": [[1, 1], [1, 1]], "n": 2000}).returncode == 0


def test_degree_transcript_two_lines_in_p40():
    proc = run_cli("degree", {"plain": [[1, 1], [1, 1]], "n": 40}, "--transcript")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["transcript"]["fan_degree"] == doc["degree"] == "2"


def test_degree_negative_n_exit_1():
    proc = run_cli("degree", {"plain": [[1, 1]], "n": -1})
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["field"] == "n"


def test_determinism_byte_identical():
    payload = {"sampler": {"type": "linear", "generators": [[1, 2, 3], [0, 1, 5]]},
               "degree": 1}
    a = run_cli("interp", payload, "--seed", "7")
    b = run_cli("interp", payload, "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli("interp", payload, "--seed", "8")
    assert c.returncode == 0  # different seed still succeeds


@pytest.mark.parametrize("golden", INTERP_GOLDENS, ids=[g["name"] for g in INTERP_GOLDENS])
def test_interp_output_byte_identical(golden, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(golden["payload"])))
    assert cli.main(["interp", "--seed", "20259"]) == 0
    assert capsys.readouterr().out == golden["stdout"]


#: One payload of each kind of the interp benchmark cycle: a squared plane in
#: P^5, a reciprocal plane in P^3, two spanning lines in P^3, and a line times
#: a reciprocal line in P^3.
INTERP_CYCLE_PAYLOADS = [
    {"type": "power", "r": 2, "base": {"type": "linear", "generators": [
        [-6, 7, -2, -1, -1, 0], [-7, 5, 0, 5, 3, 3], [-6, -1, -2, 1, 2, -1]]}},
    {"type": "reciprocal", "generators": [[2, 7, -5, -4], [8, -1, -4, -9], [-7, -6, 1, -9]]},
    {"type": "product", "factors": [
        {"type": "linear", "generators": [[-7, -1, -3, 3], [3, 9, 5, -6]]},
        {"type": "linear", "generators": [[-3, -1, 5, -3], [6, 0, 7, -1]]}]},
    {"type": "product", "factors": [
        {"type": "linear", "generators": [[-6, -6, -7, -1], [-1, -6, -9, -4]]},
        {"type": "reciprocal", "generators": [[4, -6, 7, 9], [-7, 4, 6, -4]]}]},
]

#: sha256 of the `interp` stdout of the cycle payloads (with dmax 3) and the
#: golden payloads, each at seeds 0-9, recorded on the list-of-lists
#: factorization mod p, before rows were packed into integers.
INTERP_SEEDS_SHA256 = "24c2e73fe9457f9241890a6138b1ea210f8f7d3989ffd0adb2983081eee14349"


def test_interp_stdout_over_seeds_is_unchanged(monkeypatch, capsys):
    payloads = [{"sampler": s, "dmax": 3} for s in INTERP_CYCLE_PAYLOADS]
    payloads += [g["payload"] for g in INTERP_GOLDENS]
    digest = hashlib.sha256()
    for payload in payloads:
        for seed in range(10):
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
            assert cli.main(["interp", "--seed", str(seed)]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == INTERP_SEEDS_SHA256


class _NoDraws:
    """A stand-in for `random.Random` whose every method call fails."""

    def __init__(self, seed=None):
        pass

    def __getattr__(self, name):
        raise AssertionError("random state read: %s" % name)


def test_interp_draws_nothing_and_ignores_the_seed(monkeypatch, capsys):
    # The forms come from the parameter grid: no point is drawn, no random
    # state is read, and every seed prints the same bytes.
    def no_point(self, rng):
        raise AssertionError("VarietySampler.sample_point called")

    monkeypatch.setattr(samplers.VarietySampler, "sample_point", no_point)
    monkeypatch.setattr(cli.random, "Random", _NoDraws)
    payloads = [{"sampler": s, "dmax": 3} for s in INTERP_CYCLE_PAYLOADS]
    payloads += [g["payload"] for g in INTERP_GOLDENS]
    for payload in payloads:
        outputs = set()
        for seed in ("1", "2", "3", "20259"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
            assert cli.main(["interp", "--seed", seed]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1


def test_interp_past_the_monomial_budget_exit_3():
    # Degree 40 on a line in P^11 has binom(51, 40) monomials: enumerating
    # them ran until killed.
    line = {"type": "linear", "generators": [[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
                                             [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8]]}
    start = time.perf_counter()
    proc = run_cli("interp", {"sampler": line, "degree": 40})
    assert time.perf_counter() - start < 1
    assert proc.returncode == 3 and proc.stdout == "" and "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert error["code"] == 3 and str(products.INTERP_MONOMIAL_BUDGET) in error["message"]
    # A dmax search checks each degree: all of P^7 has no vanishing form,
    # and its 330 quartic monomials are past the budget.
    space = {"type": "linear", "generators": [[int(i == j) for j in range(8)] for i in range(8)]}
    proc = run_cli("interp", {"sampler": space, "dmax": 40})
    assert proc.returncode == 3 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["message"].startswith("degree 4 in P^7 has 330 monomials")


def test_interp_empty_products_and_the_grid_limit_exit_3():
    # A reciprocal factor in a coordinate hyperplane is empty: the parameter
    # grid alone would print the forms vanishing at [0 : 0 : 1].  Disjoint
    # supports make every grid point zero.
    for payload, message in (
            ({"sampler": {"type": "reciprocal", "generators": [[1, 2, 0], [3, 4, 0]]}, "degree": 1},
             "hyperplane x_2 = 0"),
            ({"sampler": {"type": "product", "factors": [
                {"type": "linear", "generators": [[1, 2, 0, 0]]},
                {"type": "linear", "generators": [[0, 0, 1, 1], [0, 0, 1, 2]]}]}, "dmax": 3},
             "every point of the parameter grid is zero"),
            # 74,613 grid points of a reciprocal 6-space in P^8 by 45 quadrics
            # took 3.8 s; a reciprocal plane times a line in P^22 at degree 2
            # (895,356 cells) 3.9 s.
            ({"sampler": {"type": "reciprocal", "generators": [
                [int(i == j) + j for j in range(9)] for i in range(7)]}, "degree": 2},
             "grid limit of %d" % products.INTERP_GRID_LIMIT),
            ({"sampler": {"type": "product", "factors": [
                {"type": "reciprocal", "generators": [[1] * 23, list(range(1, 24)),
                                                      [j * j + 1 for j in range(23)]]},
                {"type": "linear", "generators": [[1] * 23, list(range(23))]}]}, "degree": 2},
             "grid limit of %d" % products.INTERP_GRID_LIMIT)):
        start = time.perf_counter()
        proc = run_cli("interp", payload)
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout) == (3, "") and "Traceback" not in proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["code"] == 3 and message in error["message"]


def _digits_space(rng, dim, n, digits):
    """Generator rows of a (dim)-space in P^n with entries of `digits` digits."""
    return [[rng.choice([-1, 1]) * rng.randrange(10 ** (digits - 1), 10 ** digits)
             for _ in range(n + 1)] for _ in range(dim + 1)]


def _build_charge(sampler, d):
    """The units that `interpolate_forms` spends on building the degree-d
    matrix, its first pass's reduction mod p included."""
    refusal, build, reduction = products.interpolation_cost(sampler, d)
    assert refusal is None
    return build + reduction


def test_interp_bit_work_limits_exit_3():
    rng = random.Random(28)
    # 100-digit entries, degree 2 on a reciprocal plane times a line in P^21:
    # 2,838 grid points by 253 quadrics of about 15,000-bit coordinates,
    # whose build charge is past the lift budget, so it is refused before
    # any grid is built; the matrix alone took 18 s to build.
    product = {"sampler": {"type": "product", "factors": [
        {"type": "reciprocal", "generators": _digits_space(rng, 2, 21, 100)},
        {"type": "linear", "generators": _digits_space(rng, 1, 21, 100)}]}, "degree": 2}
    start = time.perf_counter()
    proc = run_cli("interp", product)
    assert time.perf_counter() - start < 2.0
    assert (proc.returncode, proc.stdout) == (3, "") and "Traceback" not in proc.stderr
    message = ("the degree-2 evaluation matrix in P^21 is past the lift budget of %d"
               % linalg.LIFT_BUDGET)
    assert json.loads(proc.stderr)["error"]["message"] == message


def test_interp_of_four_repeated_23_digit_columns_ends_in_time():
    # Degree 2 on a reciprocal plane times a line in P^21 whose generator
    # columns repeat four 23-digit columns: 2,838 grid points by 253
    # quadrics, and 243 forms, each checked exactly on every grid row.
    # Before the build and the checks drew on the lift budget it answered
    # after 15.9 s; now the whole process ends within 5 s.
    rng = random.Random(5)
    columns = [[rng.choice([-1, 1]) * rng.randrange(10 ** 22, 10 ** 23) for _ in range(5)]
               for _ in range(4)]
    generators = [[columns[k % 4][i] for k in range(22)] for i in range(5)]
    payload = {"sampler": {"type": "product", "factors": [
        {"type": "reciprocal", "generators": generators[:3]},
        {"type": "linear", "generators": generators[3:]}]}, "degree": 2}
    start = time.perf_counter()
    proc = run_cli("interp", payload)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode in (0, 3) and "Traceback" not in proc.stderr
    if proc.returncode == 3:
        assert proc.stdout == "" and json.loads(proc.stderr)["error"]["code"] == 3


def test_interp_build_charge_is_spent_before_the_grid(monkeypatch):
    # A line times a reciprocal plane in P^6 with 150-digit entries: its
    # degree-3 matrix, 760 x 84 of about 10,500-bit entries, took 1.8 s to
    # build.  With the cell one unit short of its build charge, nothing is
    # built; with the charge, the grid is the next step.
    rng = random.Random(150)
    sampler = cli.SAMPLER.read({"type": "product", "factors": [
        {"type": "linear", "generators": _digits_space(rng, 1, 6, 150)},
        {"type": "reciprocal", "generators": _digits_space(rng, 2, 6, 150)}]}, "sampler")
    charge = _build_charge(sampler, 3)
    grids, products_made = [], []

    class Built(Exception):
        pass

    def grid(s, d):
        grids.append(d)
        raise Built

    monkeypatch.setattr(products, "interpolation_grid", grid)
    monkeypatch.setattr(products, "monomial_products",
                        lambda *args: products_made.append(args) or monomial_products(*args))
    with pytest.raises(products.BudgetExhausted, match=r"degree-3 evaluation matrix in P\^6 is past"):
        products.interpolate_forms(sampler, 3, [charge - 1])
    assert grids == [] and products_made == []
    with pytest.raises(Built):
        products.interpolate_forms(sampler, 3, [charge])
    assert grids == [3] and products_made == []


def _grid_and_oracle_outcomes(monkeypatch, capsys, payload, draws):
    """(exit code, stdout) of `interp` on the parameter grid, then on the
    sampled route with random.Random(draws)."""
    outcomes = []
    for route in ("grid", "sampled"):
        if route == "sampled":
            rng = random.Random(draws)
            oracle = lambda s, e, budget=None, most=None, built=None: (
                _sampled_interpolate_forms(s, e, rng))
            monkeypatch.setattr(products, "interpolate_forms", oracle)
            monkeypatch.setattr(cli, "interpolate_forms", oracle)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        code = cli.main(["interp"])
        outcomes.append((code, capsys.readouterr().out))
    monkeypatch.undo()
    return outcomes


def test_interp_forms_past_500_bits_are_lifted(monkeypatch, capsys):
    # Forms whose coefficients are past 500 bits, p^38 > 2^1002: the cubic
    # of a squared plane in P^5 with 12-digit entries, and that of a
    # reciprocal plane in P^3 with 300-digit entries.  Each exits 0 in a
    # fraction of a second, and the sampled route prints the same.
    rng = random.Random(31)
    squared = {"type": "power", "r": 2,
               "base": {"type": "linear", "generators": _digits_space(rng, 2, 5, 12)}}
    reciprocal = {"type": "reciprocal", "generators": _digits_space(rng, 2, 3, 300)}
    for sampler, bits in ((squared, 900), (reciprocal, 2900)):
        payload = {"sampler": sampler, "dmax": 3}
        start = time.perf_counter()
        proc = run_cli("interp", payload)
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 0 and proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["degree"] == 3
        assert max(int(c).bit_length() for _, c in doc["form"]) > bits
        grid, sampled = _grid_and_oracle_outcomes(monkeypatch, capsys, payload, 31)
        assert grid == sampled == (0, proc.stdout)


def _kernel_bareiss_passes(monkeypatch):
    """A list that gets an entry per Bareiss pass made inside the kernel
    that `products.interpolate_forms` calls (parsing a payload's spaces
    makes passes of its own)."""
    passes = []
    kernel, echelon = products.integer_kernel_basis, linalg._bareiss_echelon

    def counting_kernel(rows, budget=None, most=None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_bareiss_echelon", lambda rows: passes.append(1) or echelon(rows))
            return kernel(rows, budget, most)

    monkeypatch.setattr(products, "integer_kernel_basis", counting_kernel)
    return passes


def test_interp_of_generators_scaled_by_kernel_primes_prints_the_same(monkeypatch, capsys):
    # Scaling a space's generators does not change the space.  Scaled by
    # KERNEL_PRIME, the README lines give an evaluation matrix that is zero
    # mod that prime, so its degree-2 kernel is answered on the next prime;
    # scaled by the first two primes, on the third.  No Bareiss pass runs.
    golden = INTERP_GOLDENS[0]
    assert golden["name"] == "readme_two_lines"
    p0, p1, p2 = list(islice(linalg._kernel_primes(), 3))
    primes, passes = [], _kernel_bareiss_passes(monkeypatch)
    factor = linalg._factor_mod_p
    monkeypatch.setattr(linalg, "_factor_mod_p",
                        lambda rows, nc, p: primes.append(p) or factor(rows, nc, p))
    for scale, used in ((p0, [p0, p1]), (p0 * p1, [p0, p1, p2])):
        payload = json.loads(json.dumps(golden["payload"]))
        for factor_doc in payload["sampler"]["factors"]:
            factor_doc["generators"] = [[scale * x for x in row] for row in factor_doc["generators"]]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        del primes[:]
        assert cli.main(["interp", "--seed", "20259"]) == 0
        assert capsys.readouterr().out == golden["stdout"]
        assert primes[-len(used):] == used and passes == []


def test_interp_many_forms_of_big_entries_are_answered(monkeypatch):
    # Degree 3 on a squared line in P^7 with 80-digit entries: a 10 x 120
    # matrix of about 1,600-bit entries and 110 forms with coefficients of
    # thousands of bits.  The later vectors of each block are read as
    # integers, so the whole process answers within 5 s, with the forms
    # that Bareiss gives.
    rng = random.Random(80)
    sampler = {"type": "power", "r": 2,
               "base": {"type": "linear", "generators": _digits_space(rng, 1, 7, 80)}}
    start = time.perf_counter()
    proc = run_cli("interp", {"sampler": sampler, "degree": 3})
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 0 and proc.stderr == ""
    monkeypatch.setattr(products, "integer_kernel_basis",
                        lambda rows, budget=None, most=None: linalg.bareiss_kernel_basis(rows))
    forms = products.interpolate_forms(cli.SAMPLER.read(sampler, "sampler"), 3)
    assert len(forms) == 110
    assert json.loads(proc.stdout) == {"degree": 3, "forms": [f.to_json() for f in forms]}


def test_interp_degrees_share_one_lift_budget(monkeypatch):
    # The squared plane of the goldens is a cubic, the closed form's degree:
    # the search probes degree 3 first, and that one build and kernel call
    # is the whole search.  One unit short of its work, it exits 3.
    golden = INTERP_GOLDENS[1]
    assert golden["name"] == "squared_plane_p5" and golden["payload"]["dmax"] == 3
    sampler_doc = json.loads(json.dumps(golden["payload"]["sampler"]))
    plain = cli.SAMPLER.read(sampler_doc, "sampler")
    cells, spent, forms = [], [], products.interpolate_forms

    def recording(sampler, d, budget=None, most=None, built=None):
        budget = linalg.lift_budget() if budget is None else budget
        cells.append(budget)
        before = budget[0]
        try:
            return forms(sampler, d, budget, most, built)
        finally:
            spent.append(before - budget[0])

    monkeypatch.setattr(products, "interpolate_forms", recording)
    monkeypatch.setattr(linalg, "LIFT_BUDGET", 10 ** 30)
    degree, form = products.interpolate_hypersurface(plain, 3)
    assert degree == 3 and len(cells) == 1 and spent[0] > _build_charge(plain, 3) > 0
    monkeypatch.setattr(linalg, "LIFT_BUDGET", spent[0] - 1)
    with pytest.raises(products.BudgetExhausted, match="past the lift budget"):
        products.interpolate_hypersurface(plain, 3)
    # Its generators scaled by KERNEL_PRIME: every degree's matrix is zero
    # mod that prime, so the probe's first factorization has 56 free
    # columns and the probe spends its build and lifts nothing.  The search
    # then runs from degree 1 on the probe's cell, and takes the probe's
    # matrix up again at degree 3, paying only for its first pass: each
    # degree pays for a second factorization, and degrees 1 and 2 find no
    # form.  One unit short of the builds' and the kernels' work together,
    # it exits 3 at degree 3, though degree 3 alone is within it.
    base = sampler_doc["base"]
    base["generators"] = [[linalg.KERNEL_PRIME * x for x in row] for row in base["generators"]]
    scaled = cli.SAMPLER.read(sampler_doc, "sampler")
    grids, grid = [], products.interpolation_grid
    monkeypatch.setattr(products, "interpolation_grid", lambda s, d: grids.append(d) or grid(s, d))
    monkeypatch.setattr(linalg, "LIFT_BUDGET", 10 ** 30)
    del cells[:], spent[:]
    assert products.interpolate_hypersurface(scaled, 3) == (degree, form)
    assert grids == [3, 1, 2]
    assert len(cells) == 4 and all(cell is cells[0] for cell in cells)
    assert spent[0] == _build_charge(scaled, 3) and min(spent[1:]) > 0
    alone = [10 ** 30]
    assert forms(scaled, 3, alone) == [form]
    assert spent[3] == 10 ** 30 - alone[0] - products.interpolation_cost(scaled, 3)[1]
    monkeypatch.setattr(linalg, "LIFT_BUDGET", sum(spent) - 1)
    del cells[:], spent[:]
    with pytest.raises(products.BudgetExhausted, match="past the lift budget"):
        products.interpolate_hypersurface(scaled, 3)
    assert len(cells) == 4
    assert products.interpolate_forms(scaled, 3) == [form]
    # A wrong hint: a reciprocal plane through e_3 is a quadric cone, not
    # the closed form's cubic.  The probe at degree 3 (four cubics) spends
    # its build and lifts nothing, and degrees 1 and 2 draw on its cell;
    # degree 1's leading block is singular, so its kernel lifts a vector
    # and moves on to the whole matrix.
    cone = samplers.reciprocal_sampler(projective.LinSpace([[1, 2, 3, 5], [2, 3, 5, 7],
                                                            [0, 0, 0, 1]]))
    assert products._closed_form_hint(cone) == 3
    monkeypatch.setattr(linalg, "LIFT_BUDGET", 10 ** 30)
    del cells[:], spent[:]
    degree, form = products.interpolate_hypersurface(cone, 3)
    assert degree == 2 and len(cells) == 3 and all(cell is cells[0] for cell in cells)
    assert spent[0] == _build_charge(cone, 3) and min(spent[1:]) > 0
    monkeypatch.setattr(linalg, "LIFT_BUDGET", sum(spent) - 1)
    with pytest.raises(products.BudgetExhausted, match="past the lift budget"):
        products.interpolate_hypersurface(cone, 3)


def _ladder_hypersurface(sampler, dmax):
    """The search from degree 1 up, as `interpolate_hypersurface` ran it
    before it probed the closed form's degree: the reference of the probe."""
    budget = linalg.lift_budget()
    for d in range(1, dmax + 1):
        forms = products.interpolate_forms(sampler, d, budget)
        if len(forms) == 1:
            return d, forms[0]
        if len(forms) > 1:
            raise products.PreconditionError("kernel dimension %d at degree %d: not a hypersurface"
                                             % (len(forms), d))
    raise products.PreconditionError("no vanishing form found up to degree %d" % dmax)


def _outcome(search, sampler, dmax):
    """(degree, form) of a search, or the type and message of its error."""
    try:
        return search(sampler, dmax)
    except (products.PreconditionError, products.BudgetExhausted) as exc:
        return type(exc), str(exc)


#: Factor shapes (dimension, reciprocal?, power) of hypersurfaces in P^n
#: by the closed form, and None for factors drawn at random.
_HINT_SHAPES = [(3, [(2, True, 1)]), (3, [(1, False, 1), (1, False, 1)]), (3, [(1, False, 2)]),
                (3, [(1, False, 1), (1, True, 1)]), (2, [(1, True, 1)]), (2, [(1, False, 1)]),
                (1, [(0, True, 1)]), (None, None)]


@st.composite
def _hinted_samplers(draw):
    """(tags, sampler, dmax): a sampler of a shape of _HINT_SHAPES, or of
    one or two factors, linear or reciprocal, of dimension 0-2 and power
    1-2 in P^1-P^3; some with a column proportional to another or zero."""
    n, shapes = draw(st.sampled_from(_HINT_SHAPES))
    if n is None:
        n = draw(st.integers(1, 3))
        shapes = [(draw(st.integers(0, min(2, n))), draw(st.booleans()), draw(st.integers(1, 2)))
                  for _ in range(draw(st.integers(1, 2)))]
    factors = []
    for dim, reciprocal, power in shapes:
        rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1),
                             min_size=dim + 1, max_size=dim + 1))
        column = draw(st.sampled_from(["generic", "generic", "proportional", "zero"]))
        i, j = draw(st.permutations(range(n + 1)))[:2]
        if column != "generic":
            scale = draw(st.integers(-3, 3)) if column == "proportional" else 0
            for row in rows:
                row[j] = scale * row[i]
        try:
            factors += [(projective.LinSpace(rows), reciprocal)] * power
        except ValueError:
            assume(False)
    dmax = draw(st.integers(1, 3))
    sampler = samplers.VarietySampler(factors)
    size = products.interpolation_grid_size(sampler, dmax)
    assume(size * comb(n + dmax, dmax) <= 4000)
    hint = products._closed_form_hint(sampler)
    tags = {"no hint" if hint is None else "dmax below the hint" if dmax < hint else "hint"}
    if any(space.dim == 1 and not reciprocal and factors.count((space, False)) == 2
           for space, reciprocal in factors):
        tags.add("squared line")
    if any(not all(col) for space, _ in factors for col in zip(*space.generators.ints)):
        tags.add("zero entries")
    return tags, sampler, dmax


def test_interp_probe_matches_the_search_from_degree_one(monkeypatch):
    # The closed form's degree is only a hint: probed first, it gives the
    # (degree, form), or the error type and message, of the search from
    # degree 1, whether the hint is right, wrong or missing.
    seen, calls = set(), []
    kernel = products.integer_kernel_basis

    def recording(rows, budget=None, most=None):
        calls.append(most)
        vectors = kernel(rows, budget, most)
        calls[-1] = most, None if vectors is None else len(vectors)
        return vectors

    monkeypatch.setattr(products, "integer_kernel_basis", recording)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_hinted_samplers())
    def check(case):
        tags, sampler, dmax = case
        del calls[:]
        got = _outcome(products.interpolate_hypersurface, sampler, dmax)
        probe = calls[0] if calls and calls[0][0] == 1 else None
        assert got == _outcome(_ladder_hypersurface, sampler, dmax), (sampler.factors, dmax)
        seen.update(tags)
        seen.add("form" if isinstance(got[1], SparsePoly) else got[0].__name__)
        if probe:
            seen.add({None: "probe refused", 0: "probe found no form",
                      1: "probe answered"}[probe[1]])

    check()
    assert seen == {"no hint", "dmax below the hint", "hint", "squared line", "zero entries",
                    "probe answered", "probe refused", "probe found no form",
                    "form", "PreconditionError", "BudgetExhausted"}


def test_interp_makes_one_kernel_call_per_answer(monkeypatch, capsys):
    # At dmax 3 each golden search and each benchmark-cycle sampler is
    # answered by the probe at the closed form's degree: one grid, one
    # kernel, one factorization.
    forms_calls = count_calls(monkeypatch, products.interpolate_forms)
    factor_calls = count_calls(monkeypatch, linalg._factor_mod_p)
    payloads = [g["payload"] for g in INTERP_GOLDENS if "dmax" in g["payload"]]
    payloads += [{"sampler": s, "dmax": 3} for s in INTERP_CYCLE_PAYLOADS]
    assert len(payloads) == 7
    for payload in payloads:
        del forms_calls[:], factor_calls[:]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        assert cli.main(["interp"]) == 0
        degree = json.loads(capsys.readouterr().out)["degree"]
        assert [args[1] for args in forms_calls] == [degree] and len(factor_calls) == 1
    # Below the closed form's degree, the probe at dmax proves every degree
    # up to it empty: the reciprocal plane's cubic is past dmax 2.
    assert INTERP_GOLDENS[2]["name"] == "reciprocal_plane_p3"
    payload = {"sampler": INTERP_GOLDENS[2]["payload"]["sampler"], "dmax": 2}
    del forms_calls[:], factor_calls[:]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["interp"]) == 2
    assert "no vanishing form found up to degree 2" in capsys.readouterr().err
    assert [args[1] for args in forms_calls] == [2] and len(factor_calls) == 1


def test_interp_of_proportional_columns_prints_the_linear_form(monkeypatch, capsys):
    # Column 1 is twice column 0, so the squared plane lies in the
    # hyperplane 4 x_0 = x_1, and the closed form's cubic is a wrong hint:
    # the probe's first factorization at degree 3 has many free columns,
    # nothing is lifted there, and the search from degree 1 answers with
    # the bytes it printed before the probe.
    payload = {"sampler": {"type": "power", "r": 2, "base": {"type": "linear", "generators": [
        [3, 6, 4, 1, 5, 9], [2, 4, 5, 3, 5, 8], [9, 18, 9, 3, 2, 3]]}}, "dmax": 3}
    lifts, degrees = [], []
    lift, forms = linalg._lift, products.interpolate_forms
    monkeypatch.setattr(linalg, "_lift", lambda *args: lifts.append(degrees[-1]) or lift(*args))
    monkeypatch.setattr(products, "interpolate_forms",
                        lambda s, d, budget=None, most=None, built=None:
                        degrees.append(d) or forms(s, d, budget, most, built))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["interp"]) == 0
    assert capsys.readouterr().out == (
        '{"degree":1,"form":[[[1,0,0,0,0,0],"4"],[[0,1,0,0,0,0],"-1"]]}\n')
    assert degrees == [3, 1] and 3 not in lifts


def test_interp_wrong_hint_spends_its_probe_build(monkeypatch, capsys):
    # The proportional-column squared plane of the test above prints the
    # bytes of the search from degree 1, and its one cell pays for the
    # degree-3 build of the probe on top of that search's degree 1.
    payload = {"sampler": {"type": "power", "r": 2, "base": {"type": "linear", "generators": [
        [3, 6, 4, 1, 5, 9], [2, 4, 5, 3, 5, 8], [9, 18, 9, 3, 2, 3]]}}, "dmax": 3}
    cells = []
    monkeypatch.setattr(products, "lift_budget",
                        lambda: cells.append([linalg.LIFT_BUDGET]) or cells[-1])
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["interp"]) == 0
    assert capsys.readouterr().out == (
        '{"degree":1,"form":[[[1,0,0,0,0,0],"4"],[[0,1,0,0,0,0],"-1"]]}\n')
    sampler = cli.SAMPLER.read(payload["sampler"], "sampler")
    degree_one = [linalg.LIFT_BUDGET]
    assert len(products.interpolate_forms(sampler, 1, degree_one)) == 1
    assert len(cells) == 1
    assert cells[0][0] == degree_one[0] - _build_charge(sampler, 3)
    # One unit short of that build, the probe is not made, and the search
    # from degree 1 prints the same bytes within the budget.
    monkeypatch.setattr(linalg, "LIFT_BUDGET", _build_charge(sampler, 3) - 1)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["interp"]) == 0
    assert capsys.readouterr().out.startswith('{"degree":1,')


def test_interp_of_generators_scaled_by_many_kernel_primes_is_refused_in_time():
    # A squared plane in P^5 whose generators are scaled by the first 300
    # kernel primes: every evaluation matrix is zero mod each of them, so
    # each degree makes a pass per prime, each reducing entries of up to
    # 48,600 bits.  Degrees 1 and 2 answer on the 301st prime; at degree 3
    # the factorizations exhaust the budget that the degrees share, and the
    # whole process exits 3 within 5 s.
    scale = prod(islice(linalg._kernel_primes(), 300))
    rng = random.Random(5)
    generators = [[scale * rng.choice([-1, 1]) * rng.randrange(100, 1000) for _ in range(6)]
                  for _ in range(3)]
    payload = {"sampler": {"type": "power", "r": 2,
                           "base": {"type": "linear", "generators": generators}}, "dmax": 3}
    start = time.perf_counter()
    proc = run_cli("interp", payload)
    assert time.perf_counter() - start < 5.0
    assert (proc.returncode, proc.stdout) == (3, "")
    message = json.loads(proc.stderr)["error"]["message"]
    assert message == ("the p-adic kernel of a 55 x 56 matrix is past the lift budget of %d"
                       % linalg.LIFT_BUDGET)


def test_interp_bit_work_admits_the_benchmark_pools_and_the_goldens(monkeypatch, capsys):
    # Every benchmark interp op and every golden (the README's two lines
    # among them) spends under a hundredth of the lift budget, its builds,
    # its kernels and its checks together, from its one cell.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    payloads = [op.payload for seed in (1, 2, 3, 90417)
                for cycle in workloads.generate("interp", seed) for op in cycle]
    payloads += [golden["payload"] for golden in INTERP_GOLDENS]
    # The README's two lines at degree 2: 3 x 3 grid points by 10 quadrics,
    # and a grid coordinate of at most (5 + 2) + (6 + 2) bits, as the
    # entries reach 19 and 53 and the lattice's (D + 1) = 3 adds 2 bits: a
    # cell of at most 30 bits.
    readme = cli.SAMPLER.read(INTERP_GOLDENS[0]["payload"]["sampler"], "sampler")
    assert products.interpolation_cost(readme, 2) == (
        None, 9 * 10 * (2000 + 30 * 5 // 5), 9 * 10 * 3 * (30 + 64))
    cells = []
    monkeypatch.setattr(products, "lift_budget",
                        lambda: cells.append([linalg.LIFT_BUDGET]) or cells[-1])
    for payload in payloads:
        del cells[:]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        assert cli.main(["interp"]) == 0
        capsys.readouterr()
        assert len(cells) == 1 and 0 < linalg.LIFT_BUDGET - cells[0][0] < linalg.LIFT_BUDGET // 100


def test_interp_kernel_is_bounded_by_its_lift_budget(monkeypatch, capsys):
    # A reciprocal line in P^3 with 100-digit entries: its quadrics have
    # coefficients past 500 bits.  With the budget at the work of its build
    # and its kernel, interp answers, as the sampled route does; one unit
    # less, it exits 3 before the answer.  Neither runs a Bareiss pass.
    rng = random.Random(100)
    generators = _digits_space(rng, 1, 3, 100)
    sampler = samplers.reciprocal_sampler(projective.LinSpace(generators))
    expected = _sampled_interpolate_forms(sampler, 2, rng)
    passes = _kernel_bareiss_passes(monkeypatch)
    budget = [10 ** 30]
    products.interpolate_forms(sampler, 2, budget)
    work = 10 ** 30 - budget[0]
    assert 10 ** 6 < _build_charge(sampler, 2) < work < linalg.LIFT_BUDGET // 10
    monkeypatch.setattr(linalg, "LIFT_BUDGET", work)
    forms = products.interpolate_forms(sampler, 2)
    assert len(forms) == 3 and forms == expected
    assert max(abs(c).bit_length() for form in forms for c in form.ints.values()) > 500
    monkeypatch.setattr(linalg, "LIFT_BUDGET", work - 1)
    payload = {"sampler": {"type": "reciprocal", "generators": generators}, "degree": 2}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["interp"]) == 3
    out, err = capsys.readouterr()
    error = json.loads(err)["error"]
    assert out == "" and error["code"] == 3 and "past the lift budget of %d" % (work - 1) in error["message"]
    assert passes == []


def test_interp_kernel_charges_its_euclid_runs():
    # A squared line in P^3 with 1000-digit entries: its six-row kernel
    # lifts cheap steps, and reconstructing its 5,000-digit forms is most
    # of the work.  Charged for each Euclid run, the lifting is refused
    # within the budget's seconds, before the forms are found too long to
    # print.
    rng = random.Random(1000)
    payload = {"sampler": {"type": "power", "r": 2, "base": {
        "type": "linear", "generators": _digits_space(rng, 1, 3, 1000)}}, "degree": 2}
    start = time.perf_counter()
    proc = run_cli("interp", payload)
    assert time.perf_counter() - start < 5.0
    assert (proc.returncode, proc.stdout) == (3, "") and "Traceback" not in proc.stderr
    assert "past the lift budget" in json.loads(proc.stderr)["error"]["message"]


def _sampled_interpolate_forms(sampler, d, rng):
    """The sampled route that the parameter grid replaced, kept as the
    oracle: the integer kernel of the monomials at a quarter more drawn
    points than monomials, which is I_d with probability one.  An empty
    product runs out of draws (BudgetExhausted)."""
    if d < 1:
        raise products.PreconditionError("degree must be >= 1")
    n = sampler.ambient_dim
    if comb(n + d, d) > products.INTERP_MONOMIAL_BUDGET:
        raise products.BudgetExhausted("past the monomial budget")
    monomials = monomials_of_degree(n + 1, d)
    count = len(monomials) + (len(monomials) + 3) // 4
    points = [sampler.sample_point(rng).canonical() for _ in range(count)]
    rows = list(zip(*monomial_products(list(zip(*points)), d)))
    return [SparsePoly._trusted(n + 1, {m: v for m, v in zip(monomials, vec) if v}).primitive()
            for vec in integer_kernel_basis(rows)]


def _fuzz_sampler(rng, n, tags, depth=0):
    """A random sampler payload in P^n with small entries, recording in
    `tags` which degenerate cases it holds."""
    kind = rng.choice(["linear", "reciprocal", "point"] + ["power", "product"] * (depth < 2))
    if kind == "power":
        return {"type": "power", "r": rng.randint(2, 3), "base": _fuzz_sampler(rng, n, tags, depth + 1)}
    if kind == "product":
        first = _fuzz_sampler(rng, n, tags, depth + 1)
        if rng.random() < 0.3:
            tags.add("equal adjacent factors")
            return {"type": "product", "factors": [first, first]}
        return {"type": "product", "factors": [first, _fuzz_sampler(rng, n, tags, depth + 1)]}
    support = sorted(rng.sample(range(n + 1), rng.randint(1, n + 1)))
    m = 0 if kind == "point" else rng.randint(0, min(2, len(support) - 1))
    rows = [[rng.choice([1, -1, 2, 3, -2, 0]) if j in support else 0 for j in range(n + 1)]
            for _ in range(m + 1)]
    if kind == "point":
        tags.add("point factor")
        return {"type": "linear", "generators": rows}
    if any(not any(col) for col in zip(*rows)):
        tags.add("zero column")
    return {"type": kind, "generators": rows}


def test_interp_grid_matches_the_sampled_oracle_fuzzed(monkeypatch, capsys):
    # Stdout and exit code of `interp` on the grid and on the sampled route,
    # on random samplers with point factors, zero columns, disjoint supports
    # and equal adjacent factors.
    rng = random.Random(2024)
    tags, codes, cases = set(), set(), 0
    while cases < 150:
        n = rng.randint(1, 3)
        payload = {"sampler": _fuzz_sampler(rng, n, tags)}
        key, d = rng.choice([("degree", 1), ("degree", 2), ("dmax", 3)])
        payload[key] = d
        try:
            sampler = cli.SAMPLER.read(payload["sampler"], "sampler")
        except cli.ValidationError:
            continue
        if products.interpolation_grid_size(sampler, d) * comb(n + d, d) > 4000:
            continue
        cases += 1
        outcomes = _grid_and_oracle_outcomes(monkeypatch, capsys, payload, cases)
        assert outcomes[0] == outcomes[1], payload
        codes.add(outcomes[0][0])
        if outcomes[0][0] == 3 and "reciprocal" not in json.dumps(payload):
            tags.add("disjoint supports")
    assert tags == {"point factor", "zero column", "disjoint supports", "equal adjacent factors"}
    assert codes == {0, 2, 3}


def test_malformed_json_exit_1():
    proc = subprocess.run(RUN + ["degree"], input="{not json",
                          capture_output=True, text=True)
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"]["code"] == 1


@pytest.mark.parametrize("argv, field", [
    (["bogus"], "command"),
    (["degree", "--seed", "x"], "seed"),
    (["degree", "--format", "xml"], "format"),
], ids=["unknown_command", "seed_not_an_int", "unknown_format"])
def test_bad_flag_is_one_json_error_exit_1(argv, field):
    # A bad command line is a validation error naming the flag, like a bad
    # payload field; exit 2 stays a precondition failure, and no usage text
    # goes to stderr.
    proc = subprocess.run(RUN + argv, input='{"plain": [[1, 1]], "n": 3}',
                          capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "usage" not in proc.stderr
    err = json.loads(lines[0])["error"]
    assert err["code"] == 1 and err["field"] == field


def test_help_exit_0():
    for flag in ("-h", "--help"):
        proc = subprocess.run(RUN + [flag], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == cli.HELP


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise argparse.ArgumentError, which
    `main` prints as a JSON validation error, instead of printing usage and
    exiting 2, the code of a precondition failure."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged.
    The CLI read its command line with it until `cli.parse_args` replaced
    it; it is the oracle of that reader."""
    parser = _Parser(
        prog="hadamard-spaces", exit_on_error=False,
        description="Exact computations with Hadamard products of projective linear spaces.")
    parser.add_argument("command", choices=sorted(cli.COMMANDS))
    parser.add_argument("--seed", type=int, default=cli.DEFAULT_SEED,
                        help="master seed for all randomness (default %(default)s)")
    parser.add_argument("--in", dest="infile", default=None,
                        help="payload path (default: standard input)")
    parser.add_argument("--out", dest="outfile", default=None,
                        help="output path (default: standard output)")
    parser.add_argument("--format", choices=("json", "pretty"), default="json")
    parser.add_argument("--symbolic", action="store_true",
                        help="symbolic verification mode for `bracket verify`")
    parser.add_argument("--transcript", action="store_true",
                        help="include the fan computation transcript in `degree` output")
    return parser


def _oracle_reading(argv):
    """"help", ("error", field, message) or the attributes, as argparse
    reads argv."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 0
        return "help"
    except argparse.ArgumentError as exc:
        return "error", exc.argument_name and exc.argument_name.lstrip("-"), str(exc)
    return vars(args)


def _reading(argv):
    """The same, as `cli.parse_args` reads argv."""
    try:
        args = vars(cli.parse_args(argv))
    except cli.ValidationError as exc:
        return "error", exc.field, str(exc)
    return "help" if args.pop("help") else args


def test_help_text_is_the_oracles(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    assert cli.HELP == build_parser().format_help()


_FLAGS = list(cli.OPTIONS) + ["--s"] + [
    option[:k] for option in cli.OPTIONS for k in range(3, len(option))
    if [o for o in cli.OPTIONS if o.startswith(option[:k])] == [option]]
_VALUES = ["3", "-3", "x", "json", "pretty", "xml", "p"]
_TOKEN = st.one_of(
    st.sampled_from(sorted(cli.COMMANDS) + ["bogus"]),
    st.sampled_from(_FLAGS + ["-h", "--help", "--"]),
    st.sampled_from(_VALUES),
    st.sampled_from(["%s=%s" % (flag, value) for flag in _FLAGS for value in _VALUES]))


@settings(max_examples=3000, derandomize=True, deadline=None)
@given(st.lists(_TOKEN, max_size=6))
def test_flags_are_read_as_argparse_reads_them(argv):
    # The same attributes, the same error (field and message), or help.
    assert _reading(argv) == _oracle_reading(argv)


@pytest.mark.parametrize("argv", [
    [], [""], ["-"], ["degree", ""], ["degree", "-"], ["degree", "-x"], ["degree", "- x"],
    ["degree", "--no such"], ["degree", "-3"], ["degree", "-.5"], ["degree", "-1.5"],
    ["degree", "-3\n"], ["degree", "--3"], ["degree", "---"], ["--=3"], ["-h="], ["-h=3"],
    ["-h=h"], ["-hh"], ["-hhx"], ["-hx"], ["-h x"], ["-hh=3"], ["-h-"], ["--he=3"],
    ["--in", "-"], ["--in", "-x"], ["--in", "--s"], ["--in=", "degree"], ["--seed=", "degree"],
    ["--seed", " 3", "degree"], ["--seed", "+3", "degree"], ["--seed", "1_0", "degree"],
    ["--seed", "\u0663", "degree"], ["--seed", "9" * 5000, "degree"], ["--tr=", "degree"],
    ["--format", "Pretty", "degree"], ["degree", "--seed", "3", "--"], ["degree", "--"],
    ["--", "degree"], ["--", "--", "degree"], ["--"], ["degree", "--", "x"],
    ["degree", "degree"], ["--seed", "3", "degree", "-h"], ["degree", "--bogus=3", "-h"],
    ["bogus", "--s"], ["--transcript", "--transcript", "degree", "--seed", "1", "--seed", "2"],
], ids=repr)
def test_edge_flags_are_read_as_argparse_reads_them(argv):
    assert _reading(argv) == _oracle_reading(argv)


def test_an_option_value_of_two_dashes_is_a_value():
    # argparse dropped a `--` given with `=` and set the option to [], which
    # made `--seed=--` a TypeError in main; the reader takes it as the value.
    proc = subprocess.run(RUN + ["degree", "--seed=--"], input='{"plain": [[1, 1]], "n": 3}',
                          capture_output=True, text=True)
    assert proc.returncode == 1 and json.loads(proc.stderr)["error"]["field"] == "seed"
    assert cli.parse_args(["degree", "--in=--"]).infile == "--"


def test_the_cli_imports_neither_argparse_nor_gettext():
    code = ("import sys, hadamard_spaces.cli; "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n"


def test_missing_field_names_it():
    proc = run_cli("degree", {"plain": [[1, 1]]})
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"]["field"] == "n"


def test_validation_points_at_nested_field():
    proc = run_cli("interp", {"sampler": {"type": "segre", "a": 0, "b": 2}, "degree": 1})
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"]["field"].startswith("sampler")


def test_precondition_exit_2():
    payload = {"line": [[1, 0, 0], [0, 1, 1]],
               "points": [[1, 1, 1], [1, 2, 2]], "r": 2}
    proc = run_cli("star-config", payload)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert "bracket" in err["error"]["message"]


def test_budget_exit_3():
    payload = {"sampler": {"type": "product", "factors": [
        {"type": "linear", "generators": [[1, 0]]},
        {"type": "linear", "generators": [[0, 1]]}]},
        "degree": 1}
    proc = run_cli("interp", payload)
    assert proc.returncode == 3


def test_product_sampler_ambient_mismatch_exit_1():
    payload = {"sampler": {"type": "product", "factors": [
        {"type": "linear", "generators": [[1, 2, 3, 4]]},
        {"type": "linear", "generators": [[1, 2, 3]]}]},
        "degree": 1}
    proc = run_cli("interp", payload)
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["field"] == "sampler.factors[1]"


LINE = {"type": "linear", "generators": [[1, 2, 3], [0, 1, 5]]}


@pytest.mark.parametrize("command, payload, field", [
    ("degree", {"plain": [[True, 1]], "n": 3}, "plain[0]"),
    ("span-dim", {"dims": [[1, True]], "n": 3}, "dims[0]"),
    ("bracket", {"mode": "verify", "identity": "quadric", "trials": True}, "trials"),
    ("interp", {"sampler": {"type": "segre", "a": True, "b": 2}, "degree": 1}, "sampler.a"),
    ("interp", {"sampler": {"type": "segre", "a": 1, "b": True}, "degree": 1}, "sampler.b"),
    ("interp", {"sampler": {"type": "power", "r": True, "base": LINE}, "degree": 1}, "sampler.r"),
    ("span-dim", {"spaces": [{"generators": [[1, 2, 3]], "mult": True}]}, "spaces[0].mult"),
])
def test_bool_is_not_an_integer_exit_1(command, payload, field):
    proc = run_cli(command, payload)
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["field"] == field


@pytest.mark.parametrize("command, payload, field", [
    ("line-power", {"line": [[1, 3.5, 0], [0, 1, 1]], "r": 2}, "line"),
    ("star-config", {"line": [[1, 1, 1], [1, 2, 3]],
                     "points": [[1, 1, 1], [1, 2.0, 3]], "r": 2}, "points[1]"),
])
def test_float_is_not_a_rational_exit_1(command, payload, field):
    proc = run_cli(command, payload)
    assert proc.returncode == 1 and proc.stdout == ""
    err = json.loads(proc.stderr)["error"]
    assert err["field"] == field and "float" in err["message"]


@pytest.mark.parametrize("text", ["1.5", "1e3", " 3 ", "1_000", "\u0663", "+3", "3/",
                                  "/3", "", "1/0", "-3/-7", "0x10", "1/2/3", "3\n"])
def test_rational_strings_are_strict_exit_1(text):
    proc = run_cli("line-power", {"line": [[1, text, 0], [0, 1, 5]], "r": 2})
    assert proc.returncode == 1 and proc.stdout == ""
    err = json.loads(proc.stderr)["error"]
    assert err["field"] == "line" and "[0][1]" in err["message"]
    proc = run_cli("star-config", {"line": [[1, 1, 1], [1, 2, 3]],
                                   "points": [[1, 1, 1], [1, text, 3]], "r": 2})
    assert proc.returncode == 1 and json.loads(proc.stderr)["error"]["field"] == "points[1]"


def test_rational_strings_accepted():
    proc = run_cli("line-power", {"line": [[1, "-3/7", 0], [0, 1, "12"]], "r": 2})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pluecker"] == {"0,1,2": "-432/7"}


def test_oversized_json_integer_exit_1():
    proc = subprocess.run(RUN + ["degree"], input='{"plain": [[1, 1]], "n": %s}' % ("9" * 5000),
                          capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "malformed JSON" in json.loads(proc.stderr)["error"]["message"]


def test_line_power_round_trip():
    payload = {"line": [[1, 1, 1, 1], [1, 2, 3, 4]], "r": 2}
    proc = run_cli("line-power", payload)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["method"] == "matrix"
    assert doc["dim"] == 2
    assert len(doc["generators"]) == 3
    # generators parse back as a valid payload matrix
    again = run_cli("line-power", {"line": doc["generators"][:2], "r": 1})
    assert again.returncode == 0


def test_line_power_sampled_route():
    payload = {"line": [[1, 2, 0, 0, 2, -8], [0, 0, 1, 3, 3, 4]], "r": 3}
    proc = run_cli("line-power", payload)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["method"] == "sampled"
    assert doc["dim"] == 3
    assert len(doc["equations"]) == 2


def _clean_line(n):
    return [[1] * (n + 1), list(range(n + 1))]


def _digit_line(digits):
    """The README's line of `digits`-digit entries in P^3."""
    big = 10 ** (digits - 1)
    return [[big + 1, big + 2, big + 3, big + 5],
            [big + 7, 2 * big + 11, 3 * big + 13, 5 * big + 17]]


def _budget_error(proc):
    """The JSON error of a whole process refused by the lift budget."""
    assert (proc.returncode, proc.stdout) == (3, "") and "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert error["code"] == 3 and error["message"].endswith(
        " is past the lift budget of %d" % linalg.LIFT_BUDGET)
    return error


#: A line whose first row has a zero entry: column 0 of its power matrix is
#: nonzero in the last row only, which Bareiss takes as its first pivot.
_ZERO_LEAD_LINE = [[0, 1, 1, 1], [7, 2, 3, 4]]


def test_line_power_past_its_limits_exit_3():
    # A clean line in P^100 at r = 1 took 42 s and printed 106 MB; in P^3,
    # r = 100000 ran until killed, and a line of 61-digit entries at r = 300
    # ran 45 s.  A zero in the first row makes 7^20000 the first pivot, so
    # that line at r = 20,000 has no small pivots.  Each is priced past the
    # budget and refused at once.
    for payload in ({"line": _clean_line(100), "r": 1}, {"line": _digit_line(61), "r": 300},
                    {"line": _clean_line(3), "r": 100000},
                    {"line": _ZERO_LEAD_LINE, "r": 20000}):
        start = time.perf_counter()
        proc = run_cli("line-power", payload)
        assert time.perf_counter() - start < 1.0
        n = len(payload["line"][0]) - 1
        assert _budget_error(proc)["message"].startswith("the power at r = %d in P^%d "
                                                         % (payload["r"], n))


def _printed_count(monkeypatch, capsys, line, r):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"line": line, "r": r})))
    assert cli.main(["line-power"]) == 0
    doc = json.loads(capsys.readouterr().out)
    return len(doc["pluecker"]) + len(doc["equations"])


def test_line_power_output_count_is_what_it_prints(monkeypatch, capsys):
    """power_output, read off the columns, counts the Pluecker
    entries plus equations printed: clean lines for r below, at and above
    n, and lines with zero, repeated and proportional columns."""
    rng = random.Random(71)
    kinds = set()
    for _ in range(60):
        n = rng.randint(1, 6)
        points = rng.randint(2, n + 1)
        classes = [[rng.randint(-5, 5), rng.randint(1, 5)] for _ in range(points)]
        cols = [classes[i] for i in range(points)]
        cols += [rng.choice(classes + [[0, 0]]) for _ in range(n + 1 - points)]
        cols = [[a * k, b * k] for (a, b), k in zip(cols, (rng.choice([1, -2, 3]) for _ in cols))]
        rng.shuffle(cols)
        line = [[str(a) + rng.choice(["", "/2"]) for a, _ in cols], [b for _, b in cols]]
        try:
            space = projective.LinSpace(line)
        except ValueError:  # all columns on one point: not a line
            continue
        r = rng.randint(1, n + 2)
        count = sum(line_powers.power_output(space, r)[1:])
        assert _printed_count(monkeypatch, capsys, line, r) == count
        kinds.add((projective.pluecker(space).nonvanishing(), (r > n) - (r < n)))
    assert len(kinds) == 6


def _power_charge(line, r):
    return line_powers.power_charge(projective.LinSpace(line), r)


def test_line_power_limit_boundaries():
    budget = linalg.LIFT_BUDGET
    # A line whose first row is all ones has small pivots: in P^3 at
    # r = 2000 it answers in 0.15 s, at 20,000 in about 1.1 s, and at
    # 100,000 it is refused.  Entries of 3, 6 or 9 bits at r = 1000 pass.
    clean = _clean_line(3)
    assert _power_charge(clean, 2000) < budget // 100
    assert _power_charge(clean, 20000) < budget < _power_charge(clean, 100000)
    for b in (3, 6, 9):
        assert _power_charge([[1, 1, 1, 1], [1, 2, 3, 2 ** b - 1]], 1000) < budget // 100
    # A zero in the first row prices every row at the largest bits: the
    # line answers at r = 1245 (0.5 s), as before, and not at r = 2000,
    # where the same line with a first row of ones is priced far below.
    assert _power_charge(_ZERO_LEAD_LINE, 1245) < budget < _power_charge(_ZERO_LEAD_LINE, 2000)
    assert _power_charge([[1, 1, 1, 1], [7, 2, 3, 4]], 2000) < budget // 100
    # 20- and 61-digit entries: pivots as large as the entries.  The 61-digit
    # line took 1.9 s at r = 100 and 45 s at r = 300; the 20-digit one 0.4 s
    # at r = 100 and 6 s at r = 300.
    assert _power_charge(_digit_line(21), 100) < budget < _power_charge(_digit_line(21), 300)
    assert budget < _power_charge(_digit_line(61), 100) < _power_charge(_digit_line(61), 300)
    # Printed entries: a clean line at r = 1 passes in P^56 (about 1 s) and
    # not in P^100; at r = 3 in P^21.  Two column points in P^1000 print
    # 500,500 Pluecker entries in about 2 s.
    assert _power_charge(_clean_line(56), 1) < budget < _power_charge(_clean_line(100), 1)
    assert _power_charge(_clean_line(21), 3) < budget
    assert _power_charge([[1] * 1001, [0, 1] * 500 + [0]], 1) < budget
    # Every line of the small-exact pool (n <= 5, r <= 4) and the README's.
    for n in range(1, 6):
        for points in range(2, n + 2):
            for r in range(1, 5):
                assert _power_charge([[1] * (n + 1), [i % points for i in range(n + 1)]], r) \
                    < budget // 100
    assert _power_charge([[1, 1, 1, 1], [1, 2, 3, 4]], 2) < budget // 100


def test_star_config_document():
    payload = {"line": [[1, 1, 1], [1, 2, 3]],
               "points": [[1, 1, 1], [1, 2, 3], [2, 3, 4], [3, 4, 5]], "r": 2}
    proc = run_cli("star-config", payload)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verified"] is True
    assert len(doc["hyperplanes"]) == 4
    assert len(doc["points"]) == 6
    assert all(len(p["subset"]) == 2 for p in doc["points"])


def test_star_config_checks_each_hyperplane_once(monkeypatch, capsys):
    calls = []
    contains_space = projective.LinSpace.contains_space

    def counting(self, other):
        calls.append(other)
        return contains_space(self, other)

    monkeypatch.setattr(projective.LinSpace, "contains_space", counting)
    payload = {"line": [[1, 1, 1, 1], [1, 2, 3, 5]],
               "points": [[1, 1, 1, 1], [1, 2, 3, 5], [2, 3, 4, 6], [3, 4, 5, 7], [1, 3, 5, 9]],
               "r": 3}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["star-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True and len(doc["hyperplanes"]) == 5
    assert len(calls) == 5


def test_star_config_past_the_output_limit_exit_3_at_once():
    # 24 collinear points at r = 12 in P^13: binom(24, 12) = 2,704,156
    # points, which ran past 30 s; refused from (m, r, n) before any work.
    n = 13
    payload = {"line": [[1] * (n + 1), list(range(1, n + 2))],
               "points": [[1 + k * x for x in range(1, n + 2)] for k in range(1, 25)], "r": 12}
    start = time.perf_counter()
    proc = run_cli("star-config", payload)
    assert time.perf_counter() - start < 1.0
    assert _budget_error(proc)["message"].startswith(
        "the star configuration of 24 points at r = 12 in P^13 ")


def _entry_count(doc):
    """Scalars in a JSON document: the entries `star-config` prints."""
    if isinstance(doc, dict):
        return sum(map(_entry_count, doc.values())) - ("verified" in doc)
    if isinstance(doc, list):
        return sum(map(_entry_count, doc))
    return 1


@pytest.mark.parametrize("m, r, n", [(4, 2, 2), (3, 1, 1), (5, 1, 4), (5, 3, 4), (6, 2, 5), (3, 3, 3)])
def test_star_output_count_is_the_printed_entries_and_minors(m, r, n, monkeypatch, capsys):
    payload = {"line": [[1] * (n + 1), list(range(1, n + 2))],
               "points": [[1 + k * x for x in range(1, n + 2)] for k in range(1, m + 1)], "r": r}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["star-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    minors = (r + 1) * comb(m, r + 1)
    assert star_configs.star_output_count(m, r, n) == _entry_count(doc) + minors


def test_star_config_limit_admits_the_benchmark_grid_and_the_readme_payload():
    # The benchmark grid and the README payload: see
    # test_benchmark_and_readme_payloads_price_below_a_hundredth_of_the_budget.
    # Both sides of the budget at r = 8 in P^16 with 3-digit entries: 12
    # points pass, 17 (3.5 s) do not.
    assert _star_charge(_digit_star_payload(12, 8, 16, 3)) < linalg.LIFT_BUDGET
    assert _star_charge(_digit_star_payload(17, 8, 16, 3)) > linalg.LIFT_BUDGET
    # An r that build_star refuses keeps its precondition error, however
    # large its price would be.
    for r, message in ((10 ** 6, "r = 1000000 exceeds"), (0, "r must be >= 1")):
        payload = _digit_star_payload(24, 13, 30, 2)
        payload["r"] = r
        proc = run_cli("star-config", payload)
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"]["message"].startswith(message)


def _digit_star_payload(m, r, n, digits):
    """m points g0 + k g1 (k = 1..m) on a random line (g0, g1) of
    `digits`-digit entries in P^n."""
    rng = random.Random(digits)
    g0, g1 = ([rng.randint(10 ** (digits - 1), 10 ** digits - 1) for _ in range(n + 1)]
              for _ in range(2))
    points = [[a + k * b for a, b in zip(g0, g1)] for k in range(1, m + 1)]
    return {"line": [g0, g1], "points": points, "r": r}


def _star_charge(payload):
    line = projective.LinSpace(payload["line"])
    points = [projective.PPoint(p) for p in payload["points"]]
    return star_configs.star_charge(line, points, payload["r"])


def test_star_config_past_the_bit_work_limit_exit_3_at_once():
    # 17 points at r = 8 in P^16 with 10-digit entries (38-bit points) took
    # 16 s: 831,606 entries and minors, each three products of 9 * 8 * 38
    # bits, are refused before any work.
    payload = _digit_star_payload(17, 8, 16, 10)
    bits = 9 * 8 * 38
    assert _star_charge(payload) == 831606 * 3 * linalg.product_charge(bits, bits)
    assert _star_charge(payload) > linalg.LIFT_BUDGET
    start = time.perf_counter()
    proc = run_cli("star-config", payload)
    assert time.perf_counter() - start < 1.0
    assert _budget_error(proc)["message"].startswith(
        "the star configuration of 17 points at r = 8 in P^16 ")


def test_star_config_bit_work_follows_r(monkeypatch, capsys):
    # The bits (r + 1) r b of a general position minor: 20 points at r = 4
    # in P^5 with 10-digit entries are answered (0.6 s) ...
    payload = _digit_star_payload(20, 4, 5, 10)
    assert _star_charge(payload) < linalg.LIFT_BUDGET // 4
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["star-config"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    # ... and the payloads refused before at r >= 8 stay refused (3.3-16 s),
    # as do 30 points at r = 4 in P^5 with 10-digit entries (3.2 s).
    for m, r, n, digits in [(17, 8, 16, 10), (17, 8, 16, 4), (17, 9, 10, 4), (18, 11, 12, 2),
                            (30, 4, 5, 10)]:
        assert _star_charge(_digit_star_payload(m, r, n, digits)) > linalg.LIFT_BUDGET


def test_star_config_bit_work_admits_the_benchmark_pools_and_the_readme_payload(
        monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    payloads = [op.payload for seed in (1, 2, 3) for cycle in workloads.generate("small-exact", seed)
                for op in cycle if op.kind == "small.star_config"]
    assert len(payloads) == 3 * len(workloads.STAR_GRID)
    payloads.append({"line": [[1, 1, 1], [1, 2, 3]],
                     "points": [[1, 1, 1], [1, 2, 3], [2, 3, 4], [3, 4, 5]], "r": 2})
    for payload in payloads:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        assert cli.main(["star-config"]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True


def test_span_dim_redraws_a_singular_draw(monkeypatch, capsys):
    # Seed 1023 draws the 1 x 1 generator matrix [0], which raised a
    # ValueError traceback; the next draw is nonzero.
    proc = run_cli("span-dim", {"dims": [[0, 1]], "n": 0}, "--seed", "1023")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {"rank": 1, "span_dim": 0, "formula_dim": 0, "match": True}

    class Zeros(random.Random):
        def randint(self, a, b):
            return 0

    monkeypatch.setattr(cli.random, "Random", Zeros)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"dims": [[1, 1]], "n": 3})))
    assert cli.main(["span-dim"]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert "had full rank in %d draws" % projective.SAMPLE_BUDGET in error["message"]


def test_segre_past_the_ambient_limit_exit_3_before_it_is_built():
    # a = 2, b = 1000 lies in P^3002: building its factors took 56.6 s
    # before the ambient mismatch with y was reported.
    payload = {"x": {"type": "segre", "a": 2, "b": 1000},
               "y": {"type": "linear", "generators": [[1, 2, 3], [1, 0, 5]]}, "dim_h": 0, "dim_g": 2}
    for command, doc in (("dim-estimate", payload),
                         ("interp", {"sampler": payload["x"], "degree": 1})):
        start = time.perf_counter()
        proc = run_cli(command, doc)
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout) == (3, "") and "Traceback" not in proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["code"] == 3 and "P^3002" in error["message"]


def test_span_dim_explicit_spaces():
    payload = {"spaces": [{"generators": [[1, 1, 1, 1], [1, 2, 3, 4]], "mult": 2}]}
    proc = run_cli("span-dim", payload)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc == {"rank": 3, "span_dim": 2, "formula_dim": 2, "match": True}


def test_span_dim_random_spaces():
    proc = run_cli("span-dim", {"dims": [[1, 1], [1, 1]], "n": 3})
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["match"] is True and doc["span_dim"] == 3


def test_span_dim_of_a_wide_matrix_is_fast(monkeypatch, capsys):
    # A line in P^5000: back-substitution solves only the two pivot entries
    # of each of the 4,999 free columns; scanning every column for each of
    # them took seconds.
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"dims": [[1, 1]], "n": 5000})))
    start = time.perf_counter()
    assert cli.main(["span-dim"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out) == {
        "rank": 2, "span_dim": 1, "formula_dim": 1, "match": True}


def test_span_dim_past_the_work_limit_exit_3():
    # Each ran until killed: a 12,341 x 11 matrix, 10^8 + 1 columns, a
    # binomial of 60,000 digits, and a degree-10^6 monomial enumeration.
    for payload in ({"dims": [[3, 40]], "n": 10}, {"dims": [[1, 1]], "n": 10 ** 8},
                    {"dims": [[100000, 100000]], "n": 100000},
                    {"spaces": [{"generators": [[1, 1, 1, 1], [1, 2, 3, 4]], "mult": 10 ** 6}]}):
        start = time.perf_counter()
        proc = run_cli("span-dim", payload)
        assert time.perf_counter() - start < 1.0
        assert _budget_error(proc)["message"].startswith("the generalized Vandermonde matrix in P^")


def _digits_line(n, digits):
    """A line in P^n whose integer entries all have `digits` digits."""
    big = 10 ** (digits - 1)
    return [[big + i for i in range(n + 1)], [big + i * i + 7 for i in range(n + 1)]]


def _span_charge(spaces):
    """What `span-dim` charges for explicit (generators, mult) spaces."""
    payload = {"spaces": [{"generators": gens, "mult": mult} for gens, mult in spaces]}
    return cli.span_dim_charge(cli.read_payload("span-dim", payload, None))


def test_span_dim_past_the_bit_work_limit_exit_3(monkeypatch, capsys):
    # A line of 60-digit entries took 32.9 s at mult 300 in P^3 and 15.3 s
    # at mult 60 in P^10; a 100-digit line at mult 40 in P^20 ran past 60 s.
    # A zero in the first row gives the line no small pivots (see
    # test_line_power_past_its_limits_exit_3).
    for generators, mult in ((_digits_line(3, 60), 300), (_digits_line(10, 60), 60),
                             (_digits_line(20, 100), 40), (_ZERO_LEAD_LINE, 20000)):
        payload = {"spaces": [{"generators": generators, "mult": mult}]}
        assert _span_charge([(generators, mult)]) > linalg.LIFT_BUDGET
        start = time.perf_counter()
        proc = run_cli("span-dim", payload)
        assert time.perf_counter() - start < 1.0
        _budget_error(proc)
    # Both sides of the budget in P^10: mult 25 (1.3 s) passes, mult 40
    # (4.6 s) does not.
    assert _span_charge([(_digits_line(10, 60), 25)]) < linalg.LIFT_BUDGET
    assert _span_charge([(_digits_line(10, 60), 40)]) > linalg.LIFT_BUDGET
    # 200-bit entries in P^3: mult 9 and mult 99 (refused by the former bit
    # work rule) are priced below the budget and answered.
    generators = [[1, 1, 1, 1], [1, 2, 3, 2 ** 200 - 1]]
    for mult in (9, 99):
        assert _span_charge([(generators, mult)]) < linalg.LIFT_BUDGET
        proc = run_cli("span-dim", {"spaces": [{"generators": generators, "mult": mult}]})
        assert proc.returncode == 0 and json.loads(proc.stdout)["match"] is True
    # Two spaces multiply their rows and add their bits.
    line, other = _digits_line(3, 60), [[1, 0, 1, 2], [0, 1, 3, 1]]
    assert _span_charge([(line, 2), (other, 3)]) > _span_charge([(line, 2)])
    # The drawn route prices its entries, below 2^10, from their shape alone.
    shapes = []
    monkeypatch.setattr(cli, "vandermonde_charge", lambda s, n: shapes.append(s) or 0)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"dims": [[1, 2]], "n": 3})))
    assert cli.main(["span-dim"]) == 0 and shapes == [[(1, 2, None)]]
    capsys.readouterr()


def test_benchmark_and_readme_payloads_price_below_a_hundredth_of_the_budget(monkeypatch):
    """Every op of the three benchmark pools at seeds 1-3 and every README
    payload of the four subcommands that spend the lift budget spends less
    than 1% of it, so the budget is far from what they need."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import probes
    import workloads
    cases = [(op.argv, op.payload) for pool in ("interp", "tropical", "small-exact")
             for seed in (1, 2, 3) for cycle in workloads.generate(pool, seed) for op in cycle
             if op.argv and op.argv[0] in ("span-dim", "line-power", "star-config", "dim-estimate")]
    readme = [(argv, payload) for _, argv, payload in probes.README_CASES
              if argv[0] in ("span-dim", "line-power", "star-config", "dim-estimate")]
    readme.append((["line-power"], {"line": [[1, 2, 0, 0, 2, -8], [0, 0, 1, 3, 3, 4]], "r": 3}))
    assert len(readme) == 6 and {argv[0] for argv, _ in cases} == {
        "span-dim", "line-power", "star-config", "dim-estimate"}
    cells = []
    monkeypatch.setattr(cli, "lift_budget", lambda: cells.append([linalg.LIFT_BUDGET]) or cells[-1])
    for argv, payload in cases + readme:
        cells.clear()
        code, _, _ = run_main(argv, json.dumps(payload))
        assert code == 0 and len(cells) == 1, (argv, payload)
        assert 0 < linalg.LIFT_BUDGET - cells[0][0] < linalg.LIFT_BUDGET // 100, (argv, payload)


def test_vandermonde_ranks_build_no_rref(monkeypatch, capsys):
    # The rank of a Vandermonde matrix is one Bareiss pass: the only RREFs
    # are those of the 2-row generator matrices the spaces are built from.
    space = projective.LinSpace([[1, 2, 3, 4], [1, 3, 7, 13]])
    rrefs = []
    original = QMatrix.rref

    def counting(self):
        rrefs.append(self.nrows)
        return original(self)

    monkeypatch.setattr(QMatrix, "rref", counting)
    assert products.identifiability_check(space, 2, 10, random.Random(1)) is None
    assert rrefs == []
    for payload in ({"dims": [[1, 2]], "n": 3},
                    {"spaces": [{"generators": [[1, 1, 1, 1], [1, 2, 3, 4]], "mult": 2}]}):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        assert cli.main(["span-dim"]) == 0
        assert json.loads(capsys.readouterr().out)["rank"] == 3
        assert rrefs == [2]
        rrefs.clear()


def _zero_sum_rows():
    """Generators of the 3 x 4 matrices with zero row and column sums, flattened."""
    rows = []
    for i in range(2):
        for j in range(3):
            mat = [[0] * 4 for _ in range(3)]
            mat[i][j] = mat[2][3] = 1
            mat[i][3] = mat[2][j] = -1
            rows.append([x for row in mat for x in row])
    return rows


def test_dim_estimate_deficient_example():
    payload = {"x": {"type": "segre", "a": 2, "b": 3},
               "y": {"type": "linear", "generators": _zero_sum_rows()},
               "dim_h": 0, "dim_g": 11}
    proc = run_cli("dim-estimate", payload)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["terracini_dim"] == 9
    assert doc["expected_dim"] == 10
    assert doc["deficient"] is True


#: sha256 of `dim-estimate` stdout for these payloads at seeds 0-39.  The
#: output prints dimensions only, so it must not move when a sampler changes
#: how it draws its points.
DIM_ESTIMATE_PAYLOADS = [
    {"x": {"type": "segre", "a": 2, "b": 3}, "y": {"type": "linear", "generators": _zero_sum_rows()},
     "dim_h": 0, "dim_g": 11},
    {"x": {"type": "segre", "a": 1, "b": 1},
     "y": {"type": "linear", "generators": [[1, 2, 3, 4], [0, 1, 5, 7]]}, "dim_h": 0, "dim_g": 3},
    {"x": {"type": "reciprocal", "generators": [[1, 2, 3, 4], [2, -1, 5, 1]]},
     "y": {"type": "linear", "generators": [[3, 1, 4, 1], [5, 9, 2, 6]]}, "dim_h": 0, "dim_g": 3},
    {"x": {"type": "power", "r": 2, "base": {"type": "segre", "a": 1, "b": 2}},
     "y": {"type": "reciprocal", "generators": [[1, 2, 3, 4, 5, 6], [6, -5, 4, 3, -2, 1]]},
     "dim_h": 0, "dim_g": 5},
]
DIM_ESTIMATE_DIGEST = "efae0402108eb4c505fd3b2d45f9fb4cea8d0d4540105c2c5fc82357ea34e255"


def test_dim_estimate_output_digest(monkeypatch, capsys):
    digest = hashlib.sha256()
    for payload in DIM_ESTIMATE_PAYLOADS:
        for seed in range(40):
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
            assert cli.main(["dim-estimate", "--seed", str(seed)]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == DIM_ESTIMATE_DIGEST


def test_dim_estimate_ambient_mismatch_exit_1():
    payload = {"x": {"type": "segre", "a": 1, "b": 1},
               "y": {"type": "linear", "generators": [[1, 2, 3], [1, 0, 5]]},
               "dim_h": 0, "dim_g": 3}
    proc = run_cli("dim-estimate", payload)
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["field"] == "y"


#: Two lines in P^3: the torus dimensions must satisfy 0 <= dim_h and 0 <= dim_g <= 3.
@pytest.mark.parametrize("dims, field", [
    ({"dim_h": -3, "dim_g": 50}, "dim_h"),
    ({"dim_h": -1, "dim_g": 3}, "dim_h"),
    ({"dim_h": 0, "dim_g": -1}, "dim_g"),
    ({"dim_h": 0, "dim_g": 4}, "dim_g"),
])
def test_dim_estimate_torus_dimensions_exit_1(dims, field):
    payload = {"x": {"type": "linear", "generators": [[1, 2, 3, 4], [0, 1, 5, 7]]},
               "y": {"type": "linear", "generators": [[3, 1, 4, 1], [5, 9, 2, 6]]}, **dims}
    proc = run_cli("dim-estimate", payload)
    assert proc.returncode == 1 and proc.stdout == ""
    err = json.loads(proc.stderr)["error"]
    assert err["code"] == 1 and err["field"] == field
    payload.update(dim_h=0, dim_g=3)
    assert run_cli("dim-estimate", payload).returncode == 0


@pytest.mark.parametrize("payload, field", [
    ({"spaces": []}, "spaces"),
    ({"dims": [], "n": 3}, "dims"),
    ({"dims": [[1, 2]], "n": 0}, "n"),
    ({"spaces": [{"generators": [[1, 2, 3, 4]]}, {"generators": [[1, 2, 3]]}]},
     "spaces[1].generators"),
])
def test_span_dim_bad_payload_exit_1(payload, field):
    proc = run_cli("span-dim", payload)
    assert proc.returncode == 1 and proc.stdout == ""
    err = json.loads(proc.stderr)["error"]
    assert err["code"] == 1 and err["field"] == field


def test_bracket_quadric_and_pretty_display():
    payload = {"mode": "quadric",
               "line_l": [[2, 3, 5, 7], [11, 13, 17, 19]],
               "line_m": [[23, 29, 31, 37], [41, 43, 47, 53]]}
    proc = run_cli("bracket", payload, "--format", "pretty")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert "bracket_display" in doc
    coeffs = {tuple(e): c for e, c in doc["form"]}
    assert coeffs[(2, 0, 0, 0)] == "-1776660480"


def test_bracket_verify_sampling_and_symbolic():
    proc = run_cli("bracket", {"mode": "verify", "identity": "quadric", "trials": 5})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verified"] is True

    proc = run_cli("bracket", {"mode": "verify", "identity": "quadric"}, "--symbolic")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc == {"mode": "symbolic", "expansion_zero": True, "square_identity": True}

    proc = run_cli("bracket", {"mode": "verify", "identity": "cubic"}, "--symbolic")
    assert proc.returncode == 2


def test_bracket_verify_cubic_sampling():
    proc = run_cli("bracket", {"mode": "verify", "identity": "cubic", "trials": 4})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verified"] is True


def test_bracket_verify_refuses_trials_past_the_limit():
    for identity in ("quadric", "cubic"):
        for trials in (brackets.VERIFY_TRIALS_LIMIT + 1, 10 ** 8):
            start = time.perf_counter()
            proc = run_cli("bracket", {"mode": "verify", "identity": identity, "trials": trials})
            assert time.perf_counter() - start < 1.0
            assert (proc.returncode, proc.stdout) == (3, "")
            assert "Traceback" not in proc.stderr
            assert json.loads(proc.stderr)["error"]["code"] == 3
        # The default of 25 trials, bytes recorded before the limit existed.
        proc = run_cli("bracket", {"mode": "verify", "identity": identity}, "--seed", "7")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == '{"mode":"sampling","trials":25,"verified":true}\n'


def test_output_file(tmp_path):
    out = tmp_path / "result.json"
    payload = {"plain": [[1, 2]], "n": 4}
    proc = subprocess.run(RUN + ["degree", "--out", str(out)],
                          input=json.dumps(payload), capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(out.read_text()) == {"dim": 2, "degree": "1"}


#: `line-power` payloads for r < n, r = n and r > n on a clean line and for the
#: sampled route on degenerate lines, and `bracket` quadric and cubic payloads,
#: each with integer and with "num/den" entries.
BRACKET_OUTPUT_PAYLOADS = [
    ("line-power", {"line": [[1, 2, 3, 4], [2, -1, 5, 1]], "r": r}) for r in (1, 2, 3, 5)
] + [
    ("line-power", {"line": [["1/2", "2/3", 3, "-4/5"], [2, "-1/7", "5/3", 1]], "r": r})
    for r in (1, 2, 3, 5)
] + [
    ("line-power", {"line": [[1, 3, -2, 0, 5], ["2/9", 1, "7/4", -3, "1/6"]], "r": 2}),
    ("line-power", {"line": [[1, 0, 2, 3], [0, 0, 1, 1]], "r": 2}),
    ("line-power", {"line": [[1, -1, -3, 1, -3], [1, -2, -6, 16, 16]], "r": 2}),
    ("line-power", {"line": [[1, -1, -3, 1, -3], ["1/4", "-1/2", "-3/2", 4, 4]], "r": 2}),
    ("line-power", {"line": [[-2, -3, -3, -1, 0], [-1, "-3/2", "3/2", "5/4", "5/3"]], "r": 2}),
    ("line-power", {"line": [[-2, -3, -3, -1, 0], [-1, "-3/2", "3/2", "5/4", "5/3"]], "r": 3}),
    ("line-power", {"line": [["1/2", 0, "2/3", 3], [0, 0, "1/5", "7/2"]], "r": 5}),
    ("bracket", {"mode": "quadric", "line_l": [[2, 3, 5, 7], [11, 13, 17, 19]],
                 "line_m": [[23, 29, 31, 37], [41, 43, 47, 53]]}),
    ("bracket", {"mode": "quadric", "line_l": [["2/3", 3, "-5/4", 7], [11, "13/2", 17, "19/9"]],
                 "line_m": [[23, "-29/5", 31, 37], ["41/7", 43, "47/3", 53]]}),
    ("bracket", {"mode": "cubic", "plane": [[1, 2, -1, 3, 0, 2], [0, 1, 4, -2, 1, 1],
                                            [3, -1, 0, 1, 2, -3]]}),
    ("bracket", {"mode": "cubic", "plane": [["1/2", 2, -1, "3/5", 0, 2], [0, "1/3", 4, -2, 1, "7/4"],
                                            [3, -1, "2/7", 1, "-2/3", -3]]}),
]

#: sha256 of the stdout of BRACKET_OUTPUT_PAYLOADS at seeds 0-9, recorded while
#: every Pluecker minor was a Fraction determinant of its own.
BRACKET_OUTPUT_DIGEST = "4db81d1e2554ad0c8b460bdce5f044129bf23b5ff644f12c5f2f3cad0a2adb49"


def test_pluecker_output_digest(monkeypatch, capsys):
    digest = hashlib.sha256()
    for command, payload in BRACKET_OUTPUT_PAYLOADS:
        for seed in range(10):
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
            assert cli.main([command, "--seed", str(seed)]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == BRACKET_OUTPUT_DIGEST


def count_calls(monkeypatch, fn):
    """Rebind fn in every hadamard_spaces module that holds it by name; the
    returned list grows by one per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hadamard_spaces"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("n, r", [(2, 1), (3, 1), (3, 2), (5, 2), (6, 4)])
def test_line_power_computes_each_bracket_once(n, r, monkeypatch, capsys):
    """A clean line's Pluecker vector is computed once, and each minor of
    its power once, for the printed coordinates and the equations alike."""
    pluecker_calls = count_calls(monkeypatch, projective.pluecker)
    minor_calls = count_calls(monkeypatch, line_powers.line_power_minor)
    line = [[1] * (n + 1), ["%d/3" % (j + 1) for j in range(n + 1)]]  # bracket [ij] = (j-i)/3
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"line": line, "r": r})))
    assert cli.main(["line-power"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "matrix" and len(doc["equations"]) == comb(n + 1, r + 2)
    assert (len(pluecker_calls), len(minor_calls)) == (1, comb(n + 1, r + 1))


#: One payload of each CLI op kind that reads brackets or exact small ranks.
SMALL_OP_PAYLOADS = [
    ("star-config", {"line": [[1, 1, 1, 1], [1, 2, 3, 4]],
                     "points": [[2, 3, 4, 5], [3, 5, 7, 9], [3, 4, 5, 6]], "r": 2}),
    ("line-power", {"line": [[1, 2, 3, 4], ["2/3", -1, 5, 1]], "r": 2}),
    ("line-power", {"line": [[1, -1, -3, 1, -3], [1, -2, -6, 16, 16]], "r": 3}),
    ("span-dim", {"dims": [[1, 2], [1, 1]], "n": 5}),
    ("dim-estimate", {"x": {"type": "segre", "a": 1, "b": 1},
                      "y": {"type": "linear", "generators": [[1, 2, 3, 4], [0, 1, 5, 7]]},
                      "dim_h": 0, "dim_g": 3}),
    ("bracket", {"mode": "quadric", "line_l": [[2, 3, 5, 7], [11, 13, 17, 19]],
                 "line_m": [[23, 29, 31, 37], [41, 43, 47, 53]]}),
    ("bracket", {"mode": "cubic", "plane": [[1, 2, -1, 3, 0, 2], [0, 1, 4, -2, 1, 1],
                                            [3, -1, 0, 1, 2, -3]]}),
]


def test_small_ops_build_no_determinant_matrix(monkeypatch, capsys):
    """Pluecker minors are integer determinants of cleared rows: no op
    builds a QMatrix to take its determinant."""
    det_calls, det = [], QMatrix.det
    monkeypatch.setattr(QMatrix, "det", lambda self: det_calls.append(self) or det(self))
    for command, payload in SMALL_OP_PAYLOADS:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        assert cli.main([command]) == 0
        capsys.readouterr()
    products.identifiability_check(projective.LinSpace([[1, 2, 3, 4], [2, -1, 5, 1]]), 2, 50,
                                   random.Random(0))
    assert det_calls == []


#: `star-config` payloads with integer and with "num/den" lines and points
#: (r from 1 to 4), and `span-dim` payloads by `spaces` (integer and
#: "num/den" generators, multiplicities 1-3) and by `dims` (drawn from the seed).
STAR_SPAN_PAYLOADS = [
    ("star-config", {"line": [[1, 1, 1, 1], [1, 2, 3, 4]],
                     "points": [[2, 3, 4, 5], [3, 5, 7, 9], [4, 7, 10, 13], [6, 11, 16, 21]], "r": 2}),
    ("star-config", {"line": [[1, 1, 1, 1], [1, 2, 3, 4]],
                     "points": [[2, 3, 4, 5], [3, 5, 7, 9], [4, 7, 10, 13], [6, 11, 16, 21],
                                [8, 15, 22, 29]], "r": 3}),
    ("star-config", {"line": [[1, 1, 1, 1], [1, 2, 3, 4]], "points": [[3, 5, 7, 9], [4, 7, 10, 13]],
                     "r": 1}),
] + [
    ("star-config", {"line": [["1/2", 1, "3/2", -2], [1, "1/3", "-2/5", 3]],
                     "points": [[1, "7/6", "13/10", "-1/2"], ["5/2", "5/3", "7/10", 4],
                                ["-1/4", "3/4", "9/5", "-17/4"], ["11/2", "8/3", "-1/2", 13]], "r": r})
    for r in (2, 3)
] + [
    ("star-config", {"line": [[1, 3, -2, 5, 7], ["2/9", 1, "7/4", -3, "1/6"]],
                     "points": [["11/9", 4, "-1/4", 2, "43/6"], ["31/27", "11/3", "-5/6", 3, "64/9"],
                                ["5/9", 1, "-11/2", 11, "20/3"], ["73/63", "26/7", "-3/4", "20/7", "299/42"],
                                ["17/9", 7, 5, -7, "23/3"]], "r": r})
    for r in (2, 4)
] + [
    ("span-dim", {"spaces": [{"generators": [[1, 1, 1, 1], [1, 2, 3, 4]], "mult": 2}]}),
    ("span-dim", {"spaces": [{"generators": [[1, 2, 0, -1, 3], [0, 1, 1, 2, -2]]},
                             {"generators": [[2, -1, 3, 1, 1], [1, 1, 1, 1, 1]], "mult": 2}]}),
    ("span-dim", {"spaces": [{"generators": [["1/2", 2, "-3/4", 1, 5, "2/7"],
                                             [1, "1/3", 2, "-5/2", 0, 1],
                                             [0, 1, "7/3", 2, "1/9", -1]], "mult": 3}]}),
    ("span-dim", {"spaces": [{"generators": [["2/3", 1, -1, "5/2"], [1, "-1/4", 3, 0]]},
                             {"generators": [[1, "3/5", 2, 1]], "mult": 2}]}),
    ("span-dim", {"dims": [[1, 1], [1, 1]], "n": 3}),
    ("span-dim", {"dims": [[1, 2], [2, 1]], "n": 9}),
    ("span-dim", {"dims": [[2, 2]], "n": 4}),
]

#: sha256 of the stdout of STAR_SPAN_PAYLOADS at seeds 0-9, recorded while
#: every matrix entry and point coordinate was a Fraction.
STAR_SPAN_DIGEST = "4a1de67e3506cf4516f3e1aa15a0b34a4024b283a6c546f95ea367ea11eb2817"


def test_star_config_and_span_dim_output_digest(monkeypatch, capsys):
    digest = hashlib.sha256()
    for command, payload in STAR_SPAN_PAYLOADS:
        for seed in range(10):
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
            assert cli.main([command, "--seed", str(seed)]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == STAR_SPAN_DIGEST
