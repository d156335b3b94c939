"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (tolerance zero).  The check logic lives in
`hadamard_spaces.papersuite`, shared with the `paper-suite` subcommand; this
module holds the instance grids and seeds and reports on them.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines as
they complete.  Two more tests pin the `degree --transcript` output on the
degree grids of criteria 5 and 6, at two seeds.
"""

import hashlib
import io
import json
import random
import sys
import time
from math import comb

from hadamard_spaces import cli, tropical
from hadamard_spaces import papersuite as suite


def report(number, ok, detail):
    print("[ACCEPTANCE %2d] %s — %s" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_01_two_lines_quadric():
    start = time.perf_counter()
    ok, detail = suite.check_two_lines_quadric(random.Random(101))
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 5.0, "interpolated quadric matches the ten benchmark "
                                    "coefficients: %s (%.2fs)" % (detail, elapsed))


def test_criterion_02_degenerate_line_powers():
    ok, detail = suite.check_degenerate_line_powers(random.Random(102))
    report(2, ok, "degenerate line powers satisfy exactly the printed forms; " + detail)


def test_criterion_03_power_matrix_property_suite():
    rng = random.Random(103)
    checked_minors = 0
    ok = True
    for n in range(2, 7):
        for _ in range(10):
            holds, minors = suite.power_minors_are_brackets(suite.random_space(1, n, rng, 50))
            ok = ok and holds
            checked_minors += minors
    report(3, ok, "50 random lines, n in 2..6: %d maximal minors equal bracket "
                  "products exactly; ranks min(r,n)+1 whenever no bracket vanishes"
                  % checked_minors)


def test_criterion_04_star_configurations():
    rng = random.Random(104)
    ok = True
    runs = 0
    for (m, r, n) in [(5, 3, 4), (4, 2, 2), (5, 2, 3), (6, 3, 5)]:
        for _ in range(20):
            ok = ok and suite.star_from_collinear_points(suite.random_line(n, rng), m, r, rng)
            runs += 1
    report(4, ok, "%d star-configuration builds across (m,r,n) grids verified "
                  "with exactly binom(m,r) points each" % runs)


def dim_mult_multisets(max_total):
    pairs = [(m, r) for m in range(1, max_total + 1)
             for r in range(1, max_total + 1) if m * r <= max_total]
    found = set()

    def rec(start, remaining, acc):
        if acc:
            found.add(tuple(acc))
        for i in range(start, len(pairs)):
            m, r = pairs[i]
            if m * r <= remaining:
                rec(i, remaining - m * r, acc + [pairs[i]])

    rec(0, max_total, [])
    return sorted(found)


def criterion_05_grid():
    """(plain, reciprocal, n): multisets of total dimension <= 5, n <= 8."""
    return [(entries, (), n) for entries in dim_mult_multisets(5)
            for n in range(sum(m * r for m, r in entries), 9)]


def criterion_06_grid():
    """(plain, reciprocal, n): total dimension <= 4 with a reciprocal factor, n <= 6."""
    grid = []
    for plain in [()] + dim_mult_multisets(3):
        for recip in dim_mult_multisets(4):
            total = sum(a * b for a, b in plain + recip)
            if total <= 4:
                grid.extend((plain, recip, n) for n in range(total, 7))
    return grid


def test_criterion_05_degree_formula_vs_fans():
    rng = random.Random(105)
    grid = criterion_05_grid()
    ok = all([suite.degree_by_both_routes(list(plain), [], n, rng) is not None
              for plain, _, n in grid])
    spots_ok, spots = suite.check_degree_formulas(rng)
    report(5, ok and spots_ok, "closed-form degree equals the Minkowski-sum/stable-"
                               "intersection pipeline on all %d multiset instances (sum "
                               "of dims <= 5, n <= 8); spot values %s" % (len(grid), spots))


def test_criterion_06_reciprocal_degrees():
    rng = random.Random(106)
    grid = criterion_06_grid()
    ok = all([suite.degree_by_both_routes(list(plain), list(recip), n, rng) is not None
              for plain, recip, n in grid])
    # Hypersurface cases against the interpolation oracle.
    plane = suite.random_space(2, 3, rng)
    line_a, line_b = suite.random_space(1, 3, rng), suite.random_space(1, 3, rng)
    ok = ok and suite.reciprocal_degrees_hold(plane, line_a, line_b)
    ok = ok and all(suite.degree_by_both_routes([], [(1, 1)], n, rng) == n
                    for n in range(2, 7))
    report(6, ok, "reciprocal degree formula equals the fan pipeline on %d instances; "
                  "interpolated degrees: reciprocal plane 3, line*reciprocal line 2; "
                  "reciprocal lines have degree n" % len(grid))


#: sha256 over the concatenated `degree --transcript --seed 1` stdouts of the
#: criterion 5 and 6 grids, in grid order.  Re-recorded when the 211 instances
#: below the genericity bound gained their "warning" field; every other byte
#: is the one recorded while stable intersection still tested every cone pair.
DEGREE_TRANSCRIPTS_SHA256 = "e305c7ece1d26d2e17cc6e5758b923868872a133f57ac4abfd8060a62e0ea5b6"

#: The same over `--seed 2` (another displacement vector per instance),
#: recorded while cones were still pairs of frozensets and re-recorded with
#: the "warning" field.
DEGREE_TRANSCRIPTS_SEED_2_SHA256 = "8045be518ec11ad301ad0ada6d5842cc6c070f2367a342bf6237e0d3c8905c33"


def degree_transcripts_digest(seed, monkeypatch, capsys):
    digest = hashlib.sha256()
    for plain, recip, n in criterion_05_grid() + criterion_06_grid():
        payload = {"plain": [list(x) for x in plain], "n": n}
        if recip:
            payload["reciprocal"] = [list(x) for x in recip]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        assert cli.main(["degree", "--transcript", "--seed", str(seed)]) == 0
        digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


def test_degree_transcripts_byte_identical(monkeypatch, capsys):
    """With every memoized standard fan, mask and mask text built afresh,
    and again with the memos warm."""
    tropical._memo_standard_fan.cache_clear()
    tropical._memo_mask_indices.cache_clear()
    tropical._memo_mask_text.cache_clear()
    assert degree_transcripts_digest(1, monkeypatch, capsys) == DEGREE_TRANSCRIPTS_SHA256
    assert tropical._memo_standard_fan.cache_info().currsize > 0
    assert tropical._memo_mask_text.cache_info().currsize > 0
    assert degree_transcripts_digest(1, monkeypatch, capsys) == DEGREE_TRANSCRIPTS_SHA256


def test_degree_transcripts_at_seed_2_byte_identical(monkeypatch, capsys):
    assert degree_transcripts_digest(2, monkeypatch, capsys) == DEGREE_TRANSCRIPTS_SEED_2_SHA256


def test_criterion_07_deficient_dimension():
    ok, detail = suite.check_deficient_dimension(random.Random(107))
    report(7, ok, "rank-one 3x4 matrices times the zero-sum space: %s" % detail)


def test_criterion_08_quadric_identities():
    rng = random.Random(108)
    ok = (suite.brackets.quadric_symbolic_identity().is_zero()
          and suite.brackets.quadric_square_symbolic())
    lines = [suite.random_line(3, rng, 30) for _ in range(20)]
    ok = ok and all(suite.self_product_squares_hyperplane(line) for line in lines)
    report(8, ok, "20-variable expansion of the two-lines quadric is the zero "
                  "polynomial; self-product equals the squared hyperplane form "
                  "for %d random lines" % len(lines))


def test_criterion_09_cubic_against_interpolation():
    rng = random.Random(109)
    ok = True
    planes = 0
    for _ in range(5):
        # The first cubic of the process asserts the orbit transport's well-definedness.
        ok = ok and suite.cubic_matches_interpolation(suite.random_space(2, 5, rng, 9))
        planes += 1
    report(9, ok, "bracket cubic agrees with degree-3 interpolation for %d random "
                  "planes; orbit transport well-definedness assertions all passed" % planes)


def test_criterion_10_span_rank_and_identifiability():
    rng = random.Random(110)
    ok = True
    rank_checks = 0
    identifiability_runs = 0
    single_pool = [(1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 3, 7), (2, 2, 5), (2, 2, 7)]
    for idx in range(50):
        if idx % 2 == 0:
            m, r, n = single_pool[(idx // 2) % len(single_pool)]
            entries = [(suite.random_space(m, n, rng), r)]
        else:
            n = rng.randint(2, 9)
            entries = []
            budget = 36
            for _ in range(rng.randint(1, 2)):
                m = rng.randint(1, 2)
                r = rng.randint(1, 3)
                if budget // comb(m + r, r) == 0:
                    continue
                budget //= comb(m + r, r)
                entries.append((suite.random_space(m, n, rng), r))
            if not entries:
                entries = [(suite.random_space(1, n, rng), 1)]
        holds, tested = suite.span_rank_and_identifiability(entries, rng)
        ok = ok and holds
        rank_checks += 1
        identifiability_runs += tested
    report(10, ok, "%d generalized Vandermonde ranks match min(prod binom, n+1); "
                   "no collisions in 10^4-trial identifiability runs on %d in-regime "
                   "instances" % (rank_checks, identifiability_runs))
