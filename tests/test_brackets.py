import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from hadamard_spaces import brackets
from hadamard_spaces.brackets import (CUBIC_REPRESENTATIVES, QUADRIC_TABLE,
                                      cubic_plane_square,
                                      quadric_bracket_display,
                                      quadric_square_symbolic,
                                      quadric_symbolic_identity,
                                      quadric_two_lines, verify_identity)
from hadamard_spaces.line_powers import power_hyperplane
from hadamard_spaces.linalg import BudgetExhausted, PreconditionError
from hadamard_spaces.papersuite import random_line
from hadamard_spaces.poly import SparsePoly, proportional
from hadamard_spaces.products import interpolate_hypersurface
from hadamard_spaces.projective import LinSpace, PPoint, line_through, pluecker
from hadamard_spaces.samplers import (hadamard_power_sampler,
                                      hadamard_product_sampler,
                                      linear_space_sampler)

BENCH_L = line_through(PPoint([2, 3, 5, 7]), PPoint([11, 13, 17, 19]))
BENCH_M = line_through(PPoint([23, 29, 31, 37]), PPoint([41, 43, 47, 53]))
BENCH_QUADRIC = SparsePoly(4, {
    (2, 0, 0, 0): 88128, (1, 1, 0, 0): -89280, (0, 2, 0, 0): -5299632,
    (1, 0, 1, 0): -817938, (0, 1, 1, 0): 8896641, (0, 0, 2, 0): -1481805,
    (1, 0, 0, 1): -321510, (0, 1, 0, 1): -1777545, (0, 0, 1, 1): -54250,
    (0, 0, 0, 2): 116375,
})


def test_quadric_benchmark_coefficients():
    form = quadric_two_lines(pluecker(BENCH_L), pluecker(BENCH_M))
    assert proportional(form, BENCH_QUADRIC)
    assert form.primitive() == BENCH_QUADRIC


def test_quadric_table_bracket_degrees():
    # Each coefficient is a sum of products of three brackets per line.
    for entries in QUADRIC_TABLE.values():
        for sign, lbrs, mbrs in entries:
            assert abs(sign) == 1
            assert len(lbrs) == 3 and len(mbrs) == 3


def test_quadric_vanishes_on_sampled_products():
    rng = random.Random(71)
    form = quadric_two_lines(pluecker(BENCH_L), pluecker(BENCH_M))
    sampler = hadamard_product_sampler(linear_space_sampler(BENCH_L),
                                       linear_space_sampler(BENCH_M))
    assert verify_identity(form, sampler, 20, rng)


def test_quadric_symbolic_identity_is_zero():
    assert quadric_symbolic_identity().is_zero()


def test_quadric_square_symbolic():
    assert quadric_square_symbolic()


def test_quadric_self_product_squares_hyperplane():
    rng = random.Random(72)
    for _ in range(8):
        line = random_line(3, rng, 30)
        pl = pluecker(line)
        h = power_hyperplane(pl)
        assert proportional(quadric_two_lines(pl, pl), h * h)


def test_quadric_requires_lines_in_p3():
    pl_p2 = pluecker(line_through(PPoint([1, 1, 1]), PPoint([1, 2, 3])))
    with pytest.raises(PreconditionError):
        quadric_two_lines(pl_p2, pl_p2)


def test_verify_identity_zero_polynomial_vacuous():
    rng = random.Random(73)
    sampler = linear_space_sampler(BENCH_L)
    assert verify_identity(SparsePoly.zero(4), sampler, 3, rng)


def test_verify_identity_refuses_trials_past_the_limit_before_any_draw():
    class NoDraws:
        def sample_point(self, rng):
            raise AssertionError("drew a sample")

    rng = random.Random(75)
    form = quadric_two_lines(pluecker(BENCH_L), pluecker(BENCH_M))
    for poly in (form, SparsePoly.zero(4)):
        with pytest.raises(BudgetExhausted):
            verify_identity(poly, NoDraws(), brackets.VERIFY_TRIALS_LIMIT + 1, rng)
    assert rng.getstate() == random.Random(75).getstate()


def test_verify_identity_catches_perturbation():
    rng = random.Random(74)
    form = quadric_two_lines(pluecker(BENCH_L), pluecker(BENCH_M))
    broken = form + SparsePoly(4, {(2, 0, 0, 0): 1})
    sampler = hadamard_product_sampler(linear_space_sampler(BENCH_L),
                                       linear_space_sampler(BENCH_M))
    assert not verify_identity(broken, sampler, 3, rng)


def test_cubic_transport_is_well_defined_over_s6():
    # Every representative through all 720 permutations of S6 (2,160
    # transports): each monomial a permutation reaches gets one bracket
    # polynomial, whichever permutation reached it, and that is the table's.
    found = {}
    for pattern in CUBIC_REPRESENTATIVES:
        for perm in permutations(range(6)):
            expo = [0] * 6
            for i in pattern:
                expo[perm[i]] += 1
            terms = brackets._twisted_transport(pattern, perm)
            found.setdefault(tuple(expo), set()).add(frozenset(terms.items()))
    assert all(len(polys) == 1 for polys in found.values())
    table = {expo: frozenset(monomials) for expo, monomials in brackets._cubic_table()}
    assert {expo: polys.pop() for expo, polys in found.items()} == table
    assert len(table) == 56


def test_cubic_representative_column_degrees():
    # Multihomogeneity forced by the torus action: pattern indices appear
    # 6 - 2*(multiplicity in the monomial) times... concretely (6,6,6,6,6,6)
    # total with the x-part contributing twice per index.
    for pattern, (sign, terms) in CUBIC_REPRESENTATIVES.items():
        assert abs(sign) == 1
        mults = {i: pattern.count(i) for i in range(6)}
        for brackets in terms:
            assert len(brackets) == 10
            counts = [0] * 6
            for br in brackets:
                assert list(br) == sorted(br)
                for i in br:
                    counts[i] += 1
            for i in range(6):
                assert counts[i] + 2 * mults.get(i, 0) == 6


def test_cubic_matches_interpolation():
    plane = LinSpace([[3, 1, 4, 1, 5, 9], [2, 6, 5, 3, 5, 8], [9, 7, 9, 3, 2, 3]])
    cubic = cubic_plane_square(pluecker(plane))
    sampler = hadamard_power_sampler(linear_space_sampler(plane), 2)
    degree, form = interpolate_hypersurface(sampler, 3)
    assert degree == 3
    assert proportional(cubic, form)


def test_cubic_vanishes_on_samples():
    rng = random.Random(76)
    plane = LinSpace([[1, 2, 3, 4, 5, 6], [1, 3, 7, 13, 21, 31], [2, 1, 5, 3, 11, 7]])
    cubic = cubic_plane_square(pluecker(plane))
    sampler = hadamard_power_sampler(linear_space_sampler(plane), 2)
    assert verify_identity(cubic, sampler, 15, rng)


def test_cubic_specialization_to_line_square():
    # With the plane specialized to the square of a line, the cubic must
    # vanish on products of two plane points, i.e. on fourth powers of the
    # line's points.
    rng = random.Random(77)
    line = LinSpace([[1, 1, 1, 1, 1, 1], [1, 2, 3, 4, 5, 7]])
    from hadamard_spaces.line_powers import line_power_matrix
    plane = LinSpace(line_power_matrix(line, 2))
    cubic = cubic_plane_square(pluecker(plane))
    sampler = hadamard_power_sampler(linear_space_sampler(plane), 2)
    assert verify_identity(cubic, sampler, 15, rng)


def _oracle_coefficient(pattern, perm, valuation):
    total = Fraction(0)
    for monomial, coeff in brackets._twisted_transport(pattern, perm).items():
        value = Fraction(coeff)
        for br in monomial:
            value *= valuation(br)
        total += value
    return total


def cubic_oracle(pl_p):
    """The cubic as computed before its table was cached: every coefficient
    transported on each call, through two coset representatives, and
    evaluated in Fraction arithmetic."""
    valuation = pl_p.entries.__getitem__
    terms = {}
    for a, b, c in combinations_with_replacement(range(6), 3):
        pattern, partial = brackets._pattern_and_map(a, b, c)
        perm = brackets._complete_perm(partial)
        coeff = _oracle_coefficient(pattern, perm, valuation)
        spare = [i for i in range(6) if i not in partial.values()]
        alt = list(perm)
        u, w = spare[-2], spare[-1]
        iu, iw = alt.index(u), alt.index(w)
        alt[iu], alt[iw] = alt[iw], alt[iu]
        assert _oracle_coefficient(pattern, tuple(alt), valuation) == coeff
        if coeff:
            expo = [0] * 6
            for i in (a, b, c):
                expo[i] += 1
            terms[tuple(expo)] = coeff
    return SparsePoly(6, terms)


def oracle_planes():
    """50 planes in P^5: integer, Fraction and sparse generators, the last
    with many vanishing Pluecker minors."""
    rng = random.Random(78)
    planes = []
    while len(planes) < 50:
        kind = len(planes) % 3
        if kind == 0:
            rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)]
        elif kind == 1:
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(6)]
                    for _ in range(3)]
        else:
            rows = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(6)] for _ in range(3)]
        try:
            planes.append(pluecker(LinSpace(rows)))
        except ValueError:
            continue
    return planes


def test_cubic_table_matches_per_call_transport():
    planes = oracle_planes()
    assert sum(1 for pl in planes if not pl.nonvanishing()) >= 10
    assert any(v.denominator > 1 for pl in planes for v in pl.entries.values())
    for pl in planes:
        got = cubic_plane_square(pl)
        assert got == cubic_oracle(pl)
        assert all(type(c) is Fraction for c in got.terms.values())


def test_cubic_table_corruption_is_caught(monkeypatch):
    table = brackets._cubic_table()
    assert len(table) == 56
    planes = oracle_planes()
    wanted = [cubic_oracle(pl) for pl in planes]
    for k, (expo, monomials) in enumerate(table):
        corrupt = list(table)
        (first, coeff), rest = monomials[0], monomials[1:]
        corrupt[k] = (expo, ((first, coeff + 1),) + rest)
        monkeypatch.setattr(brackets, "_cubic_table", lambda: corrupt)
        assert any(cubic_plane_square(pl) != want for pl, want in zip(planes, wanted)), expo
    monkeypatch.undo()
    assert [cubic_plane_square(pl) for pl in planes] == wanted


_COUNT_TRANSPORTS = """
import sys

calls = [0]

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "_twisted_transport":
        calls[0] += 1

sys.setprofile(profile)
import hadamard_spaces.cli
from hadamard_spaces.brackets import cubic_plane_square
from hadamard_spaces.projective import LinSpace, pluecker
counts = [calls[0]]
for rows in ([[3, 1, 4, 1, 5, 9], [2, 6, 5, 3, 5, 8], [9, 7, 9, 3, 2, 3]],
             [[1, 2, 3, 4, 5, 6], [1, 3, 7, 13, 21, 31], [2, 1, 5, 3, 11, 7]]):
    cubic_plane_square(pluecker(LinSpace(rows)))
    counts.append(calls[0])
sys.setprofile(None)
print(counts)
"""


def test_cubic_table_is_built_once_on_first_use():
    out = subprocess.run([sys.executable, "-c", _COUNT_TRANSPORTS],
                         capture_output=True, text=True, check=True).stdout
    on_import, first, second = json.loads(out)
    assert on_import == 0
    # One transport for each of the 56 coefficients.
    assert first == 56
    assert second == first


def test_cubic_requires_plane_in_p5():
    with pytest.raises(PreconditionError):
        cubic_plane_square(pluecker(BENCH_L))


def test_bracket_display_mentions_monomials():
    text = quadric_bracket_display()
    assert "[12][13][23]{12}{13}{23}" in text.replace(" ", "")
    assert "x0^2" in text
