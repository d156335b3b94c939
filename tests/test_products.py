import random
import warnings
from fractions import Fraction
from math import comb

import pytest

from hadamard_spaces.line_powers import line_power_matrix, power_hyperplane
from hadamard_spaces.linalg import PreconditionError
from hadamard_spaces import products
from hadamard_spaces.poly import proportional
from hadamard_spaces.products import (expected_dimension, gen_vandermonde,
                                      identifiability_check,
                                      identifiability_regime_bound,
                                      interpolate_forms, interpolate_hypersurface,
                                      span_dimension_formula, terracini_span)
from hadamard_spaces.projective import LinSpace, PPoint, all_ones_point, line_through, pluecker
from hadamard_spaces.samplers import (hadamard_power_sampler,
                                      hadamard_product_sampler,
                                      linear_space_sampler, reciprocal_sampler,
                                      segre_sampler)


def random_space(m, n, rng, bound=40):
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n + 1)] for _ in range(m + 1)]
        try:
            return LinSpace(rows)
        except ValueError:
            continue


def test_gen_vandermonde_line_square_matches_power_matrix():
    line = LinSpace([[1, 1, 1, 1], [1, 2, 3, 4]])
    mat = gen_vandermonde([(line, 2)])
    assert mat == line_power_matrix(line, 2)


def test_gen_vandermonde_plane_square_rank():
    rng = random.Random(41)
    plane = random_space(2, 5, rng)
    mat = gen_vandermonde([(plane, 2)])
    assert mat.nrows == 6 and mat.ncols == 6
    assert mat.rank() == 6


def test_gen_vandermonde_two_lines_rank():
    rng = random.Random(42)
    entries = [(random_space(1, 3, rng), 1), (random_space(1, 3, rng), 1)]
    mat = gen_vandermonde(entries)
    assert mat.nrows == 4 and mat.rank() == 4


def test_span_dimension_formula():
    assert span_dimension_formula([(1, 2)], 3) == 2
    assert span_dimension_formula([(2, 2)], 5) == 5
    assert span_dimension_formula([(1, 5)], 3) == 3


def test_gen_vandermonde_rank_matches_formula_randomized():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(2, 9)
        entries = []
        total = 1
        for _ in range(rng.randint(1, 2)):
            m = rng.randint(1, 2)
            r = rng.randint(1, 3)
            if total * comb(m + r, r) > 40:
                continue
            total *= comb(m + r, r)
            entries.append((random_space(m, n, rng), r))
        if not entries:
            continue
        mat = gen_vandermonde(entries)
        formula = span_dimension_formula([(s.dim, r) for s, r in entries], n)
        assert mat.rank() == formula + 1


def test_identifiability_line_in_p3():
    rng = random.Random(44)
    line = random_space(1, 3, rng)
    assert identifiability_regime_bound([(1, 2)]) == 2
    assert identifiability_check(line, 2, 500, rng) is None


def test_identifiability_plane_in_p5():
    rng = random.Random(45)
    plane = random_space(2, 5, rng)
    assert identifiability_regime_bound([(2, 2)]) == 5
    assert identifiability_check(plane, 2, 300, rng) is None


def test_identifiability_warns_below_regime():
    rng = random.Random(46)
    plane = random_space(2, 3, rng)
    with pytest.warns(UserWarning):
        identifiability_check(plane, 2, 10, rng)


@pytest.mark.parametrize("r, trials, name", [(0, 10, "r"), (-1, 10, "r"), (2, -1, "trials")])
def test_identifiability_rejects_bad_arguments(r, trials, name):
    rng = random.Random(47)
    line = random_space(1, 3, rng)
    state = rng.getstate()
    with pytest.raises(ValueError, match="^%s must be" % name):
        identifiability_check(line, r, trials, rng)
    assert rng.getstate() == state


def _certified(space, r):
    return gen_vandermonde([(space, r)]).rank() == comb(space.dim + r, r)


def test_identifiability_certificate_draws_nothing():
    rng = random.Random(48)
    cases = [(1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 3, 7), (2, 2, 5), (2, 2, 7)]
    for _ in range(20):
        m, r = rng.randint(1, 3), rng.randint(1, 3)
        bound = identifiability_regime_bound([(m, r)])
        cases.append((m, r, rng.randint(bound, bound + 3)))
    for m, r, n in cases:
        space = random_space(m, n, rng)
        assert _certified(space, r)
        state = rng.getstate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert identifiability_check(space, r, 10 ** 4, rng) is None
        assert rng.getstate() == state


def test_identifiability_rank_deficient_space_is_searched():
    # In the regime, but the generators have disjoint supports, so every
    # mixed-monomial row of the Vandermonde matrix vanishes, its rank drops,
    # and the check falls through to the sampled search.
    rng = random.Random(49)
    for rows, r in [([[1, 1, 0, 0], [0, 0, 1, 1]], 2),
                    ([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]], 2),
                    ([[1, 1, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 2, 0, 0, 0]], 3)]:
        space = LinSpace(rows)
        assert space.ambient_dim >= identifiability_regime_bound([(space.dim, r)])
        assert not _certified(space, r)
        state = rng.getstate()
        identifiability_check(space, r, 5, rng)
        assert rng.getstate() != state


def test_identifiability_certificate_agrees_with_search():
    rng = random.Random(50)
    for m, r in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 2)]:
        bound = identifiability_regime_bound([(m, r)])
        for n in range(bound, bound + 2):
            space = random_space(m, n, rng)
            assert _certified(space, r)
            assert identifiability_check(space, r, 300, rng) is None
            assert products._search_collisions(space, r, 300, rng) is None


class _SmallRandom(random.Random):
    """Draws every sample coefficient from -3..3, so products collide often."""

    def randint(self, a, b):
        return super().randint(-3, 3)


def test_search_finds_exact_collision():
    line = LinSpace([[1, 0], [0, 1]])
    with pytest.warns(UserWarning):
        collision = identifiability_check(line, 2, 200, _SmallRandom(51))
    assert collision is not None
    first, second = collision
    assert first != second

    def product(points):
        out = PPoint(points[0])
        for p in points[1:]:
            out = out.hadamard(PPoint(p))
        return out

    assert product(first) == product(second)


def test_product_commutative_sanity():
    p = PPoint([1, 2, 3, 4])
    q = PPoint([5, 1, 2, 7])
    assert p.hadamard(q) == q.hadamard(p)


def test_terracini_two_lines_in_p3():
    rng = random.Random(47)
    x_line = random_space(1, 3, rng)
    y_line = random_space(1, 3, rng)
    sx, sy = linear_space_sampler(x_line), linear_space_sampler(y_line)
    p, tp = sx.sample(rng)
    q, tq = sy.sample(rng)
    assert terracini_span(p, tp, q, tq).dim == 2


def test_terracini_with_all_ones_point():
    rng = random.Random(48)
    x_line = random_space(1, 3, rng)
    p, tp = linear_space_sampler(x_line).sample(rng)
    ones = all_ones_point(3)
    ones_space = LinSpace([ones.coords])
    span = terracini_span(p, tp, ones, ones_space)
    assert span == tp


def test_terracini_precondition():
    line = LinSpace([[1, 0, 0], [0, 1, 0]])
    outside = PPoint([0, 0, 1])
    with pytest.raises(PreconditionError):
        terracini_span(outside, line, PPoint([1, 1, 1]), LinSpace([[1, 1, 1]]))


def test_terracini_ambient_mismatch():
    # A point of P^3 against one of P^2 used to be truncated by zip.
    p, tp = segre_sampler(1, 1).sample(random.Random(50))
    q = PPoint([1, 2, 3])
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        terracini_span(p, tp, q, LinSpace([q.coords]))


def test_terracini_generic_spaces_dimension_additive():
    rng = random.Random(49)
    for m1, m2, n in [(1, 1, 5), (1, 2, 7), (2, 2, 9)]:
        a = random_space(m1, n, rng)
        b = random_space(m2, n, rng)
        p, tp = linear_space_sampler(a).sample(rng)
        q, tq = linear_space_sampler(b).sample(rng)
        assert terracini_span(p, tp, q, tq).dim == m1 + m2


def test_expected_dimension():
    assert expected_dimension(5, 5, 0, 11) == 10
    assert expected_dimension(1, 1, 0, 4) == 2
    assert expected_dimension(3, 3, 3, 9) == 3


def degenerate_line_p5():
    from hadamard_spaces.linalg import QMatrix
    eqs = QMatrix([
        [2, -1, 0, 0, 0, 0],
        [0, 1, 3, 0, -1, 0],
        [0, 0, 3, -1, 0, 0],
        [0, 0, 0, 16, -12, -3],
    ])
    return LinSpace(QMatrix(eqs.nullspace()))


def test_interpolate_forms_degenerate_square():
    rng = random.Random(50)
    sampler = hadamard_power_sampler(linear_space_sampler(degenerate_line_p5()), 2)
    forms = interpolate_forms(sampler, 1, rng)
    assert len(forms) == 3
    from hadamard_spaces.poly import SparsePoly
    target = SparsePoly.linear_form([0, 0, 9, -1, 0, 0])
    # 9x2 - x3 lies in the span: eliminate by evaluation on a spanning set.
    from hadamard_spaces.linalg import QMatrix
    span_rows = [[f.terms.get(tuple(1 if j == i else 0 for j in range(6)), Fraction(0))
                  for i in range(6)] for f in forms]
    stacked = QMatrix(span_rows + [[target.terms.get(tuple(1 if j == i else 0 for j in range(6)),
                                                     Fraction(0)) for i in range(6)]])
    assert stacked.rank() == 3


def test_interpolate_forms_generic_power_hyperplane():
    rng = random.Random(51)
    n = 4
    line = random_space(1, n, rng)
    if not pluecker(line).nonvanishing():
        line = LinSpace([[1, 1, 1, 1, 1], [1, 2, 3, 4, 5]])
    sampler = hadamard_power_sampler(linear_space_sampler(line), n - 1)
    forms = interpolate_forms(sampler, 1, rng)
    assert len(forms) == 1
    assert proportional(forms[0], power_hyperplane(pluecker(line)))


def test_interpolate_forms_two_lines_no_linear_form():
    rng = random.Random(52)
    l = line_through(PPoint([2, 3, 5, 7]), PPoint([11, 13, 17, 19]))
    m = line_through(PPoint([23, 29, 31, 37]), PPoint([41, 43, 47, 53]))
    sampler = hadamard_product_sampler(linear_space_sampler(l), linear_space_sampler(m))
    assert interpolate_forms(sampler, 1, rng) == []


def test_interpolated_forms_vanish_on_fresh_samples():
    rng = random.Random(53)
    sampler = hadamard_power_sampler(linear_space_sampler(degenerate_line_p5()), 2)
    forms = interpolate_forms(sampler, 1, rng)
    for _ in range(100):
        pt = sampler.sample_point(rng)
        for form in forms:
            assert form.eval(pt.coords) == 0


def test_interpolate_hypersurface_reciprocal_plane():
    rng = random.Random(54)
    plane = random_space(2, 3, rng)
    degree, form = interpolate_hypersurface(reciprocal_sampler(plane), 4, rng)
    assert degree == 3
    for _ in range(10):
        pt = reciprocal_sampler(plane).sample_point(rng)
        assert form.eval(pt.coords) == 0


def test_interpolate_hypersurface_error_when_not_hypersurface():
    rng = random.Random(55)
    line = random_space(1, 3, rng)  # a line in P^3 is not a hypersurface
    with pytest.raises(PreconditionError):
        interpolate_hypersurface(linear_space_sampler(line), 2, rng)


def test_reciprocal_sampler_contract():
    rng = random.Random(56)
    plane = random_space(2, 4, rng)
    sampler = reciprocal_sampler(plane)
    point, tangent = sampler.sample(rng)
    assert tangent.contains(point)
    assert tangent.dim == 2
    # the inverse of the sample lies back on the plane
    inverse = PPoint([Fraction(1) / x for x in point.coords])
    assert plane.contains(inverse)


def test_segre_sampler_contract():
    rng = random.Random(57)
    sampler = segre_sampler(2, 3)
    point, tangent = sampler.sample(rng)
    assert sampler.ambient_dim == 11
    assert tangent.contains(point)
    assert tangent.dim == 2 + 3
    # coordinates form a rank-1 matrix: all 2x2 minors vanish
    rows = [point.coords[4 * i:4 * i + 4] for i in range(3)]
    for i in range(2):
        for j in range(4):
            for k in range(j + 1, 4):
                assert rows[i][j] * rows[i + 1][k] == rows[i][k] * rows[i + 1][j]


def test_product_sampler_tangent_contains_point():
    rng = random.Random(58)
    a = random_space(1, 4, rng)
    b = random_space(1, 4, rng)
    sampler = hadamard_product_sampler(linear_space_sampler(a), linear_space_sampler(b))
    point, tangent = sampler.sample(rng)
    assert tangent.contains(point)


def test_sample_point_is_the_point_of_sample(monkeypatch):
    rng = random.Random(59)
    line, other = random_space(1, 3, rng), random_space(1, 3, rng)
    plane = random_space(2, 3, rng)
    linear = linear_space_sampler(line)
    recip = reciprocal_sampler(plane)
    segre = segre_sampler(1, 1)
    samplers = [
        linear, recip, segre, segre_sampler(2, 3),
        hadamard_product_sampler(linear, recip),
        hadamard_product_sampler(segre, linear_space_sampler(other)),
        hadamard_power_sampler(linear, 3),
        hadamard_power_sampler(hadamard_product_sampler(linear, recip), 2),
        hadamard_product_sampler(hadamard_power_sampler(recip, 2), segre),
    ]
    seeds = range(4)
    expected = {}
    for i, sampler in enumerate(samplers):
        for seed in seeds:
            full = random.Random(seed)
            expected[i, seed] = sampler.sample(full)[0].coords, full.getstate()

    def no_span(*args):
        raise AssertionError("sample_point built a tangent span")

    # The point-only draw builds no span, and takes the same random values.
    monkeypatch.setattr(LinSpace, "span_of", no_span)
    for i, sampler in enumerate(samplers):
        for seed in seeds:
            light = random.Random(seed)
            assert (sampler.sample_point(light).coords, light.getstate()) == expected[i, seed]
