import random
import warnings
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from hadamard_spaces.line_powers import line_power_matrix, power_hyperplane
from hadamard_spaces.linalg import (LIFT_BUDGET, BudgetExhausted, PreconditionError,
                                    bareiss_steps, integer_rank, primitive_ints)
from hadamard_spaces import cli, products, samplers
from hadamard_spaces.papersuite import random_space
from hadamard_spaces.poly import proportional
from hadamard_spaces.products import (expected_dimension, gen_vandermonde,
                                      identifiability_check,
                                      identifiability_regime_bound,
                                      interpolate_forms, interpolate_hypersurface,
                                      span_dimension_formula, terracini_dim,
                                      terracini_span)
from hadamard_spaces.projective import (SAMPLE_COEFF_BOUND, LinSpace, PPoint, all_ones_point,
                                        line_through, pluecker)
from hadamard_spaces.samplers import (hadamard_power_sampler,
                                      hadamard_product_sampler,
                                      linear_space_sampler, reciprocal_sampler,
                                      segre_sampler)


def clear_denominators(vec):
    """A rational vector times the lcm of its denominators, as coprime
    integers with the first nonzero entry positive."""
    vec = [Fraction(x) for x in vec]
    mult = lcm(*(x.denominator for x in vec))
    return primitive_ints([x.numerator * (mult // x.denominator) for x in vec])


def test_gen_vandermonde_line_square_matches_power_matrix():
    line = LinSpace([[1, 1, 1, 1], [1, 2, 3, 4]])
    mat = gen_vandermonde([(line, 2)])
    assert mat == line_power_matrix(line, 2)


def test_gen_vandermonde_plane_square_rank():
    rng = random.Random(41)
    plane = random_space(2, 5, rng)
    mat = gen_vandermonde([(plane, 2)])
    assert mat.nrows == 6 and mat.ncols == 6
    assert integer_rank(mat.ints) == 6


def test_gen_vandermonde_two_lines_rank():
    rng = random.Random(42)
    entries = [(random_space(1, 3, rng), 1), (random_space(1, 3, rng), 1)]
    mat = gen_vandermonde(entries)
    assert mat.nrows == 4 and integer_rank(mat.ints) == 4


def test_span_dimension_formula():
    assert span_dimension_formula([(1, 2)], 3) == 2
    assert span_dimension_formula([(2, 2)], 5) == 5
    assert span_dimension_formula([(1, 5)], 3) == 3


def _drawn_charge(dims, n):
    """What `span-dim` charges for spaces drawn by `dims` in P^n."""
    payload = {"dims": [list(pair) for pair in dims], "n": n}
    return cli.span_dim_charge(cli.read_payload("span-dim", payload, None))


def test_span_dim_work_limit_boundary():
    budget = LIFT_BUDGET
    # A line in P^n, two rows: the budget passes about P^1,800,000; the
    # line in P^735,293 took 1.5-2.1 s (321 MiB), in P^10^8 it is refused.
    assert _drawn_charge([(1, 1)], 735293) < budget < _drawn_charge([(1, 1)], 10 ** 8)
    # A 2,925 x 11 matrix of rank 11 with r = 24 (1.3 s) passes, r = 40 not.
    assert _drawn_charge([(3, 24)], 10) < budget < _drawn_charge([(3, 40)], 10)
    # Six rows in P^166,665 (1.9 s) and 56 in P^30 (2.2 s) are past it.
    assert _drawn_charge([(5, 1)], 166665) > budget
    assert _drawn_charge([(1, 55)], 30) > budget
    # The benchmark's and the README's span payloads, and a point factor.
    for dims, n in [([(1, 2)], 3), ([(1, 2), (1, 1)], 5), ([(2, 2)], 5), ([(1, 3)], 4),
                    ([(1, 1), (1, 1)], 6), ([(1, 1), (1, 1)], 3), ([(0, 1000)], 1)]:
        assert _drawn_charge(dims, n) < budget // 100


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
        assert integer_rank(mat.ints) == formula + 1


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
    return integer_rank(gen_vandermonde([(space, r)]).ints) == comb(space.dim + r, r)


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


def _product(points):
    out = PPoint(points[0])
    for p in points[1:]:
        out = out.hadamard(PPoint(p))
    return out


def _assert_collision(space, r, collision):
    """Two distinct sorted r-tuples of canonical points of the space with
    equal Hadamard products."""
    first, second = collision
    assert first != second
    for points in collision:
        assert len(points) == r and list(points) == sorted(points)
        assert all(space.contains(PPoint(p)) and PPoint(p).canonical() == p for p in points)
    assert _product(first) == _product(second)


def test_identifiability_rank_deficient_space_is_searched():
    # In the regime, but the generators have disjoint supports, so every
    # mixed-monomial row of the Vandermonde matrix vanishes, its rank drops,
    # and the check falls through: to the constructed collision for a line,
    # drawing nothing, and to the sampled search above it.
    rng = random.Random(49)
    for rows, r in [([[1, 1, 0, 0], [0, 0, 1, 1]], 2),
                    ([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]], 2),
                    ([[1, 1, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 2, 0, 0, 0]], 3)]:
        space = LinSpace(rows)
        assert space.ambient_dim >= identifiability_regime_bound([(space.dim, r)])
        assert not _certified(space, r)
        state = rng.getstate()
        result = identifiability_check(space, r, 5, rng)
        if space.dim == 1:
            _assert_collision(space, r, result)
        assert (rng.getstate() != state) == (space.dim > 1)


def test_line_below_full_rank_gets_an_exact_collision():
    # At the regime bound, no warning, rank 3 of 4, and 2,000 sampled trials
    # found no collision: g0 (g0 - g1) (g0 + g1) and g0 g0 (g0 - g1) both
    # have the product [1 : 8 : 0 : 0].
    line = LinSpace([[1, 2, 0, 1], [0, 0, 1, 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        collision = identifiability_check(line, 3, 0, None)
    _assert_collision(line, 3, collision)
    assert _product(collision[0]) == PPoint([1, 8, 0, 0])
    assert set(collision) == {((1, 2, -1, 0), (1, 2, 0, 1), (1, 2, 1, 2)),
                              ((1, 2, -1, 0), (1, 2, 0, 1), (1, 2, 0, 1))}
    # Fuzzed lines with zero, repeated and scaled columns, at every r >= c.
    rng = random.Random(52)
    made = 0
    while made < 200:
        n = rng.randint(1, 6)
        classes = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(2, n + 1))]
        cols = [rng.choice(classes + [(0, 0)]) for _ in range(n + 1)]
        cols = [(a * k, b * k) for (a, b), k in zip(cols, (rng.choice([1, -2, 3]) for _ in cols))]
        try:
            line = LinSpace([[a for a, _ in cols], [b for _, b in cols]])
        except ValueError:  # dependent rows: not a line
            continue
        c = len(products.column_points(line))
        r = rng.randint(c, c + 2)
        assert not _certified(line, r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _assert_collision(line, r, identifiability_check(line, r, 0, None))
        assert _certified(line, c - 1) and identifiability_check(line, c - 1, 0, None) is None
        made += 1


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
    _assert_collision(line, 2, products._search_collisions(line, 2, 200, _SmallRandom(51)))


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


def test_terracini_rank_pays_for_the_steps_it_takes():
    # A Segre variety with itself: 2 (a + b + 1) rows of rank a + b + 1, so
    # the pass takes about half the steps that the whole pass prices.
    sampler = segre_sampler(1, 6)
    rng = random.Random(51)
    (p, tp), (q, tq) = sampler.sample(rng), sampler.sample(rng)
    budget = [LIFT_BUDGET]
    assert terracini_dim(p, tp, q, tq, budget) == 7
    steps = list(bareiss_steps(*products.terracini_pass(p, tp, q, tq)))
    assert len(steps) == 14
    assert LIFT_BUDGET - budget[0] == sum(steps[:8]) < sum(steps)
    with pytest.raises(BudgetExhausted, match="^the Terracini span in P\\^13 is past"):
        terracini_dim(p, tp, q, tq, [sum(steps[:7])])


def test_terracini_generic_spaces_dimension_additive():
    rng = random.Random(49)
    for m1, m2, n in [(1, 1, 5), (1, 2, 7), (2, 2, 9)]:
        a = random_space(m1, n, rng)
        b = random_space(m2, n, rng)
        p, tp = linear_space_sampler(a).sample(rng)
        q, tq = linear_space_sampler(b).sample(rng)
        assert terracini_span(p, tp, q, tq).dim == m1 + m2


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["linear", "reciprocal", "segre", "product"]),
       st.sampled_from(["linear", "reciprocal", "segre", "product"]))
def test_terracini_dim_is_the_span_dimension(seed, kind_x, kind_y):
    rng = random.Random(seed)
    n = 5

    def sampler(kind):
        if kind == "segre":
            return segre_sampler(1, 2)
        space = random_space(rng.randint(0, 2), n, rng)
        if kind == "product":
            return hadamard_product_sampler(linear_space_sampler(space),
                                            reciprocal_sampler(random_space(1, n, rng)))
        return (reciprocal_sampler if kind == "reciprocal" else linear_space_sampler)(space)

    p, tp = sampler(kind_x).sample(rng)
    q, tq = sampler(kind_y).sample(rng)
    assert terracini_dim(p, tp, q, tq) == terracini_span(p, tp, q, tq).dim


def test_terracini_dim_keeps_the_span_checks():
    line = LinSpace([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(PreconditionError, match="first point"):
        terracini_dim(PPoint([0, 0, 1]), line, PPoint([1, 1, 1]), LinSpace([[1, 1, 1]]))
    with pytest.raises(PreconditionError, match="second point"):
        terracini_dim(PPoint([1, 1, 1]), LinSpace([[1, 1, 1]]), PPoint([0, 0, 1]), line)
    p, tp = segre_sampler(1, 1).sample(random.Random(50))
    q = PPoint([1, 2, 3])
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        terracini_dim(p, tp, q, LinSpace([q.coords]))
    # Disjoint supports: every row vanishes.
    with pytest.raises(PreconditionError, match="collapsed"):
        terracini_dim(PPoint([1, 0]), LinSpace([[1, 0]]), PPoint([0, 1]), LinSpace([[0, 1]]))
    with pytest.raises(PreconditionError, match="collapsed"):
        terracini_span(PPoint([1, 0]), LinSpace([[1, 0]]), PPoint([0, 1]), LinSpace([[0, 1]]))


def test_segre_past_the_ambient_limit_is_refused_before_it_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(samplers, "_segre_factors", lambda a, b: built.append((a, b)) or ())
    limit = samplers.SEGRE_AMBIENT_LIMIT
    segre_sampler(1, 99)  # P^199
    segre_sampler(2, 66)  # P^200
    assert built == [(1, 99), (2, 66)] and limit == 200
    for a, b in ((1, 100), (2, 1000), (10 ** 9, 10 ** 9)):
        with pytest.raises(BudgetExhausted, match=r"past the limit of P\^%d" % limit):
            segre_sampler(a, b)
    assert len(built) == 2


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
    return LinSpace(eqs.nullspace())


def test_interpolate_forms_degenerate_square():
    sampler = hadamard_power_sampler(linear_space_sampler(degenerate_line_p5()), 2)
    forms = interpolate_forms(sampler, 1)
    assert len(forms) == 3
    from hadamard_spaces.poly import SparsePoly
    target = SparsePoly.linear_form([0, 0, 9, -1, 0, 0])
    # 9x2 - x3 lies in the span: eliminate by evaluation on a spanning set.
    from hadamard_spaces.linalg import QMatrix
    span_rows = [[f.terms.get(tuple(1 if j == i else 0 for j in range(6)), Fraction(0))
                  for i in range(6)] for f in forms]
    stacked = QMatrix(span_rows + [[target.terms.get(tuple(1 if j == i else 0 for j in range(6)),
                                                     Fraction(0)) for i in range(6)]])
    assert integer_rank(stacked.ints) == 3


def test_interpolate_forms_generic_power_hyperplane():
    rng = random.Random(51)
    n = 4
    line = random_space(1, n, rng)
    if not pluecker(line).nonvanishing():
        line = LinSpace([[1, 1, 1, 1, 1], [1, 2, 3, 4, 5]])
    sampler = hadamard_power_sampler(linear_space_sampler(line), n - 1)
    forms = interpolate_forms(sampler, 1)
    assert len(forms) == 1
    assert proportional(forms[0], power_hyperplane(pluecker(line)))


def test_interpolate_forms_two_lines_no_linear_form():
    l = line_through(PPoint([2, 3, 5, 7]), PPoint([11, 13, 17, 19]))
    m = line_through(PPoint([23, 29, 31, 37]), PPoint([41, 43, 47, 53]))
    sampler = hadamard_product_sampler(linear_space_sampler(l), linear_space_sampler(m))
    assert interpolate_forms(sampler, 1) == []


def test_interpolated_forms_vanish_on_fresh_samples():
    rng = random.Random(53)
    sampler = hadamard_power_sampler(linear_space_sampler(degenerate_line_p5()), 2)
    forms = interpolate_forms(sampler, 1)
    for _ in range(100):
        pt = sampler.sample_point(rng)
        for form in forms:
            assert form.eval(pt.coords) == 0


def test_interpolate_hypersurface_reciprocal_plane():
    rng = random.Random(54)
    plane = random_space(2, 3, rng)
    degree, form = interpolate_hypersurface(reciprocal_sampler(plane), 4)
    assert degree == 3
    for _ in range(10):
        pt = reciprocal_sampler(plane).sample_point(rng)
        assert form.eval(pt.coords) == 0


def test_interpolate_hypersurface_error_when_not_hypersurface():
    rng = random.Random(55)
    line = random_space(1, 3, rng)  # a line in P^3 is not a hypersurface
    with pytest.raises(PreconditionError):
        interpolate_hypersurface(linear_space_sampler(line), 2)


def test_grid_row_counts_match_the_formula():
    # binom(L + r - 1, r) multisets of each distinct factor's L = binom(D + m, m)
    # lattice points: 55 = binom(11, 2) for the squared plane at degree 3
    # (L = 10) and for the reciprocal plane in P^3 (D = 9, L = 55).
    plane = LinSpace([[3, 1, 4, 1, 5, 9], [2, 6, 5, 3, 5, 8], [9, 7, 9, 3, 2, 3]])
    squared = hadamard_power_sampler(linear_space_sampler(plane), 2)
    same_plane_twice = hadamard_product_sampler(linear_space_sampler(plane),
                                                linear_space_sampler(LinSpace(plane.generators)))
    line_a = LinSpace([[1, 2, 3, 4], [1, 3, 7, 13]])
    line_b = LinSpace([[3, 1, 4, 1], [2, 7, 1, 8]])
    cases = [
        (squared, 1, 6), (squared, 2, 21), (squared, 3, 55), (same_plane_twice, 3, 55),
        (reciprocal_sampler(LinSpace([[1, 2, 3, 4], [1, 3, 7, 13], [2, 1, 5, 3]])), 3, 55),
        (hadamard_product_sampler(linear_space_sampler(line_a), linear_space_sampler(line_b)), 2, 9),
        (hadamard_product_sampler(linear_space_sampler(line_a), reciprocal_sampler(line_b)), 2, 21),
    ]
    for sampler, d, rows in cases:
        assert products.interpolation_grid_size(sampler, d) == rows
        assert len(products.interpolation_grid(sampler, d)) == rows
    # Zero and repeated points are dropped: the reciprocal line's parameter
    # (1, 0) gives a = (1, 0, 0), with two zero coordinates, and so the zero
    # point; a power of a point has one multiset.
    recip_line = reciprocal_sampler(LinSpace([[1, 0, 0], [0, 1, 1]]))
    assert products.interpolation_grid_size(recip_line, 1) == 3
    assert products.interpolation_grid(recip_line, 1) == [(1, 1, 1), (4, 2, 2)]
    # A point with a zero coordinate is made primitive first: the reciprocal
    # line's e_1 times the line's (1, 1, 1) and (2, 3, 4) is one point.
    mixed = hadamard_product_sampler(reciprocal_sampler(LinSpace([[1, 0, 1], [0, 1, 1]])),
                                     linear_space_sampler(LinSpace([[1, 1, 1], [1, 2, 3]])))
    assert products.interpolation_grid_size(mixed, 1) == 6
    grid = products.interpolation_grid(mixed, 1)
    assert len(grid) == 5 and grid.count((0, 1, 0)) == 1
    point_cubed = hadamard_power_sampler(linear_space_sampler(LinSpace([[1, 2, 3]])), 3)
    assert products.interpolation_grid_size(point_cubed, 2) == 1
    assert products.interpolation_grid(point_cubed, 2) == [(1, 8, 27)]


def test_interpolation_past_the_monomial_budget_draws_nothing():
    rng = random.Random(56)
    sampler = linear_space_sampler(random_space(1, 11, rng))
    state = rng.getstate()
    with pytest.raises(BudgetExhausted, match=r"degree 5 in P\^11 has 4368 monomials"):
        interpolate_forms(sampler, 5)
    assert rng.getstate() == state


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


def _fraction_space_point(space, rng, avoid_delta=None):
    """Oracle: a point of the space combined from its Fraction generator
    rows, with the draws and redraws of `projective.sample_point`."""
    gens = space.generators
    while True:
        coeffs = [rng.randint(-SAMPLE_COEFF_BOUND, SAMPLE_COEFF_BOUND) for _ in range(gens.nrows)]
        coords = [sum(c * row[j] for c, row in zip(coeffs, gens.rows)) for j in range(gens.ncols)]
        if any(coords) and (avoid_delta is None or sum(map(bool, coords)) - 1 > avoid_delta):
            return coords


def _segre_spaces(a, b):
    """The (a+1) x (b+1) matrices u 1^T and 1 v^T, flattened row-major."""
    rows = [[Fraction(i == k) for k in range(a + 1) for _ in range(b + 1)] for i in range(a + 1)]
    columns = [[Fraction(j == l) for _ in range(a + 1) for l in range(b + 1)] for j in range(b + 1)]
    return LinSpace(rows), LinSpace(columns)


def _fraction_point(spec, rng):
    """Oracle: the coordinates of the sampler built from `spec`, in
    Fractions, drawing the same random values as the package's sampler."""
    kind = spec[0]
    if kind == "linear":
        return _fraction_space_point(spec[1], rng)
    if kind == "reciprocal":
        base = _fraction_space_point(spec[1], rng, avoid_delta=spec[1].ambient_dim - 1)
        return [Fraction(1) / x for x in base]
    if kind == "segre":
        rows, columns = _segre_spaces(spec[1], spec[2])
        u_ones, ones_v = _fraction_space_point(rows, rng), _fraction_space_point(columns, rng)
        return [x * y for x, y in zip(u_ones, ones_v)]
    while True:
        p, q = _fraction_point(spec[1], rng), _fraction_point(spec[2], rng)
        coords = [a * b for a, b in zip(p, q)]
        if any(coords):
            return coords


def _sampler_of(spec):
    kind = spec[0]
    if kind == "linear":
        return linear_space_sampler(spec[1])
    if kind == "reciprocal":
        return reciprocal_sampler(spec[1])
    if kind == "segre":
        return segre_sampler(spec[1], spec[2])
    return hadamard_product_sampler(_sampler_of(spec[1]), _sampler_of(spec[2]))


def test_integer_first_points_match_the_fraction_route():
    # The samplers of test_sample_point_is_the_point_of_sample (a power is
    # a chain of products) over integer generators and over generators with
    # denominators, so the spaces' common lcm is not always 1.
    rng = random.Random(60)
    for scaled in (False, True):
        line, other = random_space(1, 3, rng), random_space(1, 3, rng)
        plane = random_space(2, 3, rng)
        if scaled:
            line, other, plane = (LinSpace([[x / rng.randint(1, 9) for x in row]
                                            for row in space.generators.rows])
                                  for space in (line, other, plane))
        linear, recip, segre = ("linear", line), ("reciprocal", plane), ("segre", 1, 1)
        specs = [
            linear, recip, segre, ("segre", 2, 3),
            ("product", linear, recip),
            ("product", segre, ("linear", other)),
            ("product", ("product", linear, linear), linear),
            ("product", ("product", linear, recip), ("product", linear, recip)),
            ("product", ("product", recip, recip), segre),
        ]
        for spec in specs:
            sampler = _sampler_of(spec)
            for seed in range(4):
                oracle, light, full = (random.Random(seed) for _ in range(3))
                key = clear_denominators(_fraction_point(spec, oracle))
                for point in (sampler.sample_point(light), sampler.sample(full)[0]):
                    assert point.canonical() == key, spec
                    assert not any(isinstance(x, float) for x in point.coords)
                assert light.getstate() == full.getstate() == oracle.getstate()


def _former_sample(spec, rng):
    """Oracle: the point and tangent of the sampler built from `spec` by the
    per-sampler tangent formulas the factor model replaced, drawing the same
    random values: span(1/a, g/a^2) for a reciprocal, span(e_i v^T, u e_j^T)
    for a Segre variety, pairwise Terracini spans for products."""
    kind = spec[0]
    if kind == "linear":
        return _fraction_space_point(spec[1], rng), spec[1]
    if kind == "reciprocal":
        space = spec[1]
        a = _fraction_space_point(space, rng, avoid_delta=space.ambient_dim - 1)
        rows = [[1 / x for x in a]]
        rows += [[g / (x * x) for g, x in zip(row, a)] for row in space.generators.rows]
        return rows[0], LinSpace.span_of(rows)
    if kind == "segre":
        a, b = spec[1], spec[2]
        rows, columns = _segre_spaces(a, b)
        u = _fraction_space_point(rows, rng)[::b + 1]
        v = _fraction_space_point(columns, rng)[:b + 1]
        tangent = [[vj if k == i else 0 for k in range(a + 1) for vj in v] for i in range(a + 1)]
        tangent += [[ui if l == j else 0 for ui in u for l in range(b + 1)] for j in range(b + 1)]
        return [ui * vj for ui in u for vj in v], LinSpace.span_of(tangent)
    while True:
        (p, tp), (q, tq) = _former_sample(spec[1], rng), _former_sample(spec[2], rng)
        coords = [x * y for x, y in zip(p, q)]
        if any(coords):
            rows = [[x * g for x, g in zip(p, row)] for row in tq.generators.rows]
            rows += [[y * g for y, g in zip(q, row)] for row in tp.generators.rows]
            return coords, LinSpace.span_of(rows)


def test_tangents_match_the_former_formulas():
    rng = random.Random(61)
    line, other = random_space(1, 3, rng), random_space(1, 3, rng)
    plane = random_space(2, 3, rng)
    linear, recip, segre = ("linear", line), ("reciprocal", plane), ("segre", 1, 1)
    specs = [
        linear, recip, segre, ("segre", 2, 3),
        ("product", ("product", linear, recip), ("linear", other)),
        ("product", linear, ("product", recip, segre)),
        ("product", ("product", linear, recip), ("product", segre, recip)),
    ]
    cases = [(spec, _sampler_of(spec)) for spec in specs]
    # A power is the left-nested chain of products of its base.
    cases += [
        (("product", ("product", linear, linear), linear),
         hadamard_power_sampler(linear_space_sampler(line), 3)),
        (("product", recip, recip), hadamard_power_sampler(reciprocal_sampler(plane), 2)),
        (("product", segre, segre), hadamard_power_sampler(segre_sampler(1, 1), 2)),
    ]
    for spec, sampler in cases:
        for seed in range(4):
            oracle, full = random.Random(seed), random.Random(seed)
            coords, former = _former_sample(spec, oracle)
            point, tangent = sampler.sample(full)
            assert point.canonical() == clear_denominators(coords), spec
            assert tangent == former, spec
            assert full.getstate() == oracle.getstate()
