import random
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest

from hadamard_spaces.linalg import PreconditionError, QMatrix, integer_rank
from hadamard_spaces.line_powers import (line_power_matrix, line_power_minor, line_power_pluecker,
                                         power_hyperplane, power_linear_equations,
                                         sampled_power_span)
from hadamard_spaces.papersuite import random_space
from hadamard_spaces.poly import SparsePoly, proportional
from hadamard_spaces.projective import LinSpace, PPoint, line_through, pluecker, sample_point

TEST_LINE = line_through(PPoint([1, 1, 1]), PPoint([1, 2, 3]))


def test_power_matrix_r1_is_line():
    assert line_power_matrix(TEST_LINE, 1) == TEST_LINE.generators


def test_power_matrix_squares():
    mat = line_power_matrix(TEST_LINE, 2)
    assert mat.rows == QMatrix([[1, 1, 1], [1, 2, 3], [1, 4, 9]]).rows


def test_power_matrix_rank_generic():
    rng = random.Random(20)
    for n in (2, 3, 5):
        line = random_space(1, n, rng, 30)
        if not pluecker(line).nonvanishing():
            continue
        for r in (1, 2, n, n + 2):
            assert integer_rank(line_power_matrix(line, r).ints) == min(r, n) + 1


def test_power_matrix_requires_line():
    plane = LinSpace([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(PreconditionError):
        line_power_matrix(plane, 2)


def test_power_pluecker_formula():
    pl = pluecker(TEST_LINE)
    assert line_power_pluecker(pl, 2, (0, 1, 2)) == 2
    assert line_power_matrix(TEST_LINE, 2).det() == 2


def test_power_pluecker_r1_is_bracket():
    pl = pluecker(TEST_LINE)
    assert line_power_pluecker(pl, 1, (0, 2)) == pl.entries[(0, 2)]


def test_power_pluecker_zero_bracket_kills_product():
    degenerate = LinSpace([[1, 0, 0, 1], [0, 0, 1, 1]])  # bracket [0,1] = 0
    pl = pluecker(degenerate)
    assert pl.entries[(0, 1)] == 0
    assert line_power_pluecker(pl, 2, (0, 1, 2)) == 0


def test_power_pluecker_index_range():
    pl = pluecker(TEST_LINE)
    with pytest.raises(IndexError):
        line_power_pluecker(pl, 2, (0, 1, 7))


def test_power_pluecker_equals_all_minors():
    rng = random.Random(21)
    for n in (3, 4):
        line = random_space(1, n, rng, 30)
        pl = pluecker(line)
        for r in range(1, n):
            mat = line_power_matrix(line, r)
            for cols in combinations(range(n + 1), r + 1):
                assert mat.submatrix_columns(cols).det() == line_power_pluecker(pl, r, cols)


def _fraction_power_pluecker(pl, r, indices):
    """Reference: the product of pairwise brackets in Fractions."""
    return prod(map(pl.bracket, combinations(indices, 2)), start=Fraction(1))


def test_power_pluecker_in_integers_matches_fraction_product():
    rng = random.Random(22)
    for n in (3, 4, 5, 6):
        for _ in range(4):
            rows = [[Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n + 1)]
                    for _ in range(2)]
            pl = pluecker(LinSpace(rows))
            for r in range(1, n + 1):
                for cols in combinations(range(n + 1), r + 1):
                    value = line_power_pluecker(pl, r, cols)
                    assert type(value) is Fraction
                    assert value == _fraction_power_pluecker(pl, r, cols)
                # Unsorted and repeated indices: the signed bracket product.
                cols = rng.sample(range(n + 1), r + 1)
                assert line_power_pluecker(pl, r, cols) == _fraction_power_pluecker(pl, r, cols)
                cols[-1] = cols[0]
                assert line_power_pluecker(pl, r, cols) == 0 == _fraction_power_pluecker(pl, r, cols)


def test_power_hyperplane_n2_recovers_line_equation():
    pl = pluecker(TEST_LINE)
    form = power_hyperplane(pl)
    assert form == SparsePoly.linear_form([1, -2, 1])


def test_power_hyperplane_vanishes_on_sampled_products():
    rng = random.Random(22)
    n = 4
    line = random_space(1, n, rng, 30)
    form = power_hyperplane(pluecker(line))
    for _ in range(10):
        prod = None
        for _ in range(n - 1):
            pt = sample_point(line, rng)
            prod = pt if prod is None else prod.hadamard(pt)
        assert form.eval(prod.coords) == 0


def power_minors(pl, r):
    """The (r+1)-minors of a line's power matrix, as the CLI computes them."""
    return {cols: line_power_minor(pl, r, cols)
            for cols in combinations(range(pl.ambient_dim + 1), r + 1)}


def test_power_linear_equations_count_and_vanishing():
    rng = random.Random(23)
    n = 5
    line = random_space(1, n, rng, 30)
    for r in (1, 2, 3):
        equations = power_linear_equations(n, r, power_minors(pluecker(line), r))
        assert len(equations) == comb(n + 1, r + 2)
        mat = line_power_matrix(line, r)
        for form in equations:
            for row in mat.rows:
                assert form.eval(row) == 0


def determinant_equations(line, r):
    """power_linear_equations with a determinant per minor, as first written."""
    n = line.ambient_dim
    mat = line_power_matrix(line, r)
    equations = []
    for cols in combinations(range(n + 1), r + 2):
        form = SparsePoly.zero(n + 1)
        for t, i in enumerate(cols):
            minor = mat.submatrix_columns(cols[:t] + cols[t + 1:]).det()
            form = form + SparsePoly.variable(n + 1, i, (-1) ** (r + 1 + t) * minor)
        equations.append(form.primitive())
    return equations


def test_power_linear_equations_match_determinants():
    """Degenerate lines and Fraction entries included: the bracket product
    equals the minor for every line."""
    rng = random.Random(29)
    degenerate = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n + 1)]
                for _ in range(2)]
        try:
            line = LinSpace(rows)
        except ValueError:
            continue
        pl = pluecker(line)
        degenerate += not pl.nonvanishing()
        for r in range(1, n):
            assert ([f.to_json() for f in power_linear_equations(n, r, power_minors(pl, r))]
                    == [f.to_json() for f in determinant_equations(line, r)])
    assert degenerate >= 5


def test_power_linear_equations_last_is_hyperplane():
    rng = random.Random(24)
    line = random_space(1, 4, rng, 30)
    (only,) = power_linear_equations(4, 3, power_minors(pluecker(line), 3))
    assert proportional(only, power_hyperplane(pluecker(line)))


def test_power_linear_equations_range():
    with pytest.raises(PreconditionError):
        power_linear_equations(2, 2, power_minors(pluecker(TEST_LINE), 2))  # r must stay below n = 2


def test_sampled_span_matches_matrix_route():
    rng = random.Random(25)
    for n, r in [(3, 2), (4, 3), (3, 5)]:
        line = random_space(1, n, rng, 30)
        if not pluecker(line).nonvanishing():
            continue
        span = sampled_power_span(line, r)
        assert span == LinSpace.span_of(line_power_matrix(line, r))


def degenerate_line_p5():
    eqs = QMatrix([
        [2, -1, 0, 0, 0, 0],
        [0, 1, 3, 0, -1, 0],
        [0, 0, 3, -1, 0, 0],
        [0, 0, 0, 16, -12, -3],
    ])
    return LinSpace(eqs.nullspace())


#: The degenerate `line-power` payload of the README: brackets [0,1] and
#: [2,3] vanish.
README_DEGENERATE_LINE = LinSpace([[1, 2, 0, 0, 2, -8], [0, 0, 1, 3, 3, 4]])


def test_degenerate_power_is_the_power_matrix_row_space():
    rng = random.Random(29)
    cases = [(degenerate_line_p5(), r) for r in (2, 3, 4, 5)] + [(README_DEGENERATE_LINE, 3)]
    for line, r in cases:
        assert not pluecker(line).nonvanishing()
        span = sampled_power_span(line, r)
        assert span == LinSpace.span_of(line_power_matrix(line, r))
        for _ in range(5):
            product = sample_point(line, rng)
            for _ in range(r - 1):
                product = product.hadamard(sample_point(line, rng))
                if product is None:  # the zero vector: no point
                    break
            assert product is None or span.contains(product)


def test_degenerate_line_square_equations():
    line = degenerate_line_p5()
    span = sampled_power_span(line, 2)
    assert span.dim == 2
    form = SparsePoly.linear_form([0, 0, 9, -1, 0, 0])
    assert all(form.eval(row) == 0 for row in span.generators.rows)


def test_degenerate_line_cube_equations_and_dim():
    line = degenerate_line_p5()
    span = sampled_power_span(line, 3)
    assert span.dim == 3
    for coeffs in ([0, 0, 27, -1, 0, 0], [8, -1, 0, 0, 0, 0]):
        form = SparsePoly.linear_form(coeffs)
        assert all(form.eval(row) == 0 for row in span.generators.rows)


def test_sampled_products_lie_in_power_matrix_row_space():
    rng = random.Random(28)
    n, r = 4, 3
    line = random_space(1, n, rng, 30)
    if not pluecker(line).nonvanishing():
        line = LinSpace([[1, 1, 1, 1, 1], [1, 2, 3, 4, 5]])
    power = LinSpace.span_of(line_power_matrix(line, r))
    for _ in range(10):
        prod = None
        for _ in range(r):
            pt = sample_point(line, rng)
            prod = pt if prod is None else prod.hadamard(pt)
        assert power.contains(prod)
