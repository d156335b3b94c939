import random
from fractions import Fraction
from math import comb

import pytest

from hadamard_spaces.poly import (SparsePoly, monomial_products, monomials_of_degree,
                                  proportional)


def x(i, n=2):
    return SparsePoly.variable(n, i)


def test_difference_of_squares():
    f = (x(0) + x(1)) * (x(0) - x(1))
    assert f == x(0) * x(0) - x(1) * x(1)


def test_eval():
    f = x(0) * x(0) - x(1) * x(1)
    assert f.eval([3, 2]) == 5


def test_mul_by_zero_empties_terms():
    f = x(0) + x(1)
    z = f * SparsePoly.zero(2)
    assert z.is_zero() and z.terms == {}


def test_zero_iff_empty_term_map():
    assert SparsePoly(3, {(0, 0, 0): 0}).is_zero()
    assert not SparsePoly(3, {(1, 0, 0): "1/2"}).is_zero()


def random_poly(rng, nvars=3, nterms=4, deg=3):
    terms = {}
    for _ in range(nterms):
        expo = tuple(rng.randint(0, deg) for _ in range(nvars))
        terms[expo] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return SparsePoly(nvars, terms)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(30):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        assert f * g == g * f
        assert (f - f).is_zero()


def test_arithmetic_results_pass_the_constructor_checks():
    # The arithmetic skips the constructor's checks: its terms must already
    # be nvars-tuples of ints with nonzero Fraction coefficients.
    rng = random.Random(13)
    for _ in range(30):
        f, g = random_poly(rng), random_poly(rng)
        for result in (f + g, f - g, -f, f * g, f.scale("-2/3"), (f * g).primitive(), f + (-f)):
            assert result == SparsePoly(result.nvars, result.terms)
            assert all(len(e) == result.nvars and all(type(v) is int for v in e)
                       and type(c) is Fraction and c for e, c in result.terms.items())


def test_eval_is_ring_hom():
    rng = random.Random(12)
    for _ in range(20):
        f, g = random_poly(rng), random_poly(rng)
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
        assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt)
        assert (f + g).eval(pt) == f.eval(pt) + g.eval(pt)


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        SparsePoly.variable(2, 0) + SparsePoly.variable(3, 0)
    with pytest.raises(ValueError):
        SparsePoly.variable(2, 0).eval([1, 2, 3])


def test_primitive():
    f = SparsePoly(2, {(1, 0): "-2/3", (0, 1): "-4/3"})
    g = f.primitive()
    assert g.terms == {(1, 0): Fraction(1), (0, 1): Fraction(2)}
    assert proportional(f, g)
    assert SparsePoly.zero(2).primitive().is_zero()


def test_proportional():
    f = SparsePoly(2, {(1, 0): 2, (0, 1): 4})
    g = SparsePoly(2, {(1, 0): -1, (0, 1): -2})
    h = SparsePoly(2, {(1, 0): 1, (0, 1): 3})
    assert proportional(f, g)
    assert not proportional(f, h)
    assert proportional(SparsePoly.zero(2), SparsePoly.zero(2))
    assert not proportional(f, SparsePoly.zero(2))


def test_monomials_of_degree():
    for n, d in [(1, 3), (3, 2), (4, 3), (6, 3)]:
        monos = monomials_of_degree(n, d)
        assert len(monos) == comb(n + d - 1, d)
        assert len(set(monos)) == len(monos)
        assert all(sum(m) == d for m in monos)


def _former_vandermonde_block(vectors, d):
    """Oracle: the generalized Vandermonde loop monomial_products replaced."""
    block = []
    for expo in monomials_of_degree(len(vectors), d):
        row = [Fraction(1)] * len(vectors[0])
        for g, e in zip(vectors, expo):
            if e:
                row = [x * v ** e for x, v in zip(row, g)]
        block.append(tuple(row))
    return block


def _former_evaluation_rows(points, d):
    """Oracle: the per-monomial power loop of the interpolation matrix."""
    rows = []
    for coords in points:
        row = []
        for expo in monomials_of_degree(len(coords), d):
            v = 1
            for x, e in zip(coords, expo):
                if e:
                    v *= x ** e
            row.append(v)
        rows.append(row)
    return rows


def test_monomial_products_match_the_power_loops():
    rng = random.Random(7)
    for _ in range(30):
        nvec, width, d = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 4)
        ints = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(nvec)]
        fracs = [[Fraction(x, rng.randint(1, 5)) for x in row] for row in ints]
        for vectors in (ints, fracs):
            got = monomial_products(vectors, d)
            assert len(got) == comb(nvec + d - 1, d)
            assert got == _former_vandermonde_block(vectors, d)
            assert all(type(x) is int for row in monomial_products(ints, d) for x in row)
            assert [list(r) for r in zip(*got)] == _former_evaluation_rows(list(zip(*vectors)), d)
    assert monomial_products([[2, 3]], 0) == [(1, 1)]


def test_json_round_trip():
    f = SparsePoly(3, {(2, 0, 1): "7/2", (0, 1, 0): -3})
    assert SparsePoly.from_json(3, f.to_json()) == f


@pytest.mark.parametrize("coeff", ["1.5", "1e3", " 3 ", "1/0", 1.5, 2.0, True, False])
def test_from_json_reads_only_rational_literals(coeff):
    with pytest.raises(ValueError):
        SparsePoly.from_json(2, [[[1, 0], coeff]])


def test_str():
    f = SparsePoly(3, {(2, 0, 0): 9, (0, 0, 1): -1})
    assert str(f) == "9*x0^2 - x2"
