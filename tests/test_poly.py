import io
import json
import random
import sys
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

import pytest

from hadamard_spaces import cli, poly
from hadamard_spaces.brackets import (cubic_plane_square, quadric_symbolic_identity,
                                      quadric_two_lines)
from hadamard_spaces.poly import (SparsePoly, monomial_products, monomials_of_degree,
                                  proportional)
from hadamard_spaces.products import interpolate_forms
from hadamard_spaces.projective import LinSpace, pluecker
from hadamard_spaces.samplers import hadamard_product_sampler, linear_space_sampler


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


def _level_by_level_products(vectors, d):
    """Oracle: monomial_products as it was built before its power tables,
    every degree from 1 to d, the product for e the one for e minus a unit
    at its first nonzero slot k, times vectors[k]."""
    n = len(vectors)
    level = {(0,) * n: (1,) * len(vectors[0])}
    for _ in range(d):
        nxt = {}
        for e, row in level.items():
            first = next((k for k, x in enumerate(e) if x), n - 1)
            for k in range(first + 1):
                nxt[e[:k] + (e[k] + 1,) + e[k + 1:]] = tuple(map(mul, row, vectors[k]))
        level = nxt
    return [level[e] for e in monomials_of_degree(n, d)]


def test_monomial_products_match_the_level_by_level_build():
    rng = random.Random(11)
    for nvars in range(1, 7):
        for d in range(9):
            width = rng.randint(1, 5)
            vectors = [[rng.randint(-99, 99) for _ in range(width)] for _ in range(nvars)]
            got = monomial_products(vectors, d)
            assert got == _level_by_level_products(vectors, d)
            assert all(type(row) is tuple and all(type(x) is int for x in row) for row in got)
    line = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(2)]
    assert monomial_products(line, 300) == _level_by_level_products(line, 300)


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


@pytest.mark.parametrize("data", [
    [[[1.7, 0], "3"]],
    [[[True, 1], "1"]],
    [[[1.7, 0], "3"], [[True, 1], "1"]],
    [[[-1, 0], "1"]],
    [[[1, "0"], "1"]],
    [[[1, 0], "1"], [[1, 0], "2"]],
    [[[1, 0], "1"], [[0, 1], "1"], [[1, 0], "-1"]],
    [[1, "1"]],
    [[[1, 0], "1", "2"]],
    [[[1, 0, 0], "1"]],
])
def test_from_json_refuses_exponents_that_are_not_polynomial(data):
    # Floats, bools, negative numbers and strings are no exponents, and two
    # terms may not name one exponent vector: each used to be read as some
    # other polynomial.
    with pytest.raises(ValueError):
        SparsePoly.from_json(2, data)


@pytest.mark.parametrize("expo", [(-1, 0), (1.0, 0), (0.5, 1), (True, 0), (1, False), ("1", 0)])
def test_constructor_refuses_exponents_that_are_not_polynomial(expo):
    # (-1, 0) printed x0^-1 and evaluated to 1/2 at (2, 1).
    with pytest.raises(ValueError):
        SparsePoly(2, {expo: 1})
    with pytest.raises(ValueError):
        SparsePoly(2, {expo: 1, (0, 1): 2})


def test_exponents_keep_their_integer_type():
    f = SparsePoly(2, {(2, 0): 1, (0, 3): "1/2"})
    assert str(f) == "x0^2 + 1/2*x1^3" and f.eval([2, 1]) == Fraction(9, 2)
    assert all(type(e) is int for expo in f.ints for e in expo)


def _fraction_primitive(terms):
    """Oracle: the Fraction route of primitive before polynomials were
    stored as integers over one denominator."""
    if not terms:
        return {}
    mult = lcm(*(c.denominator for c in terms.values()))
    ints = {e: int(c * mult) for e, c in terms.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if ints[max(ints)] < 0:
        g = -g
    return {e: Fraction(v, g) for e, v in ints.items()}


def _fraction_proportional(f, g):
    """Oracle: the former ratio loop over Fraction coefficients."""
    if not f or not g:
        return not f and not g
    if set(f) != set(g):
        return False
    expo = next(iter(f))
    c = f[expo] / g[expo]
    return all(coeff == c * g[e] for e, coeff in f.items())


def test_integer_storage_matches_the_fraction_oracle():
    rng = random.Random(17)
    dens = set()
    for _ in range(300):
        f = random_poly(rng, nterms=rng.randint(0, 5))
        c = Fraction(rng.choice([-5, -1, 2, 3, 7]), rng.randint(1, 6))
        g = rng.choice([f.scale(c), random_poly(rng), f + SparsePoly.variable(3, 0, c),
                        f.scale(c) * SparsePoly.constant(3, 1 / c)])
        dens.add(f.den)
        assert f.den == lcm(1, *(v.denominator for v in f.terms.values()))
        assert f.primitive().terms == _fraction_primitive(f.terms)
        assert f.primitive().den == 1
        assert proportional(f, g) == _fraction_proportional(f.terms, g.terms)
        assert (f == g) == (f.terms == g.terms)
        if f == g:
            assert hash(f) == hash(g)
        assert f == SparsePoly(3, f.terms) and hash(f) == hash(SparsePoly(3, f.terms))
    assert len(dens) > 3


def test_equal_polynomials_reached_through_different_denominators_hash_alike():
    x0, x1 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    over_6 = x0.scale("1/6") + x0.scale("1/3") + x1.scale("2/3") - x1.scale("1/6")
    over_2 = (x0 + x1).scale("1/2")
    over_12 = (x0.scale("3/4") + x1.scale("3/4")) * SparsePoly.constant(2, "2/3")
    from_json = SparsePoly.from_json(2, [[[1, 0], "2/4"], [[0, 1], "3/6"]])
    assert over_6 == over_2 == over_12 == from_json
    assert len({over_6, over_2, over_12, from_json}) == 1
    assert (over_6.den, over_6.ints) == (2, {(1, 0): 1, (0, 1): 1})
    assert (over_12 - over_2).is_zero() and (over_12 - over_2).den == 1


def _fraction_counter(monkeypatch):
    """Record each Fraction built: the SparsePoly method (or `proportional`)
    on the stack, or None when it is built under none of them.  `terms` and
    `eval` build them by design, and what they build is not recorded."""
    by_design = {"terms", "eval"}
    names = {name for name in vars(SparsePoly) if callable(getattr(SparsePoly, name))}
    names |= {"proportional"}
    built = []

    def note():
        frame = sys._getframe(2)
        while frame is not None:
            code = frame.f_code
            if code.co_filename == poly.__file__ and code.co_name in names | by_design:
                if code.co_name not in by_design:
                    built.append(code.co_name)
                return
            frame = frame.f_back
        built.append(None)

    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        note()
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    if hasattr(Fraction, "_from_coprime_ints"):  # Fraction arithmetic skips __new__ there
        coprime = Fraction._from_coprime_ints.__func__

        def counted_coprime(cls, n, d):
            note()
            return coprime(cls, n, d)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    return built


def test_polynomial_producers_build_no_fraction(monkeypatch, capsys):
    """The bracket quadric and cubic, the symbolic identity, interpolation
    and a clean `line-power` run their polynomial arithmetic, primitive,
    proportional and to_json in integers; the bracket polynomials are built
    from integer minors with no Fraction at all."""
    line_l = LinSpace([["1/2", 3, 5, 7], [11, "13/3", 17, 19]])
    line_m = LinSpace([[23, 29, "31/5", 37], [41, 43, 47, 53]])
    plane = LinSpace([[3, 1, 4, 1, 5, 9], [2, "6/7", 5, 3, 5, 8], [9, 7, 9, 3, 2, 3]])
    pl_l, pl_m, pl_p = pluecker(line_l), pluecker(line_m), pluecker(plane)
    sampler = hadamard_product_sampler(linear_space_sampler(line_l), linear_space_sampler(line_m))
    built = _fraction_counter(monkeypatch)
    quadric, cubic = quadric_two_lines(pl_l, pl_m), cubic_plane_square(pl_p)
    assert built == [] and quadric.den > 1 and cubic.den > 1
    assert quadric_symbolic_identity().is_zero()
    forms = interpolate_forms(sampler, 2)
    assert len(forms) == 1 and proportional(forms[0], quadric)
    assert not proportional(forms[0], quadric + quadric * quadric)
    for f in (quadric, cubic, cubic * cubic - cubic.scale(Fraction(2, 3))):
        f.primitive().to_json()
        f.to_json()
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(
        {"line": [["1/2", "2/3", 3, "-4/5"], [2, "-1/7", "5/3", 1]], "r": 1})))
    assert cli.main(["line-power"]) == 0
    assert len(json.loads(capsys.readouterr().out)["equations"]) == 4
    assert [name for name in built if name] == [] and None in built
    # The counter sees a Fraction built under a SparsePoly method: a string
    # coefficient is parsed into one inside the constructor.
    SparsePoly(2, {(1, 0): "1/2"})
    assert [name for name in built if name] == ["__init__"]
