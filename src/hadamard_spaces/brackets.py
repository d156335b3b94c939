"""The two explicit bracket-polynomial equations: the quadric cutting out
the Hadamard product of two generic lines in P^3 and the cubic cutting out
the Hadamard square of a generic 2-plane in P^5.

Brackets are stored under sorted index tuples; odd permutations negate
(antisymmetry), fixing the sign convention once.  The cubic's 56 monomial
coefficients are generated from three printed orbit representatives by a
symmetric-group transport that is twisted by the sign of the permutation.
The transported table does not depend on the plane, so it is built once per
process, on the first cubic; well-definedness of the transport (independence
of the chosen permutation) is asserted then, via stabilizer generators and a
term-by-term comparison of two coset representatives.  Interpolation
agreement is the ground truth it is tested against.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import lcm

from .linalg import PreconditionError
from .poly import SparsePoly
from .projective import _permutation_sign

# ---------------------------------------------------------------------------
# quadric for the product of two lines in P^3
#
# Monomial -> list of (sign, brackets of the first line, brackets of the
# second line); every coefficient is a sum of bracket monomials of degree
# three in each line's brackets.

QUADRIC_TABLE = {
    (0, 0): [(+1, ((1, 2), (1, 3), (2, 3)), ((1, 2), (1, 3), (2, 3)))],
    (1, 1): [(+1, ((0, 2), (0, 3), (2, 3)), ((0, 2), (0, 3), (2, 3)))],
    (2, 2): [(+1, ((0, 1), (0, 3), (1, 3)), ((0, 1), (0, 3), (1, 3)))],
    (3, 3): [(+1, ((0, 1), (0, 2), (1, 2)), ((0, 1), (0, 2), (1, 2)))],
    (0, 1): [(-1, ((2, 3), (0, 2), (1, 3)), ((2, 3), (0, 3), (1, 2))),
             (-1, ((2, 3), (0, 3), (1, 2)), ((2, 3), (0, 2), (1, 3)))],
    (0, 2): [(+1, ((1, 3), (0, 1), (2, 3)), ((1, 3), (0, 3), (1, 2))),
             (+1, ((1, 3), (0, 3), (1, 2)), ((1, 3), (0, 1), (2, 3)))],
    (0, 3): [(-1, ((1, 2), (0, 1), (2, 3)), ((1, 2), (0, 2), (1, 3))),
             (-1, ((1, 2), (0, 2), (1, 3)), ((1, 2), (0, 1), (2, 3)))],
    (1, 2): [(-1, ((0, 3), (0, 1), (2, 3)), ((0, 3), (0, 2), (1, 3))),
             (-1, ((0, 3), (0, 2), (1, 3)), ((0, 3), (0, 1), (2, 3)))],
    (1, 3): [(+1, ((0, 2), (0, 1), (2, 3)), ((0, 2), (0, 3), (1, 2))),
             (+1, ((0, 2), (0, 3), (1, 2)), ((0, 2), (0, 1), (2, 3)))],
    (2, 3): [(-1, ((0, 1), (0, 2), (1, 3)), ((0, 1), (0, 3), (1, 2))),
             (-1, ((0, 1), (0, 3), (1, 2)), ((0, 1), (0, 2), (1, 3)))],
}


def quadric_two_lines(pl_l, pl_m):
    """The quadric in x_0..x_3 vanishing on the product of two lines in P^3.

    The ten coefficients are the tabulated bracket monomials evaluated at
    the given Pluecker vectors.
    """
    for pl in (pl_l, pl_m):
        if pl.ambient_dim != 3 or pl.dim != 1:
            raise PreconditionError("expected Pluecker vectors of lines in P^3")
    terms = {}
    for (i, j), entries in QUADRIC_TABLE.items():
        coeff = Fraction(0)
        for sign, lbrs, mbrs in entries:
            value = Fraction(sign)
            for br in lbrs:
                value *= pl_l.entries[br]
            for br in mbrs:
                value *= pl_m.entries[br]
            coeff += value
        if coeff:
            expo = [0, 0, 0, 0]
            expo[i] += 1
            expo[j] += 1
            terms[tuple(expo)] = coeff
    return SparsePoly(4, terms)


def quadric_symbolic_identity():
    """Full symbolic reproduction of the two-lines identity.

    Substitutes [ij] = a_0i a_1j - a_0j a_1i, {ij} = b_0i b_1j - b_0j b_1i
    and x_i = (l_0 a_0i + l_1 a_1i)(m_0 b_0i + m_1 b_1i) into the quadric
    and expands exactly in the 20 variables a, b, l, m.  Returns the
    expanded polynomial, which must be zero.
    """
    nv = 20  # a00..a13 (8), b00..b13 (8), l0, l1, m0, m1

    def var(i):
        return SparsePoly.variable(nv, i)

    def a(r, i):
        return var(4 * r + i)

    def b(r, i):
        return var(8 + 4 * r + i)

    l0, l1, m0, m1 = var(16), var(17), var(18), var(19)

    def bracket_a(i, j):
        return a(0, i) * a(1, j) - a(0, j) * a(1, i)

    def bracket_b(i, j):
        return b(0, i) * b(1, j) - b(0, j) * b(1, i)

    x = [(l0 * a(0, i) + l1 * a(1, i)) * (m0 * b(0, i) + m1 * b(1, i)) for i in range(4)]

    total = SparsePoly.zero(nv)
    for (i, j), entries in QUADRIC_TABLE.items():
        coeff = SparsePoly.zero(nv)
        for sign, lbrs, mbrs in entries:
            term = SparsePoly.constant(nv, sign)
            for br in lbrs:
                term = term * bracket_a(*br)
            for br in mbrs:
                term = term * bracket_b(*br)
            coeff = coeff + term
        total = total + coeff * x[i] * x[j]
    return total


def quadric_square_symbolic():
    """Symbolic check that the self-product quadric squares the hyperplane form.

    Expands both quadric_two_lines(pl, pl) and power_hyperplane(pl)^2 with
    the brackets left as polynomials in the eight generator entries of one
    line, and compares the x-monomial coefficients exactly.
    """
    nv = 8

    def a(r, i):
        return SparsePoly.variable(nv, 4 * r + i)

    def bracket(i, j):
        return a(0, i) * a(1, j) - a(0, j) * a(1, i)

    hyper = []
    for i in range(4):
        term = SparsePoly.constant(nv, (-1) ** (3 + i))
        for j in range(4):
            for k in range(j + 1, 4):
                if i not in (j, k):
                    term = term * bracket(j, k)
        hyper.append(term)

    for (i, j), entries in QUADRIC_TABLE.items():
        coeff = SparsePoly.zero(nv)
        for sign, lbrs, mbrs in entries:
            term = SparsePoly.constant(nv, sign)
            for br in lbrs:
                term = term * bracket(*br)
            for br in mbrs:
                term = term * bracket(*br)
            coeff = coeff + term
        square_coeff = hyper[i] * hyper[j]
        if i != j:
            square_coeff = square_coeff + square_coeff
        if coeff != square_coeff:
            return False
    return True


def quadric_bracket_display():
    """The quadric's coefficients in the bracket notation of the source table."""
    lines = []
    for (i, j), entries in sorted(QUADRIC_TABLE.items()):
        parts = []
        for sign, lbrs, mbrs in entries:
            body = "".join("[%d%d]" % br for br in sorted(lbrs))
            body += "".join("{%d%d}" % br for br in sorted(mbrs))
            parts.append(("+ " if sign > 0 else "- ") + body)
        mono = "x%d^2" % i if i == j else "x%d*x%d" % (i, j)
        lines.append("(%s) %s" % (" ".join(parts), mono))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# cubic for the Hadamard square of a 2-plane in P^5
#
# Printed orbit representatives: each is a list of bracket monomials (all
# with coefficient +1); the base sign of the representative is recorded
# separately.  Pattern keys are the exponent patterns (a,a,a), (a,a,b),
# (a,b,c).

CUBIC_REPRESENTATIVES = {
    (0, 0, 0): (-1, [
        ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
         (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)),
    ]),
    (0, 0, 1): (+1, [
        ((0, 2, 3), (0, 4, 5), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
         (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)),
        ((0, 2, 4), (0, 3, 5), (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 4, 5),
         (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)),
        ((0, 2, 5), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5),
         (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)),
    ]),
    # One bracket monomial per bijection between the pairs of {0,1,2} and
    # the elements of {3,4,5}: the monomial for phi is
    #   prod_pairs [p phi(p)] * [345] * prod_pairs [d(p,q), phi(p), phi(q)]
    # with d(p,q) the element of {0,1,2} outside both p and q.  All six
    # bijections occur.
    (0, 1, 2): (+1, [
        ((0, 1, 3), (0, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5),
         (0, 3, 5), (2, 3, 5), (0, 4, 5), (1, 4, 5), (3, 4, 5)),
        ((0, 1, 3), (1, 2, 4), (0, 3, 4), (2, 3, 4), (0, 2, 5),
         (1, 3, 5), (2, 3, 5), (0, 4, 5), (1, 4, 5), (3, 4, 5)),
        ((0, 2, 3), (0, 1, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5),
         (0, 3, 5), (1, 3, 5), (0, 4, 5), (2, 4, 5), (3, 4, 5)),
        ((0, 2, 3), (1, 2, 4), (0, 3, 4), (1, 3, 4), (0, 1, 5),
         (1, 3, 5), (2, 3, 5), (0, 4, 5), (2, 4, 5), (3, 4, 5)),
        ((1, 2, 3), (0, 1, 4), (0, 3, 4), (2, 3, 4), (0, 2, 5),
         (0, 3, 5), (1, 3, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5)),
        ((1, 2, 3), (0, 2, 4), (0, 3, 4), (1, 3, 4), (0, 1, 5),
         (0, 3, 5), (2, 3, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5)),
    ]),
}


def _transport_terms(terms, perm):
    """Apply an index permutation to bracket monomials, re-sorting brackets.

    Returns a canonical dict {sorted bracket tuple-of-tuples: coefficient}.
    """
    out = {}
    for brackets in terms:
        sign = 1
        images = []
        for br in brackets:
            image = tuple(perm[i] for i in br)
            sign *= _permutation_sign(image)
            images.append(tuple(sorted(image)))
        key = tuple(sorted(images))
        out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}


def _twisted_transport(pattern, perm):
    base_sign, terms = CUBIC_REPRESENTATIVES[pattern]
    transported = _transport_terms(terms, perm)
    factor = base_sign * _permutation_sign(perm)
    return {k: factor * v for k, v in transported.items()}


def _stabilizer_generators(pattern):
    if pattern == (0, 0, 0):
        free = [1, 2, 3, 4, 5]
    elif pattern == (0, 0, 1):
        free = [2, 3, 4, 5]
    else:
        # x_a x_b x_c is symmetric in its three indices as well.
        yield from (_transposition(i, j) for i, j in [(0, 1), (1, 2)])
        free = [3, 4, 5]
    for a, b in zip(free, free[1:]):
        yield _transposition(a, b)


def _transposition(i, j):
    perm = list(range(6))
    perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def assert_orbit_well_defined():
    """Twisted stabilizer invariance of every printed representative.

    Failure would mean the symmetric-group transport of the cubic's
    coefficients depends on the chosen permutation; by group theory,
    invariance under these generators is equivalent to independence.
    """
    identity = tuple(range(6))
    for pattern, (base_sign, terms) in CUBIC_REPRESENTATIVES.items():
        reference = _twisted_transport(pattern, identity)
        for perm in _stabilizer_generators(pattern):
            if _twisted_transport(pattern, perm) != reference:
                raise AssertionError(
                    "orbit transport ill-defined for pattern %r under %r" % (pattern, perm))


def _pattern_and_map(a, b, c):
    if a == b == c:
        return (0, 0, 0), {0: a}
    if a == b:
        return (0, 0, 1), {0: a, 1: c}
    if b == c:
        return (0, 0, 1), {0: b, 1: a}
    return (0, 1, 2), {0: a, 1: b, 2: c}


def _complete_perm(partial):
    remaining_src = [i for i in range(6) if i not in partial]
    remaining_dst = [i for i in range(6) if i not in partial.values()]
    perm = list(range(6))
    for src, dst in partial.items():
        perm[src] = dst
    for src, dst in zip(remaining_src, remaining_dst):
        perm[src] = dst
    return tuple(perm)


def _second_representative(perm, partial):
    """The coset representative that also swaps the last two untouched indices."""
    spare = [i for i in range(6) if i not in partial.values()]
    alt = list(perm)
    iu, iw = alt.index(spare[-2]), alt.index(spare[-1])
    alt[iu], alt[iw] = alt[iw], alt[iu]
    return tuple(alt)


@cache
def _cubic_table():
    """The 56 transported coefficients, built and checked once per process.

    A tuple of (exponent vector, ((bracket monomial, int coefficient), ...))
    in the order of combinations_with_replacement(range(6), 3); immutable,
    since every caller shares it.  Building it runs
    assert_orbit_well_defined and transports every coefficient through two
    coset representatives, which must give the same bracket polynomial term
    for term; equal polynomials agree at every Pluecker vector, so this is
    at least as strong as comparing their values.
    """
    assert_orbit_well_defined()
    table = []
    for a, b, c in combinations_with_replacement(range(6), 3):
        pattern, partial = _pattern_and_map(a, b, c)
        perm = _complete_perm(partial)
        terms = _twisted_transport(pattern, perm)
        if _twisted_transport(pattern, _second_representative(perm, partial)) != terms:
            raise AssertionError(
                "orbit transport disagreed between permutations for monomial %r" % ((a, b, c),))
        expo = [0] * 6
        for i in (a, b, c):
            expo[i] += 1
        table.append((tuple(expo), tuple(terms.items())))
    return tuple(table)


def cubic_plane_square(pl_p):
    """The cubic in x_0..x_5 vanishing on the Hadamard square of a 2-plane.

    All 56 coefficients are transported from the three printed
    representatives by the twisted symmetric-group action (_cubic_table,
    built and checked on the first call of the process only) and evaluated
    at the given Pluecker vector.  Evaluation runs in integers: with D the
    common denominator of the Pluecker entries, every bracket monomial has
    degree 10, so each integer sum is D^10 times the coefficient, and one
    division per coefficient gives the exact same Fraction.
    """
    if pl_p.ambient_dim != 5 or pl_p.dim != 2:
        raise PreconditionError("expected the Pluecker vector of a 2-plane in P^5")
    d = lcm(*(v.denominator for v in pl_p.entries.values()))
    scaled = {br: v.numerator * (d // v.denominator) for br, v in pl_p.entries.items()}
    scale = d ** 10
    terms = {}
    for expo, monomials in _cubic_table():
        total = 0
        for brackets, coeff in monomials:
            for br in brackets:
                coeff *= scaled[br]
            total += coeff
        if total:
            terms[expo] = Fraction(total, scale)
    return SparsePoly(6, terms)


def verify_identity(form, sampler, trials, rng):
    """Exact sampling verification: the form vanishes at `trials` samples.

    The zero polynomial passes vacuously.  This is the default (fast)
    verification mode; the symbolic mode for the two-lines identity is
    quadric_symbolic_identity.
    """
    if form.is_zero():
        return True
    for _ in range(trials):
        pt = sampler.sample_point(rng)
        if form.eval(pt.coords) != 0:
            return False
    return True
