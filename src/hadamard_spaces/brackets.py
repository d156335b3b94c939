"""The two explicit bracket-polynomial equations: the quadric cutting out
the Hadamard product of two generic lines in P^3 and the cubic cutting out
the Hadamard square of a generic 2-plane in P^5.

Brackets are stored under sorted index tuples; odd permutations negate
(antisymmetry), fixing the sign convention once.  The cubic's 56 monomial
coefficients are generated from three printed orbit representatives by a
symmetric-group transport that is twisted by the sign of the permutation.
The transported table is a function of these constants alone, so it is built
once per process, on the first cubic.  Well-definedness of the transport
(independence of the chosen permutation) is proved once, in the tests, by
transporting every representative through all 720 permutations of S6 and
finding one bracket polynomial per monomial.  Interpolation agreement is the
ground truth the table is tested against.
"""

from functools import cache
from itertools import chain, combinations_with_replacement
from math import prod

from .linalg import BudgetExhausted, PreconditionError
from .line_powers import _hyperplane_coefficients
from .poly import SparsePoly
from .projective import permutation_sign

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


def _quadric_coefficients(bracket_l, bracket_m):
    """{(i, j): coefficient of x_i x_j} of the two-lines quadric.

    Each line's brackets are read through its evaluator, which maps a
    sorted index pair to a number (at a Pluecker vector) or to a polynomial
    (in symbolic generator entries); this is the one place QUADRIC_TABLE is
    evaluated.
    """
    coeffs = {}
    for ij, entries in QUADRIC_TABLE.items():
        terms = [prod(chain(map(bracket_l, lbrs), map(bracket_m, mbrs)), start=sign)
                 for sign, lbrs, mbrs in entries]
        coeffs[ij] = sum(terms[1:], terms[0])
    return coeffs


def quadric_two_lines(pl_l, pl_m):
    """The quadric in x_0..x_3 vanishing on the product of two lines in P^3.

    The ten coefficients are the tabulated bracket monomials evaluated at
    the given Pluecker vectors, in integers: each monomial has degree three
    in each line's minors, so the integer sums over both scales cubed are
    the coefficients.
    """
    for pl in (pl_l, pl_m):
        if pl.ambient_dim != 3 or pl.dim != 1:
            raise PreconditionError("expected Pluecker vectors of lines in P^3")
    scale = (pl_l.scale * pl_m.scale) ** 3
    terms = {}
    for (i, j), coeff in _quadric_coefficients(pl_l.minors.__getitem__,
                                               pl_m.minors.__getitem__).items():
        if coeff:
            expo = [0, 0, 0, 0]
            expo[i] += 1
            expo[j] += 1
            terms[tuple(expo)] = coeff
    return SparsePoly._trusted(4, terms, scale)


def _symbolic_bracket(nv, offset):
    """[ij] = a_0i a_1j - a_0j a_1i over the generator entries a_ri, which
    are the variables offset + 4r + i of a polynomial ring in nv variables."""
    def a(r, i):
        return SparsePoly.variable(nv, offset + 4 * r + i)

    def bracket(br):
        i, j = br
        return a(0, i) * a(1, j) - a(0, j) * a(1, i)

    return bracket


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

    l0, l1, m0, m1 = var(16), var(17), var(18), var(19)
    x = [(l0 * var(i) + l1 * var(4 + i)) * (m0 * var(8 + i) + m1 * var(12 + i))
         for i in range(4)]
    total = SparsePoly.zero(nv)
    for (i, j), coeff in _quadric_coefficients(_symbolic_bracket(nv, 0),
                                               _symbolic_bracket(nv, 8)).items():
        total = total + coeff * x[i] * x[j]
    return total


def quadric_square_symbolic():
    """Symbolic check that the self-product quadric squares the hyperplane form.

    Expands both quadric_two_lines(pl, pl) and power_hyperplane(pl)^2 with
    the brackets left as polynomials in the eight generator entries of one
    line, and compares the x-monomial coefficients exactly.
    """
    bracket = _symbolic_bracket(8, 0)
    hyper = _hyperplane_coefficients(3, bracket)
    for (i, j), coeff in _quadric_coefficients(bracket, bracket).items():
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
            sign *= permutation_sign(image)
            images.append(tuple(sorted(image)))
        key = tuple(sorted(images))
        out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}


def _twisted_transport(pattern, perm):
    base_sign, terms = CUBIC_REPRESENTATIVES[pattern]
    transported = _transport_terms(terms, perm)
    factor = base_sign * permutation_sign(perm)
    return {k: factor * v for k, v in transported.items()}


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


@cache
def _cubic_table():
    """The 56 transported coefficients, built once per process.

    A tuple of (exponent vector, ((bracket monomial, int coefficient), ...))
    in the order of combinations_with_replacement(range(6), 3); immutable,
    since every caller shares it.  Each coefficient is transported through
    one permutation, which is enough because the transport does not depend
    on the choice (see the module docstring).
    """
    table = []
    for a, b, c in combinations_with_replacement(range(6), 3):
        pattern, partial = _pattern_and_map(a, b, c)
        terms = _twisted_transport(pattern, _complete_perm(partial))
        expo = [0] * 6
        for i in (a, b, c):
            expo[i] += 1
        table.append((tuple(expo), tuple(terms.items())))
    return tuple(table)


def cubic_plane_square(pl_p):
    """The cubic in x_0..x_5 vanishing on the Hadamard square of a 2-plane.

    All 56 coefficients are transported from the three printed
    representatives by the twisted symmetric-group action (_cubic_table,
    built on the first call of the process only) and evaluated at the
    given Pluecker vector.  Evaluation runs in integers: every bracket
    monomial has degree 10 in the integer minors, so each integer sum is
    scale^10 times the coefficient, and the sums over scale^10 are the
    polynomial.
    """
    if pl_p.ambient_dim != 5 or pl_p.dim != 2:
        raise PreconditionError("expected the Pluecker vector of a 2-plane in P^5")
    minors, scale = pl_p.minors, pl_p.scale ** 10
    terms = {}
    for expo, monomials in _cubic_table():
        total = 0
        for brackets, coeff in monomials:
            for br in brackets:
                coeff *= minors[br]
            total += coeff
        if total:
            terms[expo] = total
    return SparsePoly._trusted(6, terms, scale)


#: Most samples verify_identity draws.  The cubic is the slower identity: at
#: this limit `bracket verify` of the default plane takes 2.1 to 2.3 s as a
#: whole process on a 2-vCPU VM (about 0.8 ms a trial), inside the 5 s
#: gate of acceptance criterion 1.
VERIFY_TRIALS_LIMIT = 2500


def verify_identity(form, sampler, trials, rng):
    """Exact sampling verification: the form vanishes at `trials` samples.

    The zero polynomial passes vacuously.  This is the default (fast)
    verification mode; the symbolic mode for the two-lines identity is
    quadric_symbolic_identity.  More than VERIFY_TRIALS_LIMIT trials raise
    BudgetExhausted before any draw.
    """
    if trials > VERIFY_TRIALS_LIMIT:
        raise BudgetExhausted("%d trials exceed the limit of %d" % (trials, VERIFY_TRIALS_LIMIT))
    if form.is_zero():
        return True
    for _ in range(trials):
        pt = sampler.sample_point(rng)
        if form.eval(pt.ints) != 0:
            return False
    return True
