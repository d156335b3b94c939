"""Hadamard powers of a line: power generator matrices, the pairwise-bracket
product formula for their Pluecker coordinates, linear equations cutting the
powers out, and a sampling fallback for degenerate lines.

The closed forms require the line to meet no coordinate codimension-2
stratum, which for a line is exactly the nonvanishing of all its Pluecker
brackets.  Degenerate lines still have linear powers, but possibly of lower
dimension; those are computed only by sampling, never by the matrix formula.
"""

from fractions import Fraction
from itertools import combinations
from math import prod

from .linalg import PreconditionError, BudgetExhausted
from .poly import SparsePoly
from .products import gen_vandermonde
from .projective import LinSpace, permutation_sign, sample_point

#: Extra rank-stable samples required before a sampled span is trusted.
SPAN_STABLE_STREAK = 3


def line_power_matrix(line, r):
    """The (r+1) x (n+1) matrix with rows a0^(r-i) * a1^i, entrywise.

    Its row space is the r-th Hadamard power of the line whenever the line
    has no vanishing bracket.  Row i is the entrywise product of r-i copies
    of the first generator row and i copies of the second: the generalized
    Vandermonde matrix of the line with multiplicity r, rows in that order.
    """
    if line.dim != 1:
        raise PreconditionError("expected a line (2 generator rows), got dim %d" % line.dim)
    if r < 1:
        raise PreconditionError("power must be >= 1")
    return gen_vandermonde([(line, r)])


def line_power_pluecker(pl, r, indices):
    """Bracket of the r-th power of a line: the product of pairwise brackets.

    For sorted indices i_0 < ... < i_r this equals the corresponding maximal
    minor of line_power_matrix, exactly.  The product runs in integers over
    the line's integer minors and is divided once by scale^binom(r+1, 2).
    """
    if pl.dim != 1:
        raise PreconditionError("expected the Pluecker vector of a line")
    indices = tuple(indices)
    if len(indices) != r + 1:
        raise ValueError("need r+1 indices")
    for i in indices:
        if not 0 <= i <= pl.ambient_dim:
            raise IndexError("index %d out of range for ambient dimension %d" % (i, pl.ambient_dim))
    pairs = list(combinations(indices, 2))
    if any(i == j for i, j in pairs):
        return Fraction(0)
    total = prod(pl.minors[min(i, j), max(i, j)] for i, j in pairs)
    return Fraction(permutation_sign(indices) * total, pl.scale ** len(pairs))


def _hyperplane_coefficients(n, bracket):
    """Coefficients of the (n-1)-st power's hyperplane of a line in P^n.

    The coefficient of x_i is (-1)^(n+i) times the product of the brackets
    avoiding i.  `bracket` maps a sorted index pair to a number (at a
    Pluecker vector) or to a polynomial (in symbolic generator entries);
    this is the one place the formula is evaluated.
    """
    return [prod(map(bracket, combinations([t for t in range(n + 1) if t != i], 2)),
                 start=(-1) ** (n + i))
            for i in range(n + 1)]


def power_hyperplane(pl):
    """The linear form cutting out the (n-1)-st power of a line in P^n
    (coefficients as in _hyperplane_coefficients)."""
    n = pl.ambient_dim
    if pl.dim != 1:
        raise PreconditionError("expected the Pluecker vector of a line")
    if n < 2:
        raise PreconditionError("ambient dimension must be at least 2")
    return SparsePoly.linear_form(_hyperplane_coefficients(n, pl.entries.__getitem__))


def power_linear_equations(n, r, minors):
    """Linear equations for the r-th power of a line in P^n, r < n, from
    the (r+1)-minors of its power matrix keyed by sorted column tuples
    (each a `line_power_pluecker`).

    These are the binom(n+1, r+2) maximal minors of the power matrix
    augmented with a row of coordinate variables, expanded along that row.
    Coefficients come out integer-cleared and content-free.  For r = n-1
    the single equation agrees with power_hyperplane up to sign.
    """
    if not 1 <= r < n:
        raise PreconditionError("need 1 <= r < n = %d, got r = %d" % (n, r))
    equations = []
    for cols in combinations(range(n + 1), r + 2):
        coeffs = [0] * (n + 1)
        for t, i in enumerate(cols):
            coeffs[i] = (-1) ** (r + 1 + t) * minors[cols[:t] + cols[t + 1:]]
        equations.append(SparsePoly.linear_form(coeffs).primitive())
    return equations


def sampled_power_span(line_or_space, r, rng, budget=200):
    """Span of sampled r-fold Hadamard products of points of a space.

    Keeps adding products of r independently sampled points until the span
    is unchanged for SPAN_STABLE_STREAK consecutive extra samples (or is
    the whole ambient space).  This is the computation of choice for
    degenerate lines, whose powers are linear but fall outside the
    hypotheses of the closed-form matrix.
    """
    space = line_or_space
    if r < 1:
        raise PreconditionError("power must be >= 1")
    n = space.ambient_dim
    span = None   # the span of the products kept so far
    streak = 0
    draws = 0
    while draws < budget:
        draws += 1
        product = None
        for _ in range(r):
            pt = sample_point(space, rng)
            product = pt if product is None else product.hadamard(pt)
            if product is None:
                break
        if product is None:
            continue
        if span is not None and span.contains(product):
            streak += 1
            if streak >= SPAN_STABLE_STREAK:
                return span
            continue
        streak = 0
        span = LinSpace.span_of((span.generators.ints if span else ()) + (product.ints,))
        if span.dim == n:
            return span
    raise BudgetExhausted("sampled span did not stabilize within %d draws" % budget)
