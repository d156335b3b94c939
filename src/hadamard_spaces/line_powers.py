"""Hadamard powers of a line: power generator matrices, the pairwise-bracket
product formula for their Pluecker coordinates, and linear equations cutting
the powers out.

The closed forms require the line to meet no coordinate codimension-2
stratum, which for a line is exactly the nonvanishing of all its Pluecker
brackets.  Degenerate lines still have linear powers, but possibly of lower
dimension; those are computed exactly as the row space of the same power
matrix (sampled_power_span), without the bracket formulas.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, prod

from .linalg import LIFT_BUDGET, PreconditionError, capped_comb, product_charge
from .poly import SparsePoly
from .products import column_points, gen_vandermonde, row_logs, vandermonde_charge
from .projective import LinSpace, permutation_sign


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


def power_output(line, r):
    """(d, Pluecker entries, equations) that `line-power` prints for the
    r-th power of a line in P^n, counted from its columns, nothing formed.

    Column k of the power matrix is the r-th Veronese image of the
    generator column a_k, and at most r + 1 distinct points of P^1 have
    independent images (Vandermonde).  So the power has dimension d =
    min(r, c - 1), where c counts the distinct points among the nonzero
    columns; the line is clean (no vanishing bracket) iff c = n + 1.  A
    clean power with r < n prints its binom(n+1, r+1) minors and the
    binom(n+1, r+2) equations of `power_linear_equations`; every other
    power prints the binom(n+1, d+1) Pluecker coordinates of its span and
    its n - d kernel equations.  Either way an equation has at most d + 2
    terms.  Past LIFT_BUDGET a count is some number past it
    (`linalg.capped_comb`).
    """
    n = line.ambient_dim
    c = len(column_points(line))
    d = min(r, c - 1)
    return (d, capped_comb(n + 1, d + 1, LIFT_BUDGET),
            capped_comb(n + 1, d + 2, LIFT_BUDGET) if c == n + 1 and r < n else n - d)


def power_charge(line, r):
    """Units of `line-power` at r: the Bareiss pass of its power matrix
    (`products.vandermonde_charge`), its one reduction, and its printed
    entries (`power_output`) in products (`linalg.product_charge`) of the
    bits of binom(d + 1, 2) brackets of the line, a closed-form minor: an
    equation's d + 2 terms of n + 1 exponents and a coefficient, a product
    each, and a Pluecker entry's d + 1 key indices and value, four each."""
    n = line.ambient_dim
    d, minors, equations = power_output(line, r)
    bits = comb(d + 1, 2) * (sum(row_logs(line.generators.ints)) + 2) + 1
    return (vandermonde_charge([(1, r, line.generators.ints)], n)
            + (4 * minors + equations * (n + 2)) * (d + 2) * product_charge(bits, bits))


def line_power_minor(pl, r, indices):
    """The maximal minor of line_power_matrix at the columns `indices`,
    times pl.scale^binom(r+1, 2), as an int: the product of the line's
    pairwise integer brackets, one factor per index pair, with the sign
    of the indices' order.  All minors of one power share that scale.
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
        return 0
    return permutation_sign(indices) * prod(pl.minors[min(i, j), max(i, j)] for i, j in pairs)


def line_power_pluecker(pl, r, indices):
    """Bracket of the r-th power of a line: the product of pairwise brackets.

    For sorted indices i_0 < ... < i_r this equals the corresponding maximal
    minor of line_power_matrix, exactly: `line_power_minor` divided once by
    scale^binom(r+1, 2).
    """
    return Fraction(line_power_minor(pl, r, indices), pl.scale ** comb(r + 1, 2))


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
    the (r+1)-minors of its power matrix keyed by sorted column tuples, as
    ints over one common denominator (each a `line_power_minor`).

    These are the binom(n+1, r+2) maximal minors of the power matrix
    augmented with a row of coordinate variables, expanded along that row:
    each has the r + 2 terms of its columns.  Coefficients come out
    content-free, so the common denominator drops out.  For r = n-1 the
    single equation agrees with power_hyperplane up to sign.
    """
    if not 1 <= r < n:
        raise PreconditionError("need 1 <= r < n = %d, got r = %d" % (n, r))
    variables = [(0,) * i + (1,) + (0,) * (n - i) for i in range(n + 1)]
    equations = []
    for cols in combinations(range(n + 1), r + 2):
        terms = {}
        for t, i in enumerate(cols):
            minor = minors[cols[:t] + cols[t + 1:]]
            if minor:
                terms[variables[i]] = minor if (r + 1 + t) % 2 == 0 else -minor
        equations.append(SparsePoly._trusted(n + 1, terms).primitive())
    return equations


def sampled_power_span(line_or_space, r):
    """The r-th Hadamard power of a line: the row space of its power matrix.

    Used for lines with a vanishing bracket; exact for every line.  The
    name, like the CLI's `"method": "sampled"` label, means "the power as a
    span, used when a bracket vanishes".

    Proof.  Let g0, g1 be the generator rows and a_k = (g0[k], g1[k]) the
    columns.  The product of r points s_j g0 + t_j g1 has coordinate k equal
    to F(a_k), where F is the product of the linear forms s_j x + t_j y.  So
    the linear span of all such products is the image of the binary forms
    of degree r under F -> (F(a_0), ..., F(a_n)).  That image is spanned by
    the images of the monomials x^(r-i) y^i, which are the rows
    g0^(r-i) * g1^i of `gen_vandermonde([(line, r)])`.  Over C every binary
    form is a product of linear forms, so the products span the whole row
    space.  Every Hadamard power of a line is linear (the paper's first
    theorem), so the power is that row space, whether or not a bracket
    vanishes.  For a space of higher dimension the same argument, with forms
    in m+1 variables, gives the linear span of its r-th power.
    """
    if r < 1:
        raise PreconditionError("power must be >= 1")
    return LinSpace.span_of(gen_vandermonde([(line_or_space, r)]))
