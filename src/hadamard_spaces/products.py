"""Span dimensions, identifiability, Terracini tangent spans, expected
dimension, and the interpolation oracle for Hadamard products.

Span dimensions and identifiability both rest on the generalized
Vandermonde matrix: its rank is the span dimension plus one, and full rank
binom(m + r, r) for one space is an exact proof that unordered r-tuples of
its points are recovered from their product (see identifiability_check).
Below full rank a line gets a constructed exact collision, and only a
rank-deficient space of higher dimension falls back to a sampled search.

The interpolation oracle replaces ideal elimination as the independent
verification route: degree-d forms vanishing on a sampled variety are the
kernel of the monomial-evaluation matrix built from more samples than
monomials.  Everything is exact, so a recovered form vanishes identically
on the samples, not approximately.
"""

import warnings
from math import comb, prod
from operator import mul

from .linalg import (BudgetExhausted, PreconditionError, QMatrix, integer_kernel_basis,
                     integer_rank, primitive_ints)
from .poly import SparsePoly, monomial_products, monomials_of_degree
from .projective import LinSpace, PPoint, sample_point

#: Oversampling margin for interpolation: extra rows beyond the monomial
#: count, as a fraction of it, that only the kernel's exact check reads.
#: They make spurious kernel vectors a probability-zero event.
OVERSAMPLE_NUM, OVERSAMPLE_DEN = 1, 4

#: Largest monomial count binom(n+d, d) `interpolate_forms` accepts; past it,
#: it raises BudgetExhausted before any draw.  The slowest payload measured
#: at 300 (degree 2 on a 20-space in P^23) takes 4.3 s on a 2-vCPU Xeon VM.
INTERP_MONOMIAL_BUDGET = 300

#: Largest work of a generalized Vandermonde rank (`check_span_dim_work`)
#: that `span-dim` accepts; past it, it raises BudgetExhausted before any
#: draw.  Payloads at the limit, whole processes on a 2-vCPU Xeon VM: the
#: slowest measured, dims [[5, 1]] in P^166665, takes 3.2 s; [[1, 1]] in
#: P^735293 2.1 s (321 MiB), [[1, 55]] in P^30 2.3 s, [[3, 24]] in P^10
#: 1.1 s and [[1, 39]] in P^39 1.5 s.
SPAN_DIM_WORK_LIMIT = 10 ** 8


def gen_vandermonde(entries):
    """Generalized Vandermonde matrix of a multiset of linear spaces.

    `entries` is a list of (LinSpace, multiplicity) pairs.  For each entry
    the block of rows consists of all entrywise products of the generator
    rows with multidegree summing to the multiplicity; blocks are combined
    multiplicatively (entrywise) across entries.  The row count is the
    product of binom(m_k + r_k, r_k) and the rank is the span dimension of
    the Hadamard product plus one.
    """
    if not entries:
        raise ValueError("need at least one (space, multiplicity) entry")
    width = entries[0][0].generators.ncols
    blocks, den = [], 1
    for space, mult in entries:
        if mult < 1:
            raise ValueError("multiplicities must be >= 1")
        if space.generators.ncols != width:
            raise ValueError("ambient dimensions differ")
        blocks.append(monomial_products(space.generators.ints, mult))
        den *= space.generators.den ** mult
    rows = blocks[0]
    for block in blocks[1:]:
        rows = [tuple(map(mul, row, other)) for row in rows for other in block]
    return QMatrix(rows, den)


def vandermonde_work(dims_and_mults, n):
    """The work R C (k^2 r + 64) of the rank of the generalized Vandermonde
    matrix of spaces of dimensions m_k with multiplicities r_k in P^n, with
    R = prod binom(m_k + r_k, r_k) rows and C = n + 1 columns, where k =
    min(R, C) bounds its rank and r = sum r_k; or, once 64 R C alone is past
    SPAN_DIM_WORK_LIMIT, some number past it.

    Bareiss makes about R C k cell updates on minors of up to k r factors
    of the entries: k^2 r per cell.  The 64 charges each cell's drawing,
    building and clearing, which is most of the cost when k r is small.
    The row count is built one binomial factor at a time and stops as soon
    as 64 R C alone is past the limit, so no huge binomial is formed.  The
    digits of explicit generators are not counted.
    """
    rows, cols = 1, n + 1
    for m, r in dims_and_mults:
        for i in range(1, min(m, r) + 1):
            rows = rows * (max(m, r) + i) // i
            if 64 * rows * cols > SPAN_DIM_WORK_LIMIT:
                break
    k = min(rows, cols)
    return rows * cols * (k * k * sum(r for _, r in dims_and_mults) + 64)


def check_span_dim_work(dims_and_mults, n):
    """Raise BudgetExhausted when `vandermonde_work` is past SPAN_DIM_WORK_LIMIT."""
    if vandermonde_work(dims_and_mults, n) > SPAN_DIM_WORK_LIMIT:
        raise BudgetExhausted("the generalized Vandermonde matrix in P^%d is past the "
                              "span-dim work limit of %d" % (n, SPAN_DIM_WORK_LIMIT))


def identifiability_regime_bound(dims_and_mults):
    """prod binom(m_k + r_k, r_k) - 1, one less than the row count of
    gen_vandermonde: the smallest ambient dimension with guaranteed
    identifiability, and the one copy of the bound that the span formula and
    `tropical.genericity_bound` read."""
    return prod(comb(m + r, r) for m, r in dims_and_mults) - 1


def span_dimension_formula(dims_and_mults, n):
    """Closed-form expected span dimension min(prod binom(m+r, r) - 1, n)."""
    return min(identifiability_regime_bound(dims_and_mults), n)


def identifiability_check(space, r, trials, rng):
    """None if unordered r-tuples of points of `space` are identifiable
    from their Hadamard product, else a colliding pair of tuples.

    Certificate.  Let g_0..g_m be the generator rows (independent, so
    points of the space and linear forms up to scale correspond one to
    one) and c_j column j.  The point s_0 g_0 + ... + s_m g_m is
    l(c_0) : ... : l(c_n) for the form l = s_0 x_0 + ... + s_m x_m, so the
    product of r points is F(c_0) : ... : F(c_n) with F = l_1 ... l_r.
    Writing F = sum_e a_e x^e, that vector is a V, where V =
    `gen_vandermonde([(space, r)])` has one row per exponent e.  When
    rank V = binom(m + r, r), its row count, F -> a V is injective: the
    product is never the zero vector, its point fixes F up to scale, and
    unique factorization in Q[x_0..x_m] fixes the unordered r-tuple of
    linear factors up to scales, that is, the r points.  So the rank test
    alone proves identifiability; nothing is drawn and `rng` is left
    untouched.

    Below that rank a line (m = 1) gets the exact collision of
    `line_collision`, again without a draw.  A space of higher dimension
    falls back to a sampled collision search (`_search_collisions`), whose
    reported pairs are exact counterexamples, but whose None is not a
    proof.  Below the guarantee regime n >= binom(m + r, r) - 1 the rank
    cannot be full, and a warning is issued.
    """
    if r < 1:
        raise ValueError("r must be >= 1, got %r" % (r,))
    if trials < 0:
        raise ValueError("trials must be >= 0, got %r" % (trials,))
    n = space.ambient_dim
    bound = identifiability_regime_bound([(space.dim, r)])
    if n < bound:
        warnings.warn("ambient dimension %d is below the identifiability bound %d; "
                      "collisions are not excluded by theory" % (n, bound))
    if integer_rank(gen_vandermonde([(space, r)]).ints) == comb(space.dim + r, r):
        return None
    if space.dim == 1:
        return line_collision(space, r)
    return _search_collisions(space, r, trials, rng)


def column_points(space):
    """The distinct points of P^m among the nonzero columns of a space's
    integer generators, as primitive int tuples in column order.  Column k
    carries coordinate k: the point with form l = s_0 x_0 + ... + s_m x_m
    has coordinate k equal to l(column k)."""
    return list(dict.fromkeys(primitive_ints(col) for col in zip(*space.generators.ints)
                              if any(col)))


def line_collision(line, r):
    """Two distinct unordered r-tuples of points of a line with equal
    Hadamard products, for a line whose columns give c <= r points of P^1
    (`column_points`), that is, whose power matrix is below full rank r + 1
    (its rank is min(r + 1, c)).  Returned as `_search_collisions` does.

    Construction.  The point s g0 + t g1 is the form l = s x + t y, and a
    product of r points is F(a_0) : ... : F(a_n) for F their product and
    a_k the columns (see identifiability_check).  For the class points
    p_i = (u_i, w_i), q_i = u_i y - w_i x vanishes at p_i only, and
    B = u_1 x + w_1 y is u_1^2 + w_1^2 != 0 at p_1.  With P = q_2 ... q_c,
    F1 = P (B + q_1) B^(r - c) and F2 = P B B^(r - c) agree on every
    column: both vanish on the zero columns and on the classes 2..c, and
    q_1 vanishes on class 1.  They are nonzero on class 1, and B + q_1 is
    not proportional to B (q_1 vanishes at p_1, B does not), so by unique
    factorization their r-tuples of linear factors differ.
    """
    (u1, w1), *others = column_points(line)
    shared = [(-w, u) for u, w in others] + [(u1, w1)] * (r - 1 - len(others))
    g0, g1 = line.generators.ints

    def points(forms):
        return tuple(sorted(PPoint([s * a + t * b for a, b in zip(g0, g1)]).canonical()
                            for s, t in forms))

    return points(shared + [(u1 - w1, w1 + u1)]), points(shared + [(u1, w1)])


def _search_collisions(space, r, trials, rng):
    """Search for unordered r-tuples of points with colliding products.

    Samples `trials` random unordered r-tuples from the space and hashes
    the canonical forms of their Hadamard products.  Returns None when all
    products of distinct tuples are distinct, else the first colliding pair
    of tuples (a counterexample to identifiability, which is a result, not
    an error).
    """
    seen = {}
    for _ in range(trials):
        pts = []
        for _ in range(r):
            pt = sample_point(space, rng)
            pts.append(pt)
        prod_pt = pts[0]
        for p in pts[1:]:
            prod_pt = prod_pt.hadamard(p)
            if prod_pt is None:
                break
        if prod_pt is None:
            continue
        tuple_key = tuple(sorted(p.canonical() for p in pts))
        prod_key = prod_pt.canonical()
        prev = seen.get(prod_key)
        if prev is None:
            seen[prod_key] = tuple_key
        elif prev != tuple_key:
            return prev, tuple_key
    return None


def terracini_span(p, tp, q, tq):
    """Tangent space of X*Y at p*q: the span of p*T_q(Y) and q*T_p(X),
    from the integer rows of the points and generators (a row times a
    nonzero scale spans the same)."""
    if len(p.ints) != len(q.ints):
        raise ValueError("ambient dimensions differ")
    if not tp.contains(p):
        raise PreconditionError("first point does not lie in its tangent space")
    if not tq.contains(q):
        raise PreconditionError("second point does not lie in its tangent space")
    rows = [tuple(map(mul, p.ints, g)) for g in tq.generators.ints]
    rows += [tuple(map(mul, q.ints, g)) for g in tp.generators.ints]
    span = LinSpace.span_of(rows)
    if span is None:
        raise PreconditionError("the Terracini span collapsed to nothing")
    return span


def expected_dimension(dim_x, dim_y, dim_h, dim_g):
    """Upper bound min(dim X + dim Y - dim H, dim G) for dim(X * Y).

    H is the largest subtorus acting on both factors and G the smallest
    subtorus with cosets containing them.
    """
    return min(dim_x + dim_y - dim_h, dim_g)


def interpolate_forms(sampler, d, rng, points=None):
    """Basis of degree-d forms vanishing on the sampled variety.

    Uses binom(n+d, d) monomials and 25% more samples than monomials, the
    first of `points` (canonical integer points; extended in place by fresh
    draws, a new list when None).  The kernel of the integer evaluation
    matrix contains the true degree-d piece of the vanishing ideal and
    equals it with probability one over seeds; it is solved on as many
    samples as monomials, and the extra ones serve its exact check.
    """
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    n = sampler.ambient_dim
    if comb(n + d, d) > INTERP_MONOMIAL_BUDGET:
        raise BudgetExhausted("degree %d in P^%d has %d monomials, past the budget of %d"
                              % (d, n, comb(n + d, d), INTERP_MONOMIAL_BUDGET))
    monomials = monomials_of_degree(n + 1, d)
    count = len(monomials) + (len(monomials) * OVERSAMPLE_NUM + OVERSAMPLE_DEN - 1) // OVERSAMPLE_DEN
    points = [] if points is None else points
    points.extend(sampler.sample_point(rng).canonical() for _ in range(count - len(points)))
    rows = list(zip(*monomial_products(list(zip(*points[:count])), d)))
    return [SparsePoly._trusted(n + 1, {m: v for m, v in zip(monomials, vec) if v}).primitive()
            for vec in integer_kernel_basis(rows)]


def interpolate_hypersurface(sampler, dmax, rng):
    """Degree and defining form of a sampled hypersurface.

    Returns the smallest d <= dmax with a one-dimensional space of
    vanishing forms, together with that form, integer-cleared.  A kernel of
    dimension greater than one at the first hit means the variety is not a
    hypersurface (or the sampling was insufficient) and raises.  One draw
    serves the whole search: degree d reads the first samples of one
    growing list.
    """
    points = []
    for d in range(1, dmax + 1):
        forms = interpolate_forms(sampler, d, rng, points)
        if len(forms) == 1:
            return d, forms[0]
        if len(forms) > 1:
            raise PreconditionError(
                "kernel dimension %d at degree %d: not a hypersurface or undersampled"
                % (len(forms), d))
    raise PreconditionError("no vanishing form found up to degree %d" % dmax)
