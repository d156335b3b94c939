"""Span dimensions, identifiability, Terracini tangent spans, expected
dimension, and the interpolation oracle for Hadamard products.

Span dimensions and identifiability both rest on the generalized
Vandermonde matrix: its rank is the span dimension plus one, and full rank
binom(m + r, r) for one space is an exact proof that unordered r-tuples of
its points are recovered from their product (see identifiability_check).
Below full rank a line gets a constructed exact collision, and only a
rank-deficient space of higher dimension falls back to a sampled search.

The interpolation oracle replaces ideal elimination as the independent
verification route: the degree-d forms vanishing on a sampled variety are
exactly the kernel of the monomial-evaluation matrix at a parameter grid, a
tensor product of principal lattices read off the sampler's factors, which
is unisolvent for the compositions of the forms with the product map (proof
in interpolate_forms).  Nothing is drawn, the grid's parameters are small
integers, and the shape limits and the build's charge to the lift budget
are checked before anything is built.
"""

import warnings
from collections import Counter
from itertools import combinations_with_replacement
from math import comb, isqrt, prod
from operator import add, itemgetter, mul

from .linalg import (BudgetExhausted, PreconditionError, QMatrix, integer_kernel_basis,
                     integer_rank, lift_budget, primitive_ints, spend)
from .poly import SparsePoly, monomial_products, monomials_of_degree
from .projective import LinSpace, PPoint, sample_point

#: Largest monomial count binom(n+d, d) `interpolate_forms` accepts; past it,
#: it raises BudgetExhausted before building anything.  The slowest payload
#: measured at 300, degree 2 on a 20-space in P^23, took 4.3 s on drawn
#: points and takes 1.1 s on the grid (231 rows), on a 2-vCPU Xeon VM.
INTERP_MONOMIAL_BUDGET = 300

#: Largest grid size (`interpolation_grid_size`) times monomial count that
#: `interpolate_forms` accepts; past it, it raises BudgetExhausted before
#: building anything.  The build and the exact checks of the forms on the
#: grid rows draw on the lift budget, so the limit refuses early and caps
#: the matrix's size.  Degree 2 on a reciprocal plane times a line in P^21
#: (718,014 cells), whole processes on a 2-vCPU Xeon VM: small generic
#: entries answer in 2.9 s, and 4 distinct columns (243 forms, each checked
#: on every row) are refused at the checks in 2.8 s; P^22 (895,356 cells)
#: is refused at once.
INTERP_GRID_LIMIT = 750000

#: Largest work of a generalized Vandermonde rank (`check_span_dim_work`)
#: that `span-dim` accepts; past it, it raises BudgetExhausted before any
#: draw.  Payloads at the limit, whole processes on a 2-vCPU Xeon VM: the
#: slowest measured, dims [[5, 1]] in P^166665, takes 3.2 s; [[1, 1]] in
#: P^735293 2.1 s (321 MiB), [[1, 55]] in P^30 2.3 s, [[3, 24]] in P^10
#: 1.1 s and [[1, 39]] in P^39 1.5 s.
SPAN_DIM_WORK_LIMIT = 10 ** 8

#: Largest `vandermonde_bit_work` that `span-dim` with explicit generators
#: and `line-power` accept; past it, they raise BudgetExhausted before any
#: work.  Whole processes on a 2-vCPU Xeon VM took 0.6-2.3 * 10^-13 s per
#: unit on heavy payloads (entries of 6 to 1,003 bits, P^3 to P^20), so
#: the limit keeps a rank near 2 s.  `span-dim` of a line of 60-digit
#: entries: mult 120 in P^3 (1.8 * 10^13) took 2.5 s and mult 40 in P^10
#: (3.8 * 10^13) 4.6 s, both now refused; mult 300 in P^3 took 32.9 s.  A
#: `line-power` of 67-bit entries in P^3 at r = 300 took 7.4 s.
SPAN_DIM_BIT_WORK_LIMIT = 10 ** 13


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


def bareiss_bit_work(rows, cols, bits):
    """R C k^3 B^2, k = min(R, C), for Bareiss on an R x C matrix of B-bit
    entries: about R C k updates, those of step j on j B-bit minors."""
    return rows * cols * min(rows, cols) ** 3 * bits ** 2


def vandermonde_bit_work(entries):
    """The work R C k^3 B^2 of eliminating `gen_vandermonde(entries)`, for
    (LinSpace, multiplicity r_k) entries in P^n: R = prod binom(m_k + r_k,
    r_k) rows, C = n + 1 columns, k = min(R, C), and B = sum r_k b_k for
    b_k the largest bit length of space k's integer generator entries.

    A matrix entry is a product of r_k generator entries of each space, of
    up to B bits (`bareiss_bit_work`).  `vandermonde_work` counts the same
    updates linearly in sum r_k only, which is right for the small entries
    it was timed on; check it first, so that R here is small.
    """
    rows = prod(comb(space.dim + r, r) for space, r in entries)
    cols = entries[0][0].ambient_dim + 1
    bits = sum(r * _generator_bits(space) for space, r in entries)
    return bareiss_bit_work(rows, cols, bits)


def _generator_bits(space):
    """The largest bit length of a space's integer generator entries."""
    return max(abs(x).bit_length() for row in space.generators.ints for x in row)


def check_span_dim_work(dims_and_mults, n):
    """Raise BudgetExhausted when `vandermonde_work` is past SPAN_DIM_WORK_LIMIT."""
    if vandermonde_work(dims_and_mults, n) > SPAN_DIM_WORK_LIMIT:
        raise BudgetExhausted("the generalized Vandermonde matrix in P^%d is past the "
                              "span-dim work limit of %d" % (n, SPAN_DIM_WORK_LIMIT))


def check_span_dim_bit_work(entries):
    """Raise BudgetExhausted when `vandermonde_bit_work` is past SPAN_DIM_BIT_WORK_LIMIT."""
    if vandermonde_bit_work(entries) > SPAN_DIM_BIT_WORK_LIMIT:
        raise BudgetExhausted("the generalized Vandermonde matrix in P^%d, counting its "
                              "entries' bits, is past the bit work limit of %d"
                              % (entries[0][0].ambient_dim, SPAN_DIM_BIT_WORK_LIMIT))


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


def _terracini_rows(p, tp, q, tq):
    """The integer rows p * g for g in T_q(Y) and q * g for g in T_p(X),
    after checking that each point lies in its tangent space (a row times a
    nonzero scale spans the same)."""
    if len(p.ints) != len(q.ints):
        raise ValueError("ambient dimensions differ")
    if not tp.contains(p):
        raise PreconditionError("first point does not lie in its tangent space")
    if not tq.contains(q):
        raise PreconditionError("second point does not lie in its tangent space")
    rows = [tuple(map(mul, p.ints, g)) for g in tq.generators.ints]
    rows += [tuple(map(mul, q.ints, g)) for g in tp.generators.ints]
    return rows


def terracini_span(p, tp, q, tq):
    """Tangent space of X*Y at p*q: the span of p*T_q(Y) and q*T_p(X)."""
    span = LinSpace.span_of(_terracini_rows(p, tp, q, tq))
    if span is None:
        raise PreconditionError("the Terracini span collapsed to nothing")
    return span


def terracini_dim(p, tp, q, tq):
    """`terracini_span(p, tp, q, tq).dim` from one rank of the same rows,
    with no reduced form and no LinSpace."""
    rank = integer_rank(_terracini_rows(p, tp, q, tq))
    if not rank:
        raise PreconditionError("the Terracini span collapsed to nothing")
    return rank - 1


def expected_dimension(dim_x, dim_y, dim_h, dim_g):
    """Upper bound min(dim X + dim Y - dim H, dim G) for dim(X * Y).

    H is the largest subtorus acting on both factors and G the smallest
    subtorus with cosets containing them.
    """
    return min(dim_x + dim_y - dim_h, dim_g)


def _lattice_points(gens, top):
    """(i_1 + ... + i_m, g_0 + i_1 g_1 + ... + i_m g_m) for the generator
    rows g_0..g_m and every i >= 0 with i_1 + ... + i_m <= top (the
    principal lattice), one vector addition each."""
    out = []

    def rec(vec, j, left):
        if j == len(gens):
            out.append((top - left, vec))
            return
        for rest in range(left, -1, -1):
            rec(vec, j + 1, rest)
            vec = tuple(map(add, vec, gens[j]))

    rec(tuple(gens[0]), 1, top)
    return out


def _reciprocal_ints(a):
    """prod_{j != k} a_j for every k: the point 1/a times prod a where a has
    no zero coordinate, and the same polynomial map where it has."""
    zeros = [k for k, x in enumerate(a) if not x]
    if not zeros:
        total = prod(a)
        return tuple(total // x for x in a)
    out = [0] * len(a)
    if len(zeros) == 1:
        out[zeros[0]] = prod(x for x in a if x)
    return tuple(out)


def _multiset_products(points, r):
    """(sum of the sizes, entrywise product of the points) for every
    multiset of r of the (size, point) pairs."""
    out = []
    for multiset in combinations_with_replacement(points, r):
        size, vec = multiset[0]
        for more, other in multiset[1:]:
            size += more
            vec = tuple(map(mul, vec, other))
        out.append((size, vec))
    return out


def _factor_groups(sampler, d):
    """(space, reciprocal?, r, D) per distinct factor of a sampler: r the
    number of factors equal to it and D its block degree at degree d, d for
    a linear factor and d n for a reciprocal one in P^n."""
    return [(space, reciprocal, r, d * space.ambient_dim if reciprocal else d)
            for (space, reciprocal), r in Counter(sampler.factors).items()]


def interpolation_grid_size(sampler, d):
    """The number of grid points of `interpolation_grid` before zero and
    repeated ones are dropped, computed without building any: the product
    over distinct factors of binom(L + r - 1, r), the multisets of size r
    of the factor's L = binom(D + m, m) lattice points."""
    return _grid_size(_factor_groups(sampler, d))


def _grid_size(groups):
    """`interpolation_grid_size` from the sampler's `_factor_groups`."""
    return prod(comb(comb(top + space.dim, space.dim) + r - 1, r) for space, _, r, top in groups)


def interpolation_cost(sampler, d):
    """(refusal, build, reduction) for degree d, computed without building
    anything: the message of the first shape limit that refuses d, or
    None, and the `linalg.lift_budget` units of building its evaluation
    matrix and of reducing it mod p in the kernel's first pass.

    The shape limits are the monomial count C = binom(n+d, d) past
    INTERP_MONOMIAL_BUDGET and the grid size R (`interpolation_grid_size`)
    times C past INTERP_GRID_LIMIT.  Both grow with d, so a degree that
    passes them has lower degrees that pass too.

    A cell of the matrix has at most B = d b bits, b a bound on a grid
    coordinate's bits.  A factor's lattice point g_0 + i_1 g_1 + ... + i_m
    g_m with sum i <= D is below (D + 1) 2^g in absolute value, g its
    generators' bits, so it has at most g + bit_length(D + 1) bits, and a
    reciprocal point is a product of n of them; a grid coordinate is a
    product of one point coordinate per factor.  The R C cells are built
    by products of such ints (`poly.monomial_products`), 2000 + B^1.5 / 5
    units each (past a few thousand bits, products follow Karatsuba's
    B^1.58), and the kernel's first pass reduces the leading min(R, C)
    rows mod p, 3 (B + 64) units a cell, as `linalg.integer_kernel_basis`
    charges a later pass.
    """
    n = sampler.ambient_dim
    monomial_count = comb(n + d, d)
    if monomial_count > INTERP_MONOMIAL_BUDGET:
        return ("degree %d in P^%d has %d monomials, past the budget of %d"
                % (d, n, monomial_count, INTERP_MONOMIAL_BUDGET)), None, None
    groups = _factor_groups(sampler, d)
    size = _grid_size(groups)
    if size * monomial_count > INTERP_GRID_LIMIT:
        return ("degree %d has a grid of %d points by %d monomials, past the grid limit of %d"
                % (d, size, monomial_count, INTERP_GRID_LIMIT)), None, None
    bits = 0
    for space, reciprocal, r, top in groups:
        point = _generator_bits(space) + (top + 1).bit_length()
        bits += r * (n * point if reciprocal else point)
    cell = d * bits
    return (None, size * monomial_count * (2000 + cell * isqrt(cell) // 5),
            min(size, monomial_count) * monomial_count * 3 * (cell + 64))


def interpolation_grid(sampler, d):
    """The distinct nonzero points of the degree-d parameter grid of a
    sampled variety, as integer tuples (the proof that they determine the
    degree-d forms is in `interpolate_forms`).

    A factor with integer generator rows g_0..g_m in P^n takes the
    parameters (1, i) for i in the principal lattice {i_1 + ... + i_m <= D}
    of its block degree D: its point is a = g_0 + i_1 g_1 + ... + i_m g_m,
    or the point (prod_{j != k} a_j)_k for a reciprocal factor.  The r equal
    factors of a power take the multisets of size r of these points, and the
    grid is the entrywise product of one choice per distinct factor.

    The points come in increasing total size sum |i| of their parameters,
    and a point with a zero coordinate is made primitive before repeated
    points are dropped.  Both serve the kernel, which factors only the
    leading square block of a tall evaluation matrix
    (`linalg.integer_kernel_basis`) and moves on to the whole matrix when
    a lifted vector proves that block singular.  The lattice taken line by
    line puts many points of one curve there; smallest sizes first spread
    it over the grid.  Zero coordinates make multiples of one point: a
    reciprocal factor maps every a with one zero coordinate j to a
    multiple of the unit vector e_j, and a product keeps that.  Points
    without a zero coordinate are kept as computed, cheaper than a gcd.

    Raises BudgetExhausted for an empty product: a reciprocal factor whose
    generators have a zero column (its space lies in a coordinate
    hyperplane, so its reciprocal is empty), or a grid whose points are all
    zero (the product map then vanishes identically).
    """
    blocks = []
    for space, reciprocal, r, top in _factor_groups(sampler, d):
        gens = space.generators.ints
        points = _lattice_points(gens, top)
        if reciprocal:
            zero = next((k for k, col in enumerate(zip(*gens)) if not any(col)), None)
            if zero is not None:
                raise BudgetExhausted("a reciprocal factor lies in the coordinate hyperplane "
                                      "x_%d = 0, so its reciprocal is empty" % zero)
            points = [(size, _reciprocal_ints(a)) for size, a in points]
        blocks.append(_multiset_products([p for p in points if any(p[1])], r))
    grid = blocks[0]
    for block in blocks[1:]:
        grid = [(size + more, tuple(map(mul, vec, other)))
                for size, vec in grid for more, other in block]
    grid.sort(key=itemgetter(0))
    grid = list(dict.fromkeys(vec if all(vec) else primitive_ints(vec)
                              for _, vec in grid if any(vec)))
    if not grid:
        raise BudgetExhausted("every point of the parameter grid is zero, so the product "
                              "of the factors is empty")
    return grid


def interpolate_forms(sampler, d, budget=None, most=None, built=None):
    """Basis of the degree-d forms vanishing on a sampled variety X: the
    integer kernel of the evaluation matrix of the binom(n+d, d) monomials
    at the points of `interpolation_grid`.  Nothing is drawn.

    Proof that the kernel is exactly I_d(X), the degree-d forms vanishing
    on X.  X is the closure of the image of phi = phi_1 * ... * phi_K,
    where phi_k(s) = s G_k for a linear factor with generator matrix G_k
    and, for a reciprocal factor in P^n, phi_k(s) = (prod_{j != l} a_j)_l
    for a = s G_k, a polynomial of degree n in s.  On the parameters where
    no reciprocal factor's a has a zero coordinate and phi is not zero,
    phi is the point that the samplers multiply; they form a dense open set
    U, nonempty because no reciprocal factor's generators have a zero
    column (such a space's reciprocal is empty) and phi does not vanish at
    every grid point (its coordinates have block degrees at most D_k, so by
    the unisolvence below, phi would otherwise vanish identically).  For a
    form F of degree d, F o phi is homogeneous of degree D_k in block k, so
    F vanishes on X iff F o phi vanishes on U iff F o phi = 0 as a
    polynomial.  Setting the first parameter of each block to 1 keeps a
    block-homogeneous polynomial's coefficients and leaves one of total
    degree at most D_k in block k.  The principal lattice {i_1 + ... + i_m
    <= D} is unisolvent for polynomials of total degree <= D (Chung & Yao,
    SIAM J. Numer. Anal. 1977), and a tensor product of unisolvent sets is
    unisolvent for the tensor product of the spaces (vanish on the grid one
    block at a time).  So F o phi = 0 iff it vanishes on the grid.  A grid
    point is a point of X or zero, F is zero at zero, and scaling a point
    scales its row; F o phi is symmetric in the parameters of equal factors,
    so the multisets give every value of the full tensor product.  Hence
    F is in I_d(X) iff it vanishes at every point of the grid.

    Raises BudgetExhausted before building anything when a shape limit
    refuses d or its build charge overdraws `budget` (`interpolation_cost`;
    a `linalg.lift_budget` cell, a new one when None); for an empty product
    (`interpolation_grid`); and once the kernel's work is past `budget`,
    each step charged before it runs: no count before the kernel bounds the
    forms' coefficients.  With `most`, None when the kernel's first
    factorization has more than `most` free columns, with nothing lifted
    (`linalg.integer_kernel_basis`).

    `built` is a dict that the degrees of one search share: the matrix of
    degree d is taken out of it when there, charged only for the kernel's
    first pass, and put into it when `most` refuses its kernel, so that
    the search builds each matrix once.
    """
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    refusal, build, reduction = interpolation_cost(sampler, d)
    if refusal:
        raise BudgetExhausted(refusal)
    budget = lift_budget() if budget is None else budget
    rows = built.pop(d, None) if built else None
    spend(budget, "the degree-%d evaluation matrix in P^%d" % (d, sampler.ambient_dim),
          reduction if rows else build + reduction)
    if rows is None:
        points = interpolation_grid(sampler, d)
        rows = list(zip(*monomial_products(list(zip(*points)), d)))
    kernel = integer_kernel_basis(rows, budget, most)
    if kernel is None:
        if built is not None:
            built[d] = rows
        return None
    n = sampler.ambient_dim
    monomials = monomials_of_degree(n + 1, d)
    return [SparsePoly._trusted(n + 1, {m: v for m, v in zip(monomials, vec) if v}).primitive()
            for vec in kernel]


def _closed_form_hint(sampler):
    """The degree delta that `tropical.closed_form_degree` gives the
    sampler's factors, grouped into the plain and reciprocal [dimension,
    multiplicity] lists that `degree` reads, when it is a hypersurface's:
    dimension n - 1 and delta an integer >= 1.  Else None, as on any error
    of the closed form (its digit bound, for example).  Exact for generic
    factors, and only a hint otherwise: `interpolate_hypersurface` proves
    its answer by the kernel either way."""
    from .tropical import closed_form_degree  # tropical imports this module
    lists = {False: [], True: []}
    for (space, reciprocal), r in Counter(sampler.factors).items():
        lists[reciprocal].append((space.dim, r))
    n = sampler.ambient_dim
    try:
        dim, degree, _ = closed_form_degree(lists[False], lists[True], n)
    except (ValueError, BudgetExhausted):
        return None
    if dim != n - 1 or degree.denominator != 1 or degree < 1:
        return None
    return int(degree)


def interpolate_hypersurface(sampler, dmax):
    """Degree and defining form of a sampled hypersurface.

    Returns the smallest d <= dmax with a one-dimensional space of
    vanishing forms (`interpolate_forms`), together with that form,
    integer-cleared.  A kernel of dimension greater than one at the first
    hit means the variety is not a hypersurface and raises.  The degrees
    share one `linalg.lift_budget`.

    The search probes d0 = min(delta, dmax) first, delta the
    `_closed_form_hint`, and proves every lower degree empty from that one
    kernel.  Lemma: for X in P^n, n >= 1, if dim I_d0(X) <= 1 then I_e(X)
    = 0 for every e < d0.  A nonzero F in I_e gives G F in I_d0 for every
    form G of degree d0 - e, and G -> G F is injective, so dim I_d0 >=
    binom(n + d0 - e, n) >= n + 1 >= 2.  So one form at d0 is the answer
    that the search from degree 1 returns, and no form at d0 leaves it to
    go on at d0 + 1.

    Budget bound.  A d0 refused by a shape limit, or whose build charge
    does not fit the budget (`interpolation_cost`), is not probed, and the
    search from degree 1 raises the refusal where it meets it.  The probe
    spends d0's build charge and passes `most` = 1 to the kernel, which
    lifts nothing, spends nothing more and gives None when its first
    factorization has more than one free column; the search then runs
    from degree 1 and takes the probe's matrix up again if it reaches d0
    (`built`), paying only for its first pass.  When that count is <= 1, dim I_d0 <= 1
    (`linalg.integer_kernel_basis`), so by the lemma a search from degree
    1 would find every lower degree empty, reach d0 and build and compute
    this same kernel: the probe never spends more of the shared budget
    than that search does before it is past d0, and a probe past the
    budget is a search past it too, perhaps at a lower degree's matrix.
    The shape limits grow with d, so below a probed d0 every degree passes
    them, and an empty product (`interpolation_grid`) is refused alike at
    every degree.  So the answer, or the error, is the one that the search
    from degree 1 gives, but where the hint is wrong and that search ends
    below d0 within d0's build charge of the budget: its one d0 build is
    then the probe's surplus, and the search is refused instead.
    """
    budget, built, start = lift_budget(), {}, 1
    hint = _closed_form_hint(sampler)
    if hint is not None:
        d0 = min(hint, dmax)
        refusal, build, reduction = interpolation_cost(sampler, d0)
        if refusal is None and build + reduction <= budget[0]:
            forms = interpolate_forms(sampler, d0, budget, most=1, built=built)
            if forms is not None and len(forms) == 1:
                return d0, forms[0]
            if forms == []:
                start = d0 + 1
    for d in range(start, dmax + 1):
        forms = interpolate_forms(sampler, d, budget, built=built)
        if len(forms) == 1:
            return d, forms[0]
        if len(forms) > 1:
            raise PreconditionError(
                "kernel dimension %d at degree %d: not a hypersurface"
                % (len(forms), d))
    raise PreconditionError("no vanishing form found up to degree %d" % dmax)
