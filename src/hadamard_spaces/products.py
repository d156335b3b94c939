"""Span dimensions, identifiability, Terracini tangent spans, expected
dimension, and the interpolation oracle for Hadamard products.

Span dimensions and identifiability both rest on the generalized
Vandermonde matrix: its rank is the span dimension plus one, and full rank
binom(m + r, r) for one space is an exact proof that unordered r-tuples of
its points are recovered from their product (see identifiability_check).
Only rank-deficient spaces fall back to a sampled collision search.

The interpolation oracle replaces ideal elimination as the independent
verification route: degree-d forms vanishing on a sampled variety are the
kernel of the monomial-evaluation matrix built from more samples than
monomials.  Everything is exact, so a recovered form vanishes identically
on the samples, not approximately.
"""

import warnings
from fractions import Fraction
from math import comb, prod

from .linalg import PreconditionError, QMatrix, integer_kernel_basis
from .poly import SparsePoly, monomials_of_degree
from .projective import LinSpace, sample_point

#: Oversampling margin for interpolation: extra rows beyond the monomial
#: count, as a fraction of it.  Makes spurious kernel vectors a
#: probability-zero event while keeping the matrices small.
OVERSAMPLE_NUM, OVERSAMPLE_DEN = 1, 4


def compositions(total, parts):
    """Weak compositions of `total` into `parts` slots, first slot largest first."""
    if parts == 1:
        yield (total,)
        return
    for e in range(total, -1, -1):
        for rest in compositions(total - e, parts - 1):
            yield (e,) + rest


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
    blocks = []
    for space, mult in entries:
        if mult < 1:
            raise ValueError("multiplicities must be >= 1")
        if space.generators.ncols != width:
            raise ValueError("ambient dimensions differ")
        gens = space.generators.rows
        block = []
        for expo in compositions(mult, len(gens)):
            row = [Fraction(1)] * width
            for g, e in zip(gens, expo):
                if e:
                    row = [x * v ** e for x, v in zip(row, g)]
            block.append(tuple(row))
        blocks.append(block)
    rows = blocks[0]
    for block in blocks[1:]:
        rows = [tuple(x * y for x, y in zip(row, other)) for row in rows for other in block]
    return QMatrix(rows)


def span_dimension_formula(dims_and_mults, n):
    """Closed-form expected span dimension min(prod binom(m+r, r) - 1, n)."""
    return min(prod(comb(m + r, r) for m, r in dims_and_mults) - 1, n)


def identifiability_regime_bound(dims_and_mults):
    """Smallest ambient dimension with guaranteed identifiability."""
    return prod(comb(m + r, r) for m, r in dims_and_mults) - 1


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

    Below that rank the check falls back to a sampled collision search
    (`_search_collisions`), whose reported pairs are exact counterexamples,
    but whose None is not a proof.  Below the guarantee regime
    n >= binom(m + r, r) - 1 the rank cannot be full, and a warning is
    issued.
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
    if gen_vandermonde([(space, r)]).rank() == comb(space.dim + r, r):
        return None
    return _search_collisions(space, r, trials, rng)


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
    """Tangent space of X*Y at p*q: the span of p*T_q(Y) and q*T_p(X)."""
    if len(p.coords) != len(q.coords):
        raise ValueError("ambient dimensions differ")
    if not tp.contains(p):
        raise PreconditionError("first point does not lie in its tangent space")
    if not tq.contains(q):
        raise PreconditionError("second point does not lie in its tangent space")
    rows = []
    for g in tq.generators.rows:
        rows.append(tuple(a * b for a, b in zip(p.coords, g)))
    for g in tp.generators.rows:
        rows.append(tuple(a * b for a, b in zip(q.coords, g)))
    span = LinSpace.span_of(QMatrix(rows))
    if span is None:
        raise PreconditionError("the Terracini span collapsed to nothing")
    return span


def expected_dimension(dim_x, dim_y, dim_h, dim_g):
    """Upper bound min(dim X + dim Y - dim H, dim G) for dim(X * Y).

    H is the largest subtorus acting on both factors and G the smallest
    subtorus with cosets containing them.
    """
    return min(dim_x + dim_y - dim_h, dim_g)


def _evaluation_rows(sampler, monomials, count, rng):
    """Integer evaluation matrix: one row per sample, one column per monomial.

    Samples are reduced to canonical integer coordinates first (projectively
    harmless), so the whole matrix is integral and the kernel computation can
    run fraction-free.
    """
    rows = []
    for _ in range(count):
        coords = sampler.sample_point(rng).canonical()
        row = []
        for expo in monomials:
            v = 1
            for x, e in zip(coords, expo):
                if e:
                    v *= x ** e
            row.append(v)
        rows.append(row)
    return rows


def interpolate_forms(sampler, d, rng):
    """Basis of degree-d forms vanishing on the sampled variety.

    Uses binom(n+d, d) monomials and 25% more samples than monomials; the
    kernel of the evaluation matrix contains the true degree-d piece of the
    vanishing ideal and equals it with probability one over seeds.
    """
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    n = sampler.ambient_dim
    monomials = monomials_of_degree(n + 1, d)
    count = len(monomials) + (len(monomials) * OVERSAMPLE_NUM + OVERSAMPLE_DEN - 1) // OVERSAMPLE_DEN
    rows = _evaluation_rows(sampler, monomials, count, rng)
    forms = []
    for vec in integer_kernel_basis(rows):
        poly = SparsePoly(n + 1, dict(zip(monomials, vec)))
        forms.append(poly.primitive())
    return forms


def interpolate_hypersurface(sampler, dmax, rng):
    """Degree and defining form of a sampled hypersurface.

    Returns the smallest d <= dmax with a one-dimensional space of
    vanishing forms, together with that form, integer-cleared.  A kernel of
    dimension greater than one at the first hit means the variety is not a
    hypersurface (or the sampling was insufficient) and raises.
    """
    for d in range(1, dmax + 1):
        forms = interpolate_forms(sampler, d, rng)
        if len(forms) == 1:
            return d, forms[0]
        if len(forms) > 1:
            raise PreconditionError(
                "kernel dimension %d at degree %d: not a hypersurface or undersampled"
                % (len(forms), d))
    raise PreconditionError("no vanishing form found up to degree %d" % dmax)
