"""Square-free Hadamard powers of finite point sets and star configurations.

A star configuration is the set of binom(m, r) points obtained as all
r-fold intersections of m hyperplanes of an r-dimensional linear space M,
the hyperplanes being in linear general position.  Products of r distinct
collinear points realize exactly such a configuration, with M the r-th
power of the line and the i-th hyperplane p_i * L^(r-1); build_star
constructs that witness and verify_star checks it from first principles.

The checks run inside M, in integers, in M's pivot frame (P, D, D*R) of
`projective.LinSpace`, whose docstring proves that a vector y of M is fixed
by its entries y_P at the pivots and that D*y = y_P (D*R) decides membership.

- Normals.  A hyperplane H of M has r independent generators; their
  entries at P stay independent, so the kernel of that r x (r+1) matrix A
  is one line.  It is spanned by the integer normal w_H, w_j = (-1)^j times
  the r-minor of A without column j: for a row a of A, w_H . a is the
  determinant of A with a put on top (Laplace along that row), which has a
  repeated row, and some r-minor of A is nonzero.  {y in M : w_H . y_P = 0}
  contains H and has the same dimension, so it is H.
- Intersections.  For hyperplanes H_i, i in S, the intersection is
  {y in M : W_S y_P = 0}, with W_S the matrix of their normals: projective
  dimension r - rank W_S, empty at rank r+1.  The j-fold intersection has
  the expected dimension r - j (empty for j = r+1) iff the j normals are
  independent.
- General position.  With k = min(m, r+1), every set of at most k normals
  lies in a set of exactly k, and subsets of independent sets are
  independent; so general position holds iff every k-subset of normals is
  independent: for m <= r, iff the m normals have rank m, and for m > r,
  iff every (r+1)-minor of the m x (r+1) matrix of normals is nonzero.
  Only when one is not does the ordered search run (j = 2, 3, ..., subsets
  in lex order), so the certificate is the first violating subset of that
  order.
- Points, by incidence.  Let general position hold, and call the point of
  an r-set S of hyperplanes their intersection, a single point (r
  independent normals).  A point y of M lies on H iff w_H . y_P = 0.  If y
  lies on the hyperplanes of S, it is the point of S.  So when every
  witness point lies in M and on exactly r hyperplanes, their r-sets are
  pairwise distinct and there are binom(m, r) points, the witness points
  are the points of all binom(m, r) r-sets: all the r-fold intersection
  points.  Conversely, the point of S lies on no hyperplane outside S, as
  r+1 hyperplanes meet in nothing, and so two r-sets never share a point;
  the r-fold intersection points therefore pass these checks.  No kernel
  is solved: each witness point costs one membership test and m dot
  products.
"""

from itertools import combinations
from math import comb
from operator import mul

from .linalg import (BudgetExhausted, PreconditionError, integer_maximal_minors, integer_rank,
                     primitive_ints)
from .line_powers import line_power_matrix
from .projective import LinSpace, all_ones_point, pluecker, point_times_space

#: Most entries `star-config` prints plus general position minors
#: (`star_output_count`); past it, `check_star_config_limits` raises
#: BudgetExhausted before any work.  Whole processes near the limit on
#: random lines of 2-digit entries, on a 2-vCPU Xeon VM: 17 points at r = 8
#: in P^16 (831,606) 2.5 s, 18 at r = 7 in P^10 2.1 s, 30 at r = 4 in P^5
#: 1.3 s, 120 at r = 2 in P^3 0.7 s; and 2 points at r = 1 on the line
#: [[1, ..., 1], [1, ..., 701]] in P^700 0.5 s.
#: Digits are counted by STAR_CONFIG_BIT_WORK_LIMIT.  24 points at r = 12
#: in P^13 ran past 30 s.
STAR_CONFIG_OUTPUT_LIMIT = 10 ** 6

#: Largest `star_bit_work` that `star-config` accepts; past it,
#: `check_star_config_bit_work` raises BudgetExhausted before any work.
#: Whole processes on a 2-vCPU Xeon VM, with the limit lifted, took
#: 2.3-3.5 ps per unit near it at every r from 1 to 11, so it keeps a
#: payload near 4 s at most, inside the 5 s of acceptance criterion 1.
#: Refused: 17 points at r = 8 in P^16 on a line of 10-digit entries
#: (6.2 * 10^12, 16.5 s) or 4-digit ones (1.4 * 10^12, 3.3 s), 17 at r = 9
#: in P^10 with 4-digit entries (1.8 * 10^12, 5.0 s) and 18 at r = 11 in
#: P^12 with 2-digit ones (2.1 * 10^12, 4.7 s).  Passed: 30 points at r = 4
#: in P^5 with 10-digit entries (6.0 * 10^11, 2.2 s) or 15-digit ones
#: (1.2 * 10^12, 3.3 s), 17 at r = 8 in P^16 with 3-digit entries
#: (9.7 * 10^11, 2.5 s), 17 at r = 10 in P^11 with 13-bit ones
#: (1.16 * 10^12, 3.6 s), 120 at r = 2 in P^3 with 53-digit ones
#: (1.07 * 10^12, 2.1 s).  For r <= 9 the factor (r + 1)^2 of
#: `star_bit_work` is at most 100, so every payload of count * (r b)^2 <=
#: 10^10, the former rule, still passes.
STAR_CONFIG_BIT_WORK_LIMIT = 12 * 10 ** 11


class PointSet:
    """A finite set of pairwise distinct projective points."""

    __slots__ = ("points", "ambient_dim")

    def __init__(self, points):
        points = list(points)
        if not points:
            raise ValueError("empty point set")
        self.ambient_dim = points[0].ambient_dim
        seen = {}
        for p in points:
            if p.ambient_dim != self.ambient_dim:
                raise ValueError("ambient dimensions differ")
            key = p.canonical()
            if key in seen:
                raise ValueError("duplicate point %r" % (p,))
            seen[key] = p
        self.points = tuple(points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def canonical_keys(self):
        return frozenset(p.canonical() for p in self.points)

    def __eq__(self, other):
        return isinstance(other, PointSet) and self.canonical_keys() == other.canonical_keys()

    def __repr__(self):
        return "PointSet(%d points in P^%d)" % (len(self.points), self.ambient_dim)


class StarWitness:
    """Ambient space M, hyperplanes of M, points, and their generating subsets.

    The hyperplanes' dimension and containment in M are checked once, by
    verify_star and verify_general_position (`_normals`), not here.
    """

    __slots__ = ("ambient_space", "hyperplanes", "points", "origin_subsets")

    def __init__(self, ambient_space, hyperplanes, points, origin_subsets=None):
        self.ambient_space = ambient_space
        self.hyperplanes = list(hyperplanes)
        self.points = points
        self.origin_subsets = origin_subsets
        r = ambient_space.dim
        if len(points) != comb(len(self.hyperplanes), r):
            raise PreconditionError(
                "expected binom(%d, %d) = %d points, got %d"
                % (len(self.hyperplanes), r, comb(len(self.hyperplanes), r), len(points)))


def squarefree_power(zset, r):
    """Products over all r-subsets of distinct points, deduplicated.

    Undefined products are dropped.  Under the collinearity hypotheses of
    the star-configuration theorem the result has exactly binom(m, r)
    points; in general it can be smaller.
    """
    points, _ = squarefree_power_with_subsets(zset, r)
    return points


def squarefree_power_with_subsets(zset, r):
    """squarefree_power plus, for each point, the index subset producing it."""
    if r > len(zset):
        raise PreconditionError("r = %d exceeds the number of points %d" % (r, len(zset)))
    if r < 1:
        raise PreconditionError("r must be >= 1")
    found = {}
    for subset in combinations(range(len(zset.points)), r):
        prod = None
        for i in subset:
            p = zset.points[i]
            prod = p if prod is None else prod.hadamard(p)
            if prod is None:
                break
        if prod is not None:
            found.setdefault(prod.canonical(), (prod, subset))
    return PointSet(p for p, _ in found.values()), [subset for _, subset in found.values()]


def build_star(zset, line, r):
    """Star-configuration witness for the square-free power of collinear points.

    Hypotheses, checked eagerly and reported individually:
      * line is a line containing every point of zset;
      * r <= min(|zset|, n);
      * no Pluecker bracket of the line vanishes (the line avoids the
        codimension-2 coordinate strata);
      * every point of zset has all coordinates nonzero.
    """
    n = line.ambient_dim
    if line.dim != 1:
        raise PreconditionError("second argument must be a line")
    if zset.ambient_dim != n:
        raise PreconditionError("ambient dimensions differ")
    if r > min(len(zset), n):
        raise PreconditionError("r = %d exceeds min(|Z|, n) = %d" % (r, min(len(zset), n)))
    if r < 1:
        raise PreconditionError("r must be >= 1")
    pl = pluecker(line)
    for key in sorted(pl.minors):
        if not pl.minors[key]:
            raise PreconditionError("bracket [%d,%d] of the line vanishes" % key)
    for idx, p in enumerate(zset.points):
        if not line.contains(p):
            raise PreconditionError("point #%d = %r does not lie on the line" % (idx, p))
        if p.nonzero_count() != n + 1:
            raise PreconditionError("point #%d = %r has a zero coordinate" % (idx, p))

    ambient = LinSpace(line_power_matrix(line, r))
    if r == 1:
        factor = LinSpace([all_ones_point(n).ints])
    else:
        factor = LinSpace(line_power_matrix(line, r - 1))
    hyperplanes = [point_times_space(p, factor) for p in zset.points]
    points, origin_subsets = squarefree_power_with_subsets(zset, r)
    return StarWitness(ambient, hyperplanes, points, origin_subsets)


def _capped_comb(m, k, cap):
    """binom(m, k), or some number past cap once it is past it.  binom(m, i)
    grows with i up to m / 2, and at least doubles per step there, so the
    product is built one factor at a time up to min(k, m - k) and stops once
    past cap: no huge binomial is formed."""
    if k > m:
        return 0
    value = 1
    for i in range(1, min(k, m - k) + 1):
        value = value * (m - i + 1) // i
        if value > cap:
            break
    return value


def star_output_count(m, r, n):
    """Entries `star-config` prints for m collinear points at r in P^n, and
    the minors its general position check forms, counted from (m, r, n),
    nothing formed: the ambient's r + 1 generator rows, each hyperplane's r
    generator rows and n + 1 - r equation rows, binom(m, r) points with
    their r-subsets, rows of n + 1 entries, and binom(m, r + 1) (r+1)-minors
    times r + 1.  The last term also bounds the incidence check's m
    binom(m, r) dot products of length r + 1; for r = 1 it is about m / 2
    times the printed points.  Past STAR_CONFIG_OUTPUT_LIMIT it is some
    number past it (`_capped_comb`)."""
    cap = STAR_CONFIG_OUTPUT_LIMIT
    return ((r + 1) * (n + 1) + m * (n + 1) ** 2 + _capped_comb(m, r, cap) * (n + 1 + r)
            + (r + 1) * _capped_comb(m, r + 1, cap))


def check_star_config_limits(m, r, n):
    """Raise BudgetExhausted when the star configuration of m points at r in
    P^n prints past STAR_CONFIG_OUTPUT_LIMIT.  An r that `build_star`
    refuses (r < 1 or r > min(m, n)) is left to it."""
    if not 1 <= r <= min(m, n):
        return
    if star_output_count(m, r, n) > STAR_CONFIG_OUTPUT_LIMIT:
        raise BudgetExhausted("the star configuration of %d points at r = %d in P^%d is past "
                              "the limit of %d printed entries and general position minors"
                              % (m, r, n, STAR_CONFIG_OUTPUT_LIMIT))


def star_bit_work(line, points, r):
    """`star_output_count` times ((r + 1) r b)^2, for b the largest bit
    length of the line's and the points' integer entries.

    The product points and the normals have entries of about r b bits.  The
    general position minors, most of the work near the limits, are
    (r+1) x (r+1) determinants of such entries, of about (r + 1) r b bits,
    formed by products in time about quadratic in their bits.  The points
    must pass STAR_CONFIG_OUTPUT_LIMIT first, so that the count is exact.
    """
    bits = max(abs(x).bit_length()
               for row in (*line.generators.ints, *(p.ints for p in points)) for x in row)
    return star_output_count(len(points), r, line.ambient_dim) * ((r + 1) * r * bits) ** 2


def check_star_config_bit_work(line, points, r):
    """Raise BudgetExhausted when `star_bit_work` is past
    STAR_CONFIG_BIT_WORK_LIMIT; an r that `build_star` refuses is left to
    it, as in `check_star_config_limits`."""
    if not 1 <= r <= min(len(points), line.ambient_dim):
        return
    if star_bit_work(line, points, r) > STAR_CONFIG_BIT_WORK_LIMIT:
        raise BudgetExhausted("the star configuration of %d points at r = %d in P^%d, counting "
                              "its entries' bits, is past the bit work limit of %d"
                              % (len(points), r, line.ambient_dim, STAR_CONFIG_BIT_WORK_LIMIT))


def _normals(hyperplanes, ambient):
    """Integer normals w_H of hyperplanes of M, after their dimension and
    containment checks: the signed r-minors of the rows of each H's frame
    at M's pivot columns (module docstring), over their gcd.  The minors
    share large factors of the frame's denominator, and the general
    position minors are (r+1)-linear in the normals: on lines of 2-digit
    entries at m = 14, r = 7 in P^14, dividing them out made `star-config`
    six times faster."""
    r = ambient.dim
    pivots = ambient.frame()[0]
    normals = []
    for h in hyperplanes:
        if h.dim != r - 1:
            raise PreconditionError("hyperplane has dim %d, expected %d" % (h.dim, r - 1))
        if not ambient.contains_space(h):
            raise PreconditionError("hyperplane not contained in the ambient space")
        minors = integer_maximal_minors([[y[p] for p in pivots] for y in h.frame()[2]])
        normals.append(primitive_ints([(-1) ** j * minors[tuple(c for c in range(r + 1) if c != j)]
                                       for j in range(r + 1)]))
    return normals


def _first_dependent(normals, r):
    """None in general position, else the first index subset with dependent normals."""
    m = len(normals)
    if m <= r:
        general = integer_rank(normals) == m
    else:
        general = all(integer_maximal_minors(list(zip(*normals))).values())
    if general:
        return None
    for j in range(2, min(m, r + 1) + 1):
        for subset in combinations(range(m), j):
            if integer_rank([normals[i] for i in subset]) < j:
                return subset


def verify_general_position(hyperplanes, ambient):
    """Check linear general position of codimension-1 subspaces of M.

    True iff every j-fold intersection (j <= r = dim M) has dimension r - j
    and every (r+1)-fold intersection is empty.  On failure the certificate
    is the first violating index tuple, j = 2, 3, ... and each j in lex
    order.  Decided by ranks and minors of the hyperplanes' normals in M
    (module docstring).
    """
    certificate = _first_dependent(_normals(hyperplanes, ambient), ambient.dim)
    return certificate is None, certificate


def verify_star(witness):
    """Full check of the star-configuration property of a witness.

    General position must hold and the witness point set must equal the
    set of all r-fold intersections of the hyperplanes.  Decided by
    incidence (module docstring): binom(m, r) points, each in M and on
    exactly r hyperplanes, with pairwise distinct r-sets.  The count is
    checked here, not only when the witness is built, because the points
    of a witness can be replaced.
    """
    ambient = witness.ambient_space
    r = ambient.dim
    normals = _normals(witness.hyperplanes, ambient)
    if _first_dependent(normals, r) is not None:
        return False
    points = witness.points
    if len(points) != comb(len(normals), r) or points.ambient_dim != ambient.ambient_dim:
        return False
    pivots = ambient.frame()[0]
    subsets = set()
    for point in points:
        if not ambient.contains(point):
            return False
        y_p = [point.ints[c] for c in pivots]
        on = tuple(i for i, w in enumerate(normals) if not sum(map(mul, w, y_p)))
        if len(on) != r:
            return False
        subsets.add(on)
    return len(subsets) == len(points)
