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

from .linalg import (LIFT_BUDGET, PreconditionError, capped_comb, integer_maximal_minors,
                     integer_rank, primitive_ints, product_charge)
from .line_powers import line_power_matrix
from .projective import LinSpace, all_ones_point, pluecker, point_times_space

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


def star_output_count(m, r, n):
    """Entries `star-config` prints for m collinear points at r in P^n, and
    the minors its general position check forms, counted from (m, r, n),
    nothing formed: the ambient's r + 1 generator rows, each hyperplane's r
    generator rows and n + 1 - r equation rows, binom(m, r) points with
    their r-subsets, rows of n + 1 entries, and binom(m, r + 1) (r+1)-minors
    times r + 1.  The last term also bounds the incidence check's m
    binom(m, r) dot products of length r + 1; for r = 1 it is about m / 2
    times the printed points.  Past LIFT_BUDGET it is some number past it
    (`linalg.capped_comb`)."""
    return ((r + 1) * (n + 1) + m * (n + 1) ** 2 + capped_comb(m, r, LIFT_BUDGET) * (n + 1 + r)
            + (r + 1) * capped_comb(m, r + 1, LIFT_BUDGET))


def star_charge(line, points, r):
    """Units of `star-config` for the points on the line at r: each of its
    `star_output_count` entries and minors as three products
    (`linalg.product_charge`), one to form it and two to check or print it,
    of (r + 1) r b bits for b the largest bit length of the line's and the
    points' entries: a general position minor, an (r+1) x (r+1) determinant
    of the normals' r b-bit entries, most of the work near the budget."""
    bits = (r + 1) * r * max(abs(x).bit_length()
                             for row in (*line.generators.ints, *(p.ints for p in points))
                             for x in row)
    return star_output_count(len(points), r, line.ambient_dim) * 3 * product_charge(bits, bits)


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
