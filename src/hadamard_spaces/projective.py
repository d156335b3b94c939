"""Projective points, linear spaces, Pluecker coordinates, and the
coordinatewise (Hadamard) product of points and point-by-space products.

Points and spaces are exact rational objects with one canonical form each,
which equality, hashing and membership all read.  A point is defined up to
a global nonzero scale; its form is the coprime integer key of
`PPoint.canonical`.  A linear space keeps the generator matrix it was built
from (full row rank enforced); its form is the integer pivot frame of
`LinSpace.frame`.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from .linalg import (PreconditionError, BudgetExhausted, QMatrix, rat, rat_str, clear_denominators,
                     integer_det, primitive_ints)

#: Coefficient range for random rational combinations; large enough that
#: genericity failures are negligible across a whole test run, small enough
#: to keep bit growth in downstream exact arithmetic bounded.
SAMPLE_COEFF_BOUND = 10 ** 6

#: Redraw budget of `sample_point` avoiding a Delta_i, and of the samplers
#: rejecting undefined products.
SAMPLE_BUDGET = 200


class PPoint:
    """A point of projective n-space with exact rational coordinates.

    Coordinates are Fractions or ints: an int is kept as it is, so points
    drawn in integers (`sample_point`, the samplers) never build a Fraction.
    """

    __slots__ = ("coords", "_key")

    def __init__(self, coords):
        self.coords = tuple(x if type(x) is int else rat(x) for x in coords)
        if not any(self.coords):
            raise ValueError("projective point cannot have all coordinates zero")
        self._key = None

    @property
    def ambient_dim(self):
        return len(self.coords) - 1

    def __eq__(self, other):
        return isinstance(other, PPoint) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def canonical(self):
        """Scale-invariant integer tuple: coprime, first nonzero positive.

        Computed on first use and kept: the coordinates never change.
        """
        if self._key is None:
            c = self.coords
            self._key = (primitive_ints(c) if all(type(x) is int for x in c)
                         else clear_denominators(c))
        return self._key

    def __repr__(self):
        return "[" + " : ".join(rat_str(x) for x in self.coords) + "]"

    def nonzero_count(self):
        return sum(1 for x in self.coords if x)

    def delta_index(self):
        """Smallest i such that the point lies in Delta_i.

        Delta_i is the locus of points with at most i+1 nonzero coordinates,
        so this is simply (number of nonzero coordinates) - 1.
        """
        return self.nonzero_count() - 1

    def hadamard(self, other):
        """Coordinatewise product, or None when every product vanishes.

        The undefined outcome is a legitimate result, not an error: it occurs
        exactly when the two supports are disjoint.
        """
        if not isinstance(other, PPoint):
            raise TypeError("expected a PPoint")
        if len(self.coords) != len(other.coords):
            raise ValueError("ambient dimensions differ")
        prod = tuple(a * b for a, b in zip(self.coords, other.coords))
        if not any(prod):
            return None
        return PPoint(prod)

    def __mul__(self, other):
        return self.hadamard(other)

    def to_json(self):
        return [rat_str(x) for x in self.coords]


def all_ones_point(n):
    """The identity for the Hadamard product (the 0-th power of anything)."""
    return PPoint([Fraction(1)] * (n + 1))


class LinSpace:
    """A projective linear space presented by a full-row-rank generator matrix.

    Membership and equality read one integer pivot frame (P, D, D*R),
    computed once from the reduction the generator matrix caches: R is the
    RREF basis of the space, P its pivot columns and D the lcm of its
    denominators, so D*R is an integer matrix with D at (i, P_i) and 0 at
    the other pivots.

    - Coordinates.  R has the identity at P, so a vector y of the space is
      y_P R, its coefficients in the basis R being its entries at P.  So y
      lies in the space iff D*y = y_P (D*R), an identity of integer vectors
      once y is cleared of denominators (scaling a vector keeps
      membership), and y -> y_P is injective on the space.
    - Subspaces.  The rows of D*R span the space, so it lies in another
      iff each of them does.
    - Equality.  The RREF of a row space is unique, so two spaces are equal
      iff their frames are, and the frame is also the hash.
    """

    __slots__ = ("generators", "_frame", "_ints")

    def __init__(self, generators):
        mat = generators if isinstance(generators, QMatrix) else QMatrix(generators)
        if mat.nrows == 0:
            raise ValueError("a linear space needs at least one generator row")
        if mat.rank() != mat.nrows:
            raise ValueError("generator matrix does not have full row rank")
        self.generators = mat
        self._frame = None
        self._ints = None

    @classmethod
    def span_of(cls, rows):
        """Row space of arbitrary rows; None if they all vanish."""
        mat = rows if isinstance(rows, QMatrix) else QMatrix(rows)
        basis = mat.row_space_matrix()
        if basis.nrows == 0:
            return None
        return cls(basis)

    @property
    def dim(self):
        return self.generators.nrows - 1

    @property
    def ambient_dim(self):
        return self.generators.ncols - 1

    def frame(self):
        """(P, D, D*R) as in the class docstring, computed on first use."""
        if self._frame is None:
            reduced, rank, pivots = self.generators.rref()
            self._frame = (pivots, *_cleared(reduced.rows[:rank]))
        return self._frame

    def integer_generators(self):
        """(D, D*G) for the generator matrix G and D the lcm of all its
        denominators, computed on first use: integer rows spanning the same
        points."""
        if self._ints is None:
            self._ints = _cleared(self.generators.rows)
        return self._ints

    def _holds(self, y):
        """Whether the integer vector y satisfies D*y = y_P (D*R)."""
        pivots, den, basis = self.frame()
        head = [y[p] for p in pivots]
        return all(den * v == sum(c * b[j] for c, b in zip(head, basis)) for j, v in enumerate(y))

    def contains(self, point):
        if len(point.coords) != self.generators.ncols:
            raise ValueError("ambient dimensions differ")
        return self._holds(point.canonical())

    def contains_space(self, other):
        if other.generators.ncols != self.generators.ncols:
            raise ValueError("ambient dimensions differ")
        return all(map(self._holds, other.frame()[2]))

    def __eq__(self, other):
        return isinstance(other, LinSpace) and self.frame() == other.frame()

    def __hash__(self):
        return hash(self.frame())

    def __repr__(self):
        return "LinSpace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)

    def equation_matrix(self):
        """Rows of linear-form coefficients cutting out this space."""
        return QMatrix(self.generators.nullspace())

    def to_json(self):
        return [[rat_str(x) for x in row] for row in self.generators.rows]


def _cleared(rows):
    """(D, D * rows) for rational rows, D the lcm of all their denominators."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)


def intersect_spaces(spaces):
    """Intersection of linear spaces as a LinSpace, or None when empty.

    Computed as the kernel of the stacked dual equations: exact and
    dimension-revealing in a single rank computation.
    """
    if not spaces:
        raise ValueError("need at least one space")
    rows = []
    for sp in spaces:
        rows.extend(sp.equation_matrix().rows)
    if not rows:
        return spaces[0]
    kernel = QMatrix(rows).nullspace()
    if not kernel:
        return None
    return LinSpace(QMatrix(kernel))


def point_times_space(p, space):
    """Hadamard product of a point with a linear space.

    Scales column j of the generator matrix by p_j.  The result is the row
    space of the scaled matrix: a linear space of dimension at most dim(L),
    with equality when p avoids Delta_{n-1}; it is None (empty) when every
    scaled generator vanishes.  When no rank drop occurs the scaled matrix is
    returned as-is, so its maximal minors are exactly the minors of L scaled
    by the products of the corresponding coordinates of p.
    """
    if len(p.coords) != space.generators.ncols:
        raise ValueError("ambient dimensions differ")
    scaled = space.generators.scale_columns(p.coords)
    if scaled.rank() == scaled.nrows:
        return LinSpace(scaled)
    return LinSpace.span_of(scaled)


class PlueckerVector:
    """Maximal minors of a generator matrix G, keyed by sorted index tuples.

    With G of k rows and D the lcm of its denominators, `minors` holds the
    integer minors of D*G and `scale` is D^k: each minor is k-linear in the
    rows, so a minor of D*G is D^k times that of G, and `entries` (minor /
    scale, as Fractions) are the minors of G.  Bracket formulas multiply
    the integer minors and divide once by a power of `scale`.
    """

    __slots__ = ("ambient_dim", "dim", "minors", "scale", "entries")

    def __init__(self, ambient_dim, dim, minors, scale):
        self.ambient_dim = int(ambient_dim)
        self.dim = int(dim)
        self.minors = minors
        self.scale = scale
        if not any(self.minors.values()):
            raise ValueError("Pluecker vector cannot be identically zero")
        self.entries = {k: Fraction(m, scale) for k, m in self.minors.items()}

    def bracket(self, indices):
        """Entry at a (possibly unsorted) index tuple, with antisymmetry sign."""
        indices = tuple(indices)
        if len(set(indices)) != len(indices):
            return Fraction(0)
        return Fraction(permutation_sign(indices) * self.minors[tuple(sorted(indices))], self.scale)

    def nonvanishing(self):
        return all(self.minors.values())

    def __eq__(self, other):
        """Projective equality: the same indices (all k-subsets of the same
        coordinates, so the same dimensions) and proportional minors."""
        if not isinstance(other, PlueckerVector) or self.minors.keys() != other.minors.keys():
            return False
        keys = sorted(self.minors)
        return (primitive_ints([self.minors[k] for k in keys])
                == primitive_ints([other.minors[k] for k in keys]))

    def __repr__(self):
        body = ", ".join("[%s]=%s" % ("".join(map(str, k)), rat_str(v))
                         for k, v in sorted(self.entries.items()))
        return "Pluecker(%s)" % body

    def to_json(self):
        return {",".join(map(str, k)): rat_str(v) for k, v in sorted(self.entries.items())}


def permutation_sign(seq):
    """Sign of the permutation that sorts a sequence of distinct items: the
    parity of its inversion count."""
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


def pluecker(space):
    """Pluecker coordinates of a linear space: the maximal minors of its
    cleared generators D*G (`integer_det` each) over the scale D^k, which
    are the minors of G since a k-minor is k-linear in the rows."""
    den, rows = space.integer_generators()
    minors = {cols: integer_det([[row[c] for c in cols] for row in rows])
              for cols in combinations(range(space.ambient_dim + 1), len(rows))}
    return PlueckerVector(space.ambient_dim, space.dim, minors, den ** len(rows))


def line_through(p, q):
    """The line spanned by two distinct points, keeping them as generators."""
    if p == q:
        raise PreconditionError("the two points coincide projectively")
    return LinSpace([p.coords, q.coords])


def sample_point(space, rng, avoid_delta=None):
    """Random point of a linear space with int coordinates, deterministic
    per rng state.

    Draws integer coefficients uniformly from [-SAMPLE_COEFF_BOUND, bound]
    for the generator rows and combines the space's `integer_generators`
    (the generator rows times one common scale, so the same projective
    point).  With avoid_delta = i, retries until the point avoids Delta_i
    (i.e. has at least i+2 nonzero coordinates); exhausting SAMPLE_BUDGET
    signals that the space is (very likely) contained in Delta_i.
    """
    gens = space.integer_generators()[1]
    for _ in range(SAMPLE_BUDGET):
        coeffs = [rng.randint(-SAMPLE_COEFF_BOUND, SAMPLE_COEFF_BOUND) for _ in range(len(gens))]
        coords = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*gens)]
        if not any(coords):
            continue
        point = PPoint(coords)
        if avoid_delta is None or point.delta_index() > avoid_delta:
            return point
    raise BudgetExhausted(
        "no sample avoiding Delta_%s in %d draws; the space appears to be contained in it"
        % (avoid_delta, SAMPLE_BUDGET))
