"""Exact linear algebra over the rationals and the integers.

Everything here is immutable and pure: a matrix is integer rows over one
positive denominator, the least one, cleared once when it is built
(`cleared_rows`); operations return new values, and there is no float
anywhere.  "Equals zero" is therefore decidable, which the rest of the
package relies on.  Fractions appear only where a value leaves as one: the
`rows` view and `det`.

Two exact paths: Bareiss elimination computes ranks, RREFs, determinants
and kernels; a p-adic solve computes the interpolation oracle's integer
kernels.  Both give a kernel vector as the same primitive integer vector.

Bareiss (`integer_rank`, `QMatrix.rref`, `det`, `nullspace`, and
`bareiss_kernel_basis`, the fallback of `integer_kernel_basis`) runs on
integer rows, which have the row space and the kernel of the matrix.  A
forward pass with exact division (`_bareiss_echelon`) gives an integer
echelon form whose entries are minors of the input, the sign of its row
swaps, and the pivot columns (each the first nonzero entry at or below the
current row), whose count is the rank.  A back-substitution
(`_back_substitute`) solves the pivot entries of one kernel vector per
free column.  This path serves the many small rational matrices of spans
and tangent spaces.  All the maximal minors of a matrix at once, the
Pluecker coordinates and the star configurations' normals and general
position, come from Laplace expansion, or from `integer_det` per minor
where that is cheaper (`integer_maximal_minors`).

p-adic (`integer_kernel_basis`, the kernel of the interpolation oracle's
evaluation matrix at its parameter grid, wide or tall).  The integer
matrix A, or only its leading nc x nc block when A has more rows than its
nc columns (call the factored rows S), is factored modulo the prime
KERNEL_PRIME = 2^27 - 39, each row packed into one int of word-aligned
slots that never carry (`_factor_mod_p`), one 64-bit word each up to 511
columns: a row update is one big-int multiply-add with no reduction, and
a pivot row is reduced in packed form by folding each slot's bits above
2^27 down, times 39.  For each free column f, the entries at the pivots
before f solve a square system in the pivot rows, lifted p-adically to
p^k (Dixon 1982), each step's residue one CPython digit and, from
PACKED_PIVOTS pivots on, each step a sweep of packed columns, and
rationally reconstructed (Wang, Guy & Davenport 1982) over a common
denominator, which spares Euclid on entries that share it; every vector
is checked exactly, A x = 0 in integers against every row of A, before
anything is returned (a row that the lifting pins may be certified by a
congruence and a norm bound, see `_dixon_kernel`).  Its cost follows the
size of the kernel entries, not of the minors Bareiss carries.  The check
is a certificate:

- ker_Q(A) lies in ker_Q(S), and rank mod p <= rank over Q (every minor
  that vanishes over Q vanishes mod p), so dim ker_p(S) >= dim ker_Q(A);
- the lifted vectors are independent, because each is nonzero at its own
  free column and zero at the other free columns;
- so dim ker_p(S) vectors that pass the check on all rows prove dim
  ker_Q(A) = dim ker_p(S), and they are a basis of ker_Q(A);
- the vector of free column f is zero past column f, so column f is a
  combination of earlier columns of A and is not a pivot over Q.  The free
  sets of S mod p and of A over Q therefore coincide, and each vector is
  the unique primitive one positive at its free column and zero at the
  others: the one the Bareiss path returns.

A vector that fails the check with the same reconstruction at two
attempts in a row (an unlucky prime, or a block S with a larger kernel
than A) stops the lifting at once; so does one that has not passed within
LIFT_STEPS steps (entries beyond the lifting reach, which a spurious
vector of a singular block can have while A's own kernel is small).
Either sends a block on to all of A, and all of A on to Bareiss, which
refuses (BudgetExhausted) a matrix past BAREISS_BIT_WORK_LIMIT.  A result
is always exact.

The rank, the RREF, the kernel basis and the determinant are unique, so
the results do not depend on the path, nor on the prime: only the time
does.
"""

import re
import struct
import sys
from array import array
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, compress, zip_longest
from math import comb, gcd, isqrt, lcm
from operator import itemgetter, mul


class PreconditionError(ValueError):
    """A mathematical hypothesis of an operation is violated."""


class BudgetExhausted(RuntimeError):
    """A retry/sampling budget ran out before the operation could finish."""


def rat(x) -> Fraction:
    """Coerce ints, strings like '-3/7', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact computations: %r" % (x,))
    return Fraction(x)


#: A rational string of a payload: optional minus, ASCII digits, and an
#: optional "/" with an ASCII-digit denominator.
RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def is_json_int(value):
    """JSON integers only: bool is an int subclass in Python, not in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_rational_literal(value):
    """A JSON integer or a RATIONAL_STRING, the only rationals a payload may
    hold: `Fraction(str)` alone would also read "1.5", "1e3", " 3 ", "1_000"
    and non-ASCII digits."""
    return is_json_int(value) or isinstance(value, str) and bool(RATIONAL_STRING.fullmatch(value))


TOO_LONG_TO_PRINT = "a number is too long to print: it exceeds Python's int-to-str digit limit"


def rat_str(q, den=1) -> str:
    """Canonical 'num/den' string of the rational q / den, for q an int or a
    Fraction and den a positive int; the '/1' is omitted for integers.

    A numerator or denominator past Python's int-to-str digit limit raises
    BudgetExhausted instead of the ValueError of `str`.
    """
    if type(q) is not int:
        q, den = q.numerator, q.denominator * den
    if den != 1:
        g = gcd(q, den)
        q, den = q // g, den // g
    try:
        return str(q) if den == 1 else "%d/%d" % (q, den)
    except ValueError:
        raise BudgetExhausted(TOO_LONG_TO_PRINT) from None


def check_printable(tenths):
    """Raise rat_str's BudgetExhausted for a number x known to have
    10 log10(x) >= tenths, when that puts it past Python's int-to-str digit
    limit (0 means no limit): x >= 10^limit has more than limit digits."""
    limit = sys.get_int_max_str_digits()
    if limit and tenths >= 10 * limit:
        raise BudgetExhausted(TOO_LONG_TO_PRINT)


def cleared_rows(rows, den=1):
    """(D, integer rows) with the values of rows / den and D > 0 least:
    rows of ints, Fractions or 'num/den' strings, den a nonzero int.

    Rationals cleared by the lcm of their denominators have the least D: a
    prime power exactly dividing the lcm exactly divides some entry's
    denominator, and that entry's numerator is prime to it.  So only a den
    other than 1 costs a gcd over the entries.
    """
    rows = tuple(map(tuple, rows))
    given = den
    if not all(type(x) is int for row in rows for x in row):
        rows = tuple(tuple(x if type(x) is int else rat(x) for x in row) for row in rows)
        mult = lcm(*(x.denominator for row in rows for x in row))
        rows = tuple(tuple(x.numerator * (mult // x.denominator) for x in row) for row in rows)
        den *= mult
    if given != 1:
        g = gcd(den, *(x for row in rows for x in row))
        g = -g if den < 0 else g
        if g != 1:
            den //= g
            rows = tuple(tuple(x // g for x in row) for row in rows)
    return den, rows


def primitive_ints(ints):
    """An integer vector over its gcd, first nonzero entry positive.

    Returns a tuple of ints; the zero vector maps to itself.
    """
    g = gcd(*ints)
    if not g:
        return tuple(ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


class QMatrix:
    """Immutable rational matrix: integer rows `ints` over one positive
    denominator `den`, the least one (`cleared_rows`), so two matrices are
    equal iff their pairs are.

    The reduced row echelon form is computed on first use and cached in
    `_rref`; rank, row space and kernel are read off it.
    """

    __slots__ = ("den", "ints", "_rref")

    def __init__(self, rows, den=1):
        """The matrix rows / den (rows and den as in `cleared_rows`)."""
        self.den, self.ints = cleared_rows(rows, den)
        if any(len(row) != len(self.ints[0]) for row in self.ints):
            raise ValueError("ragged rows")
        self._rref = None

    @property
    def rows(self):
        """The entries as Fractions."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.ints)

    @property
    def nrows(self):
        return len(self.ints)

    @property
    def ncols(self):
        return len(self.ints[0]) if self.ints else 0

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.den, self.ints))

    def __repr__(self):
        return "QMatrix[%s]" % "; ".join(" ".join(row) for row in self.to_json())

    def to_json(self):
        return [[rat_str(x, self.den) for x in row] for row in self.ints]

    def scale_columns(self, scalars, den=1):
        """Column j times scalars[j] / den (as in `cleared_rows`)."""
        if len(scalars) != self.ncols:
            raise ValueError("column count mismatch")
        sden, (ints,) = cleared_rows((scalars,), den)
        return QMatrix(tuple(tuple(map(mul, row, ints)) for row in self.ints), self.den * sden)

    def submatrix_columns(self, cols):
        return QMatrix(tuple(tuple(row[c] for c in cols) for row in self.ints), self.den)

    def rref(self):
        """Reduced row echelon form, rank and pivot columns, computed once.

        Row i of the reduced form R has a 1 at pivot p_i, zeros at the other
        pivots, and -v_f[p_i] at free column f, where v_f is the kernel
        vector of free column f with a 1 at f; rows past the rank are zero.
        `_back_substitute` solves d v_f[p_i] for every f, so R is the
        integer rows with d at p_i and minus those solutions at the free
        columns, over d (reduced to the least positive denominator by the
        constructor).
        """
        if self._rref is not None:
            return self._rref
        nc = self.ncols
        echelon, pivots, _ = _bareiss_echelon(self.ints)
        d, free, solutions = _back_substitute(echelon, pivots, nc)
        rows = [[0] * nc for _ in range(self.nrows)]
        for row, p, x in zip(rows, pivots, solutions):
            row[p] = d
            for f, v in zip(free, x):
                row[f] = -v
        reduced = QMatrix(rows, d)
        reduced._rref = self._rref = (reduced, len(pivots), tuple(pivots))
        return self._rref

    def nullspace(self):
        """Basis of the right kernel as the rows of a matrix, one per free
        column, over the RREF's denominator D.

        The row of free column f has a 1 at f, zeros at the other free
        columns and -R[i][f] at pivot p_i: in integers, D at f and
        -(D R)[i][f] at p_i.
        """
        reduced, rank, pivots = self.rref()
        basis = []
        for f in range(self.ncols):
            if f not in pivots:
                vec = [0] * self.ncols
                vec[f] = reduced.den
                for c, row in zip(pivots, reduced.ints):
                    vec[c] = -row[f]
                basis.append(vec)
        return QMatrix(basis, reduced.den)

    def det(self):
        """Determinant: `integer_det` of the integer rows over den^n."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return Fraction(integer_det(self.ints), self.den ** self.nrows)


def integer_rank(rows):
    """Rank of an integer matrix: the pivot count of one Bareiss pass."""
    return len(_bareiss_echelon(rows)[1])


def integer_det(rows):
    """Determinant of a square integer matrix: the last Bareiss pivot, signed."""
    echelon, pivots, sign = _bareiss_echelon(rows)
    if len(pivots) < len(rows):
        return 0
    return sign * echelon[-1][-1] if echelon else 1


def integer_maximal_minors(rows):
    """All maximal minors of a k x N integer matrix, k <= N, keyed by
    sorted column k-subsets in lex order.

    Laplace expansion row by row: the minor of the first j + 1 rows on a
    column (j+1)-subset S is sum_t (-1)^(j+t) a[j][S_t] times the minor of
    the first j rows on S without S_t.  It makes sum_{j=2..k} j binom(N, j)
    products for the binom(N, k) maximal minors, and the route is chosen
    from (k, N) before any work: Laplace when that is at most k^2 products
    per maximal minor, else one `integer_det` per minor, a Bareiss pass of
    about k^3 / 3 updates of two products and an exact division each.
    Laplace takes every matrix of at most 3 rows and every one with
    2k <= N (there binom(N, j) <= binom(N, k) for j <= k); past N / 2 its
    partial minors can outnumber the maximal ones exponentially (2^N - 1
    against 1 for a square matrix), and for k >= 4 the square and nearly
    square shapes go to Bareiss.  On random 7-bit entries (2-vCPU Xeon VM),
    of the shapes up to k = 7, N = 11: Laplace ran 1.2-12 times faster than
    per-minor Bareiss on every shape the rule gives it, and 1.2-6 times
    slower on those it does not, but for (k, N) = (5, 6), 1.15 times faster,
    and (7, 9), even.
    """
    k, nc = len(rows), len(rows[0])
    if sum(j * comb(nc, j) for j in range(2, k + 1)) > k * k * comb(nc, k):
        return {cols: integer_det([[row[c] for c in cols] for row in rows])
                for cols in combinations(range(nc), k)}
    return _laplace_minors(rows)


def _laplace_minors(rows):
    """The maximal minors of `integer_maximal_minors` by Laplace expansion
    row by row, whatever the shape."""
    nc = len(rows[0])
    minors = {(c,): x for c, x in enumerate(rows[0])}
    for j in range(1, len(rows)):
        row, below = rows[j], minors
        minors = {}
        for cols in combinations(range(nc), j + 1):
            total, sign = 0, -1 if j % 2 else 1
            for t, c in enumerate(cols):
                if row[c]:
                    total += sign * row[c] * below[cols[:t] + cols[t + 1:]]
                sign = -sign
            minors[cols] = total
    return minors


def _bareiss_echelon(rows):
    """Fraction-free row echelon form of an integer matrix (Bareiss 1968).

    Returns (echelon rows, pivot columns, sign of the row swaps).  The pivot
    of each column is its first nonzero entry at or below the current row.
    After k pivots every entry below them is a (k+1)-minor of the row-swapped
    input, so the division by the previous pivot is exact and entries stay
    at minor size; in particular the last pivot of a nonsingular square
    matrix is its determinant times the sign.
    """
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    sign = 1
    prev = 1
    pr = 0
    for c in range(nc):
        pivot = next((r for r in range(pr, nr) if rows[r][c]), None)
        if pivot is None:
            continue
        if pivot != pr:
            rows[pr], rows[pivot] = rows[pivot], rows[pr]
            sign = -sign
        top = rows[pr]
        pv = top[c]
        for r in range(pr + 1, nr):
            f = rows[r][c]
            row = rows[r]
            for j in range(c, nc):
                row[j] = (pv * row[j] - f * top[j]) // prev
        prev = pv
        pivots.append(c)
        pr += 1
        if pr == nr:
            break
    return rows[:pr], pivots, sign


def _back_substitute(echelon, pivots, nc):
    """Free-column back-substitution on a Bareiss echelon form.

    Returns (d, free columns, solutions), d the last pivot.  The integer
    vector x_f with x_f[f] = d, zero at the other free columns and echelon
    @ x_f = 0 is d times the kernel vector of free column f; solutions[i]
    lists x_f[p_i] for every f, row i solved from the later ones: rank^2
    products per free column, whatever nc is (x_f is zero at the pivots
    after f, as row i is zero before p_i).  By Cramer's rule x_f is integral
    (d is the pivot minor of the rows the echelon form came from), so every
    division below is exact.
    """
    pivot_set = set(pivots)
    free = [c for c in range(nc) if c not in pivot_set]
    d = echelon[-1][pivots[-1]] if pivots else 1
    solutions = [None] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        row = echelon[i]
        acc = [d * row[f] for f in free]
        for j in range(i + 1, len(pivots)):
            h = row[pivots[j]]
            if h:
                acc = [a + h * x for a, x in zip(acc, solutions[j])]
        h = row[pivots[i]]
        solutions[i] = [-a // h for a in acc]
    return d, free, solutions


def bareiss_kernel_basis(rows):
    """Kernel basis of an integer matrix from one Bareiss echelon form: for
    each free column, the primitive integer vector positive there and zero
    at the other free columns (the back-substituted solution over its gcd)."""
    if not rows:
        return []
    echelon, pivots, _ = _bareiss_echelon(rows)
    d, free, solutions = _back_substitute(echelon, pivots, len(rows[0]))
    basis = []
    for j, f in enumerate(free):
        x = [solved[j] for solved in solutions]
        g = gcd(d, *x) if d > 0 else -gcd(d, *x)
        vec = [0] * len(rows[0])
        vec[f] = d // g
        for p, v in zip(pivots, x):
            vec[p] = v // g
        basis.append(tuple(vec))
    return basis


#: The prime of the p-adic kernel: 2^27 - 39, the largest prime below 2^27.
#: A residue is one CPython digit (30 bits), a slot of `_factor_mod_p` is
#: one 64-bit word up to 511 columns, and 2^27 = 39 mod p lets it reduce
#: packed rows by a shift, a mask and a small multiply.
KERNEL_PRIME = (1 << 27) - 39

#: p-adic lifting steps per kernel vector.  p^38 > 2^1002 bounds the kernel
#: entries that can be reconstructed: numerators and denominators up to
#: about 500 bits; larger kernels go to the Bareiss fallback.
LIFT_STEPS = 38

#: Largest `bareiss_bit_work` of a matrix whose p-adic kernel failed (its
#: entries beyond the lifting reach) that `integer_kernel_basis` hands to
#: Bareiss; past it, it raises BudgetExhausted.  Its one caller is the
#: interpolation oracle.  Whole processes on a 2-vCPU Xeon VM took 0.4-1.1
#: * 10^-13 s per unit: a reciprocal plane in P^3 at dmax 3 with 60-digit
#: entries (2.9 * 10^13) 3.1 s, a squared plane in P^5 with 10-digit
#: entries (2.3 * 10^13) 1.6 s.  Now refused: the squared plane with
#: 12-digit entries (3.2 * 10^13) 2.2 s and 30-digit ones (2.0 * 10^14)
#: 11.6 s, the reciprocal plane with 70-digit entries (3.9 * 10^13) 4.1 s
#: and 300-digit ones (7.1 * 10^14) past 60 s.
BAREISS_BIT_WORK_LIMIT = 3 * 10 ** 13

#: Fewest pivots of a factored block whose lifting steps run as packed
#: column sweeps (`_packed_sweeps`).  Below it the sweeps' set-up costs more
#: than they save: packed, the 19-21 pivot blocks of a reciprocal plane in
#: P^3 at degree 3 took 27% longer, and they run row by row.
PACKED_PIVOTS = 32


def _pack(values, words):
    """Ints in [0, 2^64) as one int of `words`-word slots, first lowest.

    `array("Q")` holds words in the host's byte order, so a big-endian host
    swaps them to little-endian first (and `_unpack` swaps them back).  Only
    such a host runs the swap: test runs on x86 cannot reach it.
    """
    slots = array("Q", bytes(8 * words * len(values)))
    slots[::words] = array("Q", values)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _unpack(packed, words, count):
    """The low words of the first `count` slots of a `_pack`ed int (the
    inverse of `_pack` for slots below 2^64)."""
    slots = array("Q", packed.to_bytes(8 * words * count, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots[::words]


def _fold_rounds(p, bound):
    """The rounds of `_folder` that take every slot below `bound` below 2p:
    a round takes a slot below V below e floor((V - 1) / 2^s) + 2^s."""
    s = p.bit_length()
    e = (1 << s) - p
    rounds = 0
    while bound > 2 * p:
        bound = e * ((bound - 1) >> s) + (1 << s)
        rounds += 1
    return rounds


def _folder(p, words, count, bound):
    """fold(v) for an int of `count` slots of `words` words, each below
    `bound`, and p = 2^s - e: each slot hi 2^s + lo becomes the congruent
    e hi + lo, for `_fold_rounds` rounds, which leave it below 2p: the
    special-form reduction of Crandall & Pomerance, Prime Numbers, 9.2.3,
    slot by slot (the bounds are in `_factor_mod_p`)."""
    s = p.bit_length()
    e = (1 << s) - p
    lo = int.from_bytes(((1 << s) - 1).to_bytes(8 * words, "little") * count, "little")
    hi = int.from_bytes(((1 << 64 * words - s) - 1).to_bytes(8 * words, "little") * count, "little")
    rounds = range(_fold_rounds(p, bound))

    def fold(v):
        for _ in rounds:
            v = ((v >> s) & hi) * e + (v & lo)
        return v

    return fold


def _factor_mod_p(rows, nc, p):
    """Pivot columns P, pivot rows R and the LU factors of A[R, P] mod p:
    lower[i] holds L[i][j] for j < i (the multipliers f) and the inverse of
    the pivot L[i][i], upper[i] holds U[i][j] for j > i (U unit upper
    triangular), as residues.  The pivot is the first row nonzero mod p.

    p is KERNEL_PRIME = 2^s - e (s = 27, e = 39).  Each row is one int of
    W-bit slots, W a multiple of 64 (`_pack`), slot 0 at the current column
    (each column drops it: row >> W).  A row update is one multiply-add,
    row + (p - f) * top = row - f * top mod p, with no reduction.  Only the
    pivot row is reduced, in packed form: its columns after the pivot
    become top = fold(fold(row >> W) * inv), where fold (`_folder`) repeats
    rounds that replace each slot hi 2^s + lo by the congruent e hi + lo.

    No slot ever carries.  A row gets one update per pivot taken while it
    is below the pivot row: each pivot is another row and in another
    column, so it gets at most u = min(nrows - 1, ncols) updates.  A slot
    starts below p, and each update adds (p - f) t < 2p^2 < 2^(2s+1) for
    a top slot t < 2p, so the slot stays below (u + 1) 2^(2s+1) <= V =
    2^(2s+1+b), b = bit_length(u), which W is chosen to hold: one word for
    u <= 511, so for every matrix of at most 511 columns.  Within a round
    the slot's bits do not mix with the next slot's, as e hi + lo <
    e 2^(W-s) + 2^s <= 2^W.  A round takes a slot below V below
    V' = e h + 2^s, h = floor((V - 1) / 2^s), and `_fold_rounds` counts
    the rounds until V <= 2p.  They end: while V > 2p, h >= 1; h = 1 gives
    V' = e + 2^s <= 2p (3e <= 2^s); h >= 2 gives V' < h 2^s < V
    (2^s < h (2^s - e)).  Each round divides V by about 2^s / e > 2^21:
    two rounds for b <= 15 (u up to 32,767), three for b <= 37.  A folded
    row is below 2p, times inv below 2p^2 < V, and folded again below 2p
    (V' grows with V, so the same rounds hold).  upper reads the low word
    of each top slot (2p < 2^64) and subtracts p once where needed.
    """
    bound = 1 << 2 * p.bit_length() + 1 + min(len(rows) - 1, nc).bit_length()
    words = (bound.bit_length() - 1 + 63) // 64
    width, mask = 64 * words, (1 << 64 * words) - 1
    fold = _folder(p, words, nc, bound)
    work = [_pack([x % p for x in row], words) for row in rows]
    order = list(range(len(work)))
    mults = [[] for _ in work]
    pivots, lower, upper = [], [], []
    r = 0
    for c in range(nc):
        k = next((i for i in range(r, len(work)) if (work[i] & mask) % p), None)
        if k is None:
            work[r:] = [row >> width for row in work[r:]]
            continue
        for a in (work, order, mults):
            a[r], a[k] = a[k], a[r]
        inv = pow((work[r] & mask) % p, -1, p)
        top = fold(fold(work[r] >> width) * inv)
        lower.append(mults[r] + [inv])
        upper.append([u - p if u >= p else u for u in _unpack(top, words, nc - c - 1)])
        for i in range(r + 1, len(work)):
            f = (work[i] & mask) % p
            mults[i].append(f)
            work[i] = (work[i] >> width) + (p - f) * top
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    upper = [[u[j - c - 1] for j in pivots[i + 1:]] for i, (c, u) in enumerate(zip(pivots, upper))]
    return pivots, order[:r], lower, upper


def _rational_reconstruct(u, m):
    """The fraction a/b = u mod m with |a|, b <= sqrt(m/2), as (a, b > 0),
    or None.

    Extended Euclid on (m, u) stopped at the first remainder within the
    bound; such a fraction is unique when it exists.
    """
    bound = isqrt(m // 2)
    r0, r1 = m, u
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(f, pivots, y, m, nc):
    """The kernel vector of free column f: its entries a/b at the pivots
    before f reconstructed from y mod m (None while one is not), cleared by
    the lcm of the b's, which is at f; lowest terms make it primitive.

    The entries are kept as numerators over a running common denominator
    den, the lcm of the b's so far.  An entry u with u den = w mod m for
    some |w| <= N = sqrt(m/2) needs no Euclid when den <= N, or else when
    den / gcd(w, den) <= N: then w / den in lowest terms is a fraction
    within the bound that is u mod m (den is prime to m, as every b is:
    a = u b mod m, so p dividing b would divide a), so it is the unique
    one `_rational_reconstruct` returns, and its denominator divides den.  The others run `_rational_reconstruct` and grow den.
    Most kernels give all entries of a vector one denominator, so one
    Euclid per vector is the usual cost.
    """
    bound = isqrt(m // 2)
    den, nums = 1, []
    for u in y:
        w = u * den % m
        if w > bound:
            w -= m
        if -bound <= w and (den <= bound or den // gcd(w, den) <= bound):
            nums.append(w)
            continue
        q = _rational_reconstruct(u, m)
        if q is None:
            return None
        a, b = q
        grow = b // gcd(den, b)
        if grow != 1:
            nums = [v * grow for v in nums]
            den *= grow
        nums.append(a * (den // b))
    vec = [0] * nc
    vec[f] = den
    for c, v in zip(pivots, nums):
        vec[c] = v
    return tuple(vec)


def _annihilates(rows, vec):
    """Whether rows @ vec == 0 for an integer vector, on its support."""
    values = [v for v in vec if v]
    return all(sum(map(mul, compress(row, vec), values)) == 0 for row in rows)


def _residual(b, products, p):
    """Dixon's next right side b_(i+1) = (b_i - B x_i) / p, exact, from the
    entries of B x_i."""
    return [(bi - v) // p for bi, v in zip(b, products)]


def _row_sweeps(rows, pivots, prows, lower, upper, p):
    """(solve, times) for the block B = A[R, P] of a factorization mod p,
    row by row.  solve(b) is x = B_k^-1 b mod p for the leading k x k block
    B_k, k = len(b): a forward substitution with L, then a back
    substitution with U.  times(x) is B_k x, exact."""
    square = [[rows[i][c] for c in pivots] for i in prows]

    def solve(b):
        x = []
        for l, bi in zip(lower, b):
            x.append((bi - sum(map(mul, l, x))) * l[-1] % p)
        for i in range(len(x) - 1, -1, -1):
            x[i] = (x[i] - sum(map(mul, upper[i], x[i + 1:]))) % p
        return x

    def times(x):
        return [sum(map(mul, row, x)) for row in square[:len(x)]]

    return solve, times


def _packed_sweeps(rows, pivots, prows, lower, upper, p):
    """(solve, times) as in `_row_sweeps`, each a sweep over packed
    columns, for a block of K <= 511 pivots; None when an entry of B is
    outside the signed 64-bit range.

    Each column of L below the diagonal and of U above it is one int of
    one-word (64-bit) slots, and each column of B one int of two-word
    slots, little-endian (`struct`), cut once per kernel from C-level
    transposes.  solve(b) keeps one int acc of one-word slots.  The
    forward sweep starts from acc = b mod p, slot i at row i; at column j
    slot 0 is row j, z_j = slot 0 times the inverse pivot, and acc >>= 64;
    acc += (p - z_j) L_col_j subtracts z_j times the column from every
    later row.  The back sweep does the same with U from the bottom: acc
    holds z reversed, slot 0 is row j when column j is reached, and the
    column of U is stored reversed (rows j - 1 down to 0).  A slot starts
    below p and gets at most K updates below p^2, so it stays below p +
    K p^2 < 2^64 for K <= 511: the slots never carry.  times(x) is sum x_j
    B_col_j over two-word slots.  Each entry is written as a signed word,
    its two's complement, and XOR with bit 63 of every slot adds 2^63 to
    it: slot t is (B x)_t + 2^63 sum x, each of the K terms below p 2^64,
    so below K 2^64 p < 2^100 < 2^128, and one `to_bytes` reads every slot
    back, the bias subtracted.
    """
    count = len(pivots)
    bias = int.from_bytes((1 << 63).to_bytes(16, "little") * count, "little")
    signed = struct.Struct("<" + "q8x" * count)
    columns = list(zip(*itemgetter(*prows)(rows)))
    try:
        bcols = [int.from_bytes(signed.pack(*columns[c]), "little") ^ bias for c in pivots]
    except struct.error:
        return None
    words = struct.Struct("<%dQ" % count)
    # Column j of L, then of the row-reversed U, holds zeros and the
    # diagonal in its first j + 1 words (zip_longest pads the short rows).
    lcols = [int.from_bytes(words.pack(*col)[8 * j + 8:], "little")
             for j, col in enumerate(zip_longest(*lower, fillvalue=0))]
    ucols = [int.from_bytes(words.pack(*col)[8 * j + 8:], "little")
             for j, col in enumerate(zip_longest(*[u[::-1] for u in reversed(upper)], fillvalue=0))]
    ucols = [0] + ucols[::-1]
    inverses = [l[-1] for l in lower]
    pairs = struct.Struct("<%dQ" % (2 * count))
    mask = (1 << 64) - 1

    def pack(values):
        return int.from_bytes(struct.pack("<%dQ" % len(values), *values), "little")

    def solve(b):
        acc = pack([v % p for v in b])
        z = []
        for inv, col in zip(inverses[:len(b)], lcols):
            zj = (acc & mask) * inv % p
            z.append(zj)
            acc = (acc >> 64) + (p - zj) * col
        acc = pack(z[::-1])
        for j in range(len(z) - 1, -1, -1):
            z[j] = xj = (acc & mask) % p
            acc = (acc >> 64) + (p - xj) * ucols[j]
        return z

    def times(x):
        slots = pairs.unpack(sum(map(mul, x, bcols)).to_bytes(16 * count, "little"))
        offset = sum(x) << 63
        return [lo + (hi << 64) - offset for lo, hi in zip(slots[:2 * len(x):2], slots[1::2])]

    return solve, times


def _uncertified(rows, block_rows, norms, vec, m):
    """The rows of A that still need the exact check for a vector lifted to
    m: all but the block rows r with ||A_r||_1 ||vec||_inf < m, which the
    congruence of `_dixon_kernel` proves zero."""
    top = max(map(abs, vec))
    pinned = {i for i, norm in zip(block_rows, norms) if norm * top < m}
    return [row for i, row in enumerate(rows) if i not in pinned]


def _reconstruction_steps():
    """The lifting steps at which `_dixon_kernel` attempts a reconstruction:
    each of the first 8 (up to m = p^8 > 2^215), then each step at least a
    third past the last attempt, and step LIFT_STEPS: 1-8, 11, 15, 20, 27,
    36, 38.

    An attempt that fails costs Euclid on m, about the square of its bit
    length, and past the lifting reach every attempt fails: these 14
    attempts cost about 3.1 times the last one, where one per step would
    cost 13.2 times.  A vector within reach lifts the steps it needs up to
    step 8, and past it at most about a third more.
    """
    steps = list(range(1, 9))
    for step in range(9, LIFT_STEPS + 1):
        if 3 * step >= 4 * steps[-1] or step == LIFT_STEPS:
            steps.append(step)
    return steps


def _dixon_kernel(rows, height, nc):
    """The kernel basis lifted from one factorization mod KERNEL_PRIME of
    the first `height` rows, checked on all rows, or None when a vector
    fails its check: as soon as two attempts in a row reconstruct it the
    same (see the module docstring), or when it has not passed within
    LIFT_STEPS steps (beyond the lifting reach).

    For free column f with k pivots before it, the pivot entries y solve
    B y = -a, a = A[R_<k, f], with B = A[R_<k, P_<k], whose factors mod p
    are the leading blocks of L and U.  Dixon's expansion y = sum x_i p^i
    takes one triangular solve x_i = B^-1 b_i mod p per step (`solve`) and
    the exact residual b_(i+1) = (b_i - B x_i) / p (`times`, then
    `_residual`), computed only when the vector has not passed its check
    by step i.  Reconstruction is attempted at the steps of
    `_reconstruction_steps`.

    A factorization of PACKED_PIVOTS to 511 pivots whose B entries are in
    the signed 64-bit range solves and multiplies in packed column sweeps
    (`_packed_sweeps`), one big-int multiply-add per column: the solves on
    one-word slots, which stay below p + K p^2 < 2^64, the residual on
    two-word slots, which stay below K 2^64 p < 2^100 < 2^128, with every
    entry of B biased by 2^63 by one XOR per column.  Other factorizations
    solve row by row (`_row_sweeps`).

    A packed one also certifies the rows R_<k by congruence.  After s
    steps, m = p^s and B y = b_0 - m b_s = -a (mod m).  The reconstructed
    vector v is num = den y (mod m) at P_<k and den at f, zero elsewhere,
    so for r in R_<k, (A v)_r = den ((B y)_r + a_r) = 0 (mod m).  Where
    ||A_r||_1 ||v||_inf < m, |(A v)_r| < m, so (A v)_r = 0 exactly and
    `_annihilates` skips the row.  It still checks the rows R_>=k, the rows
    past the block of a tall matrix, the block's rows that are not pivot
    rows, and the rows whose bound fails.
    """
    p = KERNEL_PRIME
    pivots, prows, lower, upper = _factor_mod_p(rows[:height], nc, p)
    sweeps = None
    if PACKED_PIVOTS <= len(pivots) <= 511:
        sweeps = _packed_sweeps(rows, pivots, prows, lower, upper, p)
    solve, times = sweeps or _row_sweeps(rows, pivots, prows, lower, upper, p)
    norms = None
    attempts = set(_reconstruction_steps())
    vectors = []
    for f in sorted(set(range(nc)).difference(pivots)):
        k = bisect_left(pivots, f)
        b = [-rows[i][f] for i in prows[:k]]
        y, m, vec = [0] * k, 1, None
        for step in range(1, LIFT_STEPS + 1):
            if step > 1:
                b = _residual(b, times(x), p)
            x = solve(b)
            y = [u + m * v for u, v in zip(y, x)]
            m *= p
            if step not in attempts:
                continue
            last, vec = vec, _lift(f, pivots, y, m, nc)
            if vec is not None:
                checked = rows
                if sweeps:
                    if norms is None:
                        norms = [sum(map(abs, rows[i])) for i in prows]
                    checked = _uncertified(rows, prows[:k], norms, vec, m)
                if _annihilates(checked, vec):
                    break
                if vec == last:
                    return None
        else:
            return None
        vectors.append(vec)
    return vectors


def bareiss_bit_work(rows, cols, bits):
    """R C k^3 B^2, k = min(R, C): the work of a Bareiss elimination of an
    R x C matrix of B-bit entries, about R C k cell updates on minors of up
    to k B bits, multiplied in time about quadratic in their bits."""
    return rows * cols * min(rows, cols) ** 3 * bits ** 2


def integer_kernel_basis(rows):
    """Kernel basis of an integer matrix, the one `bareiss_kernel_basis`
    gives.  The p-adic path and its certificate are in the module docstring;
    on KERNEL_PRIME it tries the square block of a tall matrix, then the
    whole matrix, then falls back to Bareiss, unless that elimination's
    `bareiss_bit_work` is past BAREISS_BIT_WORK_LIMIT: then it raises
    BudgetExhausted before it runs."""
    if not rows:
        return []
    nc = len(rows[0])
    for height in ([nc] if len(rows) > nc else []) + [len(rows)]:
        vectors = _dixon_kernel(rows, height, nc)
        if vectors is not None:
            return vectors
    bits = max(abs(x).bit_length() for row in rows for x in row)
    if bareiss_bit_work(len(rows), nc, bits) > BAREISS_BIT_WORK_LIMIT:
        raise BudgetExhausted("the kernel is beyond the p-adic lifting reach, and eliminating "
                              "its %d x %d matrix of %d-bit entries is past the Bareiss bit "
                              "work limit of %d" % (len(rows), nc, bits, BAREISS_BIT_WORK_LIMIT))
    return bareiss_kernel_basis(rows)


def smith_normal_form(rows):
    """Diagonal of the Smith normal form of an integer matrix.

    Returns min(nrows, ncols) nonnegative integers d_1 | d_2 | ... with
    trailing zeros for rank deficiency.  The product of the nonzero d_i is
    the index of the row lattice inside its saturation.

    No run-time path calls it: it is the tests' oracle for
    `tropical.lattice_index`, kept here while `perfbench/tracer.py` still
    lists it as the `linalg.snf` layer.
    """
    a = [[int(x) for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    m = min(nr, nc)
    diag = []
    t = 0
    while t < m:
        piv = next(((i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]), None)
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            # Euclidean clearing of column t; swapping keeps shrinking the pivot.
            for i in range(t + 1, nr):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
            for j in range(t + 1, nc):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
            if all(a[i][t] == 0 for i in range(t + 1, nr)):
                break
        # Divisibility chain: fold in an offending row and redo this step.
        bad = next((i for i in range(t + 1, nr) for j in range(t + 1, nc) if a[i][j] % a[t][t]), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            continue
        diag.append(abs(a[t][t]))
        t += 1
    while len(diag) < m:
        diag.append(0)
    return diag
