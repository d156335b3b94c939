"""Weighted balanced fans supported on signed coordinate cones, Minkowski
sums, stable intersection multiplicity at the origin, and the closed-form
degree formulas they cross-check.

The tropicalization of a generic m-dimensional linear space is the standard
tropical linear space: the union of positive spans of all m-subsets of the
images of the standard basis vectors in R^(n+1)/R*1, all multiplicities 1.
Reciprocal linear spaces tropicalize to the negated fans.  Restricting to
this cone class makes the whole fan pipeline set and sign operations: every
lattice index is 1 and every meet test is a sign comparison.

A cone is its signed support (plus, minus), two disjoint int bitmasks in
which bit i stands for coordinate i, so the set algebra on supports is
integer bit operations; `mask_indices` reads a mask back as its sorted
coordinate tuple.  A fan maps each of its cones to a positive integer
multiplicity.  A point tropicalizes to the origin (0, 0), the identity of
the Minkowski sum, so a zero-dimensional factor adds no fan to the sum.

Fans are immutable values, so one fan can serve every caller: a standard
fan depends only on (m, n), and in P^n for n < MEMO_COORDS it is built
once per process, as are the index tuples and JSON texts of masks below
2^MEMO_COORDS."""

import warnings
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, compress, count
from math import comb, factorial, isqrt, lcm, prod
from operator import or_
from types import MappingProxyType

from .linalg import BudgetExhausted, PreconditionError, check_printable, rat_str
from .products import identifiability_regime_bound
from .projective import LinSpace, PPoint

# ---------------------------------------------------------------------------
# cones and fans

#: Coordinates of the memoized domain.  Every mask below 2^MEMO_COORDS
#: and every standard fan in P^n for n < MEMO_COORDS is built at most once
#: per process and then shared, and so is the JSON text of such a mask
#: (`mask_text`).  The memos hold nothing else, so their worst case is the
#: whole domain: 4,096 index tuples, 0.6 MiB, 4,096 mask texts, 0.5 MiB,
#: and 156 fans of 16,356 cones, 1.9 MiB (tracemalloc, CPython 3.11).
#: Wider masks and fans, such as the 999-bit ones of a fan in P^998, and
#: their texts, are built on every call and never held.
MEMO_COORDS = 12

_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_flags(mask):
    """A mask's binary digits, lowest first, as bytes 0 and 1: selectors
    for itertools.compress, from its binary string in one C-level pass."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def _read_mask(mask):
    """A mask's set bits, in increasing order, as a tuple."""
    return tuple(compress(count(), _bit_flags(mask)))


_memo_mask_indices = cache(_read_mask)


def mask_indices(mask):
    """The coordinates of a mask's set bits, in increasing order, as a
    tuple; memoized below 2^MEMO_COORDS."""
    return _memo_mask_indices(mask) if mask >> MEMO_COORDS == 0 else _read_mask(mask)


def _render_mask(mask):
    """The bytes of `json.dumps(mask_indices(mask), separators=(",", ":"))`,
    joined from _COORD_TEXT by the mask's binary digits: no int is
    converted.  Covers every mask of a fan fan_degree_pipeline builds."""
    return "[%s]" % ",".join(compress(_COORD_TEXT, _bit_flags(mask)))


_memo_mask_text = cache(_render_mask)


def mask_text(mask):
    """`mask_indices` as compact JSON text; memoized below 2^MEMO_COORDS."""
    return _memo_mask_text(mask) if mask >> MEMO_COORDS == 0 else _render_mask(mask)


def _cone_order(cone):
    """Sort key of a cone (plus, minus): its sorted plus, then sorted minus
    indices, as a pair of `mask_indices` tuples."""
    plus, minus = cone
    return mask_indices(plus), mask_indices(minus)


def _quotient_rep(index, sign, n):
    """Image of sign * e_index in Z^(n+1)/Z*1, written in the basis that
    drops coordinate 0 (e_0 maps to minus the sum of the others)."""
    if index == 0:
        return tuple(-sign for _ in range(n))
    vec = [0] * n
    vec[index - 1] = sign
    return tuple(vec)


class SignedConeFan:
    """A pure-dimensional weighted fan of signed coordinate cones: an
    immutable value, so one fan can be shared by every caller.

    `cones` is a read-only mapping from each cone (plus, minus), the cone
    pos(e_i : i in plus) + neg(e_j : j in minus) with plus and minus int
    bitmasks of coordinates (bit i is coordinate i), to its multiplicity,
    in _cone_order: sorted plus, then sorted minus indices.  The e_i are
    images of standard basis vectors in R^(n+1)/R*1, linearly independent
    for |plus| + |minus| <= n, so the cone dimension is the number of set
    bits of plus | minus.  Integer multiplicities are scaled by one global
    rational weight, which is where the 1/delta of a generically finite
    parametrization lives.

    A frozen value class, written out rather than a frozen dataclass: the
    `dataclasses` import (with `inspect`, `ast` and `dis`) cost every
    process 0.8 MiB of resident memory (`import hadamard_spaces.cli`,
    CPython 3.11) for this one class.  Equality, repr and the
    FrozenInstanceError on assignment are a frozen dataclass's; like one
    holding a mapping, a fan is unhashable.
    """

    __slots__ = ("ambient_dim", "dim", "cones", "global_weight")

    def __init__(self, ambient_dim, dim, cones, global_weight=1):
        _set_fields(self, ambient_dim, dim, cones, global_weight)
        self._check_cones()
        ordered = sorted(cones.items(), key=lambda item: _cone_order(item[0]))
        object.__setattr__(self, "cones", MappingProxyType(dict(ordered)))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot delete field %r" % name)

    def _fields(self):
        return self.ambient_dim, self.dim, self.cones, self.global_weight

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return ("SignedConeFan(ambient_dim=%r, dim=%r, cones=%r, global_weight=%r)"
                % self._fields())

    def _check_cones(self):
        """Raise ValueError unless every cone is a signed cone of the fan's
        dimension inside the ambient range with a positive multiplicity."""
        for (plus, minus), mult in self.cones.items():
            if plus & minus:
                raise ValueError("plus and minus sets overlap")
            if mult <= 0:
                raise ValueError("multiplicity must be positive")
            support = plus | minus
            if support.bit_count() != self.dim:
                raise ValueError("cone of dim %d in a fan of dim %d"
                                 % (support.bit_count(), self.dim))
            if support >> (self.ambient_dim + 1):  # also true for a negative mask
                raise ValueError("index outside ambient range 0..%d" % self.ambient_dim)

    def is_balanced(self):
        """Exact ridge-balancing test.

        For every ridge, the multiplicity-weighted sum of the primitive
        directions of the facets containing it must lie in the ridge's span.
        """
        n = self.ambient_dim
        ridges = {}
        for (plus, minus), mult in self.cones.items():
            for idx in mask_indices(plus | minus):
                bit = 1 << idx
                ridge = (plus & ~bit, minus & ~bit)
                rep = _quotient_rep(idx, 1 if plus & bit else -1, n)
                total = ridges.get(ridge, [0] * n)
                ridges[ridge] = [t + mult * x for t, x in zip(total, rep)]
        for (plus, minus), total in ridges.items():
            if any(total):
                rows = [_quotient_rep(i, 1 if plus >> i & 1 else -1, n)
                        for i in mask_indices(plus | minus)]
                span = LinSpace.span_of(rows)
                if span is None or not span.contains(PPoint(total)):
                    return False
        return True


def _set_fields(fan, ambient_dim, dim, cones, global_weight):
    """Set a new fan's fields, past its frozen __setattr__, and return it;
    a weight that is not a Fraction yet becomes one."""
    if type(global_weight) is not Fraction:
        global_weight = Fraction(global_weight)
    for name, value in (("ambient_dim", ambient_dim), ("dim", dim), ("cones", cones),
                        ("global_weight", global_weight)):
        object.__setattr__(fan, name, value)
    return fan


def _built_fan(ambient_dim, dim, cones, global_weight=1):
    """The SignedConeFan of a dict of cones already in _cone_order, which
    the fan then holds, with neither the constructor's sort nor its checks:
    for builders whose docstrings prove their cones valid."""
    return _set_fields(object.__new__(SignedConeFan), ambient_dim, dim,
                       MappingProxyType(cones), global_weight)


def standard_tls(m, n, negated=False):
    """The standard tropical linear space of dimension m in P^n's torus,
    or with `negated` its negation, the tropicalization of the reciprocal
    of a generic m-space.

    All binom(n+1, m) positive (negative) spans of m-subsets of basis
    images, each with multiplicity 1; m = 0 gives the single zero cone.  A
    standard fan depends only on (m, n, negated): for n < MEMO_COORDS it is
    built once per process and the same immutable fan is returned on every
    call.
    """
    if not 0 <= m <= n:
        raise PreconditionError("need 0 <= m <= n, got m=%d, n=%d" % (m, n))
    return (_memo_standard_fan if n < MEMO_COORDS else _standard_fan)(m, n, negated)


def _standard_fan(m, n, negated):
    """Each mask is built from the smaller of its m coordinates and the
    n + 1 - m others, in _cone_order, so the fan needs no sort.

    `combinations` yields the m-subsets in lexicographic order of their
    sorted tuples, which is _cone_order.  The complements of the
    (n + 1 - m)-subsets it yields come in reverse lexicographic order:
    for distinct sets A and B of one size, A < B exactly when min(A ^ B)
    lies in A, and the complements have the same symmetric difference,
    whose minimum lies in B's complement, so B's complement < A's.

    The cones pass `_check_cones` by construction, so it is not run: each
    mask has m set bits among coordinates 0..n, the other mask of the cone
    is 0, and every multiplicity is 1.
    """
    if 2 * m <= n + 1:
        masks = (sum(1 << i for i in s) for s in combinations(range(n + 1), m))
    else:
        full = (1 << (n + 1)) - 1
        masks = reversed([full - sum(1 << i for i in s)
                          for s in combinations(range(n + 1), n + 1 - m)])
    return _built_fan(n, m, {((0, mask) if negated else (mask, 0)): 1 for mask in masks})


_memo_standard_fan = cache(_standard_fan)


def negate_fan(fan):
    """Pointwise negation: swaps the plus and minus mask of every cone."""
    cones = {(minus, plus): mult for (plus, minus), mult in fan.cones.items()}
    return SignedConeFan(fan.ambient_dim, fan.dim, cones, fan.global_weight)


def lattice_index(cones, ambient_dim):
    """Index of the sum of the cones' lattices inside its saturation: always 1.

    The cones' spans must sum transversally; for signed coordinate cones
    that means pairwise disjoint supports of total size at most n, and any
    other tuple raises PreconditionError.  The generators are then +-e_i
    for at most n distinct indices i.  Leaving out one index j that is not
    among them, {e_i : i != j} is a Z-basis of Z^(n+1)/Z*1, and signs do
    not change a lattice, so the generators extend to a basis and the
    index is 1.  The tests check this against the Smith normal form.
    """
    supports = [plus | minus for plus, minus in cones]
    size = sum(support.bit_count() for support in supports)
    if size != reduce(or_, supports, 0).bit_count() or size > ambient_dim:
        raise PreconditionError("non-transversal sum of cones")
    return 1


def minkowski_sum(fans, delta=1):
    """Minkowski sum of signed-cone fans with lattice-index multiplicities.

    The multiplicity of each result facet is the sum over ordered
    factorizations into one facet per input fan of the product of their
    multiplicities times the lattice index of the decomposition, which is
    1 (see lattice_index).  Factorizations that would reuse a coordinate
    index (in particular a plus/minus clash) are transversality failures
    and are skipped.  The fans are folded in one at a time: a partial sum
    only needs its signed support, so each factorization prefix is summed
    once, and the last fold's mapping is the sum's.  The global weight is
    the product of the input weights divided by delta.

    The fold takes any fans.  fan_degree_pipeline calls it on standard
    fans restricted to one cone, whose one cone's multiplicity the
    symmetry of standard fans carries to all the others (see there).
    """
    if not fans:
        raise ValueError("need at least one fan")
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    n = fans[0].ambient_dim
    total_dim = sum(f.dim for f in fans)
    if any(f.ambient_dim != n for f in fans):
        raise ValueError("ambient dimensions differ")
    if total_dim > n:
        raise PreconditionError("sum of fan dimensions %d exceeds ambient %d" % (total_dim, n))
    cones = {(0, 0): 1}
    for fan in fans:
        factors = [(cplus | cminus, cplus, cminus, cmult)
                   for (cplus, cminus), cmult in fan.cones.items()]
        folded = {}
        for (plus, minus), mult in cones.items():
            used = plus | minus
            for support, cplus, cminus, cmult in factors:
                if not support & used:
                    key = (plus | cplus, minus | cminus)
                    folded[key] = folded.get(key, 0) + mult * cmult
        cones = folded
    weight = Fraction(prod(f.global_weight.numerator for f in fans),
                      delta * prod(f.global_weight.denominator for f in fans))
    return SignedConeFan(n, total_dim, cones, weight)


# ---------------------------------------------------------------------------
# stable intersection at the origin


class NonGenericVector(PreconditionError):
    """The displacement vector failed a genericity validation."""


def cone_pair_meets(cone1, cone2, v, n):
    """Whether sigma1 meets sigma2 + v modulo the all-ones line.

    The supports must be disjoint and cover exactly n of the n+1
    coordinates; otherwise PreconditionError is raised.  Let c0 be the
    uncovered coordinate.  A meeting point solves x = y + v + t*1 with
    x = sum a_i s_i e_i over sigma1's signed generators s_i e_i and
    y = sum b_j s_j e_j over sigma2's, all a_i, b_j >= 0.  Every
    coordinate carries at most one generator, so the n+1 coordinate
    equations fix the n+1 unknowns: coordinate c0 gives t = -v_c0, a
    generator of sigma1 at i gives a_i = s_i (v_i - v_c0), and one of
    sigma2 at j gives b_j = s_j (v_c0 - v_j).  Hence the cones meet iff
    v_i >= v_c0 for i in plus1 and in minus2, and v_i <= v_c0 for i in
    minus1 and in plus2.  With pairwise distinct coordinates of v every
    inequality is strict, so a meeting point lies in both relative
    interiors.
    """
    (plus1, minus1), (plus2, minus2) = cone1, cone2
    support1, support2 = plus1 | minus1, plus2 | minus2
    covered = support1 | support2
    if support1 & support2 or covered.bit_count() != n or covered >> (n + 1):
        raise PreconditionError("cones are not complementary: %r, %r" % (cone1, cone2))
    c0 = (((1 << (n + 1)) - 1) ^ covered).bit_length() - 1
    low = v[c0]
    return (all(v[i] >= low for i in mask_indices(plus1 | minus2))
            and all(v[i] <= low for i in mask_indices(minus1 | plus2)))


def draw_generic_vector(n, rng):
    """Displacement vector with pairwise distinct prime-ratio coordinates.

    The 2(n+1) primes are distinct, so p1/q1 = p2/q2 would need
    p1*q2 = p2*q1 and hence p1 = q1 by unique factorization: the
    coordinates are always pairwise distinct.
    """
    primes = list(_first_primes_from(1009, 2 * (n + 1)))
    rng.shuffle(primes)
    return tuple(Fraction(primes[2 * i], primes[2 * i + 1]) for i in range(n + 1))


@cache
def _first_primes_from(start, count):
    """The first `count` primes >= start: a sieve of Eratosthenes whose
    bound doubles until it holds them."""
    bound = 2 * (start + count)
    while True:
        sieve = bytearray([1]) * bound
        sieve[:2] = bytes(2)
        for x in range(2, isqrt(bound - 1) + 1):
            if sieve[x]:
                sieve[x * x::x] = bytes(len(range(x * x, bound, x)))
        primes = tuple(compress(range(start, bound), sieve[start:]))
        if len(primes) >= count:
            return primes[:count]
        bound *= 2


def _partner_walks(walked, partners, walk, full):
    """For each cone of the fan `walked` whose walk finds keys of
    `partners`: (cone, multiplicity, those keys in walk order).  The walk
    goes through the coordinates in the order of `walk`, and yields each
    partner candidate past the cone's last minus and before its first plus
    coordinate (see stable_mult_origin)."""
    for cone, mult in walked.items():
        plus, minus = cone
        rest = full ^ plus ^ minus
        unseen_minus, below = minus, 0
        hits = []
        for bit in walk:
            if bit & rest:
                if not unseen_minus:
                    key = (below, rest ^ below ^ bit)
                    if key in partners:
                        hits.append(key)
                below |= bit
            elif bit & plus:
                break
            else:  # a minus coordinate of the cone
                unseen_minus ^= bit
        if hits:
            yield cone, mult, hits


def stable_mult_origin(fan_f, fan_g, v):
    """Multiplicity of the origin in the stable intersection of two fans.

    Sums mult(sigma1) * mult(sigma2) * lattice index (always 1) over facet
    pairs whose shifted cones meet, times both global weights.  The
    displacement v must have pairwise distinct coordinates (else
    NonGenericVector); then every meeting is transversal and in relative
    interiors.  Returns (multiplicity, contributing pairs), the pairs as
    (sigma1, sigma2, 1) in fan_f and then fan_g order.

    Each sigma1 and uncovered coordinate c0 has at most one partner, a key
    of fan_g.cones.  Overlapping supports meet only shifts with two equal
    coordinates, so sigma2 covers all but sigma1 and c0, and by
    cone_pair_meets it meets iff v_i > v_c0 on plus1 and minus2 and
    v_i < v_c0 on minus1 and plus2: v_c0 lies between sigma1's largest
    minus and smallest plus coordinate, and plus2 = {j : v_j < v_c0},
    minus2 = {j : v_j > v_c0}.  So one walk up the coordinates in the order
    of v, with the mask of the coordinates outside sigma1 passed so far,
    yields every candidate past sigma1's last minus and before its first
    plus coordinate.  The lookup key keeps the signs (cones of a Minkowski
    sum can share a support); cone_pair_meets decides each hit, on the
    ranks of v's coordinates in place of v: it only compares coordinates,
    and a strictly increasing relabeling keeps every comparison, so the
    ranks give its answers for v in small int comparisons.  Distinctness
    and the order of v are read off integer keys, v times the lcm of its
    denominators, another such relabeling.

    The walk takes the fan with fewer cones.  sigma1 meets sigma2 + v iff
    sigma2 meets sigma1 - v, so fan_g's cones are walked the same way,
    down the coordinates in the order of v (up in the order of -v), and
    find their partners among fan_f's cones.  That walk's pairs are then
    put in fan_f's order by a stable sort, which keeps fan_g's order
    among the pairs of one sigma1.
    """
    n = fan_f.ambient_dim
    if fan_g.ambient_dim != n:
        raise PreconditionError("ambient dimensions differ")
    if fan_f.dim + fan_g.dim != n:
        raise PreconditionError(
            "fan dimensions %d + %d are not complementary in %d"
            % (fan_f.dim, fan_g.dim, n))
    if len(v) != n + 1:
        raise ValueError("displacement vector has wrong length")
    coords = [x if type(x) is Fraction else Fraction(x) for x in v]
    scale = lcm(*(x.denominator for x in coords))
    keys = [x.numerator * (scale // x.denominator) for x in coords]
    if len(set(keys)) != n + 1:
        raise NonGenericVector("displacement coordinates are not pairwise distinct")
    order = sorted(range(n + 1), key=keys.__getitem__)
    walk = [1 << i for i in order]
    ranks = [0] * (n + 1)
    for rank, i in enumerate(order):
        ranks[i] = rank
    full = (1 << (n + 1)) - 1
    cones_f, cones_g = fan_f.cones, fan_g.cones
    met = []
    if len(cones_g) < len(cones_f):
        for cone2, mult2, hits in _partner_walks(cones_g, cones_f, walk[::-1], full):
            met += [(cone1, cone2, cones_f[cone1] * mult2) for cone1 in hits
                    if cone_pair_meets(cone1, cone2, ranks, n)]
        met.sort(key=lambda pair: _cone_order(pair[0]))
    else:
        for cone1, mult1, hits in _partner_walks(cones_f, cones_g, walk, full):
            if len(hits) > 1:
                hits.sort(key=_cone_order)
            met += [(cone1, cone2, mult1 * cones_g[cone2]) for cone2 in hits
                    if cone_pair_meets(cone1, cone2, ranks, n)]
    total = sum(mult for _, _, mult in met)
    pairs = [(cone1, cone2, 1) for cone1, cone2, _ in met]
    return total * fan_f.global_weight * fan_g.global_weight, pairs


# ---------------------------------------------------------------------------
# closed-form degrees and the fan pipeline they are checked against

#: The refusal rule of fan_degree_pipeline, in cone coordinates: n + 1
#: times the largest of the three counts it enumerates (`_fan_work`) must
#: stay within it.  For n >= 1 the summed cones or, for point factors
#: only, the complement's n + 1 cones are at least n + 1, so (n + 1) ** 2
#: is a lower bound that refuses a large n before any binomial is formed.
FAN_BUDGET = 10 ** 6

#: Decimal text of every coordinate of a fan that fan_degree_pipeline
#: builds: it refuses P^n with (n + 1)^2 > FAN_BUDGET before any fan.
_COORD_TEXT = tuple(map(str, range(isqrt(FAN_BUDGET))))


def _fan_work(plain, reciprocal, n, m, mt):
    """The cone coordinates fan_degree_pipeline works through: n + 1 times
    the largest of
    - the restricted fold: the (state, cone) pairs `minkowski_sum` tries on
      the factor fans restricted to the representative cone (R+, R-).  A
      state after factors of total plain dimension a and reciprocal b is a
      pair of an a-subset of R+ and a b-subset of R-, so there are at most
      binom(m, a) binom(mt, b) of them, and the next factor has
      binom(m, m_k) (binom(mt, m_k)) cones inside;
    - the summed cones, binom(n+1, m) binom(n+1-m, mt), each built and
      walked up to n + 1 coordinates by stable_mult_origin;
    - the complement's binom(n+1, n-m-mt) cones.
    The first two are below P = prod binom(n+1, m_k)^r_k, the ordered
    factorizations a fold of all factor fans tries, so this refuses no
    payload that n + 1 times max(P, the complement's cones) admits.  A
    state bound is at most the product of the cone counts x_s before it
    (binom(N, a) binom(N, b) >= binom(N, a + b)), so the fold is at most
    the sum of the prefix products of the x_s, below prod (x_s + 1) <= P,
    as binom(n+1, d) = binom(n, d) + binom(n, d-1) > binom(m, d) (m <= n).
    The summed cones are at most binom(n+1, m) binom(n+1, mt) <= P."""
    fold, a, b = 0, 0, 0
    for mk, r in plain:
        if mk:
            for _ in range(r):
                fold += comb(m, a) * comb(m, mk)
                a += mk
    for mk, s in reciprocal:
        if mk:
            for _ in range(s):
                fold += comb(mt, b) * comb(mt, mk)
                b += mk
    summed = comb(n + 1, m) * comb(n + 1 - m, mt)
    return (n + 1) * max(fold, summed, comb(n + 1, n - m - mt))


def _partitions(factors):
    """M! / prod((m_k!)^r_k r_k!) over the factors of dimension m_k >= 1,
    with M = sum m_k r_k: the ways to split M items into r_k unordered
    blocks of m_k items for each k.  Formed without a factorial, as the
    product of binom(S_k, m_k r_k), S_k the items of the factors not yet
    taken, and of P(m_k, r_k) = prod_{j=1..r_k} binom(j m_k - 1, m_k - 1),
    the ways to split m r items into r blocks of m (the block of the least
    item left first); P(1, r) = 1."""
    count, left = 1, sum(mk * r for mk, r in factors)
    for mk, r in factors:
        count *= comb(left, mk * r)
        left -= mk * r
        if mk > 1:
            count *= prod(comb(j * mk - 1, mk - 1) for j in range(2, r + 1))
    return count


def _tenths(x):
    """A lower bound on 10 log10(x) for an int x >= 1: 3 per bit past the
    first, as log10(2) > 0.3."""
    return 3 * (x.bit_length() - 1)


def _binom_tenths(a, b):
    """A lower bound on 10 log10 binom(a, b) for 0 <= b <= a, from
    binom(a, b) >= (a / b)^b with b <= a - b."""
    b = min(b, a - b)
    return b * _tenths(a // b) if b else 0


def _degree_tenths(plain, reciprocal, n, m, mt):
    """A lower bound on 10 log10 of the degree of degree_with_reciprocals,
    in integers and without forming the degree: the binomials of
    binom(n - m, mt) and of `_partitions` are bounded by `_binom_tenths`,
    and P(m, r) >= (r!)^(m - 1), since binom(j m - 1, m - 1) >= j^(m - 1),
    with r! >= max(2^(r - 1), (r / 3)^r).
    """
    total = _binom_tenths(n - m, mt)
    for factors in (plain, reciprocal):
        left = sum(mk * r for mk, r in factors)
        for mk, r in factors:
            total += _binom_tenths(left, mk * r)
            left -= mk * r
            if mk > 1:
                total += (mk - 1) * max(3 * (r - 1), r * _tenths(r // 3) if r >= 3 else 0)
    return total


def genericity_bound(plain, reciprocal=()):
    """Smallest ambient dimension for which the degree formulas are proven:
    the bound of `products.identifiability_regime_bound` over all factors."""
    return identifiability_regime_bound([*plain, *reciprocal])


def _factor_dims(plain, reciprocal, n):
    """Factor lists as int pairs, with their total plain and reciprocal
    dimensions; the total must not exceed n."""
    plain = [(int(m), int(r)) for m, r in plain]
    reciprocal = [(int(m), int(s)) for m, s in reciprocal]
    if any(m < 0 or r < 1 for m, r in plain + reciprocal):
        raise ValueError("need dimensions >= 0 and multiplicities >= 1")
    m = sum(mk * r for mk, r in plain)
    mt = sum(mk * s for mk, s in reciprocal)
    if m + mt > n:
        raise PreconditionError("total dimension %d exceeds ambient %d" % (m + mt, n))
    return plain, reciprocal, m, mt


def degree_linear_products(dims_and_mults, n):
    """Dimension and degree of a Hadamard product of generic linear spaces.

    For a multiset of spaces of dimensions m_k with multiplicities r_k the
    product has dimension sum(m_k r_k) and degree multinomial / prod(r_k!):
    degree_with_reciprocals with no reciprocal factors.
    """
    return degree_with_reciprocals(dims_and_mults, (), n)


def degree_with_reciprocals(plain, reciprocal, n):
    """Degree formula extended to reciprocal linear spaces.

    Plain factors of total dimension m and reciprocal factors of total
    dimension mt give a product of dimension m + mt <= n and degree
    binom(n - m, mt) * d/prod(r_k!) * dt/prod(s_l!), where d and dt are
    the multinomials m! / prod(m_k!)^r_k and mt! / prod(m_l!)^s_l, and
    the factorials run over the factors of dimension >= 1 only: they count
    the orderings of r distinct points of a factor, and the r-th power of
    a point is a point.  Each quotient is `_partitions` of its factors.
    Below the genericity bound a warning naming n and the bound is issued
    (the formula is still returned; nothing is asserted there).  A degree
    whose digit bound (`_degree_tenths`) is past Python's int-to-str limit
    raises BudgetExhausted before the degree is formed, and so does a
    bound too long to print, as in `rat_str`.
    """
    dim, degree, warning = closed_form_degree(plain, reciprocal, n)
    if warning:
        warnings.warn(warning)
    return dim, degree


def closed_form_degree(plain, reciprocal, n):
    """`degree_with_reciprocals` with its warning returned, not issued:
    (dimension, degree, the warning's text below the genericity bound or
    None), so a caller need not touch the process-wide warning filters."""
    plain, reciprocal, m, mt = _factor_dims(plain, reciprocal, n)
    check_printable(_degree_tenths(plain, reciprocal, n, m, mt))
    degree = Fraction(comb(n - m, mt) * _partitions(plain) * _partitions(reciprocal))
    bound = genericity_bound(plain, reciprocal)
    warning = None
    if n < bound:
        warning = ("ambient dimension %d is below the genericity bound %s "
                   "of the degree formula" % (n, rat_str(bound)))
    return m + mt, degree, warning


def _restrict(fan, plus, minus):
    """The cones of `fan` inside the cone (plus, minus), as a fan of the
    same dimension and weight.  They are some of the fan's own cones, kept
    in its order, so they need neither the constructor's sort nor its
    checks."""
    inside = {cone: mult for cone, mult in fan.cones.items()
              if not (cone[0] & ~plus or cone[1] & ~minus)}
    return _built_fan(fan.ambient_dim, fan.dim, inside, fan.global_weight)


def fan_degree_pipeline(plain, reciprocal, n, rng):
    """Degree via tropical fans: Minkowski sum + stable intersection.

    Takes the standard tropical linear space of each factor of dimension
    >= 1 (negated for the reciprocal ones) r_k times, forms their
    Minkowski sum scaled by 1/delta with delta = prod(r_k!) * prod(s_l!)
    over those factors (as in degree_with_reciprocals), and measures the
    multiplicity of the origin against the complementary standard fan.  A
    point factor's fan is the origin, the identity of the Minkowski sum, so
    it adds none.  Entirely independent of the closed-form route, which it
    is used to cross-check.  Past FAN_BUDGET it raises BudgetExhausted
    before building any fan.

    The sum is counted on one cone and built by symmetry.  Let m and mt be
    the total plain and reciprocal dimensions.
    - Every cone of the sum is a pair (P, M) of disjoint coordinate sets of
      sizes m and mt: a plain fan has plus cones only, a reciprocal one
      minus cones only, and the supports of a factorization are disjoint.
    - A permutation pi of the n + 1 coordinates maps every standard fan
      onto itself, multiplicities 1 to 1, and keeps supports disjoint, so
      it maps the ordered factorizations of (P, M) one to one onto those
      of (pi P, pi M): the two pairs have the same multiplicity.
    - The permutations act transitively on these pairs: one of them takes
      (P, M) to the representative (R+, R-), R+ the first m coordinates
      and R- the next mt (m + mt <= n, so they fit).
    So every such pair has the multiplicity c of the representative, and
    all are cones of the sum, as c >= 1: R+ and R- split into blocks of
    the factor dimensions.  The factors of a factorization of (R+, R-) are
    cones inside it, so c is the multiplicity of the one cone of
    `minkowski_sum` over the factor fans restricted to those cones: an
    enumeration of ordered factorizations, independent of the closed
    form's `_partitions`.  The sum's global weight is that sum's, 1/delta.
    Its cones are built in _cone_order: each plus mask of
    standard_tls(m, n) in its order, with each minus mask of
    standard_tls(mt, n, negated=True) disjoint from it in theirs.  They pass
    `_check_cones` by construction, so it is not run: the masks are
    disjoint, of m and mt set bits among coordinates 0..n, and c is a
    multiplicity of `minkowski_sum`'s checked fan, so it is positive.

    Returns one dict: "dim" and "degree", the summed "fan", its
    "complement", "delta", the "displacement" drawn by draw_generic_vector,
    and the contributing "pairs" of stable_mult_origin.
    """
    plain, reciprocal, m, mt = _factor_dims(plain, reciprocal, n)
    if (n + 1) ** 2 > FAN_BUDGET or _fan_work(plain, reciprocal, n, m, mt) > FAN_BUDGET:
        raise BudgetExhausted("the fans in P^%d exceed the budget of %d cone coordinates"
                              % (n, FAN_BUDGET))
    inside = (1 << m) - 1, ((1 << mt) - 1) << m
    fans = []
    for mk, r in plain:
        if mk:
            fans += [_restrict(standard_tls(mk, n), *inside)] * r
    for mk, s in reciprocal:
        if mk:
            fans += [_restrict(standard_tls(mk, n, negated=True), *inside)] * s
    delta = prod(factorial(r) for mk, r in plain + reciprocal if mk)
    counted = minkowski_sum(fans or [standard_tls(0, n)], delta)
    (c,) = counted.cones.values()
    plus_masks = [plus for plus, _ in standard_tls(m, n).cones]
    minus_masks = [minus for _, minus in standard_tls(mt, n, negated=True).cones]
    summed = _built_fan(n, m + mt, {(plus, minus): c for plus in plus_masks
                                    for minus in minus_masks if not plus & minus},
                        counted.global_weight)
    complement = standard_tls(n - m - mt, n)
    v = draw_generic_vector(n, rng)
    degree, pairs = stable_mult_origin(summed, complement, v)
    return {"dim": m + mt, "degree": degree, "fan": summed, "complement": complement,
            "delta": delta, "displacement": v, "pairs": pairs}
