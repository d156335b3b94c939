import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from hadamard_spaces import linalg
from hadamard_spaces.linalg import (BudgetExhausted, PreconditionError, QMatrix,
                                    integer_rank, primitive_ints, rat_str)
from hadamard_spaces.projective import (LinSpace, PPoint, all_ones_point,
                                        intersect_spaces, line_through,
                                        permutation_sign, pluecker,
                                        point_times_space, sample_point)


def clear_denominators(vec):
    """A rational vector times the lcm of its denominators, as coprime
    integers with the first nonzero entry positive."""
    vec = [Fraction(x) for x in vec]
    mult = lcm(*(x.denominator for x in vec))
    return primitive_ints([x.numerator * (mult // x.denominator) for x in vec])


def test_hadamard_product_of_points():
    p = PPoint([2, 3, 5, 7])
    q = PPoint([11, 13, 17, 19])
    assert p.hadamard(q) == PPoint([22, 39, 85, 133])


def test_hadamard_identity_point():
    p = PPoint([4, -1, 0, "2/3"])
    assert all_ones_point(3).hadamard(p) == p


def test_hadamard_undefined():
    assert PPoint([1, 0]).hadamard(PPoint([0, 1])) is None


def test_projective_equality_and_canonical():
    assert PPoint([2, 4, 6]) == PPoint([1, 2, 3])
    assert PPoint([1, 2, 3]) != PPoint([1, 2, 4])
    assert PPoint([1, 0, 2]) != PPoint([0, 1, 2])
    assert PPoint(["-1/2", 1]).canonical() == (1, -2)


def test_int_coordinates_stay_ints_with_the_same_key():
    p = PPoint([-2, 4, 0, 6])
    assert (p.den, p.ints) == (1, (-2, 4, 0, 6)) and p.canonical() == (1, -2, 0, -3)
    assert [type(x) for x in PPoint([True, 2]).ints] == [int, int]
    rng = random.Random("int-key")
    for _ in range(200):
        ints = random_vector(rng, rng.randint(0, 4), "int")
        as_fractions = PPoint([Fraction(x) for x in ints])
        mixed = PPoint([Fraction(x) if j % 2 else x for j, x in enumerate(ints)])
        assert (1, tuple(ints)) == (as_fractions.den, as_fractions.ints) == (mixed.den, mixed.ints)
        assert PPoint(ints).canonical() == as_fractions.canonical() == mixed.canonical()
        assert PPoint(ints) == as_fractions and hash(PPoint(ints)) == hash(as_fractions)


def test_delta_index():
    assert PPoint([0, 0, 0, 1]).delta_index() == 0
    assert PPoint([1, 0, 0, 1]).delta_index() == 1
    assert PPoint([1, 1, 1, 1]).delta_index() == 3


def test_point_times_space_identity():
    space = LinSpace([[1, 2, 3], [0, 1, 5]])
    assert point_times_space(all_ones_point(2), space) == space


def test_point_times_space_hyperplane():
    # Hyperplane sum(alpha_i x_i) = 0 maps to sum(alpha_i / a_i x_i) = 0.
    alphas = [2, 3, 5, 7]
    hyper = LinSpace(QMatrix([alphas]).nullspace())
    p = PPoint([1, 2, 3, 4])
    image = point_times_space(p, hyper)
    expected_eq = [Fraction(a, c) for a, c in zip(alphas, [1, 2, 3, 4])]
    expected = LinSpace(QMatrix([expected_eq]).nullspace())
    assert image == expected


def test_point_times_space_dimension_drop():
    space = LinSpace([[1, 0, 1], [0, 1, 0]])  # points [a : b : a]
    image = point_times_space(PPoint([1, 0, 1]), space)
    assert image.dim == 0
    assert image.contains(PPoint([1, 0, 1]))


def test_point_times_space_empty():
    axis = LinSpace([[1, 0, 0]])
    assert point_times_space(PPoint([0, 1, 0]), axis) is None


@st.composite
def _spaces_and_zero_free_points(draw):
    """A k-space of P^n, 1 <= k+1 <= n+1 <= 7, from generator rows of small
    entries over a denominator (rank-deficient draws redrawn), and a point
    with no zero coordinate over a denominator."""
    n = draw(st.integers(0, 6))
    k = draw(st.integers(1, n + 1))
    entries = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(entries, min_size=n + 1, max_size=n + 1), min_size=k, max_size=k)
                .filter(lambda rows: integer_rank(rows) == len(rows)))
    den = draw(st.integers(1, 6))
    coords = draw(st.lists(st.integers(-50, 50).filter(bool), min_size=n + 1, max_size=n + 1))
    return LinSpace(QMatrix(rows, den)), PPoint(coords, draw(st.integers(1, 6)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_spaces_and_zero_free_points())
def test_carried_frame_is_the_fresh_reduction(case):
    space, p = case
    image = point_times_space(p, space)
    fresh = QMatrix(image.generators.ints, image.generators.den)
    assert fresh.rref() == image.generators.rref()
    assert image.frame() == LinSpace(fresh).frame()
    assert image.equation_matrix() == fresh.nullspace()


def test_point_with_a_zero_coordinate_takes_the_reduction(monkeypatch):
    space = LinSpace([[1, 2, 3, 4], [0, 1, 5, 7]])
    calls = []
    echelon = linalg._bareiss_echelon
    monkeypatch.setattr(linalg, "_bareiss_echelon", lambda rows: calls.append(1) or echelon(rows))
    assert point_times_space(PPoint([2, -3, 5, 7]), space).dim == 1 and calls == []
    assert point_times_space(PPoint([2, 0, 5, 7]), space).dim == 1 and calls == [1]


def test_pluecker_of_line():
    line = line_through(PPoint([1, 1, 1]), PPoint([1, 2, 3]))
    pl = pluecker(line)
    assert pl.entries == {(0, 1): 1, (0, 2): 2, (1, 2): 1}


def test_pluecker_coordinate_plane():
    pl = pluecker(LinSpace([[1, 0, 0], [0, 1, 0]]))
    assert pl.entries[(0, 1)] == 1
    assert pl.entries[(0, 2)] == 0 and pl.entries[(1, 2)] == 0


def test_pluecker_prime_line_bracket():
    line = line_through(PPoint([2, 3, 5, 7]), PPoint([11, 13, 17, 19]))
    assert pluecker(line).entries[(0, 1)] == -7


def test_pluecker_antisymmetric_bracket():
    pl = pluecker(line_through(PPoint([1, 1, 1]), PPoint([1, 2, 3])))
    assert pl.bracket((2, 0)) == -pl.bracket((0, 2))
    assert pl.bracket((1, 1)) == 0


def test_line_through_p1():
    line = line_through(PPoint([1, 0]), PPoint([0, 1]))
    assert line.dim == 1 and line.ambient_dim == 1


def test_line_through_keeps_generators():
    p, q = PPoint([2, 3, 5, 7]), PPoint([11, 13, 17, 19])
    line = line_through(p, q)
    assert line.generators.rows[0] == p.coords
    assert line.contains(p) and line.contains(q)


def test_line_through_equal_points_fails():
    with pytest.raises(PreconditionError):
        line_through(PPoint([1, 2]), PPoint([2, 4]))


def test_sample_point_deterministic():
    space = LinSpace([[1, 2, 3], [0, 1, 5]])
    a = sample_point(space, random.Random(99))
    b = sample_point(space, random.Random(99))
    assert a.coords == b.coords


def test_sample_point_p0():
    point_space = LinSpace([[3, 1, 4]])
    assert sample_point(point_space, random.Random(0)) == PPoint([3, 1, 4])


def test_sample_point_delta_avoidance():
    line = LinSpace([[1, 1, 1, 1], [1, 2, 3, 4]])
    p = sample_point(line, random.Random(1), avoid_delta=2)
    assert p.nonzero_count() == 4
    # A coordinate axis cannot avoid the coordinate hyperplanes.
    axis = LinSpace([[1, 0, 0]])
    with pytest.raises(BudgetExhausted):
        sample_point(axis, random.Random(1), avoid_delta=1)


def test_point_product_associativity_randomized():
    rng = random.Random(13)
    for _ in range(40):
        pts = [PPoint([rng.randint(-9, 9) or 1 for _ in range(5)]) for _ in range(3)]
        p, q, z = pts
        left = p.hadamard(q).hadamard(z)
        right = p.hadamard(q.hadamard(z))
        assert left == right


def test_zero_count_bound_randomized():
    # Products of r points with at most i-1 zero coordinates each have at
    # most r*i - r zero coordinates.
    rng = random.Random(14)
    n = 7
    for _ in range(40):
        r = rng.randint(2, 3)
        i = rng.randint(1, 3)
        pts = []
        for _ in range(r):
            coords = [rng.randint(1, 9) for _ in range(n + 1)]
            for j in rng.sample(range(n + 1), rng.randint(0, i - 1)):
                coords[j] = 0
            pts.append(PPoint(coords))
        prod = pts[0]
        for p in pts[1:]:
            prod = prod.hadamard(p)
            if prod is None:
                break
        if prod is not None:
            zeros = len(prod.coords) - prod.nonzero_count()
            assert zeros <= r * i - r


def test_point_times_space_distinct_randomized():
    rng = random.Random(15)
    for n in (3, 4, 5):
        line = LinSpace([[1] * (n + 1), list(range(2, n + 3))])
        assert pluecker(line).nonvanishing()
        for _ in range(10):
            p = PPoint([rng.randint(1, 50) for _ in range(n + 1)])
            q = PPoint([rng.randint(1, 50) for _ in range(n + 1)])
            if p == q:
                continue
            assert point_times_space(p, line) != point_times_space(q, line)


def test_pluecker_scaling_under_point_product():
    rng = random.Random(16)
    line = LinSpace([[1, 1, 1, 1], [1, 2, 3, 4]])
    pl = pluecker(line)
    p = PPoint([rng.randint(1, 9) for _ in range(4)])
    scaled = pluecker(point_times_space(p, line))
    for key, value in pl.entries.items():
        factor = Fraction(1)
        for j in key:
            factor *= p.coords[j]
        assert scaled.entries[key] == value * factor


def test_linspace_validation_and_equality():
    with pytest.raises(ValueError):
        LinSpace([[1, 2, 3], [2, 4, 6]])
    a = LinSpace([[1, 0, 1], [0, 1, 0]])
    b = LinSpace([[1, 1, 1], [1, -1, 1]])
    assert a == b
    assert a != LinSpace([[1, 0, 0], [0, 1, 0]])
    assert LinSpace.span_of([[0, 0], [0, 0]]) is None


def test_span_of_eliminates_once(monkeypatch):
    calls = []
    original = linalg._bareiss_echelon

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(linalg, "_bareiss_echelon", counting)
    space = LinSpace.span_of([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert space.dim == 1 and space.generators.rref()[1] == 2
    assert len(calls) == 1


def test_intersect_spaces():
    a = LinSpace([[1, 0, 0], [0, 1, 0]])
    b = LinSpace([[0, 1, 0], [0, 0, 1]])
    meet = intersect_spaces([a, b])
    assert meet.dim == 0
    assert meet.contains(PPoint([0, 1, 0]))
    skew_a = LinSpace([[1, 0, 0, 0], [0, 1, 0, 0]])
    skew_b = LinSpace([[0, 0, 1, 0], [0, 0, 0, 1]])
    assert intersect_spaces([skew_a, skew_b]) is None


# ---------------------------------------------------------------------------
# Oracles for the canonical forms: membership by a stacked rank, point
# equality by cross products, as these tests were first written.


def stacked_contains(space, rows):
    gens = space.generators
    return integer_rank(QMatrix(gens.rows + tuple(tuple(row) for row in rows)).ints) == gens.nrows


def cross_equal(p, q):
    p, q = p.coords, q.coords
    if len(p) != len(q):
        return False
    i0 = next(i for i in range(len(p)) if p[i] or q[i])
    return bool(p[i0] and q[i0]) and all(p[i0] * q[j] == q[i0] * p[j] for j in range(len(p)))


def random_entry(rng, kind):
    x = rng.randint(-3, 3)
    return Fraction(x, rng.randint(1, 6)) if kind == "fraction" else x


def random_vector(rng, n, kind, zero_cols=()):
    while True:
        vec = [0 if j in zero_cols else random_entry(rng, kind) for j in range(n + 1)]
        if any(vec):
            return vec


def combination(rng, rows):
    """A nonzero rational combination of independent rows."""
    while True:
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in rows]
        if any(coeffs):
            return [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]


def random_linspace(rng, m, n, kind, zero_cols=()):
    while True:
        try:
            return LinSpace([random_vector(rng, n, kind, zero_cols) for _ in range(m + 1)])
        except ValueError:
            continue


@pytest.mark.parametrize("kind", ["int", "fraction", "zero-column"])
def test_linspace_canonical_form_matches_stacked_rank(kind):
    rng = random.Random("canonical:" + kind)
    for _ in range(60):
        n = rng.randint(1, 5)
        zero_cols = set(rng.sample(range(n + 1), rng.randint(1, n))) if kind == "zero-column" else ()
        m = rng.randint(0, n - len(zero_cols))
        entries = "int" if kind == "int" else "fraction"
        space = random_linspace(rng, m, n, entries, zero_cols)
        rows = space.generators.rows
        on = PPoint(combination(rng, rows))
        off = PPoint(random_vector(rng, n, entries))
        for point in (on, off):
            assert space.contains(point) == stacked_contains(space, [point.coords])
        assert space.contains(on)

        same = LinSpace.span_of([combination(rng, rows) for _ in range(3 * (m + 1))])
        sub = LinSpace.span_of([combination(rng, rows) for _ in range(rng.randint(1, m + 1))])
        sup = LinSpace.span_of(list(rows) + [random_vector(rng, n, entries)])
        other = random_linspace(rng, m, n, entries)
        for a in (space, same, sub, sup, other):
            for b in (space, same, sub, sup, other):
                assert a.contains_space(b) == stacked_contains(a, b.generators.rows)
                equal = a.dim == b.dim and stacked_contains(a, b.generators.rows)
                assert (a == b) == equal
                if equal:
                    assert hash(a) == hash(b)
        assert space == same and space.contains_space(sub) and sup.contains_space(space)



def fraction_frame(space):
    """The frame from Fraction rows: the RREF's nonzero rows times the lcm of
    their denominators."""
    reduced, rank, pivots = space.generators.rref()
    rows = reduced.rows[:rank]
    den = lcm(*(x.denominator for row in rows for x in row))
    return pivots, den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)


@pytest.mark.parametrize("kind", ["int", "fraction", "zero-column"])
def test_integer_points_and_frames_match_the_fraction_route(kind):
    """Hadamard products and frames give the rationals of the Fraction route,
    stored as ints over the least positive denominator."""
    rng = random.Random("fraction-route:" + kind)
    entries = "int" if kind == "int" else "fraction"
    for _ in range(100):
        n = rng.randint(1, 5)
        zero_cols = set(rng.sample(range(n + 1), rng.randint(1, n))) if kind == "zero-column" else ()
        p, q = (random_vector(rng, n, entries, zero_cols) for _ in range(2))
        a, b = PPoint(p), PPoint(q)
        product = [Fraction(x) * Fraction(y) for x, y in zip(p, q)]
        for point, coords in ((a, p), (b, q)):
            assert type(point.den) is int and point.den > 0
            assert all(type(x) is int for x in point.ints) and gcd(point.den, *point.ints) == 1
            assert point.coords == tuple(map(Fraction, coords))
        if not any(product):
            assert a.hadamard(b) is None
            continue
        got, expected = a.hadamard(b), PPoint(product)
        assert got.coords == tuple(product) and (got.den, got.ints) == (expected.den, expected.ints)
        assert got == expected and hash(got) == hash(expected)
        assert got.canonical() == clear_denominators(product)

        m = rng.randint(0, n - len(zero_cols))
        space = random_linspace(rng, m, n, entries, zero_cols)
        factors = [Fraction(rng.choice([-3, 2, 5]), rng.randint(1, 4)) for _ in range(m + 1)]
        scaled = LinSpace([[c * x for x in row] for c, row in zip(factors, space.generators.rows)])
        assert space.frame() == fraction_frame(space) == scaled.frame()
        assert space == scaled and hash(space) == hash(scaled)
        assert all(type(x) is int for row in space.frame()[2] for x in row)

def test_linspace_membership_ambient_mismatch_raises():
    space = LinSpace([[1, 0, 2], [0, 1, 1]])
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        space.contains(PPoint([1, 1, 3, 0]))
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        space.contains_space(LinSpace([[1, 0, 0, 0]]))
    assert space != LinSpace([[1, 0, 2, 0], [0, 1, 1, 0]])


def test_point_equality_matches_cross_products():
    rng = random.Random("point-equality")
    for _ in range(300):
        n = rng.randint(0, 4)
        kind = rng.choice(["int", "fraction"])
        p = PPoint(random_vector(rng, n, kind))
        scale = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        candidates = [PPoint([scale * x for x in p.coords]), PPoint(random_vector(rng, n, kind)),
                      PPoint(random_vector(rng, n + 1, kind))]
        for q in candidates:
            assert (p == q) == cross_equal(p, q)
            if p == q:
                assert hash(p) == hash(q)
        assert p == candidates[0]


def test_pluecker_equality_matches_cross_products():
    rng = random.Random("pluecker-equality")
    for _ in range(100):
        n = rng.randint(1, 4)
        line = random_linspace(rng, 1, n, rng.choice(["int", "fraction"]))
        scale = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        scaled = LinSpace([[scale * x for x in line.generators.rows[0]], line.generators.rows[1]])
        other = random_linspace(rng, 1, n, "int")
        pl = pluecker(line)
        for q in (pluecker(scaled), pluecker(other)):
            values = [PPoint([v for _, v in sorted(x.entries.items())]) for x in (pl, q)]
            assert (pl == q) == cross_equal(*values)
        assert pl == pluecker(scaled)
        assert pl != pluecker(LinSpace([[1, 0] + [0] * n, [0, 1] + [0] * n]))  # in P^(n+1)


def pluecker_entries_by_det(space):
    """Every maximal minor as the determinant of its own Fraction QMatrix."""
    gens = space.generators
    return {cols: gens.submatrix_columns(cols).det()
            for cols in combinations(range(gens.ncols), gens.nrows)}


def projectively_equal_entries(a, ea, b, eb):
    """The projective equality of Pluecker vectors, read off oracle entries."""
    return ((a.ambient_dim, a.dim) == (b.ambient_dim, b.dim) and ea.keys() == eb.keys()
            and clear_denominators([ea[k] for k in sorted(ea)])
            == clear_denominators([eb[k] for k in sorted(eb)]))


def test_pluecker_builds_no_fraction(monkeypatch):
    """pluecker() keeps integer minors over one scale; the Fraction
    entries are built only when read."""
    space = LinSpace([["1/2", 3, -1, 4], [2, "5/3", 0, 1]])
    calls = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    pl = pluecker(space)
    assert pl.to_json()["0,1"] == "-31/6" and calls == []
    assert pl.entries[(0, 1)] == Fraction(-31, 6) and calls


def test_pluecker_matches_per_minor_determinants():
    """Integer minors of the cleared generators over D^k give the same
    entries, JSON and equality as one Fraction determinant per minor."""
    rng = random.Random("pluecker-oracle")
    scaled = vanishing = equal = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(0, min(3, n))
        kind = rng.choice(["int", "fraction", "zero-column"])
        zero_cols = set(rng.sample(range(n + 1), rng.randint(1, n - m))) if kind == "zero-column" and m < n else ()
        space = random_linspace(rng, m, n, "int" if kind == "int" else "fraction", zero_cols)
        entries = pluecker_entries_by_det(space)
        pl = pluecker(space)
        assert pl.entries == entries
        assert pl.to_json() == {",".join(map(str, k)): rat_str(v) for k, v in sorted(entries.items())}
        scaled += pl.scale > 1
        vanishing += not all(entries.values())
        rows = space.generators.rows
        factors = [Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)) for _ in rows]
        others = [LinSpace([[c * x for x in row] for c, row in zip(factors, rows)]),
                  random_linspace(rng, m, n, "fraction", zero_cols),
                  random_linspace(rng, m, n + 1, "int")]
        for other in others:
            expected = projectively_equal_entries(space, entries, other, pluecker_entries_by_det(other))
            assert (pl == pluecker(other)) == expected
            equal += expected
    assert scaled >= 50 and vanishing >= 50 and equal >= 200


def cycle_walk_sign(seq):
    """Sign of the permutation that sorts seq, from the parity of its cycles."""
    perm = sorted(range(len(seq)), key=seq.__getitem__)
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def test_permutation_sign_matches_cycle_walk():
    for k in range(7):
        for perm in permutations(range(k)):
            assert permutation_sign(perm) == cycle_walk_sign(perm)
    rng = random.Random("permutation-sign")
    for _ in range(500):
        seq = rng.sample(range(-50, 50), rng.randint(0, 10))
        assert permutation_sign(seq) == cycle_walk_sign(seq)
