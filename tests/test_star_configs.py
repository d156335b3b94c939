import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from hadamard_spaces import linalg
from hadamard_spaces.line_powers import line_power_matrix
from hadamard_spaces.linalg import PreconditionError, QMatrix, integer_rank
from hadamard_spaces.papersuite import collinear_points, random_line
from hadamard_spaces.projective import (LinSpace, PPoint, intersect_spaces, line_through,
                                        point_times_space, sample_point)
from hadamard_spaces.star_configs import (PointSet, build_star, squarefree_power,
                                          verify_general_position, verify_star)


def test_squarefree_full_subset_single_point():
    zset = PointSet([PPoint([1, 2, 3]), PPoint([1, 5, 7]), PPoint([2, 3, 11])])
    assert len(squarefree_power(zset, 3)) == 1


def test_squarefree_counts_on_generic_line():
    rng = random.Random(31)
    line = random_line(4, rng, 40)
    zset = collinear_points(line, 5, rng)
    assert len(squarefree_power(zset, 3)) == comb(5, 3) == 10


def test_squarefree_two_points():
    zset = PointSet([PPoint([1, 2, 3]), PPoint([1, 5, 7])])
    result = squarefree_power(zset, 2)
    assert len(result) == 1
    assert result.points[0] == PPoint([1, 10, 21])


def test_squarefree_r_too_large():
    zset = PointSet([PPoint([1, 2, 3])])
    with pytest.raises(PreconditionError):
        squarefree_power(zset, 2)


def test_point_set_rejects_duplicates():
    with pytest.raises(ValueError):
        PointSet([PPoint([1, 2, 3]), PPoint([2, 4, 6])])


def test_build_star_small_plane_case():
    rng = random.Random(32)
    line = random_line(2, rng, 40)
    zset = collinear_points(line, 4, rng)
    witness = build_star(zset, line, 2)
    assert witness.ambient_space.dim == 2
    assert len(witness.hyperplanes) == 4
    assert len(witness.points) == 6
    assert verify_star(witness)


def test_build_star_named_hypothesis_failures():
    line = LinSpace([[1, 0, 0], [0, 1, 1]])  # meets Delta_0, bracket [1,2] = 0
    pts = PointSet([PPoint([1, 1, 1]), PPoint([1, 2, 2])])
    with pytest.raises(PreconditionError, match=r"bracket"):
        build_star(pts, line, 2)

    good_line = line_through(PPoint([1, 1, 1]), PPoint([1, 2, 3]))
    zero_pt = PPoint([0, 1, 2])  # on the line, but on a coordinate hyperplane
    mixed = PointSet([PPoint([1, 1, 1]), zero_pt])
    with pytest.raises(PreconditionError, match=r"zero coordinate"):
        build_star(mixed, good_line, 2)

    off_line = PointSet([PPoint([1, 1, 1]), PPoint([1, 5, 1])])
    with pytest.raises(PreconditionError, match=r"does not lie"):
        build_star(off_line, good_line, 2)

    small = PointSet([PPoint([1, 1, 1]), PPoint([1, 2, 3])])
    with pytest.raises(PreconditionError, match=r"exceeds"):
        build_star(small, good_line, 5)


def test_general_position_two_lines_in_plane():
    whole = LinSpace([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    h1 = LinSpace([[1, 0, 0], [0, 1, 0]])
    h2 = LinSpace([[1, 0, 0], [0, 0, 1]])
    ok, certificate = verify_general_position([h1, h2], whole)
    assert ok and certificate is None


def test_general_position_concurrent_lines():
    whole = LinSpace([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # Three lines through [1:0:0].
    h1 = LinSpace([[1, 0, 0], [0, 1, 0]])
    h2 = LinSpace([[1, 0, 0], [0, 0, 1]])
    h3 = LinSpace([[1, 0, 0], [0, 1, 1]])
    ok, certificate = verify_general_position([h1, h2, h3], whole)
    assert not ok
    assert certificate == (0, 1, 2)


def test_general_position_dimension_precondition():
    whole = LinSpace([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    point = LinSpace([[1, 0, 0]])
    with pytest.raises(PreconditionError):
        verify_general_position([point], whole)


def test_verify_star_detects_corruption():
    rng = random.Random(33)
    line = random_line(3, rng, 40)
    zset = collinear_points(line, 4, rng)
    witness = build_star(zset, line, 2)
    assert verify_star(witness)
    corrupted = PointSet(list(witness.points.points[:-1]) + [PPoint([1, 17, 23, 5])])
    witness.points = corrupted
    assert not verify_star(witness)


@pytest.mark.parametrize("n, r, m", [(3, 2, 4), (4, 3, 5), (2, 1, 3), (3, 3, 3), (5, 2, 2)])
def test_verify_star_rejects_fewer_extra_or_shifted_points(n, r, m):
    rng = random.Random(40 + n + r + m)
    line = random_line(n, rng, 40)
    witness = build_star(collinear_points(line, m, rng), line, r)
    points = list(witness.points)
    assert verify_star(witness)
    corrupted = [points + [sample_point(witness.ambient_space, rng)]]
    if len(points) > 1:
        corrupted.append(points[:-1])
    # The first point moved off M at a column outside M's pivots (r < n):
    # its pivot entries, and so its incidences, are unchanged.
    pivots = witness.ambient_space.frame()[0]
    for free in (c for c in range(n + 1) if c not in pivots):
        shifted = list(points[0].ints)
        shifted[free] += 1
        corrupted.append([PPoint(shifted)] + points[1:])
    for rest in corrupted:
        witness.points = PointSet(rest)
        assert not verify_star(witness)
        assert not reference_star(witness)


def test_verify_star_solves_no_kernel(monkeypatch):
    rng = random.Random(41)
    line = random_line(5, rng, 40)
    witness = build_star(collinear_points(line, 6, rng), line, 3)
    calls = []
    monkeypatch.setattr(linalg, "_back_substitute", lambda *args: calls.append(args))
    assert verify_star(witness) and calls == []


def test_star_with_m_equal_r():
    rng = random.Random(34)
    line = random_line(3, rng, 40)
    zset = collinear_points(line, 3, rng)
    witness = build_star(zset, line, 3)
    assert len(witness.points) == 1
    assert verify_star(witness)


def test_intersection_identity_hadamard_vs_row_spaces():
    rng = random.Random(35)
    n, r, m = 4, 3, 4
    line = random_line(n, rng, 40)
    zset = collinear_points(line, m, rng)
    witness = build_star(zset, line, r)
    power_r_minus = {
        1: LinSpace.span_of(line_power_matrix(line, r - 1)),
        2: LinSpace.span_of(line_power_matrix(line, r - 2)) if r > 2 else None,
    }
    for j in (2, 3):
        idx = list(range(j))
        meet = intersect_spaces([witness.hyperplanes[i] for i in idx])
        prod = None
        for i in idx:
            p = zset.points[i]
            prod = p if prod is None else prod.hadamard(p)
        if r - j >= 1:
            expected = point_times_space(prod, LinSpace.span_of(line_power_matrix(line, r - j)))
        else:
            expected = LinSpace([prod.coords])
        assert meet == expected


def test_randomized_star_grid():
    rng = random.Random(36)
    for n in range(2, 7):
        for r in (2, min(3, n)):
            if r > n:
                continue
            m = min(r + 2, 6)
            line = random_line(n, rng, 40)
            zset = collinear_points(line, m, rng)
            witness = build_star(zset, line, r)
            assert len(witness.points) == comb(m, r)
            assert verify_star(witness)


# ---------------------------------------------------------------------------
# Reference oracle: the checks as first written, in the ambient P^n, with a
# stacked-rank containment test and one intersect_spaces call (a nullspace
# per hyperplane, then a kernel) per subset.


def stacked_contains_space(ambient, space):
    stacked = QMatrix(ambient.generators.rows + space.generators.rows)
    return integer_rank(stacked.ints) == ambient.generators.nrows


def reference_general_position(hyperplanes, ambient):
    r = ambient.dim
    for h in hyperplanes:
        if h.dim != r - 1:
            raise PreconditionError("hyperplane has dim %d, expected %d" % (h.dim, r - 1))
        if not stacked_contains_space(ambient, h):
            raise PreconditionError("hyperplane not contained in the ambient space")
    m = len(hyperplanes)
    for j in range(2, min(m, r + 1) + 1):
        want = r - j
        for subset in combinations(range(m), j):
            meet = intersect_spaces([hyperplanes[i] for i in subset])
            got = -1 if meet is None else meet.dim
            if j <= r:
                if got != want:
                    return False, subset
            else:
                if meet is not None:
                    return False, subset
    return True, None


def reference_star(witness):
    ok, _ = reference_general_position(witness.hyperplanes, witness.ambient_space)
    if not ok:
        return False
    r = witness.ambient_space.dim
    keys = set()
    for subset in combinations(range(len(witness.hyperplanes)), r):
        meet = intersect_spaces([witness.hyperplanes[i] for i in subset])
        if meet is None or meet.dim != 0:
            return False
        keys.add(PPoint(meet.generators.rows[0]).canonical())
    return keys == set(witness.points.canonical_keys())


def assert_agrees_with_reference(witness):
    got = verify_general_position(witness.hyperplanes, witness.ambient_space)
    assert got == reference_general_position(witness.hyperplanes, witness.ambient_space)
    verdict = verify_star(witness)
    assert verdict == reference_star(witness)
    return got, verdict


def random_hyperplane_through(point, ambient, rng):
    """A hyperplane of the ambient space containing point."""
    while True:
        rows = [point.coords] + [sample_point(ambient, rng).coords for _ in range(ambient.dim - 1)]
        try:
            return LinSpace(rows)
        except ValueError:
            continue


def fraction_witness_inputs(line, zset, rng):
    """The same line and points with Fraction coordinates: the line's rows and
    each point scaled by random fractions."""
    rows, pts = [], []
    for row in line.generators.rows:
        scale = Fraction(1, rng.randint(2, 9))
        rows.append([x * scale for x in row])
    for p in zset:
        scale = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        pts.append(PPoint([x * scale for x in p.coords]))
    return LinSpace(rows), PointSet(pts)


#: (n, r, m): r = 1, m = r, r = n, and generic cases.
ORACLE_GRID = [(2, 1, 3), (4, 1, 2), (3, 1, 1), (3, 3, 3), (5, 2, 2), (2, 2, 4), (3, 3, 5),
               (4, 4, 5), (5, 3, 5), (6, 2, 5), (4, 2, 4)]


@pytest.mark.parametrize("fractions", [False, True])
def test_star_checks_agree_with_reference_on_witnesses(fractions):
    rng = random.Random(37 + fractions)
    for n, r, m in ORACLE_GRID:
        line = random_line(n, rng, 40)
        zset = collinear_points(line, m, rng)
        if fractions:
            line, zset = fraction_witness_inputs(line, zset, rng)
        witness = build_star(zset, line, r)
        assert assert_agrees_with_reference(witness) == ((True, None), True)


def test_star_checks_agree_with_reference_on_corrupted_witnesses():
    rng = random.Random(38)
    seen = set()
    for n, r, m in ORACLE_GRID:
        line = random_line(n, rng, 40)
        zset = collinear_points(line, m, rng)
        witness = build_star(zset, line, r)
        hyperplanes, points = list(witness.hyperplanes), witness.points
        if m >= 2:
            witness.hyperplanes = [hyperplanes[0]] + hyperplanes[:-1]
            got, verdict = assert_agrees_with_reference(witness)
            assert not got[0] and not verdict
            seen.add("duplicate")
        if m > r:
            # Move the last hyperplane through the point of the first r others.
            star_point = points.points[witness.origin_subsets.index(tuple(range(r)))]
            moved = random_hyperplane_through(star_point, witness.ambient_space, rng)
            witness.hyperplanes = hyperplanes[:-1] + [moved]
            got, verdict = assert_agrees_with_reference(witness)
            assert not got[0] and not verdict
            seen.add("moved")
        witness.hyperplanes = hyperplanes
        replacement = sample_point(witness.ambient_space, rng)
        witness.points = PointSet(list(points.points[:-1]) + [replacement])
        got, verdict = assert_agrees_with_reference(witness)
        assert got == (True, None) and not verdict
        seen.add("replaced")
    assert seen == {"duplicate", "moved", "replaced"}


def test_general_position_certificates_agree_with_reference():
    """Hyperplanes of random spaces, spanned by small combinations of the
    space's generators, so that dependent normals are frequent; the
    certificates must be the reference's, first violating subset included."""
    rng = random.Random(39)
    lengths = set()
    for _ in range(120):
        n = rng.randint(2, 5)
        r = rng.randint(1, n)
        m = rng.randint(1, r + 3)
        while True:
            try:
                ambient = LinSpace([[rng.randint(-1, 2) for _ in range(n + 1)] for _ in range(r + 1)])
                break
            except ValueError:
                continue
        hyperplanes = []
        while len(hyperplanes) < m:
            coeffs = [[rng.randint(-1, 1) for _ in range(r + 1)] for _ in range(r)]
            rows = [[sum(c * g[j] for c, g in zip(cs, ambient.generators.rows)) for j in range(n + 1)]
                    for cs in coeffs]
            try:
                hyperplanes.append(LinSpace(rows))
            except ValueError:
                continue
        got = verify_general_position(hyperplanes, ambient)
        assert got == reference_general_position(hyperplanes, ambient)
        if not got[0]:
            lengths.add(len(got[1]))
    assert len(lengths) >= 3


def test_general_position_preconditions_match_reference():
    ambient = LinSpace([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    inside = LinSpace([[1, 0, 0, 1], [0, 1, 0, 1]])
    outside = LinSpace([[1, 0, 0, 0], [0, 1, 0, 1]])
    for hyperplanes, message in (([inside, outside], "not contained"),
                                 ([inside, LinSpace([[1, 0, 0, 1]])], "has dim 0, expected 1")):
        with pytest.raises(PreconditionError, match=message):
            reference_general_position(hyperplanes, ambient)
        with pytest.raises(PreconditionError, match=message):
            verify_general_position(hyperplanes, ambient)
