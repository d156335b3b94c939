"""One-command reproduction of the worked numerical examples.

Each check recomputes a published value from scratch along an independent
route (interpolation vs bracket formula, fan computation vs closed form,
power-matrix span vs printed equations) and reports pass/fail.  Every check's
logic is written once, as a predicate over one instance.  The `paper-suite`
subcommand runs each predicate on the spot instances below; the pytest
acceptance module runs the same predicates (and the instance draws
`random_space`, `random_line`, `collinear_points`) on its full grids.
"""

import random
from fractions import Fraction
from math import comb
from itertools import combinations

from . import brackets, line_powers, products, samplers, star_configs, tropical
from .linalg import QMatrix, integer_rank, rat_str
from .poly import SparsePoly, proportional
from .projective import LinSpace, PPoint, line_through, pluecker, sample_point

#: The two lines whose Hadamard product is the benchmark quadric surface.
LINE_L_POINTS = ([2, 3, 5, 7], [11, 13, 17, 19])
LINE_M_POINTS = ([23, 29, 31, 37], [41, 43, 47, 53])

#: Coefficients of that quadric (monomials in degree-2 lex order).
TWO_LINES_QUADRIC = SparsePoly(4, {
    (2, 0, 0, 0): 88128, (1, 1, 0, 0): -89280, (0, 2, 0, 0): -5299632,
    (1, 0, 1, 0): -817938, (0, 1, 1, 0): 8896641, (0, 0, 2, 0): -1481805,
    (1, 0, 0, 1): -321510, (0, 1, 0, 1): -1777545, (0, 0, 1, 1): -54250,
    (0, 0, 0, 2): 116375,
})

#: The plane whose Hadamard square is the benchmark cubic hypersurface.
PLANE_POINTS = ([3, 1, 4, 1, 5, 9], [2, 6, 5, 3, 5, 8], [9, 7, 9, 3, 2, 3])

#: A line in P^5 meeting a codimension-2 coordinate stratum, given by
#: equation coefficient rows, with the equations its powers must satisfy.
DEGENERATE_LINE_EQS = [
    [2, -1, 0, 0, 0, 0],
    [0, 1, 3, 0, -1, 0],
    [0, 0, 3, -1, 0, 0],
    [0, 0, 0, 16, -12, -3],
]
DEGENERATE_POWER_EQS = {
    2: [[0, 0, 9, -1, 0, 0], [0, 192, 0, 64, -48, -9], [768, 0, 0, 64, -48, -9]],
    3: [[0, 0, 27, -1, 0, 0], [8, -1, 0, 0, 0, 0]],
    4: [[0, 0, 81, -1, 0, 0], [16, -1, 0, 0, 0, 0]],
}
DEGENERATE_POWER_DIMS = {2: 2, 3: 3, 4: 3, 5: 3}

#: Draws of each identifiability search.  A space whose Vandermonde matrix
#: has full rank is certified without any draw (identifiability_check).
IDENTIFIABILITY_TRIALS = 10 ** 4


def benchmark_lines():
    l = line_through(PPoint(LINE_L_POINTS[0]), PPoint(LINE_L_POINTS[1]))
    m = line_through(PPoint(LINE_M_POINTS[0]), PPoint(LINE_M_POINTS[1]))
    return l, m


def benchmark_plane():
    return LinSpace(PLANE_POINTS)


def degenerate_line():
    return LinSpace(QMatrix(DEGENERATE_LINE_EQS).nullspace())


def span_satisfies_exactly(space, coeff_rows):
    """The space's linear equations are spanned by exactly the given forms."""
    forms = [SparsePoly.linear_form(row) for row in coeff_rows]
    vanish = all(f.eval(row) == 0 for f in forms for row in space.generators.ints)
    independent = integer_rank(QMatrix(coeff_rows).ints) == len(coeff_rows)
    dual_dim = space.generators.nullspace().nrows
    return vanish and independent and dual_dim == len(coeff_rows)


def zero_rowcol_sum_space():
    rows = []
    for i in range(2):
        for j in range(3):
            mat = [[0] * 4 for _ in range(3)]
            mat[i][j] = 1
            mat[i][3] = -1
            mat[2][j] = -1
            mat[2][3] = 1
            rows.append([x for row in mat for x in row])
    return LinSpace(rows)


# ---------------------------------------------------------------------------
# random instances


def random_space(m, n, rng, bound=40):
    """An m-plane in P^n spanned by integer rows in [-bound, bound], redrawn
    until the rows are independent."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n + 1)] for _ in range(m + 1)]
        try:
            return LinSpace(rows)
        except ValueError:
            continue


def random_line(n, rng, bound=50):
    """A random line in P^n with no vanishing bracket, so that it meets no
    coordinate codimension-2 stratum."""
    while True:
        line = random_space(1, n, rng, bound)
        if pluecker(line).nonvanishing():
            return line


def collinear_points(line, m, rng):
    """m distinct points of the line, off the codimension-2 coordinate strata."""
    pts, seen = [], set()
    while len(pts) < m:
        p = sample_point(line, rng, avoid_delta=line.ambient_dim - 1)
        if p.canonical() in seen:
            continue
        seen.add(p.canonical())
        pts.append(p)
    return star_configs.PointSet(pts)


# ---------------------------------------------------------------------------
# predicates over one instance


def power_minors_are_brackets(line):
    """For r = 1..n every maximal minor of the r-th power matrix of the line
    is the product of pairwise brackets, and when no bracket vanishes the
    matrix has rank min(r, n) + 1.  Returns (holds, minors compared)."""
    n = line.ambient_dim
    pl = pluecker(line)
    clean = pl.nonvanishing()
    ok, minors = True, 0
    for r in range(1, n + 1):
        mat = line_powers.line_power_matrix(line, r)
        for cols in combinations(range(n + 1), r + 1):
            ok = ok and (mat.submatrix_columns(cols).det()
                         == line_powers.line_power_pluecker(pl, r, cols))
            minors += 1
        if clean:
            ok = ok and integer_rank(mat.ints) == min(r, n) + 1
    return ok, minors


def star_from_collinear_points(line, m, r, rng):
    """A star built from m random points of the line verifies, with exactly
    binom(m, r) points in the r-th squarefree power."""
    zset = collinear_points(line, m, rng)
    witness = star_configs.build_star(zset, line, r)
    count = len(star_configs.squarefree_power(zset, r))
    return count == comb(m, r) and star_configs.verify_star(witness)


def degree_by_both_routes(plain, recip, n, rng):
    """The closed-form degree of the product, or None where the closed
    form's dimension or degree differs from the fan pipeline's (Minkowski
    sum, then stable intersection).  Below the genericity bound the
    comparison is made all the same, and the closed form's warning is
    dropped."""
    dim, closed, _ = tropical.closed_form_degree(plain, recip, n)
    fan = tropical.fan_degree_pipeline(plain, recip, n, rng)
    return closed if (dim, closed) == (fan["dim"], fan["degree"]) else None


def reciprocal_degrees_hold(plane, line_a, line_b):
    """Interpolation finds the reciprocal of a plane in P^3 a cubic surface
    and line_a times the reciprocal of line_b a quadric."""
    recip_plane = samplers.reciprocal_sampler(plane)
    mixed = samplers.hadamard_product_sampler(
        samplers.linear_space_sampler(line_a), samplers.reciprocal_sampler(line_b))
    return (products.interpolate_hypersurface(recip_plane, 4)[0] == 3
            and products.interpolate_hypersurface(mixed, 4)[0] == 2)


def self_product_squares_hyperplane(line):
    """The two-lines quadric of a clean line in P^3 with itself is
    proportional to the square of its power hyperplane form."""
    pl = pluecker(line)
    h = line_powers.power_hyperplane(pl)
    return proportional(brackets.quadric_two_lines(pl, pl), h * h)


def cubic_matches_interpolation(plane):
    """The bracket cubic of a plane in P^5 is proportional to the cubic that
    interpolation finds on its Hadamard square."""
    cubic = brackets.cubic_plane_square(pluecker(plane))
    sampler = samplers.hadamard_power_sampler(samplers.linear_space_sampler(plane), 2)
    degree, form = products.interpolate_hypersurface(sampler, 3)
    return degree == 3 and proportional(cubic, form)


def span_rank_and_identifiability(entries, rng):
    """The generalized Vandermonde matrix of the (space, multiplicity)
    entries has rank span_dimension_formula + 1; a single space in the
    identifiability regime also shows no collision (IDENTIFIABILITY_TRIALS
    draws at most).  Returns (holds, whether identifiability was tested)."""
    n = entries[0][0].ambient_dim
    dims = [(space.dim, r) for space, r in entries]
    ok = (integer_rank(products.gen_vandermonde(entries).ints)
          == products.span_dimension_formula(dims, n) + 1)
    if len(entries) > 1 or n < products.identifiability_regime_bound(dims):
        return ok, False
    space, r = entries[0]
    collision = products.identifiability_check(space, r, IDENTIFIABILITY_TRIALS, rng)
    return ok and collision is None, True


# ---------------------------------------------------------------------------
# the ten checks


def check_two_lines_quadric(rng):
    l, m = benchmark_lines()
    sampler = samplers.hadamard_product_sampler(
        samplers.linear_space_sampler(l), samplers.linear_space_sampler(m))
    degree, form = products.interpolate_hypersurface(sampler, 3)
    bracket_form = brackets.quadric_two_lines(pluecker(l), pluecker(m))
    ok = (degree == 2 and proportional(form, TWO_LINES_QUADRIC)
          and proportional(bracket_form, TWO_LINES_QUADRIC))
    return ok, "interpolated degree %d; both routes proportional to the benchmark" % degree


def check_degenerate_line_powers(rng):
    line = degenerate_line()
    details = []
    ok = True
    for r, dim in sorted(DEGENERATE_POWER_DIMS.items()):
        span = line_powers.sampled_power_span(line, r)
        good = span.dim == dim
        if r in DEGENERATE_POWER_EQS:
            good = good and span_satisfies_exactly(span, DEGENERATE_POWER_EQS[r])
        ok = ok and good
        details.append("r=%d dim=%d" % (r, span.dim))
    return ok, ", ".join(details)


def check_line_power_brackets(rng):
    line = LinSpace([[1, 2, 3, 5, 8], [1, 4, 9, 25, 64]])
    ok = pluecker(line).nonvanishing() and power_minors_are_brackets(line)[0]
    return ok, "all maximal minors equal pairwise-bracket products, ranks min(r,n)+1"


def check_star_configuration(rng):
    m, r = 5, 3
    line = LinSpace([[1, 3, 7, 13, 29], [2, 5, 11, 17, 31]])
    ok = star_from_collinear_points(line, m, r, rng)
    return ok, "%d products of %d collinear points, star verified" % (comb(m, r), m)


def check_deficient_dimension(rng):
    segre = samplers.segre_sampler(2, 3)
    linear = samplers.linear_space_sampler(zero_rowcol_sum_space())
    p, tp = segre.sample(rng)
    q, tq = linear.sample(rng)
    tangent_dim = products.terracini_dim(p, tp, q, tq)
    expected = products.expected_dimension(5, 5, 0, 11)
    ok = tangent_dim == 9 and expected == 10
    return ok, "Terracini dimension %d, expected dimension %d" % (tangent_dim, expected)


DEGREE_SPOT_VALUES = [
    ("two distinct lines", [(1, 1), (1, 1)], [], 3, Fraction(2)),
    ("plane squared", [(2, 2)], [], 5, Fraction(3)),
    ("three distinct lines", [(1, 1), (1, 1), (1, 1)], [], 8, Fraction(6)),
    ("line to the fourth", [(1, 4)], [], 5, Fraction(1)),
    ("reciprocal plane", [], [(2, 1)], 3, Fraction(3)),
    ("line times reciprocal line", [(1, 1)], [(1, 1)], 3, Fraction(2)),
    ("reciprocal line (rational normal curve)", [], [(1, 1)], 5, Fraction(5)),
]


def check_degree_formulas(rng):
    ok = True
    details = []
    for label, plain, recip, n, want in DEGREE_SPOT_VALUES:
        degree = degree_by_both_routes(plain, recip, n, rng)
        ok = ok and degree == want
        details.append("%s=%s" % (label, "fans disagree" if degree is None else rat_str(degree)))
    return ok, "; ".join(details)


def check_reciprocal_interpolation(rng):
    plane = LinSpace([[1, 2, 3, 4], [1, 3, 7, 13], [2, 1, 5, 3]])
    line_a = LinSpace([[1, 2, 3, 4], [1, 3, 7, 13]])
    line_b = LinSpace([[3, 1, 4, 1], [2, 7, 1, 8]])
    ok = reciprocal_degrees_hold(plane, line_a, line_b)
    return ok, "reciprocal plane degree 3, line*reciprocal-line degree 2"


def check_quadric_identities(rng):
    ok = brackets.quadric_symbolic_identity().is_zero()
    for _ in range(5):
        ok = ok and self_product_squares_hyperplane(random_line(3, rng, bound=30))
    return ok, "symbolic expansion vanishes; self-product squares the hyperplane form"


def check_cubic_vs_interpolation(rng):
    ok = cubic_matches_interpolation(benchmark_plane())
    return ok, "bracket cubic proportional to the degree-3 interpolation"


def check_span_and_identifiability(rng):
    line = LinSpace([[1, 2, 3, 4], [1, 3, 7, 13]])
    ok, _ = span_rank_and_identifiability([(line, 2)], rng)
    return ok, "Vandermonde rank matches formula; no identifiability collisions"


ALL_CHECKS = [
    ("two-lines quadric", check_two_lines_quadric),
    ("degenerate line powers", check_degenerate_line_powers),
    ("line power brackets", check_line_power_brackets),
    ("star configuration", check_star_configuration),
    ("deficient dimension", check_deficient_dimension),
    ("degree formulas vs fans", check_degree_formulas),
    ("reciprocal interpolation", check_reciprocal_interpolation),
    ("quadric identities", check_quadric_identities),
    ("cubic vs interpolation", check_cubic_vs_interpolation),
    ("span and identifiability", check_span_and_identifiability),
]


def check_rng(seed, name):
    """The random stream of the check called `name` under master seed `seed`.

    The stream depends only on `seed` and `name`: the two are joined into a
    string seed, which `random` hashes with SHA-512 rather than with the
    salted `hash()`.  So a failing check reproduces from the same seed in
    any process, whatever `PYTHONHASHSEED` is, and on every supported Python.
    """
    return random.Random("%d:%s" % (seed, name))


def run_all(seed):
    """Run every reproduction check with one master seed; returns a report."""
    checks = []
    all_pass = True
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn(check_rng(seed, name))
        except Exception as exc:  # a crash is a failing check, not a crash of the suite
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        checks.append({"name": name, "pass": ok, "detail": detail})
        all_pass = all_pass and ok
    return {"checks": checks, "all_pass": all_pass}
