"""One-command reproduction of the worked numerical examples.

Each check recomputes a published value from scratch along an independent
route (interpolation vs bracket formula, fan computation vs closed form,
sampled span vs printed equations) and reports pass/fail.  The CLI exposes
this as the `paper-suite` subcommand; the pytest acceptance module runs the
same material at full grid sizes.
"""

import random
import warnings
from fractions import Fraction
from math import comb
from itertools import combinations

from . import brackets, line_powers, products, samplers, star_configs, tropical
from .linalg import QMatrix, rat_str
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


def benchmark_lines():
    l = line_through(PPoint(LINE_L_POINTS[0]), PPoint(LINE_L_POINTS[1]))
    m = line_through(PPoint(LINE_M_POINTS[0]), PPoint(LINE_M_POINTS[1]))
    return l, m


def benchmark_plane():
    return LinSpace(PLANE_POINTS)


def degenerate_line():
    return LinSpace(QMatrix(QMatrix(DEGENERATE_LINE_EQS).nullspace()))


def span_satisfies_exactly(space, coeff_rows):
    """The space's linear equations are spanned by exactly the given forms."""
    forms = [SparsePoly.linear_form(row) for row in coeff_rows]
    vanish = all(f.eval(row) == 0 for f in forms for row in space.generators.rows)
    independent = QMatrix(coeff_rows).rank() == len(coeff_rows)
    dual_dim = len(space.generators.nullspace())
    return vanish and independent and dual_dim == len(coeff_rows)


def check_two_lines_quadric(rng):
    l, m = benchmark_lines()
    sampler = samplers.hadamard_product_sampler(
        samplers.linear_space_sampler(l), samplers.linear_space_sampler(m))
    degree, form = products.interpolate_hypersurface(sampler, 3, rng)
    bracket_form = brackets.quadric_two_lines(pluecker(l), pluecker(m))
    ok = (degree == 2 and proportional(form, TWO_LINES_QUADRIC)
          and proportional(bracket_form, TWO_LINES_QUADRIC))
    return ok, "interpolated degree %d; both routes proportional to the benchmark" % degree


def check_degenerate_line_powers(rng):
    line = degenerate_line()
    details = []
    ok = True
    for r, dim in sorted(DEGENERATE_POWER_DIMS.items()):
        span = line_powers.sampled_power_span(line, r, rng)
        good = span.dim == dim
        if r in DEGENERATE_POWER_EQS:
            good = good and span_satisfies_exactly(span, DEGENERATE_POWER_EQS[r])
        ok = ok and good
        details.append("r=%d dim=%d" % (r, span.dim))
    return ok, ", ".join(details)


def check_line_power_brackets(rng):
    n = 4
    line = LinSpace([[1, 2, 3, 5, 8], [1, 4, 9, 25, 64]])
    pl = pluecker(line)
    ok = pl.nonvanishing()
    for r in range(1, n + 1):
        mat = line_powers.line_power_matrix(line, r)
        ok = ok and mat.rank() == min(r, n) + 1
        for cols in combinations(range(n + 1), r + 1):
            minor = mat.submatrix_columns(cols).det()
            ok = ok and minor == line_powers.line_power_pluecker(pl, r, cols)
    return ok, "all maximal minors equal pairwise-bracket products, ranks min(r,n)+1"


def check_star_configuration(rng):
    m, r, n = 5, 3, 4
    line = LinSpace([[1, 3, 7, 13, 29], [2, 5, 11, 17, 31]])
    pts, seen = [], set()
    while len(pts) < m:
        p = sample_point(line, rng, avoid_delta=n - 1)
        if p.canonical() not in seen:
            seen.add(p.canonical())
            pts.append(p)
    zset = star_configs.PointSet(pts)
    witness = star_configs.build_star(zset, line, r)
    count = len(star_configs.squarefree_power(zset, r))
    ok = count == comb(m, r) == 10 and star_configs.verify_star(witness)
    return ok, "%d products of %d collinear points, star verified" % (count, m)


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


def check_deficient_dimension(rng):
    segre = samplers.segre_sampler(2, 3)
    linear = samplers.linear_space_sampler(zero_rowcol_sum_space())
    p, tp = segre.sample(rng)
    q, tq = linear.sample(rng)
    tangent = products.terracini_span(p, tp, q, tq)
    expected = products.expected_dimension(5, 5, 0, 11)
    ok = tangent.dim == 9 and expected == 10
    return ok, "Terracini dimension %d, expected dimension %d" % (tangent.dim, expected)


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for label, plain, recip, n, want in DEGREE_SPOT_VALUES:
            dim, closed = tropical.degree_with_reciprocals(plain, recip, n)
            fan = tropical.fan_degree_pipeline(plain, recip, n, rng)
            good = closed == want == fan["degree"] and fan["dim"] == dim
            ok = ok and good
            details.append("%s=%s" % (label, rat_str(closed)))
    return ok, "; ".join(details)


def check_reciprocal_interpolation(rng):
    plane = LinSpace([[1, 2, 3, 4], [1, 3, 7, 13], [2, 1, 5, 3]])
    deg_plane, _ = products.interpolate_hypersurface(samplers.reciprocal_sampler(plane), 4, rng)
    line1 = LinSpace([[1, 2, 3, 4], [1, 3, 7, 13]])
    line2 = LinSpace([[3, 1, 4, 1], [2, 7, 1, 8]])
    mixed = samplers.hadamard_product_sampler(
        samplers.linear_space_sampler(line1), samplers.reciprocal_sampler(line2))
    deg_mixed, _ = products.interpolate_hypersurface(mixed, 4, rng)
    ok = deg_plane == 3 and deg_mixed == 2
    return ok, "reciprocal plane degree %d, line*reciprocal-line degree %d" % (deg_plane, deg_mixed)


def check_quadric_identities(rng):
    expansion = brackets.quadric_symbolic_identity()
    ok = expansion.is_zero()
    for _ in range(5):
        line = LinSpace([[rng.randint(-30, 30) for _ in range(4)] for _ in range(2)])
        pl = pluecker(line)
        if not pl.nonvanishing():
            continue
        h = line_powers.power_hyperplane(pl)
        ok = ok and proportional(brackets.quadric_two_lines(pl, pl), h * h)
    return ok, "symbolic expansion vanishes; self-product squares the hyperplane form"


def check_cubic_vs_interpolation(rng):
    plane = benchmark_plane()
    cubic = brackets.cubic_plane_square(pluecker(plane))
    sampler = samplers.hadamard_power_sampler(samplers.linear_space_sampler(plane), 2)
    degree, form = products.interpolate_hypersurface(sampler, 3, rng)
    ok = degree == 3 and proportional(cubic, form)
    return ok, "bracket cubic proportional to the degree-%d interpolation" % degree


def check_span_and_identifiability(rng):
    ok = True
    line = LinSpace([[1, 2, 3, 4], [1, 3, 7, 13]])
    v = products.gen_vandermonde([(line, 2)])
    ok = ok and v.rank() == products.span_dimension_formula([(1, 2)], 3) + 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        collision = products.identifiability_check(line, 2, 1000, rng)
    ok = ok and collision is None
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
