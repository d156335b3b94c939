"""Command-line front end with deterministic JSON input/output.

Every subcommand reads a JSON payload (from --in or standard input), runs
one computation with a single seeded random state, and emits a JSON
document.  Identical payload + seed always produces byte-identical output;
`interp` reads no random state, so its output is the same at every seed.

Payloads are read by `read_payload` from one table, SCHEMA: each
subcommand's fields in the order they are read, with their kinds, defaults
and ranges, the variants it branches on and the checks across fields, so
a payload with two bad fields is named by the first one read.

Output is written once, as compact JSON text with sorted keys.  Every
subcommand but `degree --transcript` returns a dict, which `main` encodes
with one `json.dumps(doc, sort_keys=True, separators=(",", ":"))`.
`degree --transcript` returns those same bytes as text: its cones, up to
thousands per document, fill a fixed template from the JSON text of their
masks (`tropical.mask_text`, memoized on the domain of
`tropical.mask_indices`), the summed fan's from one shared head per minus
mask and multiplicity; its four small fields, an int and `rat_str` texts
that need no escapes, fill one too.  Text is written as it is.

`--format pretty` is `json.dumps(json.loads(text), indent=2,
sort_keys=True)` of that compact text, for every subcommand, and gives the
bytes of `json.dumps(doc, indent=2, sort_keys=True)`:
- json.loads gives back a document that prints as doc does.  No output
  holds a float, and every key is a string.  A tuple reads back as a
  list, which prints the same.  A string is written as ASCII escapes, and
  the string read back is written as the same escapes.  Every printed int
  is within Python's int-to-str limit, or writing the compact text would
  have raised, so json.loads reads it back.
- Both texts sort keys, so the order of the read-back dicts is irrelevant.

Flags are read by `parse_args` from one table, OPTIONS, which maps each
long option to its attribute, kind (int, str, a tuple of choices, or a
switch) and default.  It reads a command line as the argparse parser this
module used to build read it: `--opt value` and `--opt=value`, unique
prefixes of long options (`--tr`), options before or after the command, a
value that looks like a negative number (`--seed -3`), `--`, and
`-h`/`--help`, which prints HELP, argparse's text.  A bad command line is
one JSON validation error with argparse's `field` and message: the reader
checks in argparse's order (ambiguous prefixes first, then each word in
turn, then a missing command, then unrecognized words), so it reports the
error argparse reported first.  One deliberate difference: argparse
dropped a `--` given as `--opt=--` and set the option to an empty list
(`--seed=--` then raised a TypeError); here it is the value `--`.  That
argparse parser is kept in the tests as the reader's oracle; the package
no longer imports argparse or gettext.

Exit codes: 0 success (`-h`/`--help` too), 1 payload or command-line
validation error (the message points at the offending field, or at the
flag: `command`, `seed`, `format`, ...), 2 mathematical precondition
failure (the message names the violated hypothesis), 3 retry/sampling
budget exhaustion.  Exit 3 also covers every size limit, all but the
last two checked before the work:
- `degree --transcript` fans past tropical.FAN_BUDGET;
- a `degree` whose digit bound is past Python's int-to-str limit;
- `line-power` past products.SPAN_DIM_WORK_LIMIT or
  products.SPAN_DIM_BIT_WORK_LIMIT (its power matrix) or past
  line_powers.LINE_POWER_OUTPUT_LIMIT (its printed entries);
- `span-dim` past products.SPAN_DIM_WORK_LIMIT or, with explicit
  generators, past products.SPAN_DIM_BIT_WORK_LIMIT (counting its entries'
  bits);
- an `interp` degree past products.INTERP_MONOMIAL_BUDGET, or whose
  parameter grid times its monomials is past products.INTERP_GRID_LIMIT;
- an `interp` of an empty product (a reciprocal factor in a coordinate
  hyperplane, or factors whose product map vanishes);
- `bracket verify` trials past brackets.VERIFY_TRIALS_LIMIT;
- `star-config` past star_configs.STAR_CONFIG_OUTPUT_LIMIT (its printed
  entries and general position minors, counted from m, r and n) or past
  star_configs.STAR_CONFIG_BIT_WORK_LIMIT (that count times the squared
  bits of its general position minors);
- a `segre` sampler past samplers.SEGRE_AMBIENT_LIMIT, before it is built;
- a sampler past samplers.SAMPLER_FACTOR_LIMIT factors, before it is built;
- a `span-dim` by `dims` whose SAMPLE_BUDGET draws were all rank-deficient;
- an `interp` whose work, over all the degrees of a `dmax` search, passes
  linalg.LIFT_BUDGET: each matrix's build, charged before it is built,
  and its kernel's lifting and exact checks, each step charged before it
  runs.
"""

import json
import random
import re
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from types import SimpleNamespace
from typing import NamedTuple

from . import papersuite
from .brackets import (cubic_plane_square, quadric_bracket_display,
                       quadric_square_symbolic, quadric_symbolic_identity,
                       quadric_two_lines, verify_identity)
from .linalg import (BudgetExhausted, PreconditionError, QMatrix, integer_rank, is_json_int,
                     is_rational_literal, rat_str)
from .line_powers import (check_line_power_limits, line_power_matrix, line_power_minor,
                          power_linear_equations, sampled_power_span)
from .poly import SparsePoly
from .products import (check_span_dim_bit_work, check_span_dim_work, expected_dimension,
                       gen_vandermonde, interpolate_forms, interpolate_hypersurface,
                       span_dimension_formula, terracini_dim)
from .projective import SAMPLE_BUDGET, LinSpace, PPoint, pluecker
from .samplers import (hadamard_power_sampler, hadamard_product_sampler,
                       linear_space_sampler, reciprocal_sampler, segre_sampler)
from .star_configs import (PointSet, build_star, check_star_config_bit_work,
                           check_star_config_limits, verify_star)
from .tropical import closed_form_degree, fan_degree_pipeline, mask_text

DEFAULT_SEED = 20259

TOO_DEEP = "payload nested too deeply"


class ValidationError(ValueError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(message)


# ---------------------------------------------------------------------------
# the payload schema: kinds, SCHEMA, and its one reader


def _rational(value, field, *index):
    """An entry that is not an int, as a rational literal
    (`linalg.is_rational_literal`): a string as a Fraction; anything else is
    a validation error, whose message gives the entry's location, `[i][j]`
    for `index` (i, j)."""
    where = "".join("[%d]" % k for k in index)
    if is_rational_literal(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValidationError(field, "zero denominator at %s" % where)
        except ValueError as exc:  # more digits than int() converts
            raise ValidationError(field, "bad rational entry at %s: %s" % (where, exc))
    got = "a float" if isinstance(value, float) else json.dumps(value)
    raise ValidationError(field, "expected an integer or a \"num/den\" string at %s, got %s"
                          % (where, got))


# A kind reads a JSON value into what a subcommand uses, or raises
# ValidationError.  A required field not of its kind's `json_type` is named
# before it is read ("expected a list"); a list item also gets the items
# read before it.


class Int(NamedTuple):
    """A JSON integer, at least `least` unless that is None."""
    least: object = None
    message: str = "expected an integer"
    json_type = int

    def read(self, value, field, earlier=()):
        if not is_json_int(value) or self.least is not None and value < self.least:
            raise ValidationError(field, self.message)
        return value


class Choice(NamedTuple):
    """One of `choices`; the message is formatted with the value."""
    choices: tuple
    message: str
    json_type = str

    def read(self, value, field, earlier=()):
        if value not in self.choices:
            raise ValidationError(field, self.message.format(value))
        return value


class Space(NamedTuple):
    """A linear space: rows of rational entries of full row rank; a line's two."""
    line: bool = False
    json_type = list

    def read(self, value, field, earlier=()):
        if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
            raise ValidationError(field, "expected a non-empty list of rows")
        # An int entry is taken as it is (a bool is not one); the rest are parsed.
        rows = [[x if type(x) is int else _rational(x, field, i, j) for j, x in enumerate(row)]
                for i, row in enumerate(value)]
        try:
            space = LinSpace(QMatrix(rows))
        except ValueError as exc:
            raise ValidationError(field, str(exc))
        if self.line and space.dim != 1:
            raise ValidationError(field, "expected exactly two generator rows")
        return space


class Point(NamedTuple):
    """A projective point: rational coordinates, not all zero."""
    json_type = list

    def read(self, value, field, earlier=()):
        if not isinstance(value, list) or not value:
            raise ValidationError(field, "expected a coordinate list")
        coords = [x if type(x) is int else _rational(x, field, j) for j, x in enumerate(value)]
        try:
            return PPoint(coords)
        except ValueError as exc:
            raise ValidationError(field, str(exc))


class Pair(NamedTuple):
    """A [dimension, multiplicity] pair, as a tuple."""
    json_type = list

    def read(self, value, field, earlier=()):
        if not isinstance(value, list) or len(value) != 2 or not all(map(is_json_int, value)):
            raise ValidationError(field, "expected [dimension, multiplicity]")
        if value[0] < 0 or value[1] < 1:
            raise ValidationError(field, "dimension must be >= 0 and multiplicity >= 1")
        return tuple(value)


class List(NamedTuple):
    """At least `least` items; `short` (or `message`) for fewer."""
    item: object
    message: str
    least: int = 0
    short: str = None
    json_type = list

    def read(self, value, field, earlier=()):
        if not isinstance(value, list) or len(value) < self.least:
            raise ValidationError(field, self.message if not isinstance(value, list)
                                  else self.short or self.message)
        items = []
        for i, x in enumerate(value):
            items.append(self.item.read(x, "%s[%d]" % (field, i), items))
        return items


class Obj:
    """An object whose fields `steps` reads (a list item's with the items
    before it as `earlier`), made into its value by `build`."""
    json_type = dict

    def __init__(self, message, build, steps=()):
        self.message, self.build, self.steps = message, build, steps

    def read(self, value, field, earlier=()):
        if not isinstance(value, dict):
            raise ValidationError(field, self.message)
        return self.build(_read(self.steps, value, field + ".", None,
                                SimpleNamespace(earlier=earlier)))


def check(name, test, message):
    """A step: ValidationError(name, message) unless test(fields) holds for
    the fields read so far; the message is formatted with them ({0.x})."""
    def step(fields, prefix):
        if not test(fields):
            raise ValidationError(prefix + name, message.format(fields))
    return step


def _same_ambient(fields, prefix):
    n = fields.factors[0].ambient_dim
    for i, factor in enumerate(fields.factors):
        if factor.ambient_dim != n:
            raise ValidationError("%sfactors[%d]" % (prefix, i), "ambient dimension P^%d "
                                  "differs from factors[0]'s P^%d" % (factor.ambient_dim, n))


_JSON_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _read(steps, data, prefix, args, fields):
    """The JSON object `data` read as `steps` lists them, into `fields`.  A
    step is a check, a field (name, kind[, default]: without one it is
    required) or a branch (on, cases[, error]): the case is keyed by a field
    read before, a flag, or the names of a tuple present in `data`."""
    todo = list(reversed(steps))
    while todo:
        step = todo.pop()
        if callable(step):
            step(fields, prefix)
            continue
        name, kind, *default = step
        if isinstance(kind, dict):
            if isinstance(name, tuple):
                key = tuple(n for n in name if n in data)
            else:
                key = getattr(args, OPTIONS[name][0]) if name[:2] == "--" else getattr(fields, name)
            if key not in kind:
                raise ValidationError(*default[0])
            todo += reversed(kind[key])
            continue
        field = prefix + name
        if name in data:
            value = data[name]
            if not default and not (is_json_int(value) if kind.json_type is int
                                    else isinstance(value, kind.json_type)):
                raise ValidationError(field, "expected " + _JSON_NAMES[kind.json_type])
        elif default:
            value = default[0]
        else:
            raise ValidationError(field, "missing required field")
        setattr(fields, name, kind.read(value, field))
    return fields


SPACE = Space()
PAIRS = List(Pair(), "expected a list of [dimension, multiplicity] pairs")
SEGRE = Int(1, "segre sampler needs positive integers a, b")
_SAMPLERS = {
    "linear": lambda f: linear_space_sampler(f.generators),
    "reciprocal": lambda f: reciprocal_sampler(f.generators),
    "segre": lambda f: segre_sampler(f.a, f.b),
    "product": lambda f: reduce(hadamard_product_sampler, f.factors),
    "power": lambda f: hadamard_power_sampler(f.base, f.r),
}
#: A sampler object by its "type"; a product or power past
#: samplers.SAMPLER_FACTOR_LIMIT factors is refused before it is built.
SAMPLER = Obj("expected a sampler object", lambda f: _SAMPLERS[f.type](f))
SAMPLER.steps = (
    ("type", Choice(tuple(_SAMPLERS), "unknown sampler type {!r} "
                    "(linear, reciprocal, segre, product, power)"), None),
    ("type", {"linear": (("generators", SPACE, None),),
              "reciprocal": (("generators", SPACE, None),),
              "segre": (("a", SEGRE, None), ("b", SEGRE, None)),
              "product": (("factors", List(SAMPLER, "need at least two factor samplers", 2),
                           None), _same_ambient),
              "power": (("r", Int(1, "power must be a positive integer"), None),
                        ("base", SAMPLER, None))}))

#: A `span-dim` space, (space, multiplicity), in spaces[0]'s P^n.
SPACE_ENTRY = Obj("expected an object", lambda f: (f.generators, f.mult), (
    ("generators", SPACE, None),
    check("generators", lambda f: not f.earlier
          or f.generators.ambient_dim == f.earlier[0][0].ambient_dim,
          "ambient dimension differs from spaces[0]"),
    ("mult", Int(1, "multiplicity must be >= 1"), 1)))

#: `bracket verify`: with --symbolic it reads no trials and no space.
VERIFY = (
    ("identity", Choice(("quadric", "cubic"), "expected 'quadric' or 'cubic'")),
    ("--symbolic", {True: (), False: (
        ("trials", Int(1, "trials must be a positive integer"), 25),
        ("identity", {"quadric": (("line_l", SPACE, list(papersuite.LINE_L_POINTS)),
                                  ("line_m", SPACE, list(papersuite.LINE_M_POINTS))),
                      "cubic": (("plane", SPACE, list(papersuite.PLANE_POINTS)),)}))}))

#: Each subcommand's payload: the steps `_read` takes, in order.
SCHEMA = {
    "line-power": (("line", Space(line=True)), ("r", Int(1, "power must be >= 1"))),
    "star-config": (("line", Space(line=True)), ("points", List(Point(), "expected a list")),
                    ("r", Int())),
    "span-dim": ((("spaces",), {
        ("spaces",): (("spaces", List(SPACE_ENTRY, "expected a list", 1,
                                      "need at least one space")),),
        (): (("dims", List(Pair(), PAIRS.message, 1,
                           "need at least one [dimension, multiplicity] pair")),
             ("n", Int()),
             check("n", lambda f: all(m <= f.n for m, _ in f.dims),
                   "ambient dimension must be at least every dimension in dims")),
    }),),
    "degree": (("plain", PAIRS, []), ("reciprocal", PAIRS, []),
               check("plain", lambda f: f.plain or f.reciprocal, "need at least one factor"),
               ("n", Int(0, "ambient dimension must be >= 0"))),
    "interp": (("sampler", SAMPLER), (("degree", "dmax"), {
        ("degree",): (("degree", Int(1, "degree must be >= 1")),),
        ("dmax",): (("dmax", Int(1, "dmax must be >= 1")),),
    }, ("degree", "provide exactly one of 'degree' or 'dmax'"))),
    "dim-estimate": (
        ("x", SAMPLER), ("y", SAMPLER),
        check("y", lambda f: f.y.ambient_dim == f.x.ambient_dim,
              "ambient dimension P^{0.y.ambient_dim} differs from x's P^{0.x.ambient_dim}"),
        ("dim_h", Int(0, "torus dimension must be >= 0")), ("dim_g", Int()),
        check("dim_g", lambda f: 0 <= f.dim_g <= f.x.ambient_dim,
              "torus dimension must be between 0 and n = {0.x.ambient_dim}")),
    "bracket": (
        ("mode", Choice(("quadric", "cubic", "verify"), "expected 'quadric', 'cubic', or 'verify'")),
        ("mode", {"quadric": (("line_l", SPACE), ("line_m", SPACE)),
                  "cubic": (("plane", SPACE),),
                  "verify": VERIFY})),
}


def read_payload(command, payload, args):
    """The payload's fields as SCHEMA[command] reads them, in a namespace."""
    try:
        return _read(SCHEMA[command], payload, "", args, SimpleNamespace())
    except RecursionError:  # a sampler nested past the recursion limit
        raise ValidationError(None, TOO_DEEP) from None


# ---------------------------------------------------------------------------
# subcommands: each but paper-suite gets the payload's fields


def cmd_line_power(fields, rng, args):
    line, r = fields.line, fields.r
    check_line_power_limits(line, r)
    n = line.ambient_dim
    pl = pluecker(line)
    if pl.nonvanishing():
        power = LinSpace.span_of(line_power_matrix(line, r))
        method = "matrix"
        if r <= n:
            scale = pl.scale ** comb(r + 1, 2)
            minors = {cols: line_power_minor(pl, r, cols)
                      for cols in combinations(range(n + 1), r + 1)}
            pk = {",".join(map(str, cols)): rat_str(m, scale) for cols, m in minors.items()}
        else:
            pk = pluecker(power).to_json()
        equations = power_linear_equations(n, r, minors) if r < n else []
    else:
        power = sampled_power_span(line, r)
        method = "sampled"
        pk = pluecker(power).to_json()
        equations = [SparsePoly.linear_form(vec).primitive()
                     for vec in power.generators.nullspace().ints]
    return {
        "method": method,
        "dim": power.dim,
        "generators": power.to_json(),
        "pluecker": pk,
        "equations": [f.to_json() for f in equations],
    }


def cmd_star_config(fields, rng, args):
    line, points, r = fields.line, fields.points, fields.r
    check_star_config_limits(len(points), r, line.ambient_dim)
    check_star_config_bit_work(line, points, r)
    try:  # after the limits: the points share one P^n and are distinct
        zset = PointSet(points)
    except ValueError as exc:
        raise ValidationError("points", str(exc))
    witness = build_star(zset, line, r)
    hyperplanes = []
    for h in witness.hyperplanes:
        hyperplanes.append({
            "generators": h.to_json(),
            "equations": h.equation_matrix().to_json(),
        })
    pts = []
    for point, subset in zip(witness.points, witness.origin_subsets):
        pts.append({"coords": point.to_json(), "subset": list(subset)})
    return {
        "ambient_space": witness.ambient_space.to_json(),
        "hyperplanes": hyperplanes,
        "points": pts,
        "verified": verify_star(witness),
    }


def _draw_space(rng, m, n):
    """An m-space in P^n with generator entries drawn from [-1000, 1000],
    a rank-deficient draw redrawn up to SAMPLE_BUDGET draws in all."""
    for _ in range(SAMPLE_BUDGET):
        rows = [[rng.randint(-1000, 1000) for _ in range(n + 1)] for _ in range(m + 1)]
        try:
            return LinSpace(rows)
        except ValueError:  # the only one LinSpace raises on these rows: rank deficiency
            continue
    raise BudgetExhausted("no draw of %d generators in P^%d had full rank in %d draws"
                          % (m + 1, n, SAMPLE_BUDGET))


def cmd_span_dim(fields, rng, args):
    if hasattr(fields, "spaces"):
        entries = fields.spaces
        n = entries[0][0].ambient_dim
        check_span_dim_work([(s.dim, r) for s, r in entries], n)
        check_span_dim_bit_work(entries)
    else:
        n = fields.n
        check_span_dim_work(fields.dims, n)
        entries = [(_draw_space(rng, m, n), r) for m, r in fields.dims]
    rank = integer_rank(gen_vandermonde(entries).ints)
    formula = span_dimension_formula([(s.dim, r) for s, r in entries], n)
    return {
        "rank": rank,
        "span_dim": rank - 1,
        "formula_dim": formula,
        "match": rank - 1 == formula,
    }


def _cone_text(cone, mult):
    """A cone and its multiplicity as compact JSON text, keys sorted."""
    plus, minus = cone
    return '{"minus":%s,"mult":%d,"plus":%s}' % (mask_text(minus), mult, mask_text(plus))


def _transcript_text(detail):
    """The transcript object as compact JSON text, keys in sorted order.
    The summed fan's cones are written from one shared head per (minus
    mask, multiplicity), the text up to the plus mask, and joined once
    (the fan of a pipeline has at least one cone); only the few
    contributing pairs render their cones on their own.  The small fields
    are an int and `rat_str` texts, which json.dumps writes as they are."""
    fan, complement = detail["fan"], detail["complement"]
    heads, cones = {}, []
    for (plus, minus), mult in fan.cones.items():
        head = heads.get((minus, mult))
        if head is None:
            head = heads[minus, mult] = '{"minus":%s,"mult":%d,"plus":' % (mask_text(minus), mult)
        cones.append(head + mask_text(plus))
    pairs = ",".join('{"lattice_index":%d,"sigma1":%s,"sigma2":%s}'
                     % (idx, _cone_text(c1, fan.cones[c1]), _cone_text(c2, complement.cones[c2]))
                     for c1, c2, idx in detail["pairs"])
    displacement = ",".join('"%s"' % rat_str(x) for x in detail["displacement"])
    return ('{"cones":[%s}],"contributing_pairs":[%s],"delta":%d,"displacement":[%s],'
            '"fan_degree":"%s","global_weight":"%s"}'
            % ("},".join(cones), pairs, detail["delta"], displacement,
               rat_str(detail["degree"]), rat_str(fan.global_weight)))


def cmd_degree(fields, rng, args):
    """The degree document; with --transcript, already as compact JSON text."""
    dim, degree, warning = closed_form_degree(fields.plain, fields.reciprocal, fields.n)
    doc = {"dim": dim, "degree": rat_str(degree)}
    if warning:
        doc["warning"] = warning
    if not args.transcript:
        return doc
    text = '{"degree":%s,"dim":%d,"transcript":%s' % (
        json.dumps(doc["degree"]), dim,
        _transcript_text(fan_degree_pipeline(fields.plain, fields.reciprocal, fields.n, rng)))
    if warning:
        text += ',"warning":' + json.dumps(warning)
    return text + "}"


def cmd_interp(fields, rng, args):
    if hasattr(fields, "degree"):
        forms = interpolate_forms(fields.sampler, fields.degree)
        return {"degree": fields.degree, "forms": [form.to_json() for form in forms]}
    degree, form = interpolate_hypersurface(fields.sampler, fields.dmax)
    return {"degree": degree, "form": form.to_json()}


def cmd_dim_estimate(fields, rng, args):
    p, tp = fields.x.sample(rng)
    q, tq = fields.y.sample(rng)
    tangent_dim = terracini_dim(p, tp, q, tq)
    expected = expected_dimension(tp.dim, tq.dim, fields.dim_h, fields.dim_g)
    return {
        "dim_x": tp.dim,
        "dim_y": tq.dim,
        "terracini_dim": tangent_dim,
        "expected_dim": expected,
        "deficient": tangent_dim < expected,
    }


def cmd_bracket(fields, rng, args):
    if fields.mode == "quadric":
        form = quadric_two_lines(pluecker(fields.line_l), pluecker(fields.line_m))
        doc = {"form": form.to_json()}
        if args.format == "pretty":
            doc["bracket_display"] = quadric_bracket_display()
        return doc
    if fields.mode == "cubic":
        return {"form": cubic_plane_square(pluecker(fields.plane)).to_json()}
    if args.symbolic:
        if fields.identity != "quadric":
            raise PreconditionError(
                "symbolic expansion is only provided for the quadric identity; "
                "the cubic identity is verified by sampling and interpolation")
        return {
            "mode": "symbolic",
            "expansion_zero": quadric_symbolic_identity().is_zero(),
            "square_identity": quadric_square_symbolic(),
        }
    if fields.identity == "quadric":
        form = quadric_two_lines(pluecker(fields.line_l), pluecker(fields.line_m))
        sampler = hadamard_product_sampler(
            linear_space_sampler(fields.line_l), linear_space_sampler(fields.line_m))
    else:
        form = cubic_plane_square(pluecker(fields.plane))
        sampler = hadamard_power_sampler(linear_space_sampler(fields.plane), 2)
    ok = verify_identity(form, sampler, fields.trials, rng)
    return {"mode": "sampling", "trials": fields.trials, "verified": ok}


def cmd_paper_suite(payload, rng, args):
    return papersuite.run_all(args.seed)


def _reading(command, run):
    """`run` as `main` calls it: on the fields of the payload, read as
    SCHEMA[command] lists them."""
    return lambda payload, rng, args: run(read_payload(command, payload, args), rng, args)


COMMANDS = {
    "line-power": _reading("line-power", cmd_line_power),
    "star-config": _reading("star-config", cmd_star_config),
    "span-dim": _reading("span-dim", cmd_span_dim),
    "degree": _reading("degree", cmd_degree),
    "interp": _reading("interp", cmd_interp),
    "dim-estimate": _reading("dim-estimate", cmd_dim_estimate),
    "bracket": _reading("bracket", cmd_bracket),
    "paper-suite": cmd_paper_suite,
}

#: Every long option: the attribute it sets, its kind (int, str, a tuple of
#: choices, or bool for a switch) and its default.  `-h` is `--help`, a
#: switch that ends the reading.  The order is argparse's, which an
#: ambiguous prefix's message lists.
OPTIONS = {
    "--help": ("help", bool, False),
    "--seed": ("seed", int, DEFAULT_SEED),
    "--in": ("infile", str, None),
    "--out": ("outfile", str, None),
    "--format": ("format", ("json", "pretty"), "json"),
    "--symbolic": ("symbolic", bool, False),
    "--transcript": ("transcript", bool, False),
}

_DEFAULTS = {attr: default for attr, _, default in OPTIONS.values()}

HELP = """\
usage: hadamard-spaces [-h] [--seed SEED] [--in INFILE] [--out OUTFILE]
                       [--format {json,pretty}] [--symbolic] [--transcript]
                       {bracket,degree,dim-estimate,interp,line-power,paper-suite,span-dim,star-config}

Exact computations with Hadamard products of projective linear spaces.

positional arguments:
  {bracket,degree,dim-estimate,interp,line-power,paper-suite,span-dim,star-config}

options:
  -h, --help            show this help message and exit
  --seed SEED           master seed for all randomness (default 20259)
  --in INFILE           payload path (default: standard input)
  --out OUTFILE         output path (default: standard output)
  --format {json,pretty}
  --symbolic            symbolic verification mode for `bracket verify`
  --transcript          include the fan computation transcript in `degree`
                        output
"""

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _flag_error(name, message):
    """A command-line error about an option or the command, worded and
    named (`field`) as argparse names it."""
    label = "-h/--help" if name == "--help" else name
    return ValidationError(label.lstrip("-"), "argument %s: %s" % (label, message))


def _choice(name, value, choices):
    if value not in choices:
        raise _flag_error(name, "invalid choice: %r (choose from %s)"
                          % (value, ", ".join(map(repr, sorted(choices)))))
    return value


def _read_option(token):
    """A token before `--` as argparse reads it: None for a positional, else
    (the long option it names, None if none; its `=` value, None if none).
    An ambiguous prefix is an error."""
    if token[:1] != "-" or token == "-":
        return None
    if token in OPTIONS:
        return token, None
    if token == "-h":
        return "--help", None
    if token[1] != "-":
        if token[:2] == "-h":  # argparse reads -hh as -h -h; anything else glued is a value
            rest = token[3:] if token[:3] == "-h=" else token[2:]
            left = rest.lstrip("h")
            return "--help", None if rest and not left else left
        return None if _NEGATIVE_NUMBER.match(token) or " " in token else (None, None)
    name, eq, value = token.partition("=")
    if not eq:
        value = None
    if name in OPTIONS:
        return name, value
    matches = [option for option in OPTIONS if option.startswith(name)]
    if len(matches) > 1:
        raise ValidationError(None, "ambiguous option: %s could match %s"
                              % (token, ", ".join(matches)))
    if matches:
        return matches[0], value
    return None if " " in token else (None, None)


def parse_args(argv):
    """The command line read from OPTIONS, as a namespace of the command and
    every option's attribute; `help` is true when -h or --help was read,
    and the rest may then be unread.  A bad command line raises
    ValidationError naming the `field` argparse's error named."""
    end = argv.index("--") if "--" in argv else len(argv)
    options = [_read_option(token) for token in argv[:end]]  # ambiguity first, as argparse
    options += [None] * (len(argv) - end)
    args = SimpleNamespace(command=None, **_DEFAULTS)
    extras = []
    i = 0
    while i < len(argv):
        option = options[i]
        i += 1
        if option is None:
            if args.command is not None or i - 1 == end == len(argv) - 1:
                extras.append(argv[i - 1])
                continue
            i += i - 1 == end  # a `--` just before the command
            args.command = _choice("command", argv[i - 1], COMMANDS)
            i += i == end  # or just after it
            continue
        name, value = option
        if name is None:
            extras.append(argv[i - 1])
            continue
        attr, kind, _ = OPTIONS[name]
        if kind is bool:
            if value is not None:
                raise _flag_error(name, "ignored explicit argument %r" % value)
            setattr(args, attr, True)
            if attr == "help":
                return args
            continue
        if value is None:
            if i >= end or options[i]:
                raise _flag_error(name, "expected one argument")
            value = argv[i]
            i += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _flag_error(name, "invalid int value: %r" % value)
        elif kind is not str:
            _choice(name, value, kind)
        setattr(args, attr, value)
    if args.command is None:
        raise ValidationError(None, "the following arguments are required: command")
    if extras:
        raise ValidationError(None, "unrecognized arguments: %s" % " ".join(extras))
    return args


def _fail(code, field, message):
    doc = {"error": {"code": code, "message": message}}
    if field:
        doc["error"]["field"] = field
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
    return code


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except ValidationError as exc:
        return _fail(1, exc.field, str(exc))
    if args.help:
        sys.stdout.write(HELP)
        return 0
    if args.seed < 0:
        return _fail(1, "seed", "seed must be a nonnegative integer")

    payload = {}
    if args.command in SCHEMA:
        try:
            if args.infile:
                with open(args.infile) as fh:
                    text = fh.read()
            else:
                text = sys.stdin.read()
            payload = json.loads(text) if text.strip() else {}
        except OSError as exc:
            return _fail(1, "in", str(exc))
        except ValueError as exc:  # bad JSON, or an integer past int()'s digit limit
            return _fail(1, None, "malformed JSON payload: %s" % exc)
        except RecursionError:
            return _fail(1, None, TOO_DEEP)
        if not isinstance(payload, dict):
            return _fail(1, None, "payload must be a JSON object")

    rng = random.Random(args.seed)
    try:
        doc = COMMANDS[args.command](payload, rng, args)
    except ValidationError as exc:
        return _fail(1, exc.field, str(exc))
    except PreconditionError as exc:
        return _fail(2, None, str(exc))
    except BudgetExhausted as exc:
        return _fail(3, None, str(exc))

    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if args.format == "pretty":
        text = json.dumps(json.loads(text), indent=2, sort_keys=True)
    text += "\n"
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if args.command == "paper-suite" and not doc.get("all_pass", False):
        failing = [c["name"] for c in doc["checks"] if not c["pass"]]
        return _fail(2, None, "reproduction checks failed: %s" % ", ".join(failing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
