"""In-memory span tracer that instruments hadamard_spaces from the outside.

`Tracer.install()` wraps the public functions and methods listed in LAYERS
by rebinding module and class attributes; nothing under src/ changes.  A
function imported by name into several modules (`from .linalg import
integer_kernel_basis`) is rebound in every hadamard_spaces module that holds
it, so calls through any alias are seen.  `uninstall()` puts the originals
back, so untraced and traced passes can alternate in one process.

A span is [layer, start_ns, end_ns, parent span index, op id].  Spans stay
in memory; the caller writes them out when the run ends.  A layer's self
time is its span duration minus the durations of its direct children, so
the self times of all spans of one op add up to that op's root span.
"""

import sys
import time

OP_LAYER = "bench.op"


def _int_bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _rat_bits(rows):
    return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for row in rows for x in row), default=0)


def _kernel_stats(counters, args, result):
    rows = args[0]
    counters["linalg.kernel.max_bits"] = max(counters["linalg.kernel.max_bits"], _int_bits(rows))
    cells = len(rows) * (len(rows[0]) if rows else 0)
    counters["linalg.kernel.max_cells"] = max(counters["linalg.kernel.max_cells"], cells)


def _rref_before(counters, args):
    matrix = args[0]
    if matrix._rref is not None:
        counters["linalg.rref.cache_hits"] += 1
    else:
        bits = _rat_bits(matrix.rows)
        if bits > counters["linalg.rref.max_bits"]:
            counters["linalg.rref.max_bits"] = bits


def _meets_stats(counters, args, result):
    if result:
        counters["tropical.cone_pair_meets.hits"] += 1


def _minkowski_stats(counters, args, result):
    combos = 1
    for fan in args[0]:
        combos *= len(fan.cones)
    counters["tropical.minkowski_sum.combos"] += combos
    counters["tropical.minkowski_sum.cones_out"] += len(result.cones)


#: (layer name, module, attribute path, hook run before the call with the
#: arguments, hook run after it with the arguments and the result).
LAYERS = [
    ("linalg.kernel", "linalg", "integer_kernel_basis", None, _kernel_stats),
    ("linalg.rref", "linalg", "QMatrix.rref", _rref_before, None),
    ("linalg.det", "linalg", "QMatrix.det", None, None),
    ("linalg.snf", "linalg", "smith_normal_form", None, None),
    ("tropical.lattice_index", "tropical", "lattice_index", None, None),
    ("tropical.cone_pair_meets", "tropical", "cone_pair_meets", None, _meets_stats),
    ("tropical.stable_mult_origin", "tropical", "stable_mult_origin", None, None),
    ("tropical.minkowski_sum", "tropical", "minkowski_sum", None, _minkowski_stats),
    ("samplers.sample", "samplers", "VarietySampler.sample", None, None),
    ("samplers.sample", "samplers", "VarietySampler.sample_point", None, None),
    ("projective.sample_point", "projective", "sample_point", None, None),
    ("projective.hadamard", "projective", "PPoint.hadamard", None, None),
    ("projective.canonical", "projective", "PPoint.canonical", None, None),
    ("projective.pluecker", "projective", "pluecker", None, None),
    ("projective.intersect_spaces", "projective", "intersect_spaces", None, None),
    ("products.terracini_span", "products", "terracini_span", None, None),
    ("products.interpolate_forms", "products", "interpolate_forms", None, None),
    ("products.identifiability_check", "products", "identifiability_check", None, None),
    ("products.gen_vandermonde", "products", "gen_vandermonde", None, None),
    ("line_powers.line_power_matrix", "line_powers", "line_power_matrix", None, None),
    ("line_powers.power_linear_equations", "line_powers", "power_linear_equations", None, None),
    ("line_powers.sampled_power_span", "line_powers", "sampled_power_span", None, None),
    ("star_configs.build_star", "star_configs", "build_star", None, None),
    ("star_configs.verify_star", "star_configs", "verify_star", None, None),
    ("brackets.quadric_two_lines", "brackets", "quadric_two_lines", None, None),
    ("brackets.cubic_plane_square", "brackets", "cubic_plane_square", None, None),
    ("brackets.verify_identity", "brackets", "verify_identity", None, None),
    ("poly.primitive", "poly", "SparsePoly.primitive", None, None),
    ("cli.main", "cli", "main", None, None),
]

#: Layers reported by self time only: their call counts follow the op mix.
SELF_TIME_ONLY = frozenset({
    "products.identifiability_check", "products.gen_vandermonde",
    "line_powers.line_power_matrix", "line_powers.power_linear_equations",
    "line_powers.sampled_power_span", "star_configs.build_star", "star_configs.verify_star",
    "brackets.quadric_two_lines", "brackets.cubic_plane_square", "brackets.verify_identity",
})

#: Counters kept at layer boundaries, beside the per-layer calls and self
#: time, with their units.  The max_ ones are maxima, the rest counts.
COUNTERS = {
    "linalg.kernel.max_bits": "bits", "linalg.kernel.max_cells": "cells",
    "linalg.rref.cache_hits": "count", "linalg.rref.max_bits": "bits",
    "tropical.cone_pair_meets.hits": "count", "tropical.stable_mult_origin.rejected": "count",
    "tropical.minkowski_sum.combos": "count", "tropical.minkowski_sum.cones_out": "count",
}


class Tracer:
    """Spans and counters of one traced pass over a workload's ops."""

    def __init__(self, package="hadamard_spaces"):
        self.package = package
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.root = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._restore = []

    def reset(self):
        self.spans = []
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def span(self, layer, fn, *args, **kwargs):
        """Call fn inside a span named `layer`."""
        spans, stack = self.spans, self.stack
        record = [layer, 0, 0, stack[-1] if stack else -1, self.op_id]
        stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            stack.pop()

    def run_op(self, op_id, fn, *args):
        """Call fn as the root span of one op; `root` indexes that span."""
        self.op_id = op_id
        self.root = len(self.spans)
        return self.span(OP_LAYER, fn, *args)

    def _wrap(self, layer, fn, before, after):
        tracer = self
        rejected = layer == "tropical.stable_mult_origin"
        not_generic = sys.modules[self.package + ".tropical"].NonGenericVector

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer.counters, args)
            try:
                result = tracer.span(layer, fn, *args, **kwargs)
            except not_generic:
                if rejected:
                    tracer.counters["tropical.stable_mult_origin.rejected"] += 1
                raise
            if after is not None:
                after(tracer.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every listed function and method to its traced wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package or name.startswith(self.package + "."))]
        for layer, module_name, path, before, after in LAYERS:
            owner = sys.modules["%s.%s" % (self.package, module_name)]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(layer, original, before, after))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(layer, original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def self_times(self):
        """Self time in ns of every span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self):
        """{layer: [calls, self ns]} over every recorded span."""
        totals = {}
        for record, own in zip(self.spans, self.self_times()):
            entry = totals.setdefault(record[0], [0, 0])
            entry[0] += 1
            entry[1] += own
        return totals
