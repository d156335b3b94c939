"""Benchmark of hadamard-spaces: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload {interp,tropical,small-exact} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory.  The workload seed builds a pool of op cycles (see
workloads.py); the program only ever sees the generated payloads.  Ops run
back to back in whole pools until at least S seconds of op time are done,
so every run has the pool's op mix.  Every op's output is checked exactly,
outside the timed region; a failed check or error counts as failed.
setup_s is the median of SETUP_REPEATS set-ups (fresh import, payload
generation, warm-up): one before the ops, the others spread over the op time.
Op and set-up times are scaled to a reference machine speed read by a speed
probe (see REFERENCE_PROBE_NS); the detail line also holds them unscaled.

--trace 0 prints the end-to-end metrics.  --trace 1 makes as many passes
over the first TRACE_CYCLES cycles as fit in S seconds (at least one),
running each op untraced and then traced, and prints per-layer calls, self
times and counters averaged per pass, the tracing overhead per pass (traced
minus untraced time), and the results of the untimed byte-identity and
paper-suite probes.  The spans of the last traced pass are written to
perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds run details (tail
percentile and its sample count, fail fraction, setup times, probe notes).

baseline.json holds the recorded baseline, the layer-to-metric table and a
held-out seed; `python3 perfbench/selftest.py` tests the benchmark itself.
"""

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import probes
import workloads
from tracer import COUNTERS, LAYERS, SELF_TIME_ONLY, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "hadamard_spaces"

TRACE_CYCLES = 3
SETUP_REPEATS = 9
TAIL_BEYOND = 10

#: The speed probe: exact determinants of fixed 9 x 9 integer matrices, the
#: Fraction arithmetic the program itself spends its time on.  On a shared
#: host, other tenants slow a virtual machine by up to 1.75x (measured on a
#: 2-vCPU Xeon VM), in stretches of seconds to minutes that no counter inside
#: the VM shows.  Every end-to-end time is therefore scaled by
#: REFERENCE_PROBE_NS over the mean of the probe times read just before and
#: just after it, so the reported times are those at the reference speed: the
#: probe's time on that VM in its fast state.  Traced per-layer times are not
#: scaled.
def _probe_matrices():
    rng = random.Random("perfbench-probe")
    return [[[rng.randint(-99, 99) for _ in range(9)] for _ in range(9)] for _ in range(3)]


PROBE_MATRICES = _probe_matrices()
PROBE_EVERY_NS = 200 * 10 ** 6
REFERENCE_PROBE_NS = 1_300_000

#: Op kinds of the first cycle run once during set-up, before any timing:
#: cheap ones whose cost does not depend on the seed's grid draws.  The
#: tropical ops are all grid draws; set-up runs the one of smallest n.
WARMUP_KINDS = {
    "interp": {"interp.two_lines"},
    "small-exact": {"small.line_power", "small.span_dim", "small.dim_estimate", "small.bracket_quadric"},
}

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mib": "MiB"}

TRACED_RUN_UNITS = {"trace.pass_s": "s", "trace.overhead_s": "s",
                    "probe.golden_mismatches": "count", "probe.suite_checks_passed": "count"}


def layer_quantities():
    """(layer, traced quantities) of every layer in tracer.LAYERS, once each."""
    layers = dict.fromkeys(entry[0] for entry in LAYERS)
    return [(layer, ("self_s",) if layer in SELF_TIME_ONLY else ("calls", "self_s")) for layer in layers]


def per_layer_units():
    units = {}
    for layer, quantities in layer_quantities():
        for q in quantities:
            units["%s.%s" % (layer, q)] = "s" if q == "self_s" else "count"
    units.update(COUNTERS)
    units.update(TRACED_RUN_UNITS)
    return units


def package_modules():
    return {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}


def import_package():
    """Fresh import of the package from this checkout's src/ directory."""
    for name in package_modules():
        del sys.modules[name]
    importlib.import_module(PACKAGE + ".cli")
    lib = sys.modules[PACKAGE]
    if Path(lib.__file__).resolve().parent != ROOT / "src" / PACKAGE:
        raise RuntimeError("imported %s from %s, not from this checkout" % (PACKAGE, lib.__file__))
    return lib


def warmup_ops(name, cycle):
    if name == "tropical":
        return [min(cycle, key=lambda op: (op.payload["n"], op.text))]
    return [op for op in cycle if op.kind in WARMUP_KINDS[name]]


def set_up(name, seed):
    """Import, payload generation and warm-up; returns (seconds, lib, pool)."""
    start = time.perf_counter()
    lib = import_package()
    pool = workloads.generate(name, seed)
    for op in warmup_ops(name, pool[0]):
        workloads.execute(lib, op)
    return time.perf_counter() - start, lib, pool


def set_up_aside(name, seed):
    """Time one more set-up, then put the measured package's modules back in
    sys.modules, so that its function-level imports keep finding its own."""
    kept = package_modules()
    took = set_up(name, seed)[0]
    for module in package_modules():
        del sys.modules[module]
    sys.modules.update(kept)
    gc.collect()  # free the thrown-away package now, not inside the next timed op
    return took


def probe_ns():
    """Fastest of the probe's determinants, in ns."""
    best = None
    for rows in PROBE_MATRICES:
        start = time.perf_counter_ns()
        workloads.det(rows)
        took = time.perf_counter_ns() - start
        best = took if best is None else min(best, took)
    return best


def scaled(ns, before, after):
    """A time at the reference speed, from the probe times read around it."""
    return ns * 2 * REFERENCE_PROBE_NS / (before + after)


class Checker:
    """Exact check of every op outcome, counted."""

    def __init__(self, lib, name, seed):
        self.lib, self.name, self.seed = lib, name, seed
        self.attempted = 0
        self.failed = 0

    def record(self, op, result):
        """Count one op outcome; result is (code, output) or None when it raised."""
        self.attempted += 1
        if result is None or not workloads.check(self.lib, self.name, op, result[0], result[1], self.seed):
            self.failed += 1


def timed_op(lib, op):
    """(duration ns, result or None when the op raised)."""
    start = time.perf_counter_ns()
    try:
        result = workloads.execute(lib, op)
    except Exception:  # an op that raises is a failed op, not a crashed benchmark
        result = None
    return time.perf_counter_ns() - start, result


def nearest_rank(sorted_values, pct):
    return sorted_values[max(1, math.ceil(pct * len(sorted_values) / 100)) - 1]


def _beta_fraction(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1) or tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + num * d or tiny)
            c = 1.0 + num / c or tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-13:
            break
    return h


def beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(sorted_values, pct):
    """Harrell-Davis estimate of a percentile: a Beta-weighted mean of all
    order statistics, centred on the percentile's rank.  It moves less with
    the few samples nearest that rank than a single order statistic does."""
    n = len(sorted_values)
    a = pct / 100 * (n + 1)
    b = (n + 1) - a
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], sorted_values))


def tail_percentile(count):
    """Highest whole percentile with at least TAIL_BEYOND of `count` samples beyond it."""
    for pct in range(99, 49, -1):
        if count - math.ceil(pct * count / 100) >= TAIL_BEYOND:
            return pct
    return 50


def summarize(durations, pool_ops):
    """End-to-end timing metrics of op durations (ns) from whole pools.

    The median is the Harrell-Davis estimate.  The tail is the nearest-rank
    value: interp puts its tail percentile just inside the slowest op kind,
    where a weighted mean would blend in the next kind.  The tail percentile
    is fixed by the size of one pool, not by how many pools the run
    finished, so a faster program reports the same percentile.
    """
    durations = sorted(durations)
    busy = sum(durations)
    pct = tail_percentile(pool_ops)
    metrics = {
        "ops_per_s": len(durations) / (busy / 1e9),
        "op_p50_ms": harrell_davis(durations, 50) / 1e6,
        "op_tail_ms": nearest_rank(durations, pct) / 1e6,
    }
    detail = {"pools": len(durations) // pool_ops, "ops": len(durations), "busy_s": busy / 1e9,
              "tail_percentile": pct, "tail_samples_beyond": len(durations) - math.ceil(pct * len(durations) / 100)}
    return metrics, detail


def measure(lib, pool, checker, seconds, setups, name, seed):
    """Run whole pools until `seconds` of op time are done, so every run has
    exactly the pool's op mix.  The probe is read at least every
    PROBE_EVERY_NS, and each op's time is scaled by the probe readings on
    either side of it.  The SETUP_REPEATS - 1 set-ups still to do are spread
    evenly over the op time and their packages thrown away, so the median
    set-up time samples the machine over the whole run, not only its first
    second.  Returns the metrics of the scaled times, and the details with
    the unscaled ones."""
    raw, durations, since_probe = [], [], []
    busy = 0
    probed, probed_at = probe_ns(), time.perf_counter_ns()
    probes = [probed]
    while busy < seconds * 10 ** 9:
        for op in (op for cycle in pool for op in cycle):
            ns, result = timed_op(lib, op)
            raw.append(ns)
            since_probe.append(ns)
            busy += ns
            checker.record(op, result)
            if time.perf_counter_ns() - probed_at >= PROBE_EVERY_NS:
                now = probe_ns()
                durations.extend(scaled(t, probed, now) for t in since_probe)
                since_probe.clear()
                probed, probed_at = now, time.perf_counter_ns()
                probes.append(now)
            while len(setups) < SETUP_REPEATS and busy >= len(setups) * seconds * 10 ** 9 / SETUP_REPEATS:
                before = probe_ns()
                took = set_up_aside(name, seed)
                setups.append((scaled(took, before, probe_ns()), took))
    now = probe_ns()
    durations.extend(scaled(t, probed, now) for t in since_probe)
    probes.append(now)
    pool_ops = sum(len(cycle) for cycle in pool)
    metrics, detail = summarize(durations, pool_ops)
    detail["unscaled"] = summarize(raw, pool_ops)[0]
    detail["probe_ms"] = {"median": statistics.median(probes) / 1e6, "min": min(probes) / 1e6,
                          "max": max(probes) / 1e6, "reads": len(probes)}
    return metrics, detail


def traced_op(tracer, op_id, lib, op):
    """Run one op as a traced root span; None when it raised."""
    tracer.install()
    try:
        return tracer.run_op(op_id, workloads.execute, lib, op)
    except Exception:  # a failed op, counted by the checker
        return None
    finally:
        tracer.uninstall()


def trace(lib, pool, checker, seconds, out_path):
    ops = [op for cycle in pool[:TRACE_CYCLES] for op in cycle]
    tracer = Tracer(PACKAGE)
    passes = 0
    untraced_ns = overhead_ns = 0
    totals = {}
    counters = {}
    start = time.perf_counter()
    # A pass starts only if one more pass of the mean length still ends
    # within `seconds`, so the traced run is not longer than an untraced one.
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        tracer.reset()
        for op_id, op in enumerate(ops):
            # Each op runs untraced and traced back to back, so both see the
            # same machine state; the order alternates so that whichever run
            # goes second and finds warm caches is traced for half the ops.
            if op_id % 2:
                result = traced_op(tracer, op_id, lib, op)
                ns, plain = timed_op(lib, op)
            else:
                ns, plain = timed_op(lib, op)
                result = traced_op(tracer, op_id, lib, op)
            _, begin, end, _, _ = tracer.spans[tracer.root]
            untraced_ns += ns
            overhead_ns += end - begin - ns
            checker.record(op, plain)
            checker.record(op, result)
        for layer, (calls, own) in tracer.layer_totals().items():
            entry = totals.setdefault(layer, [0, 0])
            entry[0] += calls
            entry[1] += own
        for name, value in tracer.counters.items():
            counters[name] = max(counters.get(name, 0), value) if ".max_" in name else counters.get(name, 0) + value
        passes += 1
    metrics = {}
    for layer, quantities in layer_quantities():
        calls, own = totals.get(layer, (0, 0))
        if "calls" in quantities:
            metrics[layer + ".calls"] = calls / passes
        metrics[layer + ".self_s"] = own / passes / 1e9
    for name, value in counters.items():
        metrics[name] = value if ".max_" in name else value / passes
    metrics["trace.pass_s"] = untraced_ns / passes / 1e9
    metrics["trace.overhead_s"] = overhead_ns / passes / 1e9
    out_path.parent.mkdir(exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump({"fields": ["layer", "start_ns", "end_ns", "parent", "op"], "spans": tracer.spans}, fh)
    return metrics, {"passes": passes, "ops_per_pass": len(ops), "spans_file": str(out_path.relative_to(ROOT))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "cli.py").is_file():
        sys.exit("perfbench: %s not found; run from a source checkout" % (ROOT / "src" / PACKAGE))
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        sys.exit("perfbench: unknown workload %r (%s)" % (args.workload, ", ".join(workloads.WORKLOADS)))

    probe_ns()  # the first call warms the probe's code paths
    before = probe_ns()
    took, lib, pool = set_up(args.workload, args.seed)
    setups = [(scaled(took, before, probe_ns()), took)]
    checker = Checker(lib, args.workload, args.seed)
    detail = {"workload": args.workload, "seed": args.seed, "setup_runs_s": setups}

    if args.trace:
        out = HERE / "out" / ("spans-%s-%d.json" % (args.workload, args.seed))
        values, more = trace(lib, pool, checker, args.seconds, out)
        mismatches = probes.golden_mismatches(lib.cli)
        passed, suite_error = probes.suite_checks_passed(lib.papersuite)
        values["probe.golden_mismatches"] = len(mismatches)
        values["probe.suite_checks_passed"] = passed
        more.update(golden_mismatches=mismatches, suite_error=suite_error)
        units = per_layer_units()
    else:
        values, more = measure(lib, pool, checker, args.seconds, setups, args.workload, args.seed)
        values["setup_s"] = statistics.median(took for took, _ in setups)
        more["unscaled"]["setup_s"] = statistics.median(unscaled for _, unscaled in setups)
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    detail.update(more)
    detail["fail_frac"] = checker.failed / checker.attempted
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
