"""Self-tests of the benchmark itself:  python3 perfbench/selftest.py

They check that the seed alone fixes the payloads, that every checker
rejects a corrupted output, that traced self times add up to each op's
duration, and that run.py reports exactly the metrics BENCHMARK.json names.
"""

import json
import sys
import unittest
from fractions import Fraction

import run
import workloads
from tracer import OP_LAYER, Tracer

sys.path.insert(0, str(run.ROOT / "src"))
LIB = run.import_package()


def first_of_each_kind(name, seed=3):
    ops = {}
    for op in workloads.generate(name, seed)[0]:
        ops.setdefault(op.kind, op)
    return list(ops.values())


def bump(value):
    return str(Fraction(value) + 1)


def corruptions(op, out):
    """Outputs that differ from a correct one in one coefficient, degree or flag."""
    if op.argv is None:
        return ["((1, 2), (3, 4))"]
    doc = json.loads(out)
    variants = []

    def variant(edit):
        copy = json.loads(out)
        edit(copy)
        variants.append(json.dumps(copy))

    if "form" in doc:
        variant(lambda d: d["form"][0].__setitem__(1, bump(d["form"][0][1])))
    if op.kind.startswith("interp"):
        variant(lambda d: d.__setitem__("degree", d["degree"] + 1))
    if "transcript" in doc:
        variant(lambda d: d["transcript"].__setitem__("fan_degree", bump(d["transcript"]["fan_degree"])))
    if "verified" in doc:
        variant(lambda d: d.__setitem__("verified", False))
        variant(lambda d: d["points"].pop())
    if "equations" in doc:
        variant(lambda d: d["equations"][0][0].__setitem__(1, bump(d["equations"][0][0][1])))
    if "match" in doc:
        variant(lambda d: d.__setitem__("match", False))
    if "deficient" in doc:
        variant(lambda d: d.__setitem__("deficient", False))
        variant(lambda d: d.__setitem__("terracini_dim", 10))
    return variants


class PayloadTest(unittest.TestCase):
    def test_same_seed_same_payload_bytes(self):
        for name in workloads.WORKLOADS:
            def texts(seed):
                return [(op.argv, op.text) for cycle in workloads.generate(name, seed) for op in cycle]
            self.assertEqual(texts(5), texts(5), name)
            self.assertNotEqual(texts(5), texts(6), name)


class CheckerTest(unittest.TestCase):
    def test_checkers_accept_real_and_reject_corrupted_outputs(self):
        for name in workloads.WORKLOADS:
            for op in first_of_each_kind(name):
                code, out = workloads.execute(LIB, op)
                self.assertTrue(workloads.check(LIB, name, op, code, out, 1), op.kind)
                bad = corruptions(op, out)
                self.assertTrue(bad, op.kind)
                for text in bad:
                    self.assertFalse(workloads.check(LIB, name, op, code, text, 1), (op.kind, text))
                self.assertFalse(workloads.check(LIB, name, op, 1, out, 1), op.kind)


class TracerTest(unittest.TestCase):
    def test_self_times_sum_to_op_duration(self):
        ops = first_of_each_kind("small-exact") + first_of_each_kind("tropical")[:2]
        tracer = Tracer(run.PACKAGE)
        original_rref, original_main = LIB.linalg.QMatrix.rref, LIB.cli.main
        tracer.install()
        try:
            for op_id, op in enumerate(ops):
                tracer.run_op(op_id, workloads.execute, LIB, op)
        finally:
            tracer.uninstall()
        self.assertIs(LIB.linalg.QMatrix.rref, original_rref)
        self.assertIs(LIB.cli.main, original_main)
        own = tracer.self_times()
        roots = [i for i, s in enumerate(tracer.spans) if s[0] == OP_LAYER]
        self.assertEqual(len(roots), len(ops))
        for op_id, root in enumerate(roots):
            total = sum(t for s, t in zip(tracer.spans, own) if s[4] == op_id)
            _, start, end, _, _ = tracer.spans[root]
            self.assertEqual(total, end - start)
        for layer, start, end, parent, _ in tracer.spans:
            self.assertLessEqual(start, end)
            if parent >= 0:
                self.assertLessEqual(tracer.spans[parent][1], start)
                self.assertLessEqual(end, tracer.spans[parent][2])
        layers = {s[0] for s in tracer.spans}
        for layer in ("cli.main", "linalg.rref", "star_configs.verify_star",
                      "tropical.minkowski_sum", "products.identifiability_check"):
            self.assertIn(layer, layers)


class ContractTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))

    def test_times_scale_inversely_with_the_probe(self):
        self.assertGreater(run.probe_ns(), 0)
        ref = run.REFERENCE_PROBE_NS
        self.assertEqual(run.scaled(1000, ref, ref), 1000)
        self.assertEqual(run.scaled(1000, 2 * ref, 2 * ref), 500)
        self.assertEqual(run.scaled(1000, ref, 3 * ref), 500)

    def test_beta_cdf_matches_closed_forms(self):
        for x in (0.01, 0.3, 0.5, 0.8, 0.99):
            self.assertAlmostEqual(run.beta_cdf(x, 1, 1), x, places=12)
            self.assertAlmostEqual(run.beta_cdf(x, 2, 1), x * x, places=12)
            self.assertAlmostEqual(run.beta_cdf(x, 1, 3), 1 - (1 - x) ** 3, places=12)
            self.assertAlmostEqual(run.beta_cdf(x, 400.5, 400.5) + run.beta_cdf(1 - x, 400.5, 400.5), 1, places=9)

    def test_harrell_davis_median(self):
        self.assertAlmostEqual(run.harrell_davis([1, 2, 3], 50), 2, places=12)
        self.assertAlmostEqual(run.harrell_davis([7.5] * 9, 50), 7.5, places=12)
        values = sorted(i * i for i in range(101))
        self.assertLess(abs(run.harrell_davis(values, 50) - values[50]), values[51] - values[49])

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        for count in (55, 110, 1000):
            pct = run.tail_percentile(count)
            beyond = count - (pct * count + 99) // 100
            self.assertGreaterEqual(beyond, run.TAIL_BEYOND)
            self.assertLess(count - ((pct + 1) * count + 99) // 100, run.TAIL_BEYOND)

    def test_tail_percentile_is_fixed_by_the_pool_not_the_run(self):
        pool_ops = 55
        one = run.summarize(range(1, pool_ops + 1), pool_ops)[1]
        three = run.summarize(range(1, 3 * pool_ops + 1), pool_ops)[1]
        self.assertEqual(one["tail_percentile"], run.tail_percentile(pool_ops))
        self.assertEqual(three["tail_percentile"], one["tail_percentile"])
        self.assertEqual((one["pools"], three["pools"]), (1, 3))

    def test_set_up_aside_keeps_the_measured_package(self):
        kept = run.package_modules()
        self.assertGreater(run.set_up_aside("interp", 3), 0)
        self.assertEqual(run.package_modules(), kept)

    def test_two_lines_products_span_p3(self):
        # Seed 709 once drew two generic lines whose product lies in a plane.
        ops = [op for cycle in workloads.generate("interp", 709) for op in cycle if op.kind == "interp.two_lines"]
        self.assertEqual(len(ops), workloads.INTERP_CYCLES)
        for op in ops:
            self.assertTrue(workloads.product_spans(*op.expect["sampler"][1:]))

    def test_tropical_pool_draws_grid_strata_in_proportion(self):
        pool = workloads.generate("tropical", 7)
        grid = workloads.degree_grid()
        drawn = [op for cycle in pool for op in cycle if op.kind == "tropical.grid"]
        for n in range(1, 9):
            share = sum(1 for inst in grid if inst[2] == n) / len(grid)
            got = sum(1 for op in drawn if op.payload["n"] == n)
            self.assertLessEqual(abs(got - share * len(drawn)), 1, n)
            for cycle in pool:
                # Dealt in snake order, a cycle misses a stratum's share by less than two.
                got = sum(1 for op in cycle if op.kind == "tropical.grid" and op.payload["n"] == n)
                self.assertLess(abs(got - share * workloads.TROPICAL_GRID_DRAWS), 2, n)
        for cycle in pool:
            heavy = [op for op in cycle if op.kind == "tropical.n8_many_fans"]
            self.assertEqual(len(heavy), 1)
            self.assertEqual(heavy[0].payload["n"], 8)
            self.assertGreaterEqual(sum(r for _, r in heavy[0].payload["plain"]), workloads.HEAVY_FANS)

    def test_deal_gives_every_hand_one_of_each_run_of_neighbours(self):
        hands = workloads.deal(list(range(12)), 4)
        self.assertEqual(hands, [[0, 7, 8], [1, 6, 9], [2, 5, 10], [3, 4, 11]])

if __name__ == "__main__":
    unittest.main()
