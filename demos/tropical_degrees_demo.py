#!/usr/bin/env python3
"""Walkthrough: degrees of products of linear spaces via tropical fans.

The tropicalization of a generic m-dimensional linear space is the
standard tropical linear space (positive spans of m-subsets of basis
images); products tropicalize to Minkowski sums, and the degree is the
multiplicity of the origin in a stable intersection with the complementary
standard fan.  A closed multinomial formula predicts the same number; the
fan machinery recomputes it independently, here with the full transcript.
"""

import random
import warnings

from hadamard_spaces import (degree_linear_products, degree_with_reciprocals,
                             fan_degree_pipeline, mask_indices, minkowski_sum,
                             negate_fan, standard_tls)

rng = random.Random(12)
warnings.simplefilter("ignore")

print("Two distinct generic lines in P^3:")
dim, degree = degree_linear_products([(1, 1), (1, 1)], 3)
print("  closed form: dimension %d, degree %s" % (dim, degree))
result = fan_degree_pipeline([(1, 1), (1, 1)], [], 3, rng)
fan = result["fan"]
print("  Minkowski sum of two standard fans: %d cones, each multiplicity %d, weight %s"
      % (len(fan.cones), next(iter(fan.cones.values())), fan.global_weight))
print("  contributing pair(s) of the stable intersection:")
for (plus1, _), (plus2, _), idx in result["pairs"]:
    print("    pos%s meets shifted pos%s, lattice index %d"
          % (list(mask_indices(plus1)), list(mask_indices(plus2)), idx))
print("  fan degree:", result["degree"])

print("\nA plane squared in P^5 (the map is 2-to-1, so delta = 2):")
dim, degree = degree_linear_products([(2, 2)], 5)
result = fan_degree_pipeline([(2, 2)], [], 5, rng)
print("  closed form (%d, %s); fan pipeline (%d, %s)"
      % (dim, degree, result["dim"], result["degree"]))

print("\nReciprocal spaces tropicalize to negated fans; a reciprocal line is a")
print("rational normal curve, with degree equal to the ambient dimension:")
for n in (2, 3, 4, 5):
    dim, degree = degree_with_reciprocals([], [(1, 1)], n)
    result = fan_degree_pipeline([], [(1, 1)], n, rng)
    print("  n=%d: formula %s, fans %s" % (n, degree, result["degree"]))

print("\nEvery fan in sight satisfies exact ridge balancing, e.g.:")
mixed = minkowski_sum([standard_tls(1, 4), negate_fan(standard_tls(1, 4))])
print("  line times reciprocal line fan in P^4 balanced:", mixed.is_balanced())
