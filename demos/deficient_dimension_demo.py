#!/usr/bin/env python3
"""Walkthrough: a Hadamard product with deficient dimension.

The expected dimension of X * Y is min(dim X + dim Y - dim H, dim G) with
H the common stabilizing subtorus and G the smallest subtorus with cosets
containing both factors.  For X the rank-one 3x4 matrices (a Segre
variety, dim 5) and Y the 3x4 matrices with zero row and column sums
(a linear space, dim 5) in P^11, the expectation is 10, but the product is
the rank-at-most-2 locus of dimension 9.  The dimension of the Terracini
span at a random product point, read from one exact rank, exposes the
drop.
"""

import random

from hadamard_spaces import (LinSpace, expected_dimension, linear_space_sampler,
                             segre_sampler, terracini_dim)

rng = random.Random(4)

segre = segre_sampler(2, 3)
rows = []
for i in range(2):
    for j in range(3):
        mat = [[0] * 4 for _ in range(3)]
        mat[i][j] = 1
        mat[i][3] = -1
        mat[2][j] = -1
        mat[2][3] = 1
        rows.append([x for row in mat for x in row])
zero_sums = LinSpace(rows)
print("X = rank-one 3x4 matrices in P^11, dim 5")
print("Y = 3x4 matrices with zero row and column sums, dim", zero_sums.dim)

p, tangent_p = segre.sample(rng)
q, tangent_q = linear_space_sampler(zero_sums).sample(rng)
tangent_dim = terracini_dim(p, tangent_p, q, tangent_q)

expected = expected_dimension(5, 5, 0, 11)
print("\nexpected dimension: min(5 + 5 - 0, 11) =", expected)
print("Terracini tangent dimension at a random product point:", tangent_dim)
print("deficient:", tangent_dim < expected,
      "(the product is the rank-at-most-2 locus, which has dimension 9)")
