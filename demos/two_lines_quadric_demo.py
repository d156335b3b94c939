#!/usr/bin/env python3
"""Walkthrough: the product of two lines in P^3 is a quadric surface.

Two independent routes produce the same equation: exact interpolation on a
parameter grid of the product, and a bracket-polynomial formula whose ten
coefficients are built from the Pluecker coordinates of the two lines.
The formula itself is certified by a 20-variable symbolic expansion.
"""

import random

from hadamard_spaces import (PPoint, hadamard_product_sampler,
                             interpolate_hypersurface, line_through,
                             linear_space_sampler, pluecker,
                             quadric_bracket_display, quadric_symbolic_identity,
                             quadric_two_lines, verify_identity)

rng = random.Random(6)

line_l = line_through(PPoint([2, 3, 5, 7]), PPoint([11, 13, 17, 19]))
line_m = line_through(PPoint([23, 29, 31, 37]), PPoint([41, 43, 47, 53]))
print("L through [2:3:5:7], [11:13:17:19];  M through [23:29:31:37], [41:43:47:53]")

sampler = hadamard_product_sampler(linear_space_sampler(line_l),
                                   linear_space_sampler(line_m))
degree, interpolated = interpolate_hypersurface(sampler, 3)
print("\nInterpolation from exact samples finds a hypersurface of degree", degree)
print("  ", interpolated)

bracket_form = quadric_two_lines(pluecker(line_l), pluecker(line_m))
print("\nThe bracket formula evaluated at the two Pluecker vectors:")
print("  ", bracket_form.primitive())
print("  (identical up to scale:", str(interpolated) == str(bracket_form.primitive()), ")")

print("\nIt vanishes exactly on fresh sampled products:",
      verify_identity(bracket_form, sampler, 25, rng))

print("\nSymbolic certificate: substituting generator entries for all brackets")
print("and coordinates expands to the zero polynomial in 20 variables:",
      quadric_symbolic_identity().is_zero())

print("\nThe generic formula, coefficient by coefficient:")
print(quadric_bracket_display())
