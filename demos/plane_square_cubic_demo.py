#!/usr/bin/env python3
"""Walkthrough: the Hadamard square of a 2-plane in P^5 is a cubic.

Its defining cubic has 56 coefficients, each a polynomial in the twenty
3x3 brackets of the plane.  Three orbit representatives generate all of
them under a sign-twisted symmetric-group transport; the result is checked
against exact interpolation on a parameter grid, coefficient by coefficient.
"""

from hadamard_spaces import (LinSpace, cubic_plane_square,
                             hadamard_power_sampler, interpolate_hypersurface,
                             linear_space_sampler, pluecker, proportional)

plane = LinSpace([[3, 1, 4, 1, 5, 9], [2, 6, 5, 3, 5, 8], [9, 7, 9, 3, 2, 3]])
print("P spanned by [3:1:4:1:5:9], [2:6:5:3:5:8], [9:7:9:3:2:3] in P^5")

cubic = cubic_plane_square(pluecker(plane))
print("\nBracket-transported cubic has %d monomials; a few of them:" % len(cubic.terms))
for expo in sorted(cubic.terms, reverse=True)[:3]:
    print("   coefficient of %s: %s" % (expo, cubic.terms[expo]))

sampler = hadamard_power_sampler(linear_space_sampler(plane), 2)
degree, interpolated = interpolate_hypersurface(sampler, 3)
print("\nInterpolation oracle from exact samples: degree", degree)
print("agrees with the transported cubic up to one scalar:",
      proportional(cubic, interpolated))

ratio = None
for expo, coeff in cubic.terms.items():
    other = interpolated.terms.get(expo)
    ratio = coeff / other
    break
print("that scalar is", ratio)
