#!/usr/bin/env python3
"""Walkthrough: Hadamard powers of a line are linear spaces.

Multiplying a line coordinatewise with itself r times gives a linear space
of dimension min(r, n), generated by entrywise products of the two
generator rows.  Its Pluecker coordinates factor into pairwise brackets of
the original line, which yields closed-form linear equations.  Lines that
meet a codimension-2 coordinate stratum escape the closed form but are
still linear: the row space of the same power matrix is their power, exactly.
"""

from hadamard_spaces import (LinSpace, PPoint, QMatrix, SparsePoly, integer_rank,
                             line_power_matrix, line_power_pluecker,
                             line_through, pluecker, power_hyperplane,
                             power_linear_equations, sampled_power_span)

print("A line through [1:1:1:1] and [1:2:3:4] in P^3")
line = line_through(PPoint([1, 1, 1, 1]), PPoint([1, 2, 3, 4]))
pl = pluecker(line)
print("  brackets:", {k: str(v) for k, v in sorted(pl.entries.items())})

print("\nIts square is the row space of the entrywise-power matrix:")
mat = line_power_matrix(line, 2)
for row in mat.rows:
    print("   ", [str(x) for x in row])
print("  rank:", integer_rank(mat.ints), "(so the square is a plane, min(2,3)+1 generators)")

print("\nEach maximal minor factors into pairwise brackets, e.g. columns (0,1,3):")
minor = mat.submatrix_columns((0, 1, 3)).det()
formula = line_power_pluecker(pl, 2, (0, 1, 3))
print("  det = %s, bracket product [01][03][13] = %s" % (minor, formula))

print("\nThe (n-1)-st power is a hyperplane with bracket coefficients:")
print("  ", power_hyperplane(pl))

print("\nFor r < n-1 the power is cut out by binom(n+1, r+2) linear forms;")
print("for this line and r = 1 (the line itself):")
for eq in power_linear_equations(3, 1, pl.minors):  # the line's own minors
    print("  ", eq)

print("\nA degenerate line in P^5 (it meets a codimension-2 coordinate stratum):")
eqs = QMatrix([
    [2, -1, 0, 0, 0, 0],
    [0, 1, 3, 0, -1, 0],
    [0, 0, 3, -1, 0, 0],
    [0, 0, 0, 16, -12, -3],
])
degenerate = LinSpace(eqs.nullspace())
print("  generators:")
for row in degenerate.generators.rows:
    print("   ", [str(x) for x in row])
for r in (2, 3, 4, 5):
    span = sampled_power_span(degenerate, r)
    forms = [SparsePoly.linear_form(v).primitive() for v in span.generators.nullspace().ints]
    print("  power r=%d: dimension %d, equations %s" % (r, span.dim, "; ".join(map(str, forms))))
print("\nThe dimensions stabilize at 3: lower than min(r, 5), but still linear.")
