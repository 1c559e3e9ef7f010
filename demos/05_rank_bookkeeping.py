"""Exact-sequence bookkeeping: deriving tables without building models.

The solver works purely with dimensions and arrow ranks.  Feeding it the
Gysin sequence of the sphere bundle over real projective space, with the
single fact that cup product with the top class has rank one out of
degree zero, forces the bundle's whole table; feeding the resulting
overlap dimensions into the covering sequence forces the two-point
subset tables.  The same machinery cross-checks the distinct-triples
table against the Grassmannian ring.
"""

from expk import (
    BettiTable,
    exp2_cover_template,
    expected_betti,
    extract_degree_dims,
    gysin_template,
    solve_template,
)
from expk.grassmannian import alpha2_multiplication_rank, graded_dims

for n in (2, 3, 4):
    base = BettiTable((1,) * (n + 1))  # real projective n-space
    template = gysin_template(base, fiber_dim=n - 1, euler_cup_ranks={0: 1})
    result = solve_template(template)
    table = extract_degree_dims(template, result, "E^")
    print(f"sphere-bundle total space over RP^{n}:", table)

print()
for n in (2, 3, 4, 5, 6):
    overlap = BettiTable(expected_betti("E0", n).dims)
    template = exp2_cover_template(n, overlap)
    table = extract_degree_dims(template, solve_template(template), "X^")
    print(f"two-point subsets of S^{n} via the covering sequence:", table)

print()
print("grassmannian of 2-planes, graded dimensions:")
for n in (3, 4, 5):
    print(f"  n={n}:", graded_dims(n))

n = 4
ranks = {j: alpha2_multiplication_rank(n, j + 2) for j in range(0, 2 * n - 3)}
template = gysin_template(graded_dims(n), fiber_dim=1, euler_cup_ranks=ranks)
table = extract_degree_dims(template, solve_template(template), "E^")
print(f"distinct triples in S^{n} via the circle bundle:", table)
print("matches the documented table:",
      table.matches(expected_betti("C3", n).dims))
