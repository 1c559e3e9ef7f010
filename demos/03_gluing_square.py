"""The gluing square behind the three-point subset space.

Three constructions fit into a square: the product of a sphere with
itself maps to the triple symmetric power by doubling the first
coordinate, (u, v) -> {u, u, v}, and to the double symmetric power by
the quotient projection.  Gluing the two targets along these maps,
level by level, produces exactly the level sets of the three-point
subset space: taking supports of multisets is a bijection on every
level.  This pins the subset-space model to an independently
constructed colimit.
"""

from expk import (
    compare_pushout_with_subsets,
    diagonal_insertion,
    exp_subsets,
    product,
    pushout,
    sphere,
    sym_power,
    sym_projection,
)

x = sphere(1, cap=4)
square = product(x, x)
sym3 = sym_power(x, 3)
sym2 = sym_power(x, 2)
proj2 = sym_projection(x, 2, source=square, sym=sym2)
alpha = diagonal_insertion(x, square=square, sym3=sym3)

print("doubling map commutes with faces and degeneracies:", alpha.commutes())
glued, into_sym3, into_sym2 = pushout(alpha, proj2)
print("glued level sizes:   ", glued.level_sizes)
print("glued Betti table:   ", glued.betti_table())

ok, detail = compare_pushout_with_subsets(x, square, sym3, sym2, exp_subsets(x, 3))
print("support comparison for the circle:", ok, "-", detail)

s2 = sphere(2, cap=7)
models = product(s2, s2), sym_power(s2, 3), sym_power(s2, 2), exp_subsets(s2, 3)
ok, detail = compare_pushout_with_subsets(s2, *models)
print("support comparison for the 2-sphere:", ok, "-", detail)
