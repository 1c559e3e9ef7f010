"""Steenrod squares on the models, via chain-level cup-i products.

Squares are computed from the classical interval-cut formula on
normalized cochains: Sq^i of a degree-p cocycle is the class of its
cup-(p-i) product with itself.  Two warm-ups on classical surfaces are
followed by the computation that drives the subset-space tables: on the
two-point subset space of the n-sphere, the squares map the middle
generator onto every top generator.  ``square_coordinates(model, i, d)``
gives, for each basis class of H^d, the coordinates of its Sq^i in the
basis of H^(d+i).
"""

from expk import (
    cup,
    exp_subsets,
    express_in_basis,
    projective_plane,
    sphere,
    square_coordinates,
    sym_power,
    torus,
)

rp2 = projective_plane()
(sq1,) = square_coordinates(rp2, 1, 1)
print("projective plane, Sq^1 on the degree-1 generator:")
print("  coordinates in the degree-2 basis:", sq1)

t2 = torus()
a, b = t2.cohomology_basis(1)
h2 = t2.cohomology_basis(2)
print("torus, degree-1 cup structure:")
print("  [a.b] =", express_in_basis(t2, cup(t2, a, b), h2).to_bits())
print("  [a.a] =", express_in_basis(t2, cup(t2, a, a), h2).to_bits())

exp2_s2 = exp_subsets(sphere(2, cap=5), 2)
print("two-point subsets of the 2-sphere:")
print("  Sq^2 of the degree-2 generator lands on the degree-4 generator:",
      square_coordinates(exp2_s2, 2, 2)[0])

exp2_s3 = exp_subsets(sphere(3, cap=7), 2)
print("two-point subsets of the 3-sphere:")
for i in (2, 3):
    print(f"  Sq^{i} of the degree-3 generator:", square_coordinates(exp2_s3, i, 3)[0])

sym3_s2 = sym_power(sphere(2, cap=7), 3)
print("triple symmetric power of the 2-sphere:")
print("  Sq^2 of the degree-2 generator:", square_coordinates(sym3_s2, 2, 2)[0])
