"""Steenrod squares on the models, via chain-level cup-i products.

Squares are computed from the classical interval-cut formula on
normalized cochains: Sq^i of a degree-p cocycle is the class of its
cup-(p-i) product with itself.  Two warm-ups on classical surfaces are
followed by the computation that drives the subset-space tables: on the
two-point subset space of the n-sphere, the squares map the middle
generator onto every top generator.
"""

from expk import (
    cup,
    exp_subsets,
    express_in_basis,
    projective_plane,
    sphere,
    steenrod_square,
    sym_power,
    torus,
)

rp2 = projective_plane()
g1 = rp2.cohomology_basis(1)[0]
sq1 = steenrod_square(rp2, 1, g1)
print("projective plane, Sq^1 on the degree-1 generator:")
print("  coordinates in the degree-2 basis:",
      express_in_basis(rp2, sq1, rp2.cohomology_basis(2)).to_bits())

t2 = torus()
a, b = t2.cohomology_basis(1)
h2 = t2.cohomology_basis(2)
print("torus, degree-1 cup structure:")
print("  [a.b] =", express_in_basis(t2, cup(t2, a, b), h2).to_bits())
print("  [a.a] =", express_in_basis(t2, cup(t2, a, a), h2).to_bits())

exp2_s2 = exp_subsets(sphere(2, cap=5), 2)
e2 = exp2_s2.cohomology_basis(2)[0]
print("two-point subsets of the 2-sphere:")
print("  Sq^2 of the degree-2 generator lands on the degree-4 generator:",
      express_in_basis(
          exp2_s2, steenrod_square(exp2_s2, 2, e2), exp2_s2.cohomology_basis(4)
      ).to_bits())

exp2_s3 = exp_subsets(sphere(3, cap=7), 2)
e3 = exp2_s3.cohomology_basis(3)[0]
print("two-point subsets of the 3-sphere:")
for i in (2, 3):
    coords = express_in_basis(
        exp2_s3,
        steenrod_square(exp2_s3, i, e3),
        exp2_s3.cohomology_basis(3 + i),
    )
    print(f"  Sq^{i} of the degree-3 generator:", coords.to_bits())

sym3_s2 = sym_power(sphere(2, cap=7), 3)
f2 = sym3_s2.cohomology_basis(2)[0]
print("triple symmetric power of the 2-sphere:")
print("  Sq^2 of the degree-2 generator:",
      express_in_basis(
          sym3_s2, steenrod_square(sym3_s2, 2, f2), sym3_s2.cohomology_basis(4)
      ).to_bits())
