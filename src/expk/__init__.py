"""Finite combinatorial models of subset spaces of spheres.

The package builds levelwise simplicial-set models of spheres, their
products and symmetric powers, and the spaces of nonempty subsets of
bounded size, then computes mod-2 Betti numbers, cup products, and
Steenrod squares on them.  An exact-sequence solver mechanizes the
rank bookkeeping used in the classical derivations, a catalog stores
the expected tables, and a verification harness compares the two.
"""

from .catalog import ExpectedTable, expected_betti
from .cochains import (
    RingTable,
    coboundary,
    cohomologous,
    cup,
    cup_i,
    express_in_basis,
    ring_table,
    square_coordinates,
    steenrod_square,
    unit_class,
)
from .complexes import moebius_band, projective_plane, torus
from .errors import BasisSpanError, CapError, ContractViolation, LevelSizeError
from .exact_sequences import (
    Arrow,
    ExactTemplate,
    SolveResult,
    Term,
    exp2_cover_template,
    exp3_cover_template,
    exp3_gluing_template,
    extract_degree_dims,
    gysin_template,
    solve_template,
)
from .gf2 import Gf2Matrix, Gf2Vector
from .grassmannian import alpha2_multiplication_rank, dual_classes, graded_dims
from .simplicial import BettiTable, CochainClass, SimplicialSetModel
from .spaces import (
    SimplicialMapModel,
    SpaceSpec,
    build_space,
    compare_pushout_with_subsets,
    compare_sym2_with_subsets,
    diagonal_insertion,
    exp_subsets,
    from_complex,
    one_vertex_sphere,
    power,
    product,
    pushout,
    sphere,
    sym_power,
    sym_projection,
)
from .verify import CHECKS, VerificationReport, run_verify

__version__ = "0.1.0"
