"""Cup products, higher cup-i products, and Steenrod squares.

All cochains are normalized: they live on nondegenerate simplices and are
read as zero on degenerate ones.  The cup-i product of u (degree p) and
v (degree q) on an n-simplex, n = p + q - i, is the classical sum over
interval cuts: pick cut positions j_0 < ... < j_i in {0..n}, split
{0..n} into the overlapping intervals

    [0..j_0], [j_0..j_1], ..., [j_i..n],

evaluate u on the union of the even-numbered intervals and v on the
odd-numbered ones, and keep the terms where the dimensions match.  The
i = 0 case is the usual front-face/back-face cup product, and the
chain-level identity

    d(u cup_i v) = u cup_{i-1} v + v cup_{i-1} u + du cup_i v + u cup_i dv

holds mod 2 (checked by the test suite on random cochains).  Steenrod
squares are the diagonal values: Sq^i[u] = [u cup_{p-i} u].

A model is a ``simplicial.ChainModel``, read only through ``nondeg_count``,
``restrict`` and ``level_cap`` (and the base's methods, built on them): a
cut's even and odd vertex sets go to ``restrict``, and -1, a degenerate
face, reads the trailing 0 that ``simplicial._padded_values`` appends.

A cochain does not record whether it is closed; ``_closed`` asks the
model: du = 0 below the level cap, and at the cap an empty level.  ``cup``,
``steenrod_square`` and ``express_in_basis`` check their inputs with it,
and ``cup`` and ``steenrod_square`` assert it of their output;
``square_coordinates`` expresses those outputs without asking again.
``ring_table`` asserts it once of each basis class and of each product,
and nothing else computes a coboundary to ask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BasisSpanError, ContractViolation
from .gf2 import Gf2Vector
from .simplicial import ChainModel, CochainClass, _padded_values

RING_TABLE_FORMAT = "ring-table/1"


@lru_cache(maxsize=None)
def _interval_cuts(n: int, i: int, p: int):
    """Even/odd vertex sets of all admissible cuts.

    Returns pairs (even, odd) of sorted position tuples: restricted to
    them, an n-simplex gives the p-face evaluated by the first factor and
    the (n - p + i)-face evaluated by the second.
    """
    out = []
    for cuts in itertools.combinations(range(n + 1), i + 1):
        bounds = (0, *cuts, n)
        blocks = [set(range(bounds[t], bounds[t + 1] + 1)) for t in range(i + 2)]
        even, odd = set().union(*blocks[::2]), set().union(*blocks[1::2])
        if len(even) == p + 1:
            out.append((tuple(sorted(even)), tuple(sorted(odd))))
    return tuple(out)


def _support(s: ChainModel, c: CochainClass) -> Gf2Vector:
    if c.support.length != s.nondeg_count(c.degree):
        raise ContractViolation(f"cochain length does not fit degree {c.degree}")
    return c.support


def _closed(s: ChainModel, c: CochainClass) -> bool:
    support = _support(s, c)
    if c.degree < s.level_cap:
        return s.is_cocycle(c.degree, support)
    return support.length == 0


def _checked(s: ChainModel, c: CochainClass, what: str) -> CochainClass:
    """``c``, asserted closed: ``what`` is built from cocycles, so it must be."""
    if not _closed(s, c):
        raise AssertionError(f"{what} failed to be a cocycle")
    return c


def cup_i(s: ChainModel, a: CochainClass, b: CochainClass, i: int) -> CochainClass:
    """Chain-level cup-i product; defined for arbitrary cochains."""
    p, q = a.degree, b.degree
    if not 0 <= i <= min(p, q):
        raise ContractViolation(f"cup index {i} outside 0..min({p},{q})")
    n = p + q - i
    if n > s.level_cap:
        raise ContractViolation(f"product degree {n} exceeds the level cap")
    av, bv = (_padded_values(_support(s, c)) for c in (a, b))
    out = np.zeros(s.nondeg_count(n), dtype=np.uint8)
    for even, odd in _interval_cuts(n, i, p):
        out ^= av.take(s.restrict(n, even)) & bv.take(s.restrict(n, odd))
    return CochainClass(n, Gf2Vector.from_bits(out))


def cup(s: ChainModel, a: CochainClass, b: CochainClass) -> CochainClass:
    """Front-face/back-face product of cocycles; the class is well defined."""
    if not (_closed(s, a) and _closed(s, b)):
        raise ContractViolation("cup is defined on cocycle representatives")
    return _checked(s, cup_i(s, a, b, 0), "cup of cocycles")


def coboundary(s: ChainModel, c: CochainClass) -> CochainClass:
    return CochainClass(c.degree + 1, s.apply_coboundary(c.degree, c.support))


def steenrod_square(s: ChainModel, i: int, a: CochainClass) -> CochainClass:
    """Sq^i on a cocycle: the class of a cup_{p-i} a, zero above the degree."""
    if i < 0:
        raise ContractViolation("square index must be nonnegative")
    if not _closed(s, a):
        raise ContractViolation("squares are defined on cocycle representatives")
    p = a.degree
    if i > p:
        degree = p + i
        if degree > s.level_cap:
            raise ContractViolation(f"degree {degree} exceeds the level cap")
        return CochainClass(degree, Gf2Vector.zeros(s.nondeg_count(degree)))
    return _checked(s, cup_i(s, a, a, p - i), "square of a cocycle")


# ---------------------------------------------------------------------------
# expressing classes in a basis


def express_in_basis(s: ChainModel, c: CochainClass, basis) -> Gf2Vector:
    """Coordinates of [c] in a basis independent modulo coboundaries."""
    if not _closed(s, c):
        raise ContractViolation("only cocycles have well-defined coordinates")
    return _coordinates(s, c, basis)


def _coordinates(s: ChainModel, c: CochainClass, basis) -> Gf2Vector:
    """``express_in_basis`` for a c whose closure its caller has checked."""
    for b in basis:
        if b.degree != c.degree:
            raise ContractViolation("basis degree mismatch")
    span = s.coboundary_span(c.degree)
    for k, b in enumerate(basis):
        if span.add(_support(s, b).to_int(), 1 << k) is not None:
            raise ContractViolation(
                f"basis class {k} depends on the earlier ones modulo coboundaries"
            )
    rest, coords = span.reduce(_support(s, c).to_int())
    if rest:
        raise BasisSpanError(
            f"basis does not span the class in degree {c.degree}"
        )
    return Gf2Vector(len(basis), coords)


def square_coordinates(s: ChainModel, i: int, d: int) -> list:
    """Sq^i of each basis class of H^d, as coordinates in the basis of H^(d+i).

    One 0/1 list per generator of H^d, in basis order; both bases are the
    model's deterministic ``cohomology_basis``.
    """
    if i < 0:  # before d + i can name a degree outside the model
        raise ContractViolation("square index must be nonnegative")
    basis = s.cohomology_basis(d)
    target = s.cohomology_basis(d + i)
    # steenrod_square checks each class and its square once
    return [
        _coordinates(s, steenrod_square(s, i, c), target).to_bits().tolist()
        for c in basis
    ]


def is_coboundary(s: ChainModel, c: CochainClass) -> bool:
    rest, _ = s.coboundary_span(c.degree).reduce(_support(s, c).to_int())
    return not rest


def cohomologous(s: ChainModel, c1: CochainClass, c2: CochainClass) -> bool:
    if c1.degree != c2.degree:
        return False
    diff = CochainClass(c1.degree, c1.support ^ c2.support)
    return is_coboundary(s, diff)


def unit_class(s: ChainModel) -> CochainClass:
    """The all-ones 0-cochain; the multiplicative unit on cohomology."""
    ones = Gf2Vector.from_bits(np.ones(s.nondeg_count(0), dtype=np.uint8))
    if not s.is_cocycle(0, ones):
        raise AssertionError("constant 0-cochain is not closed")
    return CochainClass(0, ones)


def random_cochain(s: ChainModel, degree: int, rng) -> CochainClass:
    bits = rng.integers(0, 2, size=s.nondeg_count(degree), dtype=np.uint8)
    return CochainClass(degree, Gf2Vector.from_bits(bits))


# ---------------------------------------------------------------------------
# ring tables


@dataclass(frozen=True)
class RingTable:
    """Structure constants of the cup product in a fixed cohomology basis."""

    basis_labels: tuple  # tuple of (degree, labels tuple)
    products: tuple  # ((deg_a, idx_a, deg_b, idx_b), coords bits tuple)

    def to_json_dict(self) -> dict:
        return {
            "format": RING_TABLE_FORMAT,
            "basis": [
                {"degree": d, "labels": list(labels)}
                for d, labels in self.basis_labels
            ],
            "products": [
                {
                    "left": [a, i],
                    "right": [b, j],
                    "coords": list(coords),
                }
                for (a, i, b, j), coords in self.products
            ],
        }


def ring_table(s: ChainModel) -> RingTable:
    """Cup products of all basis classes within the computable range.

    Graded commutativity (mod 2 equality of both orders) is verified
    while the table is assembled.
    """
    max_degree = s.top_nondegenerate_level()
    bases = {d: s.cohomology_basis(d) for d in range(max_degree + 1)}
    for c in itertools.chain(*bases.values()):
        _checked(s, c, "a cohomology basis class")
    labels = tuple(
        (d, tuple(f"h{d}[{i}]" for i in range(len(bases[d]))))
        for d in range(max_degree + 1)
        if bases[d]
    )
    entries = {}
    for da, db in itertools.product(range(max_degree + 1), repeat=2):
        dc = da + db
        if dc > max_degree or not bases[da] or not bases[db] or not bases[dc]:
            continue
        for ia, a in enumerate(bases[da]):
            for ib, b in enumerate(bases[db]):
                ab = _checked(s, cup_i(s, a, b, 0), "cup of cocycles")
                coords = _coordinates(s, ab, bases[dc])
                entries[(da, ia, db, ib)] = tuple(coords.to_bits().tolist())
    for (da, ia, db, ib), coords in entries.items():
        if entries[(db, ib, da, ia)] != coords:
            raise AssertionError("cup product failed graded commutativity")
    products = tuple(sorted(entries.items()))
    return RingTable(labels, products)
