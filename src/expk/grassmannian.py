"""The mod-2 cohomology ring of the Grassmannian of 2-planes in (n+1)-space.

The ring is the quotient of the polynomial ring on two generators a1
(degree 1) and a2 (degree 2) by the two relations expressing that the
dual classes vanish in degrees n and n+1.  The dual classes b_k are the
terms of the series inverse of 1 + a1 + a2:

    b_0 = 1,  b_1 = a1,  b_k = a1 b_{k-1} + a2 b_{k-2},

so b_2 = a2 + a1^2, b_3 = a1^3, and so on.  Graded dimensions and
multiplication ranks are computed by enumerating the monomials of each
degree and taking ranks over the two-element field; there are no term
order subtleties because each graded piece is tiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ContractViolation
from .gf2 import Gf2Span
from .simplicial import BettiTable


@dataclass(frozen=True)
class PolyGF2:
    """Polynomial in two graded generators with coefficients mod 2.

    Monomials are (i, j) pairs for a1^i a2^j; the degree of a monomial is
    i + 2j.  Addition is symmetric difference of monomial sets.
    """

    monomials: frozenset

    @classmethod
    def zero(cls) -> "PolyGF2":
        return cls(frozenset())

    @classmethod
    def one(cls) -> "PolyGF2":
        return cls(frozenset({(0, 0)}))

    @classmethod
    def a1(cls) -> "PolyGF2":
        return cls(frozenset({(1, 0)}))

    @classmethod
    def a2(cls) -> "PolyGF2":
        return cls(frozenset({(0, 1)}))

    @classmethod
    def from_monomials(cls, monos) -> "PolyGF2":
        acc = frozenset()
        for m in monos:
            acc = acc ^ {tuple(m)}
        return cls(acc)

    def __add__(self, other: "PolyGF2") -> "PolyGF2":
        return PolyGF2(self.monomials ^ other.monomials)

    def __mul__(self, other: "PolyGF2") -> "PolyGF2":
        acc = set()
        for (i, j) in self.monomials:
            for (k, l) in other.monomials:
                m = (i + k, j + l)
                if m in acc:
                    acc.remove(m)
                else:
                    acc.add(m)
        return PolyGF2(frozenset(acc))

    def is_zero(self) -> bool:
        return not self.monomials

    def degrees(self) -> set:
        return {i + 2 * j for (i, j) in self.monomials}

    def component(self, degree: int) -> "PolyGF2":
        return PolyGF2(
            frozenset(m for m in self.monomials if m[0] + 2 * m[1] == degree)
        )

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def __str__(self):
        if not self.monomials:
            return "0"

        def fmt(m):
            i, j = m
            parts = []
            if i:
                parts.append("a1" + (f"^{i}" if i > 1 else ""))
            if j:
                parts.append("a2" + (f"^{j}" if j > 1 else ""))
            return " ".join(parts) or "1"

        return " + ".join(fmt(m) for m in sorted(self.monomials))


def monomials_of_degree(d: int) -> list:
    """All (i, j) with i + 2j = d, ordered by a2-exponent."""
    if d < 0:
        return []
    return [(d - 2 * j, j) for j in range(d // 2 + 1)]


def beta_polynomials(up_to: int) -> list:
    """The dual classes b_1..b_up_to from the series-inverse recursion."""
    if up_to < 1:
        raise ContractViolation("need at least one dual class")
    a1, a2 = PolyGF2.a1(), PolyGF2.a2()
    betas = [PolyGF2.one(), a1]
    for _ in range(2, up_to + 1):
        betas.append(a1 * betas[-1] + a2 * betas[-2])
    return betas[1:]


class GradedQuotient:
    """Quotient of the two-generator polynomial ring by (b_n, b_{n+1})."""

    def __init__(self, n: int):
        if n < 2:
            raise ContractViolation("the ambient parameter must be at least 2")
        self.n = n
        betas = beta_polynomials(n + 1)
        self.relations = (betas[n - 1], betas[n])

    @property
    def top_degree(self) -> int:
        return 2 * self.n - 2

    def _ideal_rows(self, d: int):
        """Bit rows spanning the degree-d piece of the relation ideal.

        Returns the rows and the index of the degree-d monomials, bit i
        standing for monomial i.
        """
        index = {m: i for i, m in enumerate(monomials_of_degree(d))}
        rows = [
            _bits(PolyGF2(frozenset({mono})) * rel, index)
            for rel, rel_deg in zip(self.relations, (self.n, self.n + 1))
            for mono in monomials_of_degree(d - rel_deg)
        ]
        return rows, index

    def dim(self, d: int) -> int:
        if d < 0 or d > self.top_degree:
            return 0
        rows, index = self._ideal_rows(d)
        return len(index) - len(Gf2Span(rows))

    def dims(self) -> BettiTable:
        return BettiTable(tuple(self.dim(d) for d in range(self.top_degree + 1)))

    def multiplication_rank(self, k: int) -> int:
        """Rank of multiplication by a2 from degree k-2 to degree k."""
        if not 0 <= k <= self.top_degree:
            raise ContractViolation(
                f"degree {k} outside 0..{self.top_degree}"
            )
        if k < 2:
            return 0
        rows, index = self._ideal_rows(k)
        span = Gf2Span(rows)
        ideal_rank = len(span)
        a2 = PolyGF2.a2()
        for mono in monomials_of_degree(k - 2):
            span.add(_bits(PolyGF2(frozenset({mono})) * a2, index))
        return len(span) - ideal_rank


def _bits(poly: PolyGF2, index: dict) -> int:
    """The polynomial as a bit row over the monomials of ``index``."""
    return sum(1 << index[m] for m in poly.monomials)


def graded_dims(n: int) -> BettiTable:
    """Graded dimensions of the quotient ring, degrees 0..2n-2."""
    return GradedQuotient(n).dims()


def alpha2_multiplication_rank(n: int, k: int) -> int:
    """Rank of cup with the degree-2 generator into degree k."""
    return GradedQuotient(n).multiplication_rank(k)


def total_dimension(n: int) -> int:
    """Sum of all graded dimensions; matches the cell count C(n+1, 2)."""
    return sum(graded_dims(n).dims)


def schubert_cell_count(n: int) -> int:
    return comb(n + 1, 2)
