"""The mod-2 cohomology ring of the Grassmannian of 2-planes in (n+1)-space.

The ring is the quotient of the polynomial ring on two generators a1
(degree 1) and a2 (degree 2) by the two relations expressing that the
dual classes vanish in degrees n and n+1.  The dual classes b_k are the
terms of the series inverse of 1 + a1 + a2:

    b_0 = 1,  b_1 = a1,  b_k = a1 b_{k-1} + a2 b_{k-2},

so b_2 = a2 + a1^2, b_3 = a1^3, and so on.

A degree-d element is a python int over the monomials a1^(d-2j) a2^j,
bit j standing for the monomial with a2-exponent j.  Multiplying by a1
keeps the bits and multiplying by a2 shifts them up by one, so

    b_k = b_{k-1} ^ (b_{k-2} << 1),

and the degree-d piece of the ideal is spanned by b_r << i for r in
{n, n+1} and 0 <= i <= (d - r) // 2.  Graded dimensions and ranks of
multiplication by a2 are sizes of ``Gf2Span``s of such rows.
"""

from __future__ import annotations

from math import comb

from .errors import ContractViolation
from .gf2 import Gf2Span
from .simplicial import BettiTable


def dual_classes(up_to: int) -> list[int]:
    """b_1..b_up_to, each an int over the monomials of its degree."""
    if up_to < 1:
        raise ContractViolation("need at least one dual class")
    betas = [1, 1]
    for _ in range(2, up_to + 1):
        betas.append(betas[-1] ^ betas[-2] << 1)
    return betas[1:]


def _ideal_rows(n: int, d: int) -> list[int]:
    """Rows spanning the degree-d piece of the ideal (b_n, b_{n+1})."""
    if n < 2:
        raise ContractViolation("the ambient parameter must be at least 2")
    betas = dual_classes(n + 1)
    return [betas[r - 1] << i for r in (n, n + 1) for i in range((d - r) // 2 + 1)]


def graded_dims(n: int) -> BettiTable:
    """Graded dimensions of the quotient ring, degrees 0..2n-2."""
    return BettiTable(
        tuple(d // 2 + 1 - len(Gf2Span(_ideal_rows(n, d))) for d in range(2 * n - 1))
    )


def alpha2_multiplication_rank(n: int, k: int) -> int:
    """Rank of cup with the degree-2 generator into degree k."""
    if not 0 <= k <= 2 * n - 2:
        raise ContractViolation(f"degree {k} outside 0..{2 * n - 2}")
    rows = _ideal_rows(n, k)
    image = [1 << j + 1 for j in range(k // 2)]  # a2 times each monomial of degree k-2
    return len(Gf2Span(rows + image)) - len(Gf2Span(rows))


def total_dimension(n: int) -> int:
    """Sum of all graded dimensions; matches the cell count C(n+1, 2)."""
    return sum(graded_dims(n).dims)


def schubert_cell_count(n: int) -> int:
    return comb(n + 1, 2)
