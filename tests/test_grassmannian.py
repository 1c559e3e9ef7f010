"""Graded ring of 2-planes: dual classes, dimensions, multiplication ranks."""

from math import comb

import pytest

from expk import grassmannian
from expk.catalog import expected_betti
from expk.errors import ContractViolation
from expk.grassmannian import (
    alpha2_multiplication_rank,
    dual_classes,
    graded_dims,
    schubert_cell_count,
    total_dimension,
)

# graded_dims(n) and alpha2_multiplication_rank(n, k) for k = 0..2n-2,
# as computed by the monomial-set ring that the bit rows replaced.
PINNED = {
    2: (
        (1, 1, 1),
        (0, 0, 1),
    ),
    3: (
        (1, 1, 2, 1, 1),
        (0, 0, 1, 1, 1),
    ),
    4: (
        (1, 1, 2, 2, 2, 1, 1),
        (0, 0, 1, 1, 2, 1, 1),
    ),
    5: (
        (1, 1, 2, 2, 3, 2, 2, 1, 1),
        (0, 0, 1, 1, 2, 2, 2, 1, 1),
    ),
    6: (
        (1, 1, 2, 2, 3, 3, 3, 2, 2, 1, 1),
        (0, 0, 1, 1, 2, 2, 3, 2, 2, 1, 1),
    ),
    7: (
        (1, 1, 2, 2, 3, 3, 4, 3, 3, 2, 2, 1, 1),
        (0, 0, 1, 1, 2, 2, 3, 3, 3, 2, 2, 1, 1),
    ),
    8: (
        (1, 1, 2, 2, 3, 3, 4, 4, 4, 3, 3, 2, 2, 1, 1),
        (0, 0, 1, 1, 2, 2, 3, 3, 4, 3, 3, 2, 2, 1, 1),
    ),
    9: (
        (1, 1, 2, 2, 3, 3, 4, 4, 5, 4, 4, 3, 3, 2, 2, 1, 1),
        (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 3, 3, 2, 2, 1, 1),
    ),
    10: (
        (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1),
        (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 4, 4, 3, 3, 2, 2, 1, 1),
    ),
    11: (
        (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1),
        (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1),
    ),
    12: (
        (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1),
        (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1),
    ),
    13: (
        (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1),
        (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1),
    ),
}


@pytest.mark.parametrize("n", sorted(PINNED))
def test_pinned_dims_and_ranks(n):
    dims, ranks = PINNED[n]
    assert graded_dims(n).dims == dims
    assert tuple(alpha2_multiplication_rank(n, k) for k in range(2 * n - 1)) == ranks


def test_first_dual_classes():
    # b1 = a1, b2 = a1^2 + a2, b3 = a1^3; bit j is the monomial with a2^j
    assert dual_classes(3) == [0b1, 0b11, 0b1]


def test_dual_classes_are_binomials_mod_2():
    # a1 b_{k-1} + a2 b_{k-2} gives the coefficient of a1^(k-2j) a2^j as
    # C(k-j, j), the number of ways to order k-2j a1's among j a2's
    for k, b in enumerate(dual_classes(40), start=1):
        assert [b >> j & 1 for j in range(k // 2 + 1)] == [
            comb(k - j, j) % 2 for j in range(k // 2 + 1)
        ]


def test_dual_classes_are_homogeneous():
    # b_k has no bit past the k//2 + 1 monomials of degree k
    for k, b in enumerate(dual_classes(40), start=1):
        assert 0 < b < 1 << k // 2 + 1


def test_series_inverse_identity_through_degree_12():
    # (1 + a1 + a2)(1 + b_1 + ... + b_12) = 1 through degree 12, on monomials (i, j)
    series = [(0, 0)] + [
        (k - 2 * j, j)
        for k, b in enumerate(dual_classes(12), start=1)
        for j in range(k // 2 + 1)
        if b >> j & 1
    ]
    odd = set()
    for i, j in series:
        for di, dj in ((0, 0), (1, 0), (0, 1)):
            if i + di + 2 * (j + dj) <= 12:
                odd ^= {(i + di, j + dj)}
    assert odd == {(0, 0)}


def test_stable_dimension_row():
    # large n: degrees 0..6 count monomials freely
    assert graded_dims(8).dims[:7] == (1, 1, 2, 2, 3, 3, 4)


def test_n4_full_table():
    assert graded_dims(4).dims == (1, 1, 2, 2, 2, 1, 1)
    assert total_dimension(4) == 10 == schubert_cell_count(4)


@pytest.mark.parametrize("n", range(2, 9))
def test_total_dimension_is_cell_count(n):
    assert total_dimension(n) == schubert_cell_count(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_poincare_symmetry(n):
    dims = graded_dims(n).dims
    top = 2 * n - 2
    for i in range(top + 1):
        assert dims[i] == dims[top - i]


@pytest.mark.parametrize("n", range(3, 9))
def test_free_below_the_first_relation(n):
    dims = graded_dims(n).dims
    for i in range(n):
        assert dims[i] == i // 2 + 1  # one monomial a1^(i-2j) a2^j per j


@pytest.mark.parametrize("n", range(3, 9))
def test_multiplication_rank_claims(n):
    dims = graded_dims(n)
    for k in range(2, 2 * n - 1):
        r = alpha2_multiplication_rank(n, k)
        if k <= n - 1:
            assert r == dims.dim(k - 2), "injective below the middle"
        elif k == n:
            assert r == dims.dim(k) == dims.dim(k - 2), "isomorphism at the middle"
        else:
            assert r == dims.dim(k), "onto above the middle"


def test_catalog_agrees_with_computed_dims():
    for n in range(2, 9):
        assert graded_dims(n).matches(expected_betti("grassmannian", n).dims)


def test_multiplication_rank_builds_the_ideal_rows_once(monkeypatch):
    calls = []
    ideal_rows = grassmannian._ideal_rows

    def counted(n, d):
        calls.append((n, d))
        return ideal_rows(n, d)

    monkeypatch.setattr(grassmannian, "_ideal_rows", counted)
    rank = alpha2_multiplication_rank(5, 6)
    assert calls == [(5, 6)]
    assert rank == graded_dims(5).dims[6]  # onto above the middle degree


def test_quotient_guards():
    with pytest.raises(ContractViolation):
        graded_dims(1)
    with pytest.raises(ContractViolation):
        alpha2_multiplication_rank(1, 0)
    for k in (-1, 5, 99):
        with pytest.raises(ContractViolation):
            alpha2_multiplication_rank(3, k)
    with pytest.raises(ContractViolation):
        dual_classes(0)
