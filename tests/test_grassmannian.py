"""Graded ring of 2-planes: dual classes, dimensions, multiplication ranks."""

import pytest

from expk.catalog import expected_betti
from expk.errors import ContractViolation
from expk.grassmannian import (
    GradedQuotient,
    PolyGF2,
    alpha2_multiplication_rank,
    beta_polynomials,
    graded_dims,
    monomials_of_degree,
    schubert_cell_count,
    total_dimension,
)


def test_first_dual_classes():
    b1, b2, b3 = beta_polynomials(3)
    assert b1 == PolyGF2.a1()
    assert b2 == PolyGF2.from_monomials([(0, 1), (2, 0)])  # a2 + a1^2
    assert b3 == PolyGF2.from_monomials([(3, 0)])  # a1^3


def test_series_inverse_identity_through_degree_12():
    betas = beta_polynomials(13)
    series = PolyGF2.one()
    for b in betas:
        series = series + b
    produced = (PolyGF2.one() + PolyGF2.a1() + PolyGF2.a2()) * series
    for d in range(1, 13):
        assert produced.component(d).is_zero()
    assert produced.component(0) == PolyGF2.one()


def test_dual_classes_are_homogeneous():
    for k, b in enumerate(beta_polynomials(10), start=1):
        assert b.is_homogeneous()
        assert b.degrees() == {k}


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
        assert dims[i] == len(monomials_of_degree(i))


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
    ideal_rows = GradedQuotient._ideal_rows

    def counted(self, d):
        calls.append(d)
        return ideal_rows(self, d)

    monkeypatch.setattr(GradedQuotient, "_ideal_rows", counted)
    rank = GradedQuotient(5).multiplication_rank(6)
    assert calls == [6]
    assert rank == graded_dims(5).dims[6]  # onto above the middle degree


def test_quotient_guards():
    with pytest.raises(ContractViolation):
        GradedQuotient(1)
    q = GradedQuotient(3)
    with pytest.raises(ContractViolation):
        q.multiplication_rank(99)
    with pytest.raises(ContractViolation):
        beta_polynomials(0)


def test_poly_str_and_component():
    p = PolyGF2.from_monomials([(2, 1), (0, 0)])
    assert p.component(4) == PolyGF2.from_monomials([(2, 1)])
    assert "a1^2 a2" in str(p)
    assert str(PolyGF2.zero()) == "0"
