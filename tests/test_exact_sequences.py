"""Rank propagation in exact-sequence templates."""

import hashlib

import pytest

from expk.catalog import expected_betti
from expk.errors import ContractViolation
from expk.exact_sequences import (
    Arrow,
    ExactTemplate,
    Term,
    exp2_cover_template,
    exp3_cover_template,
    exp3_gluing_template,
    extract_degree_dims,
    gysin_template,
    solve_template,
)
from expk.grassmannian import alpha2_multiplication_rank, graded_dims
from expk.simplicial import BettiTable


def seq(*spec):
    """Shorthand: seq(("A", 1), "zero", ("B", None), ...) with 0-caps added."""
    terms = [Term("0", 0)]
    arrows = [Arrow()]
    it = iter(spec)
    for item in it:
        name, dim = item
        terms.append(Term(name, dim))
        try:
            ann = next(it)
        except StopIteration:
            break
        arrows.append(Arrow(ann) if isinstance(ann, str) else Arrow("rank", ann))
    arrows.append(Arrow())  # the closing arrow into the final zero
    terms.append(Term("0", 0))
    return ExactTemplate(tuple(terms), tuple(arrows))


def test_two_term_isomorphism_forced():
    t = seq(("A", None), "unconstrained", ("B", 1))
    res = solve_template(t)
    assert res.consistent
    assert res.forced_dims(t)["A"] == 1


def test_alternating_sum_contradiction_certified():
    t = seq(("A", 1), "unconstrained", ("B", 3), "unconstrained", ("C", 1))
    res = solve_template(t)
    assert not res.consistent
    assert res.certificate


def test_annotations_force_values():
    t = seq(("A", None), "isomorphism", ("B", 2), "zero", ("C", None), "surjective", ("D", 3))
    res = solve_template(t)
    dims = res.forced_dims(t)
    assert dims["A"] == 2 and dims["C"] == 3 and dims["D"] == 3


def test_under_constrained_leaves_intervals():
    t = seq(("A", None), "unconstrained", ("B", None), "unconstrained", ("C", 1))
    res = solve_template(t)
    assert res.consistent
    assert not res.all_forced()
    lo, hi = res.dim_bounds(t, "A")
    assert lo == 0 and hi is None


def test_solution_substitution_is_consistent():
    t = exp2_cover_template(3, expected_betti("E0", 3).dims)
    res = solve_template(t)
    assert res.consistent
    dims = res.forced_dims(t)
    terms = tuple(
        Term(x.name, dims.get(x.name, x.dim)) for x in t.terms
    )
    again = solve_template(ExactTemplate(terms, t.arrows))
    assert again.consistent and again.all_forced()


def test_monotone_refinement():
    loose = seq(("A", None), "unconstrained", ("B", None), "unconstrained", ("C", 1))
    tight = seq(("A", None), "zero", ("B", None), "unconstrained", ("C", 1))
    res_loose = solve_template(loose)
    res_tight = solve_template(tight)
    for (llo, lhi), (tlo, thi) in zip(res_loose.dims, res_tight.dims):
        assert tlo >= llo
        assert lhi is None or (thi is not None and thi <= lhi)


def test_alternating_sum_zero_when_fully_solved():
    for n in (2, 4):
        t = exp2_cover_template(n, expected_betti("E0", n).dims)
        res = solve_template(t)
        dims = [lo for lo, hi in res.dims]
        assert res.all_forced()
        assert sum((-1) ** i * d for i, d in enumerate(dims)) == 0


def test_template_well_formedness():
    with pytest.raises(ContractViolation):
        ExactTemplate((Term("A", 1), Term("0", 0)), (Arrow(),))
    with pytest.raises(ContractViolation):
        ExactTemplate((Term("0", 0), Term("A", 1)), (Arrow(),))
    with pytest.raises(ContractViolation):
        Arrow("rank")
    with pytest.raises(ContractViolation):
        Arrow("banana")
    with pytest.raises(ContractViolation):
        Term("A", -1)


def test_template_json_round_trip():
    t = gysin_template(BettiTable((1, 1, 1)), 1, {0: 1})
    text = t.to_json_text()
    assert ExactTemplate.from_json_text(text).to_json_text() == text


@pytest.mark.parametrize("n", range(2, 7))
def test_gysin_reproduces_sphere_bundle_table(n):
    base = BettiTable((1,) * (n + 1))
    t = gysin_template(base, n - 1, {0: 1})
    got = extract_degree_dims(t, solve_template(t), "E^")
    assert got.matches(expected_betti("E0", n).dims)


def test_gysin_zero_base_gives_zero_total():
    t = gysin_template(BettiTable((0,)), 2, {})
    got = extract_degree_dims(t, solve_template(t), "E^")
    assert all(d == 0 for d in got.dims)


def test_gysin_rank_bound_validated():
    with pytest.raises(ContractViolation):
        gysin_template(BettiTable((1, 1, 1)), 1, {0: 2})


@pytest.mark.parametrize("n", range(2, 7))
def test_exp2_cover_reproduces_table(n):
    t = exp2_cover_template(n, expected_betti("E0", n).dims)
    got = extract_degree_dims(t, solve_template(t), "X^")
    assert got.matches(expected_betti("exp2", n).dims)


@pytest.mark.parametrize("n", range(2, 7))
def test_exp3_cover_reproduces_table(n):
    t = exp3_cover_template(
        n,
        expected_betti("C3", n).dims,
        expected_betti("exp2", n).dims,
        expected_betti("E", n).dims,
    )
    got = extract_degree_dims(t, solve_template(t), "X^")
    assert got.matches(expected_betti("exp3", n).dims)


@pytest.mark.parametrize("n", range(3, 9))
def test_circle_bundle_over_grassmannian_matches_triples_table(n):
    gd = graded_dims(n)
    ranks = {j: alpha2_multiplication_rank(n, j + 2) for j in range(0, 2 * n - 3)}
    t = gysin_template(gd, 1, ranks)
    got = extract_degree_dims(t, solve_template(t), "E^")
    assert got.matches(expected_betti("C3", n).dims)


def test_gluing_template_with_observed_tables():
    t = exp3_gluing_template(2, (1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0, 1), (1, 0, 2, 0, 1))
    got = extract_degree_dims(t, solve_template(t), "X^")
    assert got.matches(expected_betti("exp3", 2).dims)
    t = exp3_gluing_template(1, (1, 1), (1, 1), (1, 2, 1))
    got = extract_degree_dims(t, solve_template(t), "X^")
    assert got.matches(expected_betti("exp3", 1).dims)


# sha256 of to_json_text() of each builder's template, recorded before the
# builders shared one ladder routine
PINNED_TEMPLATES = {
    "gysin": {
        1: "e203db12fb6ace42d72364ea0863c8b90f93107eba04fa9cabeeb77467461134",
        2: "c37e35a980c88be610e918bdc3f1f479b16fcbb5d00d8921c4d066cc9bc6a8e9",
        3: "e5777d16eac7fa1641a3e64fdba9fd0f68d9b8559a0061101e969a9a331998f5",
        4: "793c086b3712b3aca4c6736b0347f68052d36373365746e660ad5df0164a250f",
        5: "c87590a7a1dfcc8b8034af0e6fd863115cf1d04184fd42597e9c1fab17cc6c86",
        6: "fc8b0862fa4a407bdb52ec6c7503be039202d72898b6e1c4f0e33826e87da93c",
    },
    "exp2-cover": {
        2: "06268c394b2ca7f23f4fc4ac6f13956bc8593e4bd7ba3b7fd48326442900715f",
        3: "38118ce2cb34e9e4710f44dd9228454b2f3cffca172cda1c67241e36671bb772",
        4: "55c401c68fa04d6eeaf71e0e5cc4acaf83d1858f8d072b464429a02199051e7a",
        5: "620b73ceafb05b16776ce8f80f06eec839cfcce86aae138a05d61506401e43f7",
        6: "df396e85bb8f73deaf5b350aa76f1bf67b46d370fc4f5cfb979c54c7986f9fa3",
    },
    "exp3-cover": {
        2: "913e9929111d68c8342473dd06bc5fa88a4f88ee8ca0509f51b9750f59757824",
        3: "bddc9f02c85701a7cdac1b5843927500ebba84b7930e8ec6b631c6663d55f3d4",
        4: "77e2833e8c95c095893d067a650f1e0a8e05531c0f61783d5c6c39a9caa3ccab",
        5: "6fd8702453125aba0000deebe6cd287462628834e95ebc0aef4614ef1f3b0ea9",
        6: "b3221f780208d8614c2cddf4c37463330298b4b4c90e169b87fdc42e6b8974f3",
    },
    "gluing": {
        1: "a2da998c656deae53a33369d8e3e94e749d3730f2a91c4a130951f86b89c1356",
        2: "f681a2a8d98c2b07ad7a69128b275df310a6fc581e95341010f836f68ffd4165",
        3: "dfbdfe2e671578d3b9400a067d88e5708da5313c79564eccf648497be8a650b8",
        4: "167d366ed36fb3acb176d074f77ca6a0899d87323c561290b308f68e25b30bca",
        5: "ccd33243448fd5d665897e2e7fa52253d10c9ba2c4415453d21aa9cee64e96d7",
        6: "0e46e0228a5818d4412fd7ba075c5a0be7f41821d79a4efebf4082724d1c2082",
    },
}

BUILDERS = {
    # Euler class of degree n + 1 on a base with one class in each degree 0..2n
    "gysin": lambda n: gysin_template(BettiTable((1,) * (2 * n + 1)), n, {0: 1}),
    "exp2-cover": lambda n: exp2_cover_template(n, expected_betti("E0", n).dims),
    "exp3-cover": lambda n: exp3_cover_template(
        n,
        expected_betti("C3", n).dims,
        expected_betti("exp2", n).dims,
        expected_betti("E", n).dims,
    ),
    # fixed inputs: the catalog's exp2 table, one class in each even degree
    # 0..2n, and the table of the product of two n-spheres
    "gluing": lambda n: exp3_gluing_template(
        n,
        expected_betti("exp2", n).dims,
        (1, 0) * n + (1,),
        (1,) + (0,) * (n - 1) + (2,) + (0,) * (n - 1) + (1,),
    ),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_template_builders_are_pinned(builder):
    got = {
        n: hashlib.sha256(BUILDERS[builder](n).to_json_text().encode()).hexdigest()
        for n in PINNED_TEMPLATES[builder]
    }
    assert got == PINNED_TEMPLATES[builder]


def test_extract_requires_forced_terms():
    t = seq(("X^0", None), "unconstrained", ("B", None), "unconstrained", ("C", 1))
    res = solve_template(t)
    with pytest.raises(ContractViolation):
        extract_degree_dims(t, res, "X^")
