"""The closed-form solve of exact-sequence templates."""

import hashlib
import json
import random

import pytest

from expk import verify
from expk.catalog import expected_betti
from expk.errors import ContractViolation
from expk.exact_sequences import (
    ARROW_KINDS,
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
from expk.simplicial import BettiTable, canonical_json


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
    assert res.dims[1] == (1, 1)


def test_alternating_sum_contradiction_certified():
    t = seq(("A", 1), "unconstrained", ("B", 3), "unconstrained", ("C", 1))
    res = solve_template(t)
    assert not res.consistent
    assert res.certificate


def test_annotations_force_values():
    t = seq(("A", None), "isomorphism", ("B", 2), "zero", ("C", None), "surjective", ("D", 3))
    res = solve_template(t)
    assert res.dims[1:5] == ((2, 2), (2, 2), (3, 3), (3, 3))


def test_under_constrained_leaves_intervals():
    t = seq(("A", None), "unconstrained", ("B", None), "unconstrained", ("C", 1))
    res = solve_template(t)
    assert res.consistent
    assert res.dims[1] == (0, None)


def test_solution_substitution_is_consistent():
    t = exp2_cover_template(3, BettiTable(expected_betti("E0", 3).dims))
    res = solve_template(t)
    assert res.consistent
    terms = tuple(
        Term(x.name, lo if lo == hi else x.dim) for x, (lo, hi) in zip(t.terms, res.dims)
    )
    again = solve_template(ExactTemplate(terms, t.arrows))
    assert again.consistent and all(lo == hi for lo, hi in again.dims)


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
        t = exp2_cover_template(n, BettiTable(expected_betti("E0", n).dims))
        res = solve_template(t)
        dims = [lo for lo, hi in res.dims]
        assert res.consistent and all(lo == hi for lo, hi in res.dims)
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
    assert ExactTemplate.from_json_dict(json.loads(text)).to_json_text() == text


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
    t = exp2_cover_template(n, BettiTable(expected_betti("E0", n).dims))
    got = extract_degree_dims(t, solve_template(t), "X^")
    assert got.matches(expected_betti("exp2", n).dims)


@pytest.mark.parametrize("n", range(2, 7))
def test_exp3_cover_reproduces_table(n):
    t = exp3_cover_template(
        n,
        BettiTable(expected_betti("C3", n).dims),
        BettiTable(expected_betti("exp2", n).dims),
        BettiTable(expected_betti("E", n).dims),
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
    t = exp3_gluing_template(
        2,
        BettiTable((1, 0, 1, 0, 1)),
        BettiTable((1, 0, 1, 0, 1, 0, 1)),
        BettiTable((1, 0, 2, 0, 1)),
    )
    got = extract_degree_dims(t, solve_template(t), "X^")
    assert got.matches(expected_betti("exp3", 2).dims)
    t = exp3_gluing_template(1, BettiTable((1, 1)), BettiTable((1, 1)), BettiTable((1, 2, 1)))
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
    "exp2-cover": lambda n: exp2_cover_template(n, BettiTable(expected_betti("E0", n).dims)),
    "exp3-cover": lambda n: exp3_cover_template(
        n,
        BettiTable(expected_betti("C3", n).dims),
        BettiTable(expected_betti("exp2", n).dims),
        BettiTable(expected_betti("E", n).dims),
    ),
    # fixed inputs: the catalog's exp2 table, one class in each even degree
    # 0..2n, and the table of the product of two n-spheres
    "gluing": lambda n: exp3_gluing_template(
        n,
        BettiTable(expected_betti("exp2", n).dims),
        BettiTable((1, 0) * n + (1,)),
        BettiTable((1,) + (0,) * (n - 1) + (2,) + (0,) * (n - 1) + (1,)),
    ),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_template_builders_are_pinned(builder):
    got = {
        n: hashlib.sha256(BUILDERS[builder](n).to_json_text().encode()).hexdigest()
        for n in PINNED_TEMPLATES[builder]
    }
    assert got == PINNED_TEMPLATES[builder]


# sha256 of the canonical JSON of each builder template's solution, recorded
# from the interval-propagation solver the closed-form solve replaced
PINNED_SOLUTIONS = {
    "gysin": {
        1: "2e28933d725b1472031c3069f1c13b3ec99a5d073b46dbb8644672b0c0dd2980",
        2: "16e16d9f151140d62602dfeeebce4918e527af2ba78c05c38c60891d5893e63c",
        3: "23521d645b5c0c07e3e741a80382ea96475441e64849fb4f357e47669d0170cb",
        4: "783572d42f170ad9354aa9ded415f0aea09a3e3055279804f4bdf67c435be3c7",
        5: "708d971a6929bab75c9b44453a3df755ec58bb3a46890402cb67cb9406b4602c",
        6: "c198bc2ed69fe8665a1f3b3be832485c146e608e549aac4fc68023c6d58e717c",
    },
    "exp2-cover": {
        2: "13fdc03cc79fe1936631630a4540b6c1173c821b15cd2419fc18480f8ec35592",
        3: "c0afa9b78e8eee2e271886063881695e7d5b85d226bbd8b586428b6542bd8afc",
        4: "d988bd2636f92e92eeb977fe1f1257ccf09ca77b8192c0c96ca79954a380dfb6",
        5: "e310c2c1259667191332ccec0bb9ecaeb750fa8d0a9ae95a37012b8461a157a0",
        6: "4932bd3b53c4ff287521617639b30719622497420e5713638f1721ab7265ed99",
    },
    "exp3-cover": {
        2: "11698972a764108052fea6ec1e47579ce91fe647d28c6952f194700676239430",
        3: "38607d9beaaaa9193360ed128dede11a2048b1c94d0e25a1b4ba2ddadc411670",
        4: "bfab99c279b7cb2c91a62d395489c72ea3576715557a33ba129d7ed6515ef76a",
        5: "3210b2b3b4d5df62afc31eed19c6e13a2e034a6c0a1b5592d7120b2966da9a58",
        6: "9d0a8a068861b29d613527dc6037fba8bd80557b7eff02ecd686f763a0ce3ffd",
    },
    "gluing": {
        1: "737e3b1da41b195b00a203529bf6015fe6a80e70f4325464fbdd7b9af3c54a10",
        2: "3225b90fdafb6ae280a1014ce10da05c53512bee79a8ebf98f4739432f1c847c",
        3: "63449535385026f097a9e7c9d36dd6b0bb450465861547c27073da27be67154e",
        4: "f7f7ea2cdff27ba53ab44708d34836fd0cb009326afe22b2b3b3d13eaeb81ade",
        5: "9d26fe2a14110f13a76fcd03b3acba2c7cab396570b5c23aa01ea86d862f9a55",
        6: "f803c01014a7cd926e464569da47184079470002d8352eba6d3237b2a3567df4",
    },
}

# the same digests for every template a lesolve-* row solves, in call order
PINNED_ROW_SOLUTIONS = {
    "lesolve-c3-crosscheck": [
        "7a8d2cba4b0d90d0f032da8581f1c9f03d06cb8700aac6f323a4463e1751bc5c",
        "f8e670e078b2f1bf7d36ac0503ee1398d57e947958bf5e31a5b51cda5c57858b",
        "b9304bd949a9d2955806618bc9cc778412c5c9462bd92c36d04acd2c2c4211ce",
        "35a95ae68b27b0f97e5d8952de85258f52ea7a71c65b0954c2b3283184bde7df",
        "45a992b2c2e34e07db874d411f0c9b0b775733176a87f8830bd4394b05053da4",
        "d3bd42119fc4faea46f46702b01d4d6b8fa360b33c9bf59af0dd4bd5796443d3",
    ],
    "lesolve-exp2-cover": [
        "13fdc03cc79fe1936631630a4540b6c1173c821b15cd2419fc18480f8ec35592",
        "c0afa9b78e8eee2e271886063881695e7d5b85d226bbd8b586428b6542bd8afc",
        "d988bd2636f92e92eeb977fe1f1257ccf09ca77b8192c0c96ca79954a380dfb6",
        "e310c2c1259667191332ccec0bb9ecaeb750fa8d0a9ae95a37012b8461a157a0",
        "4932bd3b53c4ff287521617639b30719622497420e5713638f1721ab7265ed99",
    ],
    "lesolve-exp3-cover": [
        "11698972a764108052fea6ec1e47579ce91fe647d28c6952f194700676239430",
        "38607d9beaaaa9193360ed128dede11a2048b1c94d0e25a1b4ba2ddadc411670",
        "bfab99c279b7cb2c91a62d395489c72ea3576715557a33ba129d7ed6515ef76a",
        "3210b2b3b4d5df62afc31eed19c6e13a2e034a6c0a1b5592d7120b2966da9a58",
        "9d0a8a068861b29d613527dc6037fba8bd80557b7eff02ecd686f763a0ce3ffd",
    ],
    "lesolve-gluing": [
        "c2c33e265d326a6f027b22e2a6c372a21f6d897cffc979a4186f99449f31983d",
        "b32762904c04fc1e2b8ea43e2939cb53829eb43692f3db4553cf55e17dc09686",
    ],
    "lesolve-gysin-e0": [
        "2e28933d725b1472031c3069f1c13b3ec99a5d073b46dbb8644672b0c0dd2980",
        "83ce8fd3bfd075ea4e49737da127b75cd5157c28062074971fed98ce39cc2870",
        "b1764395f19b1cbe0ac100d9ad3ecfbb86d8a656047acbdad3d120edf4378a62",
        "ff11dc47b7fddc6e44170f1c396e09ce5d38661974c9263484f4ff8349aaf71d",
        "a840215baed31a70b7850edf9870bf5719dffd3b11216285c2278df79065272d",
    ],
}


def _solution_digest(template, result):
    return hashlib.sha256(canonical_json(result.to_json_dict(template)).encode()).hexdigest()


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_builder_solutions_are_pinned(builder):
    got = {
        n: _solution_digest(BUILDERS[builder](n), solve_template(BUILDERS[builder](n)))
        for n in PINNED_SOLUTIONS[builder]
    }
    assert got == PINNED_SOLUTIONS[builder]


def test_row_solutions_are_pinned(monkeypatch):
    got = {}

    def recording(t):
        result = solve_template(t)
        got.setdefault(row, []).append(_solution_digest(t, result))
        return result

    monkeypatch.setattr(verify, "solve_template", recording)
    for row in sorted(PINNED_ROW_SOLUTIONS):
        assert verify.run_verify(scope=[row]).passed
    assert got == PINNED_ROW_SOLUTIONS


def test_extract_requires_forced_terms():
    t = seq(("X^0", None), "unconstrained", ("B", None), "unconstrained", ("C", 1))
    res = solve_template(t)
    with pytest.raises(ContractViolation):
        extract_degree_dims(t, res, "X^")


def between_zeros(dims, arrows):
    """The template 0 -> dims[0] -> ... -> dims[-1] -> 0; an arrow may be a kind."""
    terms = (Term("0", 0),) + tuple(Term(name, d) for name, d in dims) + (Term("0", 0),)
    return ExactTemplate(terms, tuple(Arrow(a) if isinstance(a, str) else a for a in arrows))


def test_injectivity_on_both_sides_of_a_known_term_is_inconsistent():
    # B = rank(A -> B) + rank(B -> C); injectivity out of B and out of C pins
    # both to 0, which B = 1 forbids
    t = between_zeros(
        (("A", None), ("B", 1), ("C", None), ("D", None)),
        ("injective", "injective", "injective", "isomorphism", "zero"),
    )
    res = solve_template(t)
    assert not res.consistent
    assert res.certificate == "injectivity of arrow C -> D"


def test_injectivity_further_along_forces_an_unknown_term():
    # C -> D injective pins rank(B -> C) to 0, so B = rank(A -> B) = A = 1
    t = between_zeros(
        (("A", 1), ("B", None), ("C", None), ("D", None)),
        ("unconstrained",) * 3 + ("injective", "unconstrained"),
    )
    res = solve_template(t)
    assert res.consistent
    assert res.dims[2:5] == ((1, 1), (0, None), (0, None))


def enumerate_solutions(t, cap):
    """Every (dims, ranks) of ``t`` with each arrow's rank in 0..cap.

    Reads the annotations as written (an injective arrow's rank is the
    dimension of its source, and so on), not as the solver's rank pins.
    """
    chains = [(0,)]  # ranks into terms[0] .. terms[i]
    for i, term in enumerate(t.terms):
        choices = (0,) if i == len(t.terms) - 1 else range(cap + 1)
        chains = [r + (v,) for r in chains for v in choices if term.dim in (None, r[-1] + v)]
    out = []
    for r in chains:
        dims = [r[i] + r[i + 1] for i in range(len(t.terms))]
        ok = True
        for j, a in enumerate(t.arrows):
            rank = r[j + 1]
            ok &= a.kind not in ("zero", "rank") or rank == (a.rank or 0)
            ok &= a.kind not in ("injective", "isomorphism") or rank == dims[j]
            ok &= a.kind not in ("surjective", "isomorphism") or rank == dims[j + 1]
        if ok:
            out.append((dims, r[1:-1]))
    return out


def allowed_certificates(t):
    """Every constraint of ``t`` a certificate may name."""
    out = {f"exactness at term {x.name!r}" for x in t.terms}
    for a, src, dst in zip(t.arrows, t.terms, t.terms[1:]):
        arrow = f"arrow {src.name} -> {dst.name}"
        if a.kind in ("zero", "rank"):
            out.add(f"rank pin on {arrow}")
        if a.kind in ("injective", "isomorphism"):
            out.add(f"injectivity of {arrow}")
        if a.kind in ("surjective", "isomorphism"):
            out.add(f"surjectivity of {arrow}")
    return out


def test_solver_matches_enumeration_on_random_templates():
    rng = random.Random(14)
    cap = 8  # over every bounded value: dims and ranks <= 3 keep those <= 6
    inconsistent = unbounded = 0
    for _ in range(2000):
        names = "ABCD"[: rng.randint(0, 4)]
        dims = [(x, None if rng.random() < 0.4 else rng.randint(0, 3)) for x in names]
        kinds = rng.choices(ARROW_KINDS, weights=(4, 1, 1, 1, 1, 1), k=len(names) + 1)
        arrows = [Arrow(k, rng.randint(0, 3) if k == "rank" else None) for k in kinds]
        t = between_zeros(dims, arrows)
        res = solve_template(t)
        solutions = enumerate_solutions(t, cap)
        assert res.consistent == bool(solutions), t
        if not solutions:
            inconsistent += 1
            assert res.certificate in allowed_certificates(t), (t, res.certificate)
            continue
        columns = list(zip(*(d for d, _ in solutions))) + list(zip(*(r for _, r in solutions)))
        for values, (lo, hi) in zip(columns, res.dims + res.ranks, strict=True):
            assert lo == min(values), t
            assert (hi is None) == (max(values) >= cap), t
            assert hi is None or hi == max(values), t
            unbounded += hi is None
    assert 500 < inconsistent < 1500 and unbounded > 100, (inconsistent, unbounded)
