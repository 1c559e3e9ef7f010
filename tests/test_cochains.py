"""Cup products, cup-i products, squares, and coordinates in a basis."""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from expk import cochains
from expk.cochains import (
    coboundary,
    cohomologous,
    cup,
    cup_i,
    express_in_basis,
    is_coboundary,
    random_cochain,
    ring_table,
    square_coordinates,
    steenrod_square,
    unit_class,
)
from expk.complexes import projective_plane, torus
from expk.errors import BasisSpanError, ContractViolation
from expk.gf2 import Gf2Matrix, Gf2Vector
from expk.simplicial import ChainModel, CochainClass
from expk.spaces import SpaceSpec, build_space, exp_subsets, sphere, sym_power


@pytest.fixture(scope="module")
def t2():
    return torus()


@pytest.fixture(scope="module")
def rp2():
    return projective_plane()


@pytest.fixture(scope="module")
def exp2_s2():
    return exp_subsets(sphere(2, 5), 2)


def test_cup_with_unit_is_identity(t2):
    one = unit_class(t2)
    for d in (0, 1, 2):
        for c in t2.cohomology_basis(d):
            assert cohomologous(t2, cup(t2, one, c), c)
            assert cohomologous(t2, cup(t2, c, one), c)


def test_torus_cup_structure(t2):
    a, b = t2.cohomology_basis(1)
    h2 = t2.cohomology_basis(2)
    assert express_in_basis(t2, cup(t2, a, b), h2).to_bits().tolist() == [1]
    assert express_in_basis(t2, cup(t2, a, a), h2).to_bits().tolist() == [0]
    assert express_in_basis(t2, cup(t2, b, b), h2).to_bits().tolist() == [0]
    # cross-check: the degree-1 pairing matrix has full rank (duality)
    pairing = np.array(
        [
            [express_in_basis(t2, cup(t2, x, y), h2).to_int() for y in (a, b)]
            for x in (a, b)
        ]
    )
    assert np.linalg.matrix_rank(pairing) == 2


def test_exp2_sphere2_top_square_is_cup_square(exp2_s2):
    g2 = exp2_s2.cohomology_basis(2)[0]
    h4 = exp2_s2.cohomology_basis(4)
    assert express_in_basis(exp2_s2, cup(exp2_s2, g2, g2), h4).to_bits().tolist() == [1]


def test_cup0_equals_cup_on_cocycles(t2):
    a, b = t2.cohomology_basis(1)
    assert cup_i(t2, a, b, 0).support == cup(t2, a, b).support


def test_cup_requires_cocycles(t2):
    # closure is asked of the model, so a hand-built non-cocycle is caught
    rng = np.random.default_rng(1)
    v = random_cochain(t2, 1, rng).support
    while t2.is_cocycle(1, v):
        v = random_cochain(t2, 1, rng).support
    c = CochainClass(1, v)
    a, b = t2.cohomology_basis(1)
    for call in (
        lambda: cup(t2, c, c),
        lambda: cup(t2, a, c),
        lambda: steenrod_square(t2, 1, c),
        lambda: express_in_basis(t2, c, [a, b]),
    ):
        with pytest.raises(ContractViolation):
            call()
    # the torus's level 3, its cap, holds no nondegenerate simplex: closed
    top = cup(t2, a, t2.cohomology_basis(2)[0])
    assert top.degree == t2.level_cap and t2.nondeg_count(top.degree) == 0
    assert express_in_basis(t2, top, []) == Gf2Vector.zeros(0)


def test_cup_i_and_random_cochains_compute_no_coboundary(t2, monkeypatch):
    calls = []
    apply = type(t2).apply_coboundary

    def counted(model, degree, support):
        calls.append(degree)
        return apply(model, degree, support)

    monkeypatch.setattr(type(t2), "apply_coboundary", counted)
    a, b = t2.cohomology_basis(1)
    for i in (0, 1):
        cup_i(t2, a, b, i)
    random_cochain(t2, 1, np.random.default_rng(0))
    assert calls == []
    coboundary(t2, a)
    assert calls == [1]


def test_square_coordinates_check_each_square_once(monkeypatch):
    model = build_space(SpaceSpec("exp", n=3, k=2))
    calls = []
    apply = type(model).apply_coboundary

    def counted(m, degree, support):
        calls.append(degree)
        return apply(m, degree, support)

    monkeypatch.setattr(type(model), "apply_coboundary", counted)
    assert square_coordinates(model, 2, 3) == [[1]]
    assert square_coordinates(model, 3, 3) == [[1]]
    assert calls == [3, 5, 3, 6]  # each input and each square, once
    # a square that is not closed still fails its self-check
    rng = np.random.default_rng(0)
    monkeypatch.setattr(
        cochains, "cup_i", lambda s, a, b, i: random_cochain(s, 2 * a.degree - i, rng)
    )
    with pytest.raises(AssertionError):
        square_coordinates(model, 2, 3)


def test_ring_table_checks_each_basis_class_once(monkeypatch):
    model = torus()
    calls = []
    apply = type(model).apply_coboundary

    def counted(m, degree, support):
        calls.append(degree)
        return apply(m, degree, support)

    monkeypatch.setattr(type(model), "apply_coboundary", counted)
    ring_table(model)
    assert len(calls) == 15  # 4 basis classes, then 11 products
    # a basis class that is not closed fails the table's self-check
    rng = np.random.default_rng(0)
    v = random_cochain(model, 1, rng)
    while model.is_cocycle(1, v.support):
        v = random_cochain(model, 1, rng)
    basis = type(model).cohomology_basis
    monkeypatch.setattr(
        type(model), "cohomology_basis", lambda m, d: [v] if d == 1 else basis(m, d)
    )
    with pytest.raises(AssertionError):
        ring_table(model)


def test_squares_build_no_boundary_matrix(monkeypatch):
    models = [
        build_space(SpaceSpec(kind, n=n, k=k))
        for kind, n, k in (("exp", 2, 2), ("exp", 3, 2), ("sym", 2, 3))
    ]
    built = []
    init, triplets = Gf2Matrix.__init__, Gf2Matrix.from_triplets.__func__
    monkeypatch.setattr(
        Gf2Matrix, "__init__", lambda m, *a: built.append("init") or init(m, *a)
    )
    monkeypatch.setattr(
        Gf2Matrix,
        "from_triplets",
        classmethod(lambda cls, *a: built.append("triplets") or triplets(cls, *a)),
    )
    for model, (i, d) in zip(models, ((2, 2), (2, 3), (2, 2))):
        assert square_coordinates(model, i, d) == [[1]]
    assert square_coordinates(models[1], 3, 3) == [[1]]
    assert built == []


def test_cup_i_index_range(t2):
    a, b = t2.cohomology_basis(1)
    with pytest.raises(ContractViolation):
        cup_i(t2, a, b, 2)
    with pytest.raises(ContractViolation):
        cup_i(t2, a, b, -1)


def test_cup_degree_overflow(t2):
    h2 = t2.cohomology_basis(2)[0]
    with pytest.raises(ContractViolation):
        cup_i(t2, h2, h2, 0)  # degree 4 over the cap of 3


@pytest.mark.parametrize("model_name", ["torus", "rp2", "exp2_s2", "sym2_s1"])
def test_coboundary_identity_on_random_cochains(model_name, t2, rp2, exp2_s2):
    models = {
        "torus": t2,
        "rp2": rp2,
        "exp2_s2": exp2_s2,
        "sym2_s1": sym_power(sphere(1, 3), 2),
    }
    s = models[model_name]
    rng = np.random.default_rng(20240811)
    top = s.top_nondegenerate_level()
    checked = 0
    while checked < 100:
        p = int(rng.integers(1, max(top, 2)))
        q = int(rng.integers(1, max(top, 2)))
        i = int(rng.integers(0, min(p, q) + 1))
        if p + q - i + 1 > min(s.level_cap, top + 1):
            continue
        a = random_cochain(s, p, rng)
        b = random_cochain(s, q, rng)
        lhs = coboundary(s, cup_i(s, a, b, i)).support
        rhs = (
            cup_i(s, coboundary(s, a), b, i).support
            ^ cup_i(s, a, coboundary(s, b), i).support
        )
        if i > 0:
            rhs = rhs ^ cup_i(s, a, b, i - 1).support ^ cup_i(s, b, a, i - 1).support
        assert lhs == rhs, (p, q, i)
        checked += 1


CUP_I_DIGEST = "189a693d8a54e897e03971e9874848d86360a85ad147f34d4a26dd0f6aad4e19"


def test_chain_level_cup_i_values_are_pinned(t2, rp2):
    """Every output bit of cup_i on random cochains, across both sphere bases."""
    models = [
        t2,
        rp2,
        build_space(SpaceSpec("exp", n=2, k=2)),
        build_space(SpaceSpec("sym", n=2, k=3, base="one-vertex")),
        build_space(SpaceSpec("exp", n=3, k=3, base="one-vertex")),
    ]
    h = hashlib.sha256()
    for seed, m in enumerate(models):
        rng = np.random.default_rng(seed)
        cap = m.level_cap
        for p in range(cap + 1):
            for q in range(cap + 1):
                for i in range(min(p, q) + 1):
                    if p + q - i > cap or not (m.nondeg_count(p) and m.nondeg_count(q)):
                        continue
                    a, b = random_cochain(m, p, rng), random_cochain(m, q, rng)
                    h.update(bytes(cup_i(m, a, b, i).support.to_bits()))
    assert h.hexdigest() == CUP_I_DIGEST


def test_top_cup_i_of_cochain_with_itself_is_evaluation(t2):
    rng = np.random.default_rng(3)
    for p in (1, 2):
        c = random_cochain(t2, p, rng)
        sq0 = cup_i(t2, c, c, p)
        assert sq0.support == c.support  # plain squaring of the values


def test_sq0_is_identity_on_all_basis_classes(t2, rp2, exp2_s2):
    for s in (t2, rp2, exp2_s2, sphere(2, 4)):
        for d in range(s.top_nondegenerate_level() + 1):
            for c in s.cohomology_basis(d):
                assert cohomologous(s, steenrod_square(s, 0, c), c)


def test_sq1_on_projective_plane(rp2):
    g1 = rp2.cohomology_basis(1)[0]
    h2 = rp2.cohomology_basis(2)
    image = steenrod_square(rp2, 1, g1)
    assert express_in_basis(rp2, image, h2).to_bits().tolist() == [1]
    # equals the cup square in the top degree
    assert cohomologous(rp2, image, cup(rp2, g1, g1))


def test_sq2_on_exp2_sphere2(exp2_s2):
    g2 = exp2_s2.cohomology_basis(2)[0]
    h4 = exp2_s2.cohomology_basis(4)
    image = steenrod_square(exp2_s2, 2, g2)
    assert express_in_basis(exp2_s2, image, h4).to_bits().tolist() == [1]


def test_squares_on_exp2_sphere3():
    s = exp_subsets(sphere(3, 7), 2)
    g3 = s.cohomology_basis(3)[0]
    for i, target in ((2, 5), (3, 6)):
        image = steenrod_square(s, i, g3)
        coords = express_in_basis(s, image, s.cohomology_basis(target))
        assert coords.to_bits().tolist() == [1]


def test_square_on_sym3_sphere2_hits_generator():
    s = sym_power(sphere(2, 7), 3)
    g2 = s.cohomology_basis(2)[0]
    image = steenrod_square(s, 2, g2)
    coords = express_in_basis(s, image, s.cohomology_basis(4))
    assert coords.to_bits().tolist() == [1]


def test_square_vanishes_above_degree(t2):
    a = t2.cohomology_basis(1)[0]
    out = steenrod_square(t2, 2, a)
    assert out.degree == 3 and is_coboundary(t2, out)


def test_square_additivity(rp2, t2):
    for s in (t2, rp2):
        basis = s.cohomology_basis(1)
        for i in (0, 1):
            for x in basis:
                for y in basis:
                    lhs = steenrod_square(
                        s, i, CochainClass(1, x.support ^ y.support)
                    )
                    rhs_support = (
                        steenrod_square(s, i, x).support
                        ^ steenrod_square(s, i, y).support
                    )
                    rhs = CochainClass(lhs.degree, rhs_support)
                    assert cohomologous(s, lhs, rhs)


def test_square_and_cup_representative_independence(t2):
    rng = np.random.default_rng(5)
    a, b = t2.cohomology_basis(1)
    h2 = t2.cohomology_basis(2)
    for _ in range(10):
        noise = coboundary(t2, random_cochain(t2, 0, rng))
        moved = CochainClass(1, a.support ^ noise.support)
        assert t2.is_cocycle(1, moved.support)
        assert cohomologous(t2, steenrod_square(t2, 1, moved), steenrod_square(t2, 1, a))
        assert express_in_basis(t2, cup(t2, moved, b), h2) == express_in_basis(
            t2, cup(t2, a, b), h2
        )


def test_cup_associative_and_commutative_on_basis(t2, rp2):
    for s in (t2, rp2):
        top = s.top_nondegenerate_level()
        bases = {d: s.cohomology_basis(d) for d in range(top + 1)}
        flat = [c for d in bases for c in bases[d]]
        for x in flat:
            for y in flat:
                if x.degree + y.degree > top:
                    continue
                assert cohomologous(s, cup(s, x, y), cup(s, y, x))
                for z in flat:
                    if x.degree + y.degree + z.degree > top:
                        continue
                    assert cohomologous(
                        s,
                        cup(s, cup(s, x, y), z),
                        cup(s, x, cup(s, y, z)),
                    )


def test_express_in_basis_unit_and_zero(t2):
    a, b = t2.cohomology_basis(1)
    assert express_in_basis(t2, a, [a, b]).to_bits().tolist() == [1, 0]
    zero = CochainClass(1, Gf2Vector.zeros(t2.nondeg_count(1)))
    assert express_in_basis(t2, zero, [a, b]).to_bits().tolist() == [0, 0]
    rng = np.random.default_rng(11)
    cob = coboundary(t2, random_cochain(t2, 0, rng))
    assert express_in_basis(t2, cob, [a, b]).to_bits().tolist() == [0, 0]


def test_express_in_basis_sum_plus_coboundary(t2):
    rng = np.random.default_rng(9)
    a, b = t2.cohomology_basis(1)
    noise = coboundary(t2, random_cochain(t2, 0, rng))
    c = CochainClass(1, a.support ^ b.support ^ noise.support)
    assert express_in_basis(t2, c, [a, b]).to_bits().tolist() == [1, 1]


def test_express_in_basis_span_error(t2):
    a, b = t2.cohomology_basis(1)
    with pytest.raises(BasisSpanError):
        express_in_basis(t2, a, [b])


def test_express_in_basis_rejects_dependent_classes(t2):
    a, b = t2.cohomology_basis(1)
    both = CochainClass(1, a.support ^ b.support)
    for c, basis in ((both, [a, b, both]), (a, [a, a])):
        with pytest.raises(ContractViolation):
            express_in_basis(t2, c, basis)


def test_cochain_length_must_fit_its_degree(t2):
    a, b = t2.cohomology_basis(1)
    short = CochainClass(1, Gf2Vector.zeros(3))
    for call in (
        lambda: express_in_basis(t2, short, [a, b]),
        lambda: express_in_basis(t2, a, [short]),
        lambda: is_coboundary(t2, short),
    ):
        with pytest.raises(ContractViolation):
            call()


def test_shared_spans_under_threads():
    # Threads share one model's cached coboundary spans; each caller adds
    # its basis to a copy, so every thread sees the serial ring table.
    expected = ring_table(torus())
    model = torus()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(ring_table, model) for _ in range(8)]
            tables = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(t == expected for t in tables)


def test_ring_table_structure(t2):
    table = ring_table(t2)
    doc = table.to_json_dict()
    assert doc["format"] == "ring-table/1"
    degrees = dict(table.basis_labels)
    assert len(degrees[1]) == 2 and len(degrees[2]) == 1
    products = dict(table.products)
    assert products[(1, 0, 1, 1)] == products[(1, 1, 1, 0)]


class ThreeMembers(ChainModel):
    """A chain model that reads another only through the base's three members."""

    def __init__(self, model):
        super().__init__()
        self._model = model
        self.level_cap = model.level_cap

    def nondeg_count(self, n):
        return self._model.nondeg_count(n)

    def restrict(self, n, kept):
        return self._model.restrict(n, kept)


@pytest.mark.parametrize(
    "build",
    [
        torus,
        projective_plane,
        lambda: build_space(SpaceSpec("exp", n=2, k=2)),
        lambda: build_space(SpaceSpec("sym", n=2, k=3)),
        lambda: build_space(
            SpaceSpec("exp", n=2, k=3, base="one-vertex", normalized=True)
        ),
    ],
    ids=["torus", "rp2", "exp2_s2", "sym3_s2", "exp3_s2_normalized"],
)
def test_the_chain_layer_needs_only_three_members(build):
    model = build()
    wrapped = ThreeMembers(model)
    assert wrapped.betti_table() == model.betti_table()
    for d in range(model.level_cap + 1):
        assert wrapped.cohomology_basis(d) == model.cohomology_basis(d)
    assert ring_table(wrapped) == ring_table(model)
    for d in range(model.top_nondegenerate_level() + 1):
        assert square_coordinates(wrapped, 0, d) == square_coordinates(model, 0, d)
