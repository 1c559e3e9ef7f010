"""Space constructors, quotients, the gluing square, and resource bounds."""

import hashlib
import json
import math

import numpy as np
import pytest

from expk.cochains import square_coordinates
from expk.complexes import MOEBIUS_BAND_FACETS, projective_plane
from expk.errors import ContractViolation, LevelSizeError
from expk.simplicial import SimplicialSetModel
from expk.spaces import (
    SimplicialMapModel,
    SpaceSpec,
    build_space,
    compare_pushout_with_subsets,
    compare_sym2_with_subsets,
    diagonal_insertion,
    exp_subsets,
    from_complex,
    identity_map,
    one_vertex_sphere,
    point,
    power,
    product,
    pushout,
    sphere,
    sym_power,
    sym_projection,
)
from expk.spaces import _canonical


def test_sphere_counts_and_tables():
    s1 = sphere(1)
    assert s1.nondeg_count(0) == 3 and s1.nondeg_count(1) == 3
    assert s1.betti_table().dims == (1, 1)
    assert sphere(2).betti_table().dims == (1, 0, 1)


def test_sphere3_nondegenerate_euler_count():
    s3 = sphere(3, 4)
    counts = [s3.nondeg_count(n) for n in range(5)]
    assert counts == [5, 10, 10, 5, 0]
    assert 5 - 10 + 10 - 5 == 0


def test_sphere_preconditions():
    with pytest.raises(ContractViolation):
        sphere(0)
    with pytest.raises(ContractViolation):
        sphere(2, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_vertex_sphere_levels_and_table(n):
    for cap in (n + 1, n + 3):
        x = one_vertex_sphere(n, cap)
        assert x.validate().ok
        assert x.level_sizes == [math.comb(m, n) + 1 for m in range(cap + 1)]
        assert x.betti_table().dims == (1,) + (0,) * (n - 1) + (1,)
        # one vertex, one nondegenerate n-simplex
        assert [x.nondeg_count(m) for m in range(cap + 1)] == [
            int(m in (0, n)) for m in range(cap + 1)
        ]


def test_one_vertex_sphere_preconditions():
    with pytest.raises(ContractViolation):
        one_vertex_sphere(0)
    with pytest.raises(ContractViolation):
        one_vertex_sphere(3, 2)


@pytest.mark.parametrize("n, total", [(2, 77), (3, 2714)])
def test_one_vertex_exp3_nondegenerate_totals(n, total):
    model = build_space(SpaceSpec("exp", n=n, k=3, base="one-vertex"))
    assert sum(model.nondeg_count(m) for m in range(model.level_cap + 1)) == total


@pytest.mark.parametrize(
    "kind, n, k, squares",
    [("exp", 2, 2, [(2, 2)]), ("exp", 3, 2, [(2, 3), (3, 3)]), ("sym", 2, 3, [(2, 2)])],
)
def test_one_vertex_squares_send_generator_to_generator(kind, n, k, squares):
    model = build_space(SpaceSpec(kind, n=n, k=k, base="one-vertex"))
    for i, d in squares:
        assert square_coordinates(model, i, d) == [[1]]


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_canonical_rows_match_numpy_sort(width):
    rng = np.random.default_rng(width)
    rows = rng.integers(0, 6, size=(500, width)).astype(np.int32)
    before = rows.copy()
    assert np.array_equal(_canonical(rows), np.sort(rows, axis=1))
    # the old sentinel path: sort, mark repeats with the sentinel, sort again
    want = np.sort(rows, axis=1)
    want[:, 1:][want[:, 1:] == want[:, :-1]] = 6
    assert np.array_equal(_canonical(rows, 6), np.sort(want, axis=1))
    assert np.array_equal(rows, before)  # the input rows are left alone


def test_product_kunneth_tables():
    t = product(sphere(1, 3), sphere(1, 3))
    assert t.betti_table().dims == (1, 2, 1)
    q = product(sphere(2, 5), sphere(2, 5))
    assert q.betti_table().dims == (1, 0, 2, 0, 1)
    mixed = product(sphere(1, 4), sphere(2, 4))
    assert mixed.betti_table().dims == (1, 1, 1, 1)


def test_product_with_point_is_identity():
    s = sphere(2)
    assert product(s, point(s.level_cap)) == s


def test_product_cap_mismatch():
    with pytest.raises(ContractViolation):
        product(sphere(1, 3), sphere(1, 4))


def test_kunneth_dimension_pairing():
    for na, nb in ((1, 1), (1, 2), (2, 2)):
        cap = na + nb + 1
        a, b = sphere(na, cap), sphere(nb, cap)
        pt = product(a, b).betti_table()
        ta, tb = a.betti_table(), b.betti_table()
        for k in range(pt.max_degree + 1):
            assert pt.dim(k) == sum(ta.dim(i) * tb.dim(k - i) for i in range(k + 1))


def test_sym_power_tables():
    m = sym_power(sphere(1, 3), 2)
    assert m.betti_table().dims == (1, 1, 0)
    assert sym_projection(sphere(1, 3), 2, sym=m).commutes()
    m2 = sym_power(sphere(2, 5), 2)
    assert m2.betti_table().dims == (1, 0, 1, 0, 1)
    m3 = sym_power(sphere(2, 7), 3)
    assert m3.betti_table().dims == (1, 0, 1, 0, 1, 0, 1)



def test_sym_projection_rejects_models_of_another_width():
    x = sphere(1, 3)
    # a pair (a, b) must not be read as the multiset {0, a, b}
    with pytest.raises(ContractViolation):
        sym_projection(x, 3, source=product(x, x))
    with pytest.raises(ContractViolation):
        sym_projection(x, 2, sym=sym_power(x, 3))
    with pytest.raises(ContractViolation):
        diagonal_insertion(x, sym3=sym_power(x, 2))

def test_sym2_circle_against_hand_triangulated_moebius_band():
    # independent oracle: the band triangulated by hand, same pipeline
    band = from_complex(MOEBIUS_BAND_FACETS, 3)
    assert band.betti_table().dims == (1, 1, 0)
    got = sym_power(sphere(1, 3), 2)
    assert got.betti_table().matches(band.betti_table())


def test_exp_subsets_tables():
    assert exp_subsets(sphere(1, 3), 2).betti_table().dims == (1, 1, 0)
    assert exp_subsets(sphere(1, 4), 3).betti_table().dims == (1, 0, 0, 1)


def test_exp_subsets_identity_case():
    s = sphere(2)
    assert exp_subsets(s, 1) == s


def test_exp4_circle_is_classical_odd_sphere():
    # subsets of size <= 2m of the circle deformation retract onto the
    # (2m-1)-sphere, so the k = 4 table matches the k = 3 one
    m = exp_subsets(sphere(1, 5), 4)
    assert m.validate().ok
    assert m.betti_table().matches((1, 0, 0, 1))


def test_exp3_connectivity_range():
    for n in (1, 2):
        table = exp_subsets(sphere(n, 3 * n + 1), 3).betti_table()
        for k in range(1, n + 2):
            assert table.dim(k) == 0


def test_exp3_nondegenerate_vanish_above_3n():
    for n in (1, 2):
        m = exp_subsets(sphere(n, 3 * n + 1), 3)
        assert m.nondeg_count(3 * n + 1) == 0
        assert m.nondeg_count(3 * n) > 0


def test_diagonal_insertion_on_vertices():
    x = sphere(1, 3)
    square = product(x, x)
    sym3 = sym_power(x, 3)
    alpha = diagonal_insertion(x, square=square, sym3=sym3)
    assert alpha.commutes()
    keys = sym3.simplex_keys[0]
    for pid, (u, v) in enumerate(square.simplex_keys[0].tolist()):
        assert sorted([u, u, v]) == keys[alpha.level_maps[0][pid]].tolist()


def test_a_map_with_one_wrong_entry_does_not_commute():
    x = sphere(1, 3)
    alpha = diagonal_insertion(x)
    assert alpha.commutes()
    sizes = alpha.target.level_sizes
    for m in range(x.level_cap + 1):
        maps = [f.copy() for f in alpha.level_maps]
        maps[m][0] = (maps[m][0] + 1) % sizes[m]
        broken = SimplicialMapModel(alpha.source, alpha.target, maps)
        assert not broken.commutes(), m


def test_pushout_identity_maps():
    x = sphere(1, 3)
    glued, ia, ib = pushout(identity_map(x), identity_map(x))
    assert glued == x
    assert ia.commutes() and ib.commutes()


def test_pushout_source_mismatch():
    x, y = sphere(1, 3), sphere(2, 3)
    with pytest.raises(ContractViolation):
        pushout(identity_map(x), identity_map(y))


def test_pushout_square_commutes_and_maps_commute():
    x = sphere(1, 4)
    square = product(x, x)
    sym3 = sym_power(x, 3)
    proj2 = sym_projection(x, 2)
    alpha = diagonal_insertion(x, square=square, sym3=sym3)
    glued, ia, ib = pushout(alpha, proj2)
    assert glued.validate().ok
    assert ia.commutes() and ib.commutes()
    for m in range(x.level_cap + 1):
        assert np.array_equal(
            ia.level_maps[m][alpha.level_maps[m]],
            ib.level_maps[m][proj2.level_maps[m]],
        )


@pytest.mark.parametrize("n", [1, 2])
def test_pushout_matches_subsets_levelwise(n):
    ok, detail = compare_pushout_with_subsets(sphere(n, 3 * n + 1))
    assert ok, detail


@pytest.mark.parametrize("n", [1, 2])
def test_sym2_supports_match_exp2_levelwise(n):
    ok, detail = compare_sym2_with_subsets(sphere(n, 2 * n + 1))
    assert ok, detail


def test_from_complex_projective_plane():
    assert projective_plane().betti_table().dims == (1, 1, 1)


def test_from_complex_solid_triangle_contractible():
    solid = from_complex([(0, 1, 2)], 3)
    assert solid.betti_table().dims == (1, 0, 0)
    relabelled = from_complex([(-3, 0, 5)], 3)  # keys keep the given labels
    assert relabelled == solid
    assert relabelled.simplex_keys[0].tolist() == [[-3], [0], [5]]


def test_from_complex_boundary_tetrahedron_matches_sphere():
    import itertools

    shell = from_complex(list(itertools.combinations(range(4), 3)), 3)
    assert shell.betti_table().matches(sphere(2).betti_table())


def test_from_complex_rejects_unsorted_facets():
    with pytest.raises(ContractViolation):
        from_complex([(1, 0, 2)], 2)
    with pytest.raises(ContractViolation):
        from_complex([(0, 0, 1)], 2)
    with pytest.raises(ContractViolation):
        from_complex([], 2)


def test_level_size_budget_enforced():
    with pytest.raises(LevelSizeError) as err:
        exp_subsets(sphere(2, 7), 3, max_level_size=1000)
    assert err.value.level >= 0
    assert err.value.size > 1000
    with pytest.raises(LevelSizeError):
        sym_power(sphere(2, 7), 3, max_level_size=1000)
    with pytest.raises(LevelSizeError):
        power(sphere(2, 7), 3, max_level_size=1000)


def test_sym_power_budget_counts_multisets_not_tuples():
    x = sphere(1, 4)
    counts = [math.comb(lm + 2, 3) for lm in x.level_sizes]
    bound = max(counts)
    assert bound < max(lm**3 for lm in x.level_sizes)
    model = sym_power(x, 3, max_level_size=bound)
    assert model.level_sizes == counts
    assert model.betti_table().matches((1, 1))
    with pytest.raises(LevelSizeError):
        sym_power(x, 3, max_level_size=bound - 1)
    with pytest.raises(LevelSizeError):
        power(x, 3, max_level_size=bound)


def _discrete(size, description):
    return SimplicialSetModel(0, [size], [[]], [[]], description=description)


def _union_find_classes(la, lb, fm, gm):
    """Class of each element of A + B by a scan-order union-find (the oracle)."""
    parent = list(range(la + lb))

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for u, v in zip(fm.tolist(), (la + gm).tolist()):
        ru, rv = sorted((find(u), find(v)))
        parent[rv] = ru
    classes = {}
    return [classes.setdefault(find(e), len(classes)) for e in range(la + lb)]


@pytest.mark.parametrize("seed", range(6))
def test_pushout_of_discrete_models_matches_union_find(seed):
    rng = np.random.default_rng(seed)
    la, lb = int(rng.integers(1, 60)), int(rng.integers(1, 60))
    # a zigzag a0 - b0 - a1 - b1 - ... through shuffled ids needs several
    # propagation rounds; random extra pairs make both legs non-injective
    length = int(rng.integers(1, min(la, lb) + 1))
    pa, pb = rng.permutation(la)[:length], rng.permutation(lb)[:length]
    extra = int(rng.integers(0, 40))
    fm = np.concatenate([pa, pa[1:], rng.integers(0, la, extra)])
    gm = np.concatenate([pb, pb[:-1], rng.integers(0, lb, extra)])
    source = _discrete(fm.size, "source")
    a, b = _discrete(la, "A"), _discrete(lb, "B")
    f = SimplicialMapModel(source, a, [fm])
    g = SimplicialMapModel(source, b, [gm])
    glued, into_a, into_b = pushout(f, g)
    expect = _union_find_classes(la, lb, fm, gm)
    assert glued.level_sizes == [max(expect) + 1]
    assert into_a.level_maps[0].tolist() == expect[:la]
    assert into_b.level_maps[0].tolist() == expect[la:]


# sha256 of each model's content hash and simplex keys, and of each map's
# level maps, as the constructors built them before multisets were
# enumerated directly and pushout classes labelled in numpy.
PINNED_SPACE_DIGESTS = {
    "exp2-s3": "dce6810fc5e72f67228d9674f7d7106d6b5d7bb29ed910b988b11c9be3c65bc4",
    "exp3-s2": "23bc7f17129ac1271e8e4bfe5f06d19acfc4a8dad657579263b09cfacf6a0c3c",
    "glued-s1": "a47c582962390e6c320ac6d2c99a40c58bd2035db8068812f201e627de335ed3",
    "glued-s2": "d4e3513edc98bb06714d1fc75afcfddb08b1e8f47ae74488b11640780fe9ee65",
    "insertion-s1": "95f60b466645fa2565fc04efac6236125e3600581302b8d5db5adb37ae92648a",
    "insertion-s2": "4a49059214257239c40bb485bd611c200620a17293a66d492d31229fa6c98c70",
    "projection-s1": "4011fcd06c25fc9593fcf1af7e7dc1a59984d88b44375c1900ae4558c10540c7",
    "projection-s2": "7c058aacb97d0c42bee89503fdcb2e7c81eece0fcad2aacda9b40dd08b30870d",
    "sym2-s2": "5033e9f26c86dc2ae3b7bf9713e719c065b34b262cbd998de67b80d34c1d5f60",
    "sym3-s1": "dd55cf5ca7f04f9c63665e3808a9ddcd2f637c01d11bce8cf1cc5504deb5a8ac",
    "sym3-s2": "92633e021b4b47d1cba53ff749316a01e5e250856bc85b3d3b510b08de6457c8",
}


def _digest(model_or_map):
    """sha256 over a model's content hash and keys, or a map's level maps."""
    h = hashlib.sha256()
    if isinstance(model_or_map, SimplicialMapModel):
        arrays = model_or_map.level_maps
    else:
        text = model_or_map.to_json_text()  # what content_hash hashed before scheme 2
        h.update(hashlib.sha256(text.encode()).hexdigest().encode())
        arrays = model_or_map.simplex_keys or []
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int32)
        h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def _pinned_objects():
    out = {}
    for kind, n, k in (("sym", 2, 2), ("sym", 1, 3), ("sym", 2, 3), ("exp", 3, 2), ("exp", 2, 3)):
        out[f"{kind}{k}-s{n}"] = build_space(SpaceSpec(kind, n=n, k=k))
    for n in (1, 2):
        x = sphere(n, 3 * n + 1)
        square = product(x, x)
        alpha = diagonal_insertion(x, square=square, sym3=sym_power(x, 3))
        proj2 = sym_projection(x, 2, source=square, sym=sym_power(x, 2))
        out[f"insertion-s{n}"] = alpha
        out[f"projection-s{n}"] = proj2
        out[f"glued-s{n}"] = pushout(alpha, proj2)[0]
    return out


def test_models_and_maps_are_pinned():
    got = {name: _digest(obj) for name, obj in _pinned_objects().items()}
    assert got == PINNED_SPACE_DIGESTS


def test_space_spec_round_trip_and_build():
    spec = SpaceSpec("exp", n=1, k=3)
    text = spec.to_json_text()
    again = SpaceSpec.from_json_text(text)
    assert again.to_json_text() == text
    model = build_space(again)
    assert model.betti_table().dims == (1, 0, 0, 1)
    facets = SpaceSpec("complex", facets=((0, 1), (1, 2), (0, 2)))
    assert build_space(facets).betti_table().dims == (1, 1)


def test_space_spec_base_round_trips_and_defaults_to_boundary():
    spec = SpaceSpec("exp", n=3, k=3, base="one-vertex")
    text = spec.to_json_text()
    assert json.loads(text)["base"] == "one-vertex"
    again = SpaceSpec.from_json_text(text)
    assert again.base == "one-vertex" and again.to_json_text() == text
    default = SpaceSpec("exp", n=2, k=3)
    # the text every boundary spec had before the base field existed
    assert default.to_json_text() == (
        '{"cap":7,"format":"space-spec/1","k":3,"kind":"exp",'
        '"max_level_size":5000000,"n":2}'
    )
    assert SpaceSpec.from_json_text(default.to_json_text()).base == "boundary"
    assert SpaceSpec("exp", n=2, k=3, base="boundary") == default


def test_space_spec_validation():
    with pytest.raises(ContractViolation):
        SpaceSpec("nonsense", n=1)
    with pytest.raises(ContractViolation):
        SpaceSpec("sphere", n=2, base="nonsense")
    with pytest.raises(ContractViolation):
        SpaceSpec("complex", facets=((0, 1),), base="one-vertex")
    with pytest.raises(ContractViolation):
        SpaceSpec("sym", n=2)
    with pytest.raises(ContractViolation):
        SpaceSpec("complex")


def test_maps_reject_bad_shapes():
    from expk.spaces import SimplicialMapModel

    x = sphere(1, 3)
    with pytest.raises(ContractViolation):
        SimplicialMapModel(x, x, [np.zeros(2, dtype=np.int32)] * 4)
    bad = [np.arange(s, dtype=np.int32) for s in x.level_sizes]
    bad[0] = bad[0] + x.level_sizes[0]  # out of range
    with pytest.raises(ContractViolation):
        SimplicialMapModel(x, x, bad)
