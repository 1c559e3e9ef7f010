"""Space constructors, quotients, the gluing square, and resource bounds."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from expk.cochains import square_coordinates
from expk.complexes import MOEBIUS_BAND_FACETS, projective_plane, torus
from expk.errors import ContractViolation, LevelSizeError
from expk.simplicial import SimplicialSetModel, operators
from expk.spaces import (
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
from expk import spaces
from expk.spaces import (
    _canonical,
    _combos,
    _increasing,
    _multiset_map,
    _multiset_rank,
    _rank,
)
from expk.verify import ModelCache


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
        assert x.validate() is None
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


ORACLE_CASES = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]


@pytest.mark.parametrize("n, k", ORACLE_CASES)
def test_exp_tables_meet_the_closed_form_oracles(n, k):
    table = build_space(SpaceSpec("exp", n=n, k=k, base="one-vertex")).betti_table()
    # Gal: χ(exp_k X) = Σ_{j=1..k} C(χ(X), j), with χ(Sⁿ) = 1 + (-1)ⁿ
    chi = 1 + (-1) ** n
    gal = sum(math.comb(chi, j) for j in range(1, k + 1))
    assert table.euler_characteristic() == gal
    # Tuffley: exp_k(Sⁿ) is (n+k-3)-connected
    assert table.dim(0) == 1
    assert all(table.dim(j) == 0 for j in range(1, n + k - 2))
    # Tuffley: exp_k(S¹) is S^k for odd k and S^(k-1) for even k
    if n == 1:
        top = k if k % 2 else k - 1
        assert table.matches([1] + [0] * (top - 1) + [1])


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
    # subset keys: −1 pads in front, and each repeat collapses into the padding
    keys = rng.integers(-1, 6, size=(500, width)).astype(np.int32)
    want = []
    for row in keys.tolist():
        entries = sorted(set(row) - {-1})
        want.append([-1] * (width - len(entries)) + entries)
    assert _canonical(keys, -1).tolist() == want


@pytest.mark.parametrize("repeat", [False, True])
def test_combos_match_itertools(repeat):
    enumerate_ = itertools.combinations_with_replacement if repeat else itertools.combinations
    for n in range(10):  # n = 0 and widths past n included
        for width in range(9):
            want = list(enumerate_(range(n), width))
            got = _combos(n, width, repeat)
            assert got.dtype == np.int32 and got.shape == (len(want), width)
            assert [tuple(r) for r in got.tolist()] == want


@pytest.mark.parametrize("repeat", [False, True])
def test_ranks_invert_combos(repeat):
    rank = _multiset_rank if repeat else _rank
    for n in range(8):
        for width in range(1, 5):
            rows = _combos(n, width, repeat)
            assert np.array_equal(rank(rows, n), np.arange(len(rows)))
    # sphere(1, 70)'s vertex rows, 71 of 3 vertices, rank as 71 of 73; the
    # weights that no such row reads overflow int64
    n = 3 if repeat else 73
    rows = _combos(n, 71, repeat)
    assert len(rows) == 2628 and np.array_equal(rank(rows, n), np.arange(2628))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ranking_through_an_increasing_table_ranks_its_image_rows(k):
    # levels of 1 to 7 ids: the first ones hold fewer ids than k
    keys = exp_subsets(one_vertex_sphere(1, 6), k).simplex_keys
    rng = np.random.default_rng(k)
    for size, subsets in zip(range(1, 8), keys):
        target = size + int(rng.integers(0, 6))
        table = np.sort(rng.choice(target, size, replace=False)).astype(np.int32)
        assert _increasing(table)
        multisets = _combos(size, k, repeat=True)
        want = _multiset_rank(_canonical(table[multisets]), target)
        columns = np.broadcast_to(table, (k, size))  # one table per key column
        got = _multiset_rank(multisets, target, through=columns)
        assert np.array_equal(got, want)
        # subset keys, padded in front with −1: rows shorter than k
        padded = np.append(table, np.int32(-1))  # the padding stays padding
        rows = subsets[rng.permutation(len(subsets))]  # any rows, in any order
        assert (rows[:, 0] == -1).any() == (k > 1)
        columns = np.broadcast_to(padded, (k, size + 1))
        got = _rank(rows, target, padded=True, through=columns)
        want = _rank(_canonical(padded[rows], -1), target, padded=True)
        assert np.array_equal(got, want)
        # the image subsets' positions by size, then lexicographically
        order = itertools.chain.from_iterable(
            itertools.combinations(range(target), s) for s in range(1, k + 1)
        )
        position = {c: i for i, c in enumerate(order)}
        images = [tuple(int(table[a]) for a in row if a >= 0) for row in rows.tolist()]
        assert got.tolist() == [position[c] for c in images]


def test_subset_ids_invert_the_key_order_of_exp_subsets():
    x = one_vertex_sphere(1, 6)  # levels of 1 to 7 ids
    for k in (1, 3, 5):
        keys = exp_subsets(x, k).simplex_keys
        for m, size in enumerate(x.level_sizes):
            # −1s, then an increasing subset; by size, then lexicographically
            want = [
                [-1] * (k - s) + list(c)
                for s in range(1, k + 1)
                for c in itertools.combinations(range(size), s)
            ]
            assert keys[m].tolist() == want
            ids = _rank(keys[m], size, padded=True)
            assert np.array_equal(ids, np.arange(len(keys[m])))


def test_from_complex_rejects_a_row_off_the_complex(monkeypatch):
    # every face and degeneracy row becomes (1, 2), which spans no face
    monkeypatch.setattr(
        spaces, "_vertex_rows", lambda keys, op, i: np.tile([1, 2], (len(keys), 1))
    )
    with pytest.raises(ContractViolation, match="off the complex"):
        from_complex([(0, 1), (2, 3)], 1)


def test_from_complex_budget_follows_the_level_sizes():
    path = [(v, v + 1) for v in range(29)]  # 30 vertices, 29 edges
    assert from_complex(path, 3, max_level_size=1000).level_sizes == [30, 59, 88, 117]
    with pytest.raises(LevelSizeError) as refused:
        from_complex(path, 3, max_level_size=100)
    assert (refused.value.level, refused.value.size) == (3, 117)
    # each facet's multisets are counted before they are enumerated
    with pytest.raises(LevelSizeError) as refused:
        from_complex([tuple(range(6))], 6, max_level_size=10)
    assert (refused.value.level, refused.value.size) == (1, 21)
    # ranks over all vertices are int64: a 2,001-vertex path builds at cap 3,
    # and at cap 7 its ranks would overflow, whatever the budget
    long_path = [(v, v + 1) for v in range(2000)]
    model = from_complex(long_path, 3)
    assert model.level_sizes == [2001, 4001, 6001, 8001]
    assert model.betti_table().dims == (1, 0)
    with pytest.raises(ContractViolation, match="overflow int64"):
        from_complex(long_path, 7, max_level_size=10**9)


def test_multiset_map_rejects_rows_that_are_not_target_keys():
    x = sphere(1, 3)
    square, sym2 = product(x, x), sym_power(x, 2)
    assert _multiset_map(x, square, sym2, lambda pairs: pairs, "quotient").commutes()
    for rows in (
        lambda pairs: pairs[:, :1],  # too narrow
        lambda pairs: pairs[:, [0, 0, 1]],  # too wide
        lambda pairs: pairs + 1,  # an id past the level
        lambda pairs: pairs - 1,  # a negative id
    ):
        with pytest.raises(ContractViolation, match="not keys of the target"):
            _multiset_map(x, square, sym2, rows, "bad")


def _relabelled(x, seed):
    """x with each level's ids shuffled by a seeded permutation."""
    rng = np.random.default_rng(seed)
    new_id = [rng.permutation(size).astype(np.int32) for size in x.level_sizes]
    old_id = [np.argsort(p).astype(np.int32) for p in new_id]

    def image(op, m, i, t, ids):
        return new_id[t][getattr(x, op)[m][i][old_id[m][ids]]]

    return SimplicialSetModel.from_operators(
        x.level_cap, x.level_sizes, image, f"relabelled {x.description}"
    )


@pytest.mark.parametrize("x", [sphere(1, 4), one_vertex_sphere(2, 7)], ids=["bd-s1", "ov-s2"])
def test_quotients_of_relabelled_spheres_keep_their_tables(x):
    shuffled = _relabelled(x, 7)
    assert shuffled.validate() is None
    # sphere degeneracies skip canonicalisation; shuffled ones cannot
    assert all(_increasing(t) for level in x.degeneracies for t in level)
    assert not all(_increasing(t) for level in shuffled.degeneracies for t in level)
    for build in (exp_subsets, sym_power):
        want, got = build(x, 3), build(shuffled, 3)
        assert got.validate() is None
        assert got.level_sizes == want.level_sizes
        assert got.betti_table().dims == want.betti_table().dims


def _every_simplex_from_operators(
    cls, cap, level_sizes, table, description="", simplex_keys=None
):
    """``from_operators`` asking the rule for every table on whole levels.

    The construction before faces of degenerate simplices came from the
    simplicial identities; the reference the derivation must reproduce.
    """
    faces = [[] for _ in range(cap + 1)]
    degeneracies = [[] for _ in range(cap + 1)]
    tables = {"faces": faces, "degeneracies": degeneracies}
    for kind, n, i, t in operators(cap):
        tables[kind][n].append(table(kind, n, i, t, slice(None)))
    return cls(cap, level_sizes, faces, degeneracies, description, simplex_keys)


def _gluing_square(x):
    square = product(x, x)
    alpha = diagonal_insertion(x, square=square, sym3=sym_power(x, 3))
    proj2 = sym_projection(x, 2, source=square, sym=sym_power(x, 2))
    return pushout(alpha, proj2)


def _relabelled_quotients(x):
    shuffled = _relabelled(x, 7)
    return shuffled, exp_subsets(shuffled, 3), sym_power(shuffled, 3)


DERIVATION_CASES = {
    **{
        f"{build.__name__}({n}, {cap})": (lambda build=build, n=n, cap=cap: build(n, cap))
        for build in (sphere, one_vertex_sphere)
        for n in (1, 2, 3)
        for cap in (n + 1, 3 * n + 1)
    },
    "exp3-s1": lambda: exp_subsets(sphere(1, 4), 3),
    "exp3-s2": lambda: exp_subsets(sphere(2, 7), 3),
    "exp3-s2-one-vertex": lambda: exp_subsets(one_vertex_sphere(2, 7), 3),
    "sym3-s2": lambda: sym_power(sphere(2, 7), 3),
    "sym3-s2-one-vertex": lambda: sym_power(one_vertex_sphere(2, 7), 3),
    "product": lambda: product(sphere(1, 4), one_vertex_sphere(2, 4)),
    "power": lambda: power(sphere(1, 4), 3),
    "pushout": lambda: _gluing_square(sphere(1, 4)),
    "torus": lambda: torus(),
    "relabelled-bd-s1": lambda: _relabelled_quotients(sphere(1, 4)),
    "relabelled-ov-s2": lambda: _relabelled_quotients(one_vertex_sphere(2, 7)),
}


@pytest.mark.parametrize("case", sorted(DERIVATION_CASES))
def test_faces_from_the_identities_equal_the_rule_on_every_simplex(monkeypatch, case):
    derived = DERIVATION_CASES[case]()
    monkeypatch.setattr(
        SimplicialSetModel, "from_operators", classmethod(_every_simplex_from_operators)
    )
    reference = DERIVATION_CASES[case]()
    if isinstance(derived, SimplicialSetModel):
        derived, reference = (derived,), (reference,)
    assert len(derived) == len(reference)
    for got, want in zip(derived, reference):
        assert got == want
        if isinstance(got, SimplicialSetModel):
            assert got.content_hash() == want.content_hash()
            for a, b in zip(got.nondegenerate, want.nondegenerate):
                assert np.array_equal(a, b)


def test_product_kunneth_tables():
    t = product(sphere(1, 3), sphere(1, 3))
    assert t.betti_table().dims == (1, 2, 1)
    q = product(sphere(2, 5), sphere(2, 5))
    assert q.betti_table().dims == (1, 0, 2, 0, 1)
    mixed = product(sphere(1, 4), sphere(2, 4))
    assert mixed.betti_table().dims == (1, 1, 1, 1)


def test_product_with_point_is_identity():
    s = sphere(2)
    assert product(s, from_complex([(0,)], s.level_cap)) == s


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


def test_gluing_maps_reject_prebuilt_models_of_another_space():
    x, y = sphere(1, 3), sphere(2, 3)
    with pytest.raises(ContractViolation, match="not keys of"):
        diagonal_insertion(x, sym3=sym_power(y, 3))
    with pytest.raises(ContractViolation, match="not keys of"):
        sym_projection(x, 2, sym=sym_power(y, 2))
    # a smaller target, and a source with ids past x's levels
    with pytest.raises(ContractViolation, match="not keys of"):
        sym_projection(y, 2, sym=sym_power(x, 2))
    with pytest.raises(ContractViolation, match="not keys of"):
        diagonal_insertion(x, square=product(y, y))


def test_gluing_maps_reject_models_read_back_from_a_cache(tmp_path):
    specs = [
        SpaceSpec("product", n=1, cap=3),
        SpaceSpec("power", n=1, k=3, cap=3),
        SpaceSpec("sym", n=1, k=3, cap=3),
    ]
    for spec in specs:  # built, so keyed, and stored
        assert ModelCache(tmp_path).model_for(spec).simplex_keys is not None
    cache = ModelCache(tmp_path)
    square, cube, sym3 = (cache.model_for(spec) for spec in specs)
    assert sym3.simplex_keys is None and not cache.warnings
    x = sphere(1, 3)
    with pytest.raises(ContractViolation, match="no simplex keys"):
        diagonal_insertion(x, square=square, sym3=sym3)
    with pytest.raises(ContractViolation, match="no simplex keys"):
        sym_projection(x, 3, source=cube, sym=sym3)
    with pytest.raises(ContractViolation, match="no simplex keys"):
        sym_projection(x, 3, source=power(x, 3), sym=sym3)

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
    assert m.validate() is None
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


def _identity(x):
    return SimplicialMapModel(x, x, [np.arange(s) for s in x.level_sizes])


def test_pushout_identity_maps():
    x = sphere(1, 3)
    glued, ia, ib = pushout(_identity(x), _identity(x))
    assert glued == x
    assert ia.commutes() and ib.commutes()


def test_pushout_source_mismatch():
    x, y = sphere(1, 3), sphere(2, 3)
    with pytest.raises(ContractViolation):
        pushout(_identity(x), _identity(y))


def test_pushout_square_commutes_and_maps_commute():
    x = sphere(1, 4)
    square = product(x, x)
    sym3 = sym_power(x, 3)
    proj2 = sym_projection(x, 2)
    alpha = diagonal_insertion(x, square=square, sym3=sym3)
    glued, ia, ib = pushout(alpha, proj2)
    assert glued.validate() is None
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
# enumerated directly and pushout classes labelled in numpy.  The four exp
# entries hash those keys with the padding moved to the front as −1:
# np.sort(np.where(key == level_size, -1, key), axis=1).
PINNED_SPACE_DIGESTS = {
    "exp2-s3": "1c2980684fb64b160839b4fd57aa1d4d2423b42b09fc475ffa712c2ef434925e",
    "exp3-s2": "3656ae3ae66b36cca4c25b9e71350b5d9de4eb73086847dd0825af0019ee2d99",
    "exp2-s2-one-vertex": "6ddf6dc2a21bd6d079ac4d40db8c1028a4f6c889bee5dfb1324075bf5af0a583",
    "exp3-s2-one-vertex": "ff5da0380b8ddf909f50f47ac9b7eb1573b1f896347f01541f2af0898444712a",
    "glued-s1": "a47c582962390e6c320ac6d2c99a40c58bd2035db8068812f201e627de335ed3",
    "glued-s2": "d4e3513edc98bb06714d1fc75afcfddb08b1e8f47ae74488b11640780fe9ee65",
    "insertion-s1": "95f60b466645fa2565fc04efac6236125e3600581302b8d5db5adb37ae92648a",
    "insertion-s2": "4a49059214257239c40bb485bd611c200620a17293a66d492d31229fa6c98c70",
    "projection-s1": "4011fcd06c25fc9593fcf1af7e7dc1a59984d88b44375c1900ae4558c10540c7",
    "projection-s2": "7c058aacb97d0c42bee89503fdcb2e7c81eece0fcad2aacda9b40dd08b30870d",
    "sym2-s2": "5033e9f26c86dc2ae3b7bf9713e719c065b34b262cbd998de67b80d34c1d5f60",
    "sym3-s1": "dd55cf5ca7f04f9c63665e3808a9ddcd2f637c01d11bce8cf1cc5504deb5a8ac",
    "sym3-s2": "92633e021b4b47d1cba53ff749316a01e5e250856bc85b3d3b510b08de6457c8",
    "sym3-s2-one-vertex": "f643e3e4469c30cade469e8902dad0776411577fb6d78dacc4011d243253163a",
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
    for kind, n, k in (("exp", 2, 2), ("exp", 2, 3), ("sym", 2, 3)):
        spec = SpaceSpec(kind, n=n, k=k, base="one-vertex")
        out[f"{kind}{k}-s{n}-one-vertex"] = build_space(spec)
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
    again = SpaceSpec.from_json_dict(json.loads(text))
    assert again.to_json_text() == text
    model = build_space(again)
    assert model.betti_table().dims == (1, 0, 0, 1)
    facets = SpaceSpec("complex", facets=((0, 1), (1, 2), (0, 2)))
    assert build_space(facets).betti_table().dims == (1, 1)


def test_space_spec_base_round_trips_and_defaults_to_boundary():
    spec = SpaceSpec("exp", n=3, k=3, base="one-vertex")
    text = spec.to_json_text()
    assert json.loads(text)["base"] == "one-vertex"
    again = SpaceSpec.from_json_dict(json.loads(text))
    assert again.base == "one-vertex" and again.to_json_text() == text
    default = SpaceSpec("exp", n=2, k=3)
    # the text every boundary spec had before the base field existed
    assert default.to_json_text() == (
        '{"cap":7,"format":"space-spec/1","k":3,"kind":"exp",'
        '"max_level_size":5000000,"n":2}'
    )
    again = SpaceSpec.from_json_dict(json.loads(default.to_json_text()))
    assert again.base == "boundary"
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
    # a field the kind does not read is refused, not dropped
    with pytest.raises(ContractViolation, match="facets"):
        SpaceSpec("exp", n=1, k=2, facets=((0, 1, 2),))
    with pytest.raises(ContractViolation, match="sphere dimension"):
        SpaceSpec("complex", n=1, facets=((0, 1),))
    with pytest.raises(ContractViolation, match="no k"):
        SpaceSpec("sphere", n=2, k=5)
    with pytest.raises(ContractViolation, match="no k"):
        SpaceSpec("product", n=1, k=2)
    with pytest.raises(ContractViolation, match="no k"):
        SpaceSpec("complex", k=2, facets=((0, 1),))
    exp_doc = {"format": "space-spec/1", "kind": "exp", "n": 1, "k": 2}
    with pytest.raises(ContractViolation, match="facets"):
        SpaceSpec.from_json_dict({**exp_doc, "facets": []})


def test_maps_reject_bad_shapes():
    from expk.spaces import SimplicialMapModel

    x = sphere(1, 3)
    with pytest.raises(ContractViolation):
        SimplicialMapModel(x, x, [np.zeros(2, dtype=np.int32)] * 4)
    bad = [np.arange(s, dtype=np.int32) for s in x.level_sizes]
    bad[0] = bad[0] + x.level_sizes[0]  # out of range
    with pytest.raises(ContractViolation):
        SimplicialMapModel(x, x, bad)
