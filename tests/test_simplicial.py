"""Simplicial-set models: identities, boundaries, Betti tables, bases."""

import hashlib
import itertools
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from expk.complexes import projective_plane, torus
from expk.errors import CapError, ContractViolation
from expk.gf2 import Gf2Span, Gf2Vector, relations
from expk.simplicial import BettiTable, SimplicialSetModel
from expk.spaces import (
    DEFAULT_MAX_LEVEL_SIZE,
    SpaceSpec,
    build_space,
    exp_subsets,
    from_complex,
    one_vertex_sphere,
    product,
    sphere,
    sym_power,
)
from expk.verify import CheckContext, ModelCache, _suite_models


def circle():
    return sphere(1, 3)


def test_point_model_validates():
    assert from_complex([(0,)], 2).validate() is None


def test_corrupted_face_pointer_reports_identity():
    s = sphere(1, 3)
    faces = [[f.copy() for f in fs] for fs in s.faces]
    # reroute one face of a 2-level simplex to break d_i d_j = d_{j-1} d_i
    faces[2][0][0] = (faces[2][0][0] + 1) % s.level_sizes[1]
    broken = SimplicialSetModel(s.level_cap, s.level_sizes, faces, s.degeneracies)
    violation = broken.validate()
    assert violation is not None
    assert violation.identity in (
        "face-face",
        "face-degeneracy-low",
        "face-degeneracy-identity",
        "face-degeneracy-high",
    )
    assert "fails at level" in str(violation)


def one_vertex_circle():
    """The circle as one vertex and one loop, stored up to level 2.

    Level ids: (*), (s0 *, loop), (s0 s0 *, s0 loop, s1 loop).
    """
    faces = [[], [[0, 0], [0, 0]], [[0, 1, 0], [0, 1, 1], [0, 0, 1]]]
    degeneracies = [[[0]], [[0, 1], [0, 2]], []]
    return SimplicialSetModel(2, [1, 2, 3], faces, degeneracies, "one-vertex circle")


def corrupted(model, kind, n, i, entry, value):
    """A copy of ``model`` with one entry of one operator table changed."""
    tables = {
        k: [[a.copy() for a in level] for level in getattr(model, k)]
        for k in ("faces", "degeneracies")
    }
    tables[kind][n][i][entry] = value
    return SimplicialSetModel(
        model.level_cap, model.level_sizes, tables["faces"], tables["degeneracies"]
    )


def seeded_corruption(model, seed):
    """One seeded table entry moved to another id of its target level."""
    rng = np.random.default_rng(seed)
    ops = [
        (kind, n, i)
        for kind in ("faces", "degeneracies")
        for n, level in enumerate(getattr(model, kind))
        for i in range(len(level))
    ]
    kind, n, i = ops[rng.integers(len(ops))]
    table = getattr(model, kind)[n][i]
    size = model.level_sizes[n - 1 if kind == "faces" else n + 1]
    entry = int(rng.integers(table.size))
    value = int((table[entry] + rng.integers(1, size)) % size)
    return corrupted(model, kind, n, i, entry, value)


# The first violation of each corrupted model: family, level, i, j, simplex.
PINNED_VIOLATIONS = {
    ("circle", 0): ("degeneracy-degeneracy", 1, 0, 0, 3),
    ("circle", 1): ("face-face", 3, 0, 2, 6),
    ("circle", 12): ("face-degeneracy-identity", 0, 0, 0, 0),
    ("sphere2", 33): ("face-degeneracy-low", 2, 0, 1, 8),
    ("torus", 0): ("face-degeneracy-identity", 2, 0, 0, 51),
    ("torus", 13): ("face-degeneracy-low", 2, 0, 1, 70),
    ("exp2-circle", 2): ("degeneracy-degeneracy", 1, 0, 1, 6),
    ("exp2-circle", 7): ("face-degeneracy-low", 2, 0, 2, 28),
    # d2 s0 loop := loop; only d_i s_j = s_j d_(i-1) for i > j + 1 sees it
    ("one-vertex circle", "d2 s0 loop"): ("face-degeneracy-high", 1, 2, 0, 1),
    # s0 loop := s0 s0 *; a non-injective degeneracy fails d_j s_j = id
    ("one-vertex circle", "s0 loop"): ("face-degeneracy-identity", 1, 0, 0, 1),
}


def test_first_violations_are_pinned():
    models = {
        "circle": circle(),
        "sphere2": sphere(2),
        "torus": torus(),
        "exp2-circle": exp_subsets(circle(), 2),
    }
    x = one_vertex_circle()
    assert x.validate() is None
    assert x.betti_table().dims == (1, 1)
    broken = {
        (name, seed): seeded_corruption(models[name], seed)
        for name, seed in PINNED_VIOLATIONS
        if name in models
    }
    broken["one-vertex circle", "d2 s0 loop"] = corrupted(x, "faces", 2, 2, 1, 1)
    broken["one-vertex circle", "s0 loop"] = corrupted(x, "degeneracies", 1, 0, 1, 0)
    reports = {key: str(model.validate()) for key, model in broken.items()}
    template = "identity '{}' fails at level {}, indices (i={}, j={}), simplex {}"
    assert reports == {
        key: template.format(*where) for key, where in PINNED_VIOLATIONS.items()
    }


def test_every_space_model_validates():
    for model in (
        sphere(1, 3),
        sphere(2),
        torus(),
        projective_plane(),
        exp_subsets(sphere(1, 4), 3),
        product(sphere(1, 3), sphere(1, 3)),
    ):
        assert model.validate() is None, model.description


RESTRICT_MODELS = {
    "torus": torus,
    "rp2": projective_plane,
    **{f"sphere{n}": lambda n=n: sphere(n) for n in (1, 2, 3)},
    **{f"one-vertex-sphere{n}": lambda n=n: one_vertex_sphere(n) for n in (1, 2, 3)},
    **{
        f"{kind}{k}-s2-{base}": lambda kind=kind, k=k, base=base: build_space(
            SpaceSpec(kind, n=2, k=k, base=base)
        )
        for kind, k in (("exp", 2), ("sym", 3))
        for base in ("boundary", "one-vertex")
    },
}


@pytest.mark.parametrize("name", sorted(RESTRICT_MODELS))
def test_restrict_is_the_face_word_of_the_deleted_positions(name):
    model = RESTRICT_MODELS[name]()
    for n in range(model.level_cap + 1):
        ids = np.flatnonzero(model.nondegenerate[n])
        for size in range(1, n + 2):
            for kept in itertools.combinations(range(n + 1), size):
                # the last pair acts first: the highest position goes first
                word = tuple(("faces", t) for t in range(n + 1) if t not in kept)
                want = model._nondeg_pos[size - 1][model.apply(n, word)[ids]]
                got = model.restrict(n, kept)
                assert got.dtype == np.int32 and np.array_equal(got, want), (n, kept)


@pytest.mark.parametrize(
    "n, kept",
    [(2, ()), (2, (0, 3)), (2, (-1, 0)), (4, (0,)), (-1, (0,))],
)
def test_restrict_rejects_a_vertex_set_outside_the_simplex(n, kept):
    with pytest.raises(ContractViolation):
        circle().restrict(n, kept)


def test_boundary_of_circle_edges():
    s = circle()
    b1 = s.boundary_matrix(1)
    assert (b1.row_count, b1.col_count) == (3, 3)
    dense = b1.to_dense()
    assert (dense.sum(axis=0) == 2).all()  # each edge has two endpoints
    assert b1.rank() == 2


def test_boundary_out_of_range():
    with pytest.raises(ContractViolation):
        circle().boundary_matrix(0)
    with pytest.raises(ContractViolation):
        circle().boundary_matrix(99)


def test_boundary_squared_zero():
    for model in (sphere(2), torus(), projective_plane(), exp_subsets(sphere(1, 4), 3)):
        top = model.top_nondegenerate_level()
        for n in range(2, top + 1):
            prod = model.boundary_matrix(n - 1).matmul(model.boundary_matrix(n))
            assert prod.is_zero(), (model.description, n)


def test_betti_tables():
    assert sphere(2).betti_table().dims == (1, 0, 1)
    assert exp_subsets(sphere(1, 4), 3).betti_table().dims == (1, 0, 0, 1)


def test_cap_too_small_error():
    # at cap n the sphere still has nondegenerate top simplices
    with pytest.raises(CapError):
        sphere(2, 2).betti_table()


def test_betti_independent_of_cap():
    t1 = exp_subsets(sphere(1, 3), 2).betti_table()
    t2 = exp_subsets(sphere(1, 4), 2).betti_table()
    assert t1.matches(t2)


def test_euler_characteristic_consistency():
    for model in (sphere(2), torus(), projective_plane(), exp_subsets(sphere(1, 4), 3)):
        cells = sum(
            (-1) ** n * model.nondeg_count(n) for n in range(model.level_cap + 1)
        )
        assert cells == model.betti_table().euler_characteristic()


def test_cohomology_basis_counts_and_cocycles():
    for model in (sphere(2), torus(), projective_plane()):
        table = model.betti_table()
        for n in range(table.max_degree + 1):
            basis = model.cohomology_basis(n)
            assert len(basis) == table.dim(n)
            for c in basis:
                assert model.is_cocycle(n, c.support)


# sha256 of the canonical JSON of every basis support below, as the
# per-free-column kernel loop computed them.  A change to elimination
# that moves a basis must update this on purpose.
PINNED_BASES_SHA256 = "f4813f7f26c71f582c604738488d7385d781a156f1feda60a31b9275e6fc57b5"


def test_cohomology_bases_are_pinned():
    models = {
        "torus": torus(),
        "rp2": projective_plane(),
        "exp2-sphere2": exp_subsets(sphere(2, 5), 2),
    }
    supports = {
        name: [
            [c.support.nonzero_indices() for c in m.cohomology_basis(d)]
            for d in range(m.top_nondegenerate_level() + 1)
        ]
        for name, m in models.items()
    }
    text = json.dumps(supports, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_BASES_SHA256


def test_cohomology_basis_is_cached_per_degree(monkeypatch):
    passes = []  # the degree of every boundary whose rows an elimination packed
    pack = SimplicialSetModel._boundary_rows

    def counted(model, n, skip=()):
        passes.append(n)
        return pack(model, n, skip)

    monkeypatch.setattr(SimplicialSetModel, "_boundary_rows", counted)
    model = torus()
    degrees = range(1, model.level_cap + 1)
    first = model.cohomology_basis(1)
    supports = [c.support for c in first]
    assert passes == [1, 2]  # the pass over ∂_2 clears against the one over ∂_1
    first.clear()  # each call hands out its own list
    again = model.cohomology_basis(1)
    assert [c.support for c in again] == supports and len(supports) == 2
    model.betti_table()
    for n in range(model.level_cap + 1):
        model.cohomology_basis(n)
        model.coboundary_span(n)
    assert passes == list(degrees)  # each degree once
    capped = sphere(2, 2)
    for _ in range(2):  # the cap check still runs on every call
        with pytest.raises(CapError):
            capped.cohomology_basis(0)


def _cleared_span_models():
    ctx = CheckContext(ModelCache(), DEFAULT_MAX_LEVEL_SIZE, 0)
    return _suite_models(ctx) + [build_space(SpaceSpec("exp", n=2, k=3))]


def test_cleared_coboundary_spans_are_the_uncleared_ones():
    for model in _cleared_span_models():
        spans = [model.coboundary_span(n) for n in range(model.level_cap + 1)]
        assert len(spans[0]) == 0
        for n in range(1, model.level_cap + 1):
            rows = model.boundary_matrix(n).row_ints()
            assert len(spans[n]) == model.boundary_matrix(n).rank()
            assert spans[n].pivots() == Gf2Span(rows).pivots(), (model.description, n)
        # a caller's copy is its own: filling it moves neither the table nor a basis
        for n, span in enumerate(spans):
            for bit in range(model.nondeg_count(n)):
                span.add(1 << bit)
        top = model.top_nondegenerate_level()
        ranks = [0] + [model.boundary_matrix(n).rank() for n in range(1, top + 1)] + [0]
        dims = [model.nondeg_count(n) - ranks[n] - ranks[n + 1] for n in range(top + 1)]
        assert model.betti_table().dims == tuple(dims), model.description
        for n in range(top + 1):
            coboundaries = Gf2Span(model.boundary_matrix(n).row_ints() if n else [])
            cocycles = relations(model.boundary_matrix(n + 1).row_ints())
            want = [z for z in cocycles if coboundaries.add(z) is None]
            got = [c.support.to_int() for c in model.cohomology_basis(n)]
            assert got == want, (model.description, n)


def test_coboundary_is_the_xor_of_the_boundary_rows_it_selects():
    rng = np.random.default_rng(21)
    for model in _cleared_span_models():
        cap = model.level_cap
        for d in range(cap):
            rows = model.boundary_matrix(d + 1)
            for _ in range(4):
                bits = rng.integers(0, 2, size=model.nondeg_count(d), dtype=np.uint8)
                v = Gf2Vector.from_bits(bits)
                assert model.apply_coboundary(d, v) == rows.combine_rows(v), (
                    model.description,
                    d,
                )
        with pytest.raises(ContractViolation):
            model.apply_coboundary(0, Gf2Vector.zeros(model.nondeg_count(0) + 1))
        for d in (cap, cap + 1):
            with pytest.raises(CapError):
                model.apply_coboundary(d, Gf2Vector.zeros(model.nondeg_count(d)))


def test_memos_are_read_only_and_shared_by_threads():
    spec = SpaceSpec("exp", n=2, k=3)
    serial = build_space(spec)
    degrees = range(serial.level_cap + 1)
    rng = np.random.default_rng(3)
    sizes = [serial.nondeg_count(d) for d in range(serial.level_cap)]
    probes = [Gf2Vector.from_bits(rng.integers(0, 2, size, np.uint8)) for size in sizes]
    want = (
        [[c.support for c in serial.cohomology_basis(d)] for d in degrees],
        [serial.apply_coboundary(d, v) for d, v in enumerate(probes)],
    )
    model = build_space(spec)

    def work(reverse):
        bases, cobs = {}, {}
        for d in sorted(degrees, reverse=reverse):
            bases[d] = [c.support for c in model.cohomology_basis(d)]
            if d < len(probes):
                cobs[d] = model.apply_coboundary(d, probes[d])
        return [bases[d] for d in degrees], [cobs[d] for d in range(len(probes))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, k % 2 == 1) for k in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == want for r in results)
    assert model.restrict(2, (0, 2)) is model.restrict(2, (0, 2))
    memos = [*model._restrict_cache.values(), *model._face_stacks.values()]
    assert memos and not any(a.flags.writeable for a in memos)
    with pytest.raises(ValueError):
        model.restrict(2, (0, 2))[0] = 0
    with pytest.raises(ValueError):
        model._face_stack(2)[0, 0] = 0


def test_bases_count_betti_and_spans_carry_no_tags():
    for model in _cleared_span_models():
        table = model.betti_table()
        for n in range(model.level_cap + 1):
            where = (model.description, n)
            assert len(model.cohomology_basis(n)) == table.dim(n), where
            span = model.coboundary_span(n)
            for row in model.boundary_matrix(n).row_ints() if n else []:
                assert span.reduce(row) == (0, 0), where


def test_h0_of_connected_model_is_constant_class():
    from expk.cochains import cohomologous, unit_class

    for model in (sphere(2), torus()):
        basis = model.cohomology_basis(0)
        assert len(basis) == 1
        assert cohomologous(model, basis[0], unit_class(model))


def test_serialization_round_trip_bit_exact():
    model = exp_subsets(sphere(1, 4), 3)
    text = model.to_json_text()
    loaded = SimplicialSetModel.from_json_dict(json.loads(text))
    assert loaded.to_json_text() == text
    assert loaded == model
    assert loaded.content_hash() == model.content_hash()
    assert loaded.betti_table() == model.betti_table()


# Scheme-2 content hashes: sha256 of the header line, then the word stream.
PINNED_CONTENT_HASHES = {
    "torus": "d75c72bb5839962ed910f60bb43c2fcdfbeee7652fe827771da5c0af6c26557d",
    "exp2-s2": "281d1c0d96c9dbc883c129942fe35211f154a3e1e86ae39a5a96d65cf25d6209",
    "exp3-s2": "87f8afda82022ca5144368c87c80231e1277e3671d2281ee33f168eabe5cc828",
    "sym3-s2": "d4ee31273a859947935d42055ce6f8f17a8f88c54ca64dbce63c62ad55129a6d",
    # long levels and wide keys: level ids of rows of up to 65 entries
    "ov-s1-cap64": "c8b68ffcce9c759f61e615b207d765ad5357d28799b556cb51471a2fd2b81750",
    "s1-cap40": "ef328cbfb69656172b8835fbcce9e71fb6a6db6167b8c987eefca6f22a4f51ac",
    # six-element keys over the one-vertex circle
    "exp6-ov-s1": "de16ee85d4cc055e5f055f30d1bd3d3eb4ecf646eecc817d616517412a5629dd",
    "sym6-ov-s1": "28d3b5885c7b77a2475441b79d4412240cc1987f4e0536e269b56dee19cc5cbb",
    "exp3-ov-s3": "c832980e7439cd70cfe18be60d38542668e447a68812679d6bc8652060ab14f9",
}


def test_content_hash_is_pinned():
    models = {
        "torus": torus(),
        "exp2-s2": build_space(SpaceSpec("exp", n=2, k=2)),
        "exp3-s2": build_space(SpaceSpec("exp", n=2, k=3)),
        "sym3-s2": build_space(SpaceSpec("sym", n=2, k=3)),
        "ov-s1-cap64": one_vertex_sphere(1, 64),
        "s1-cap40": sphere(1, 40),
        "exp6-ov-s1": exp_subsets(one_vertex_sphere(1, 12), 6),
        "sym6-ov-s1": sym_power(one_vertex_sphere(1, 10), 6),
        "exp3-ov-s3": build_space(SpaceSpec("exp", n=3, k=3, base="one-vertex")),
    }
    assert {name: m.content_hash() for name, m in models.items()} == PINNED_CONTENT_HASHES

    t = models["torus"]
    head = json.dumps(
        {
            "description": t.description,
            "level_cap": t.level_cap,
            "level_sizes": t.level_sizes,
            "scheme": "simplicial-set-model-hash/2",
        },
        separators=(",", ":"),
    )
    tables = [f for fs in t.faces for f in fs] + [s for ss in t.degeneracies for s in ss]
    stream = b"".join(np.asarray(a, dtype="<i4").tobytes() for a in tables)
    assert hashlib.sha256(head.encode() + b"\n" + stream).hexdigest() == t.content_hash()

    words = np.concatenate(t.words())
    assert SimplicialSetModel.from_words(t.header(), words) == t
    words[0] = (words[0] + 1) % t.level_sizes[0]  # one face id, still in range
    flipped = SimplicialSetModel.from_words(t.header(), words)
    renamed = SimplicialSetModel.from_words({**t.header(), "description": "other"}, words)
    hashes = {t.content_hash(), flipped.content_hash(), renamed.content_hash()}
    assert len(hashes) == 3


def test_from_words_rejects_a_stream_of_the_wrong_length():
    t = torus()
    words = np.concatenate(t.words())
    with pytest.raises(ContractViolation):
        SimplicialSetModel.from_words(t.header(), words[:-1])
    with pytest.raises(ContractViolation):
        SimplicialSetModel.from_words({**t.header(), "level_cap": t.level_cap + 1}, words)


def test_betti_table_serialization():
    t = BettiTable((1, 0, 2))
    assert t.to_json_dict() == {"format": "betti-table/1", "dims": [1, 0, 2]}
    assert t.dim(5) == 0
    assert t.euler_characteristic() == 3
    assert t.matches((1, 0, 2, 0, 0))
    assert not t.matches((1, 0, 1))


def test_construction_shape_checks():
    s = circle()
    with pytest.raises(ContractViolation):
        SimplicialSetModel(3, s.level_sizes[:2], s.faces, s.degeneracies)
    bad_faces = [list(fs) for fs in s.faces]
    bad_faces[1] = bad_faces[1][:1]  # too few face operators
    with pytest.raises(ContractViolation):
        SimplicialSetModel(s.level_cap, s.level_sizes, bad_faces, s.degeneracies)


def test_determinism_of_model_and_table():
    a = exp_subsets(sphere(1, 4), 3)
    b = exp_subsets(sphere(1, 4), 3)
    assert a.to_json_text() == b.to_json_text()
    assert a.content_hash() == b.content_hash()
