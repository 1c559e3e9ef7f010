"""Simplicial-set models: identities, boundaries, Betti tables, bases."""

import hashlib
import itertools
import json
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from expk import simplicial, spaces
from expk.cochains import ring_table
from expk.complexes import projective_plane, torus
from expk.errors import CapError, ContractViolation
from expk.gf2 import Gf2Span, Gf2Vector, relations
from expk.simplicial import BettiTable, SimplicialSetModel, _DerivedFaces
from expk.spaces import (
    SpaceSpec,
    build_space,
    exp_subsets,
    from_complex,
    one_vertex_sphere,
    product,
    sphere,
    sym_power,
)
from expk.verify import SUITE, ModelCache


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
    # each simplex's nondegenerate position, -1 for a degenerate one
    positions = []
    for size, ids in zip(model.level_sizes, model._nondegenerate_ids):
        pos = np.full(size, -1, dtype=np.int32)
        pos[ids] = np.arange(ids.size)
        positions.append(pos)
    for n in range(model.level_cap + 1):
        ids = model._nondegenerate_ids[n]
        for size in range(1, n + 2):
            for kept in itertools.combinations(range(n + 1), size):
                # the last pair acts first: the highest position goes first
                word = tuple(("faces", t) for t in range(n + 1) if t not in kept)
                want = positions[size - 1][model.apply(n, word)[ids]]
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
    assert t1.matches(t2.dims)


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
    passes = []  # the degree of every boundary whose rows a pass packed
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
    assert passes == list(degrees)  # tables and bases: each degree once
    for _ in range(2):
        for n in range(model.level_cap + 1):
            model.coboundary_span(n)
    # the elimination keeps pivots, not spans: a span asked for afterwards
    # costs one more pass per degree, never two, and none for degree 1,
    # whose span the first basis call kept from the pass it ran
    assert passes == [*degrees, 2, 3]
    capped = sphere(2, 2)
    for _ in range(2):  # the cap check still runs on every call
        with pytest.raises(CapError):
            capped.cohomology_basis(0)


def test_betti_table_holds_pivots_not_spans():
    model = build_space(SpaceSpec("sym", n=2, k=3))
    tracemalloc.start()
    try:
        model.betti_table()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the face stacks, each degree's pivots and the bases: about 0.3 MiB;
    # each degree's whole pivot table would add about 2.5 MiB
    assert held < 1 << 20


def _elimination_outputs(model):
    degrees = range(model.level_cap + 1)
    return (
        [model._elimination(n)[0].tolist() for n in degrees],
        [[c.support for c in model.cohomology_basis(n)] for n in degrees],
        [model.coboundary_span(n)._rows for n in degrees],
        ring_table(model),
    )


@pytest.mark.parametrize("rows", [1, 7])
def test_row_blocks_do_not_change_the_elimination(monkeypatch, rows):
    builds = {
        "torus": torus,
        "rp2": projective_plane,
        "sym3-sphere2": lambda: build_space(SpaceSpec("sym", n=2, k=3)),
    }
    for name, build in builds.items():
        monkeypatch.setattr(simplicial, "ROW_BLOCK", 1 << 30)
        whole = _elimination_outputs(build())
        monkeypatch.setattr(simplicial, "ROW_BLOCK", rows)
        assert _elimination_outputs(build()) == whole, name


def test_two_threads_asking_one_span_share_one():
    model = build_space(SpaceSpec("exp", n=2, k=3))
    n = 4
    start = threading.Barrier(2)

    def span():
        start.wait(timeout=60)
        return model.coboundary_span(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(span) for _ in range(2)]
            spans = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert spans[0]._rows == spans[1]._rows == model._spans[n]._rows
    assert len(spans[0]) == len(model._elimination(n)[0]) > 0
    assert list(model._spans) == [n]


def _cleared_span_models():
    suite = [build_space(spec) for spec in SUITE.values()]
    return suite + [build_space(SpaceSpec("exp", n=2, k=3))]


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


def test_padded_values_are_the_bits_of_one_wider_vector():
    rng = np.random.default_rng(40)
    for length in range(71):  # multiples of 8 included: the 0 opens a byte
        for _ in range(5):
            x = int.from_bytes(rng.bytes(length // 8 + 1), "little") % (1 << length)
            got = simplicial._padded_values(Gf2Vector(length, x))
            want = Gf2Vector(length + 1, x).to_bits()
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got[-1] == 0


def test_memos_are_read_only_and_shared_by_threads(tmp_path):
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
    # the face stack's rows are the memoized restrict arrays themselves
    stack = model._face_stack(2)
    kept_sets = ((1, 2), (0, 2), (0, 1))
    assert all(row is model.restrict(2, kept) for row, kept in zip(stack, kept_sets))
    memos = [*model._restrict_cache.values(), *stack]
    assert memos and not any(a.flags.writeable for a in memos)
    with pytest.raises(ValueError):
        model.restrict(2, (0, 2))[0] = 0
    with pytest.raises(ValueError):
        model._face_stack(2)[0][0] = 0
    # a model read from a cache entry: its tables are views of one word
    # block, and neither they nor the block are writeable
    small = SpaceSpec("exp", n=1, k=2)
    ModelCache(cache_dir=str(tmp_path)).model_for(small)
    cache = ModelCache(cache_dir=str(tmp_path))
    loaded = cache.model_for(small)
    assert not cache.warnings
    tables = [t for level in loaded.faces + loaded.degeneracies for t in level]
    block = tables[0].base
    assert all(t.base is block for t in tables)
    assert not any(t.flags.writeable for t in tables + [block])


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

    def read_back(header, words):
        """The model of a copy of ``words``, which views it, and its hash."""
        model = SimplicialSetModel.from_words(header, words.copy())
        return model, model.content_hash()

    words = np.concatenate(t.words())
    assert read_back(t.header(), words) == (t, t.content_hash())
    # a face id, still in range, of a level below the top nondegenerate one;
    # then one of a degenerate simplex of the cap: the model read holds
    # both, and so does its hash
    cap = t.level_cap
    assert t.top_nondegenerate_level() < cap
    words[0] = (words[0] + 1) % t.level_sizes[0]
    flipped, flipped_hash = read_back(t.header(), words)
    at = sum((n + 1) * t.level_sizes[n] for n in range(1, cap))
    words[at] = (words[at] + 1) % t.level_sizes[cap - 1]
    unkept, unkept_hash = read_back(t.header(), words)
    renamed = read_back({**t.header(), "description": "other"}, words)[1]
    assert flipped != t and unkept != flipped
    assert flipped.content_hash() == flipped_hash != t.content_hash()
    assert len({t.content_hash(), flipped_hash, unkept_hash, renamed}) == 4


# built models whose top level holds no nondegenerate simplex, and one
# whose top level does
READ_BACK_MODELS = {
    "exp3-circle": lambda: exp_subsets(sphere(1, 4), 3),
    "sym3-one-vertex-circle": lambda: sym_power(one_vertex_sphere(1, 4), 3),
    "circle-x-circle": lambda: product(sphere(1, 3), sphere(1, 3)),
    "sphere2-cap2": lambda: sphere(2, 2),
}


def _derived_levels(model) -> list[int]:
    return [n for n, level in enumerate(model.faces) if isinstance(level, _DerivedFaces)]


def _kept_levels(model) -> list[int]:
    return [n for n in _derived_levels(model) if model.faces[n]._kept is not None]


def _tables_agree(model, other, n) -> bool:
    return all(np.array_equal(model.faces[n][i], other.faces[n][i]) for i in range(n + 1))


@pytest.mark.parametrize("name", sorted(READ_BACK_MODELS))
def test_a_built_model_and_its_words_read_back_agree(name):
    built, indexed = READ_BACK_MODELS[name](), READ_BACK_MODELS[name]()
    cap = built.level_cap
    assert (built.nondeg_count(cap) > 0) == (name == "sphere2-cap2")
    # derived from the top nondegenerate level up: the last two levels of a
    # closed model
    top = built.top_nondegenerate_level()
    assert _derived_levels(built) == list(range(top, cap + 1)) == _derived_levels(indexed)
    assert top == (cap if name == "sphere2-cap2" else cap - 1)
    read = SimplicialSetModel.from_words(built.header(), np.concatenate(built.words()))
    # the words read back are given every table: no level is derived
    assert _derived_levels(read) == []
    # every level's tables indexed before any walk, each table of a level
    # once the level is kept
    for n in range(1, cap + 1):
        assert _tables_agree(indexed, read, n), n
    assert _kept_levels(indexed) == list(range(top, cap + 1))
    # reads of every level, which derive and keep each derived level
    assert all(map(np.array_equal, built.words(), read.words()))
    assert built.content_hash() == read.content_hash() == indexed.content_hash()
    assert built.validate() is None and read.validate() is None
    assert built.to_json_dict() == read.to_json_dict() == indexed.to_json_dict()
    assert _kept_levels(built) == list(range(top, cap + 1))
    for n in range(cap + 1):
        for size in range(1, n + 2):
            for kept in itertools.combinations(range(n + 1), size):
                assert np.array_equal(built.restrict(n, kept), read.restrict(n, kept))
    for n in range(cap, 0, -1):
        assert _tables_agree(built, read, n), n
    assert all(map(np.array_equal, built.words(), read.words()))
    # the level below the cap kept by an indexed read and the cap not:
    # reading every level derives the cap from the kept tables
    below_kept = READ_BACK_MODELS[name]()
    assert _tables_agree(below_kept, read, cap - 1)
    kept = [cap - 1] if cap - 1 >= top else []
    assert _kept_levels(below_kept) == kept
    assert all(map(np.array_equal, below_kept.words(), read.words()))
    assert below_kept.content_hash() == read.content_hash()
    assert below_kept.validate() is None
    assert below_kept.to_json_dict() == read.to_json_dict()


@pytest.mark.parametrize("name", sorted(READ_BACK_MODELS))
def test_two_threads_indexing_one_derived_level_read_equal_tables(name):
    built = READ_BACK_MODELS[name]()
    read = SimplicialSetModel.from_words(built.header(), np.concatenate(built.words()))
    cap = built.level_cap
    start = threading.Barrier(2)

    def index():
        start.wait(timeout=60)
        return [built.faces[cap][i] for i in range(cap + 1)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(index) for _ in range(2)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for tables in results:
        assert all(map(np.array_equal, tables, read.faces[cap]))


def test_two_threads_hashing_one_built_model_both_get_its_pinned_hash():
    model = build_space(SpaceSpec("exp", n=2, k=2))
    start = threading.Barrier(2)

    def hash_once():
        start.wait(timeout=60)
        return model.content_hash()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(hash_once) for _ in range(2)]
            hashes = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert hashes == [PINNED_CONTENT_HASHES["exp2-s2"]] * 2


def test_a_second_hash_or_map_check_derives_no_level(monkeypatch):
    from expk.spaces import diagonal_insertion

    derived = []  # the table count of each level derived
    derive = _DerivedFaces.derive

    def counting(level):
        derived.append(len(level))
        return derive(level)

    model = build_space(SpaceSpec("exp", n=2, k=3))
    x = sphere(1, 3)
    alpha = diagonal_insertion(x, square=product(x, x), sym3=sym_power(x, 3))
    monkeypatch.setattr(_DerivedFaces, "derive", counting)
    cap = model.level_cap
    assert model.content_hash() == PINNED_CONTENT_HASHES["exp3-s2"]
    # the two levels from the top nondegenerate one up, once each
    assert derived == [cap, cap + 1]
    derived.clear()
    assert model.content_hash() == PINNED_CONTENT_HASHES["exp3-s2"]
    assert derived == []
    assert alpha.commutes() and derived
    derived.clear()
    assert alpha.commutes() and derived == []


def test_hashing_a_built_model_keeps_its_derived_levels_and_no_more():
    model = build_space(SpaceSpec("exp", n=3, k=2))
    cap, sizes = model.level_cap, model.level_sizes
    derived = sum(4 * (n + 1) * sizes[n] for n in _derived_levels(model))
    tracemalloc.start()
    try:
        model.content_hash()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _kept_levels(model) == _derived_levels(model) == [cap - 1, cap]
    # the derived levels' tables, kept whole, and nothing else
    assert derived <= kept < 1.01 * derived
    # while a level is derived, its int32 groups and one table's index and
    # values besides: under five tables of the cap level
    assert peak < derived + 5 * 4 * sizes[cap]


def _array_bytes(obj, seen) -> int:
    """The bytes of every numpy array reachable from obj, each counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v, seen) for v in obj)
    return _array_bytes(vars(obj), seen) if hasattr(obj, "__dict__") else 0


# (kind, n, k) -> the squares (i, source degree, target degree) of the
# squares benchmark workload, each a generator's square in a rank-1 target
SQUARE_READS = {
    ("exp", 2, 2): [(2, 2, 4)],
    ("exp", 3, 2): [(2, 3, 5), (3, 3, 6)],
    ("sym", 2, 3): [(2, 2, 4)],
}


def test_a_built_model_holds_no_top_level_face_table():
    from expk.cochains import express_in_basis, steenrod_square

    model = build_space(SpaceSpec("exp", n=2, k=3))
    model.betti_table()
    cap, top = model.level_cap, model.top_nondegenerate_level()
    # no whole face table at or above the top nondegenerate level
    assert top == cap - 1
    assert _derived_levels(model) == [top, cap] and _kept_levels(model) == []
    held = _array_bytes(model, set())
    ops = simplicial.operators(cap)
    words = sum(4 * model.level_sizes[n] for _, n, _, _ in ops)
    unstored = sum(4 * (n + 1) * model.level_sizes[n] for n in (top, cap))
    # beyond the tables it stores, the model holds its flags and memos, which
    # are less than one whole table of the cap level
    assert held < words - unstored + 4 * model.level_sizes[cap]
    # the chain layer reads a derived level only through the faces it keeps,
    # so no basis, nor a square of the squares workload, derives one
    for d in range(cap + 1):
        model.cohomology_basis(d)
    assert _kept_levels(model) == []
    for (kind, n, k), squares in SQUARE_READS.items():
        other = build_space(SpaceSpec(kind, n=n, k=k))
        for d in range(other.level_cap + 1):
            other.cohomology_basis(d)
        for i, source, target in squares:
            (generator,) = other.cohomology_basis(source)
            image = steenrod_square(other, i, generator)
            coords = express_in_basis(other, image, other.cohomology_basis(target))
            assert coords.to_bits().tolist() == [1], (kind, n, k, i)
        assert _derived_levels(other) and _kept_levels(other) == [], (kind, n, k)


@pytest.mark.parametrize("kind", ["exp", "sym"])
def test_a_model_loaded_from_the_cache_is_the_model_built(tmp_path, kind):
    spec = SpaceSpec(kind, n=2, k=2)
    # stored, and so hashed, which derives and keeps its top levels
    stored = ModelCache(cache_dir=str(tmp_path)).model_for(spec)
    cache = ModelCache(cache_dir=str(tmp_path))
    loaded = cache.model_for(spec)
    built = build_space(spec)
    assert not cache.warnings and loaded is not stored
    cap = built.level_cap
    # given its tables, the loaded model derives no level; it holds no more
    # than the model a cold run hashed, whose derived levels are kept
    assert _derived_levels(loaded) == [] and _derived_levels(built) == [cap - 1, cap]
    assert _kept_levels(stored) == [cap - 1, cap] and _kept_levels(built) == []
    assert _array_bytes(loaded, set()) <= _array_bytes(stored, set())
    for n in range(cap + 1):
        for size in range(1, n + 2):
            for kept in itertools.combinations(range(n + 1), size):
                assert np.array_equal(built.restrict(n, kept), loaded.restrict(n, kept))
    assert loaded == built == stored


def test_a_closed_top_is_never_keyed_nor_asked_about(monkeypatch):
    keyed, empty = [], []
    subset_keys = spaces._subset_keys
    from_operators = SimplicialSetModel.from_operators.__func__

    def counting_keys(level_size, k):
        keyed.append(level_size)
        return subset_keys(level_size, k)

    def checking_rule(cls, cap, level_sizes, rule, description=""):
        def checked(kind, n, i, t, ids):
            if not isinstance(ids, slice) and ids.size == 0:
                empty.append((description, kind, n, i))
            return rule(kind, n, i, t, ids)

        return from_operators(cls, cap, level_sizes, checked, description)

    monkeypatch.setattr(spaces, "_subset_keys", counting_keys)
    monkeypatch.setattr(SimplicialSetModel, "from_operators", classmethod(checking_rule))
    model = build_space(SpaceSpec("exp", n=2, k=3))
    cap = model.level_cap
    assert model.nondeg_count(cap) == 0 and model.level_sizes[cap] == 366_275
    assert keyed == sphere(2, cap).level_sizes[:cap]
    # closed tops of the other constructors: complexes, one-vertex spheres,
    # products and symmetric powers
    for build in READ_BACK_MODELS.values():
        build()
    build_space(SpaceSpec("sym", n=2, k=3))
    assert empty == []


def test_from_words_rejects_a_stream_of_the_wrong_length():
    t = torus()
    words = np.concatenate(t.words())
    with pytest.raises(ContractViolation):
        SimplicialSetModel.from_words(t.header(), words[:-1])
    with pytest.raises(ContractViolation):
        SimplicialSetModel.from_words({**t.header(), "level_cap": t.level_cap + 1}, words)


def test_from_words_rejects_a_degeneracy_out_of_range():
    # the degeneracy tables are read before any face table, and index the
    # level above when they give its nondegenerate ids
    t = torus()
    words = np.concatenate(t.words())
    words[-1] = t.level_sizes[-1]
    with pytest.raises(ContractViolation, match="out of range"):
        SimplicialSetModel.from_words(t.header(), words)


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
