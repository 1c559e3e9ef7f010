"""The normalized complexes of exp_k and Sym_k over a stored base."""

import hashlib
import itertools
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from expk import catalog, complexes
from expk.cochains import ring_table, square_coordinates
from expk.errors import ContractViolation, LevelSizeError
from expk.gf2 import Gf2Span
from expk.normalized import NormalizedModel, nondegenerate_count
from expk.spaces import (
    SpaceSpec,
    build_space,
    exp_subsets,
    from_complex,
    one_vertex_sphere,
    sym_power,
)
from expk.verify import ModelCache

# the spaces on which both paths were first compared, at the cap kn + 1
AGREEING = [
    ("exp", 1, 2), ("exp", 1, 3), ("exp", 1, 4), ("exp", 1, 5),
    ("exp", 2, 2), ("exp", 2, 3), ("exp", 3, 2), ("exp", 3, 3), ("exp", 4, 2),
    ("sym", 1, 3), ("sym", 2, 2), ("sym", 2, 3), ("sym", 3, 2), ("sym", 3, 3),
    ("sym", 4, 2),
]


# the spaces held to their stored models on ∂Δⁿ⁺¹; verify compares only
# the first three there
BOUNDARY_AGREEING = [
    ("exp", 1, 2), ("exp", 1, 3), ("exp", 2, 2), ("exp", 2, 3), ("exp", 3, 2),
    ("sym", 1, 3), ("sym", 2, 2), ("sym", 2, 3),
]


def normalized(kind, n, k, base="one-vertex", **fields):
    return build_space(SpaceSpec(kind, n=n, k=k, base=base, normalized=True, **fields))


def stored(kind, n, k, base="one-vertex"):
    return build_space(SpaceSpec(kind, n=n, k=k, base=base))


def counts(model):
    return [model.nondeg_count(m) for m in range(model.level_cap + 1)]


def assert_models_agree(model, reference):
    """Same cap, counts and ids, so the same Betti table and ring table."""
    assert model.level_cap == reference.level_cap
    assert counts(model) == counts(reference)
    # a normalized row's id is the one the stored model gives the same simplex
    for m in range(model.level_cap + 1):
        assert np.array_equal(model._nondegenerate_ids[m], reference._nondegenerate_ids[m])
    assert model.betti_table() == reference.betti_table()
    assert ring_table(model) == ring_table(reference)


def assert_squares_agree(model, reference):
    top = model.top_nondegenerate_level()
    for d in range(top + 1):
        for i in range(top - d + 1):
            want = square_coordinates(reference, i, d)
            assert square_coordinates(model, i, d) == want, (i, d)


@pytest.mark.parametrize("kind, n, k", AGREEING)
def test_normalized_and_stored_one_vertex_models_agree(kind, n, k):
    model, reference = normalized(kind, n, k), stored(kind, n, k)
    assert model.level_cap == k * n + 1
    assert_models_agree(model, reference)


@pytest.mark.parametrize("kind, n, k", BOUNDARY_AGREEING)
def test_normalized_and_stored_boundary_models_agree(kind, n, k):
    model = normalized(kind, n, k, base="boundary")
    assert model.level_cap == k * n + 1
    assert_models_agree(model, stored(kind, n, k, base="boundary"))


@pytest.mark.parametrize(
    "kind, n, k", [("sym", 3, 2), ("sym", 4, 2), ("exp", 2, 3), ("exp", 3, 3)]
)
def test_normalized_and_stored_squares_agree(kind, n, k):
    assert_squares_agree(normalized(kind, n, k), stored(kind, n, k))


@pytest.mark.parametrize("kind, n, k", [("exp", 3, 2), ("sym", 2, 3)])
def test_normalized_and_stored_boundary_squares_agree(kind, n, k):
    model = normalized(kind, n, k, base="boundary")
    assert_squares_agree(model, stored(kind, n, k, base="boundary"))


# the 9-vertex torus and the 6-vertex projective plane, at the cap 2·2 + 1
COMPLEX_BASES = {
    "rp2": complexes.PROJECTIVE_PLANE_FACETS,
    "torus": complexes.torus_facets(),
}


@pytest.mark.parametrize(
    "name, kind, table",
    [
        # Sym₂(RP²) is RP⁴; Sym₂(T²) is Macdonald's table; exp₂ = Sym₂
        ("rp2", "sym", (1, 1, 1, 1, 1)),
        ("rp2", "exp", (1, 1, 1, 1, 1)),
        ("torus", "sym", (1, 2, 2, 2, 1)),
        ("torus", "exp", (1, 2, 2, 2, 1)),
    ],
)
def test_normalized_and_stored_models_over_a_complex_agree(name, kind, table):
    base = from_complex(COMPLEX_BASES[name], 5)
    model = NormalizedModel(kind, base, 2)
    assert_models_agree(model, {"sym": sym_power, "exp": exp_subsets}[kind](base, 2))
    assert model.betti_table().dims == table


def square_rank(model, i, d):
    """The rank of Sq^i: H^d -> H^(d+i), which no basis choice moves."""
    rows = square_coordinates(model, i, d)
    return len(Gf2Span(int("".join(map(str, row)), 2) for row in rows))


def test_the_nonzero_squares_below_the_top_degree():
    # Sq¹ has rank 1 on H⁴ of exp₃(S²), and 2 on H⁵ and 1 on H⁸ of exp₃(S³)
    assert square_rank(normalized("exp", 2, 3), 1, 4) == 1
    exp3 = normalized("exp", 3, 3)
    assert (square_rank(exp3, 1, 5), square_rank(exp3, 1, 8)) == (2, 1)
    # and rank 1 on H⁷ of exp₅(S²)
    assert square_rank(normalized("exp", 2, 5), 1, 7) == 1


RESTRICT_DIGEST = "bfcc2b9e89244be9e4fc8f5d4f0dc3faf5ec84b5b1d0b5837dd7f40bdad79d1e"
# every face-stack array of every AGREEING model, pinned before the
# constructor read its base's tables: the one-vertex faces stay bit-identical
FACE_STACK_DIGEST = "da5517d1f96b5c352ff557980e00db2217e25fa676a7036d7c03e86feea4c67c"


def test_normalized_restrict_arrays_are_pinned():
    """Every face array, for every nonempty ``kept`` at every level."""
    h = hashlib.sha256()
    for kind, n, k in [
        ("exp", 2, 3), ("sym", 2, 3), ("exp", 3, 2), ("exp", 1, 4), ("sym", 3, 2)
    ]:
        model = normalized(kind, n, k)
        for m in range(model.level_cap + 1):
            for size in range(1, m + 2):
                for kept in itertools.combinations(range(m + 1), size):
                    h.update(model.restrict(m, kept).tobytes())
    assert h.hexdigest() == RESTRICT_DIGEST


def test_normalized_face_stacks_are_pinned():
    """``restrict(m, all but i)`` of every one-vertex AGREEING model."""
    h = hashlib.sha256()
    for kind, n, k in AGREEING:
        model = normalized(kind, n, k)
        for m in range(1, model.level_cap + 1):
            for i in range(m + 1):
                kept = tuple(t for t in range(m + 1) if t != i)
                h.update(model.restrict(m, kept).tobytes())
    assert h.hexdigest() == FACE_STACK_DIGEST


@pytest.mark.parametrize(
    "kind, n, k", [("exp", 2, 5), ("sym", 2, 5), ("exp", 3, 3), ("sym", 4, 2)]
)
def test_levels_hold_the_inclusion_exclusion_counts(kind, n, k):
    model = normalized(kind, n, k)
    cells = (1,) + (0,) * (n - 1) + (1,)  # Δⁿ/∂Δⁿ: a basepoint and one n-cell
    assert counts(model) == [
        nondegenerate_count(kind, cells, k, m) for m in range(model.level_cap + 1)
    ]
    assert model.nondeg_count(k * n + 1) == 0 and model.nondeg_count(k * n) > 0


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_symmetric_powers_of_the_2_sphere_are_complex_projective_spaces(k):
    table = normalized("sym", 2, k).betti_table()
    assert table.dims == catalog.expected_betti("CP", k).dims


def test_exp5_of_the_2_sphere_is_pinned_and_fast():
    start = time.perf_counter()
    table = normalized("exp", 2, 5).betti_table()
    elapsed = time.perf_counter() - start
    assert table.dims == (1, 0, 0, 0, 0, 0, 0, 1, 3, 1, 1)
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("build", [normalized, stored], ids=["normalized", "stored"])
def test_restrict_is_memoized_read_only_and_checks_its_positions(build):
    # the contract lives in ChainModel, so both model kinds keep it
    model = build("exp", 2, 3)
    faces = model.restrict(5, (0, 2, 4))
    assert faces is model.restrict(5, (0, 2, 4))
    assert faces.dtype == np.int32 and not faces.flags.writeable
    assert faces.shape == (model.nondeg_count(5),)
    assert faces.min() >= -1 and faces.max() < model.nondeg_count(2)
    for kept in [(), (0, 6), (-1, 2)]:
        with pytest.raises(ContractViolation):
            model.restrict(5, kept)


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "sphere"},
        {"kind": "product"},
        {"kind": "power", "k": 2},
        {"kind": "exp", "k": 2, "base": "one-vertex", "cap": 7},
    ],
    ids=["sphere", "product", "power", "cap"],
)
def test_a_spec_of_another_kind_base_or_cap_is_refused(fields):
    with pytest.raises(ContractViolation):
        SpaceSpec(n=2, normalized=True, **fields)


def test_a_normalized_spec_text_carries_the_field_only_when_set():
    plain = SpaceSpec("exp", n=2, k=3, base="one-vertex")
    assert "normalized" not in plain.to_json_dict()
    spec = SpaceSpec("exp", n=2, k=3, base="one-vertex", normalized=True, cap=7)
    assert spec.to_json_dict() == {**plain.to_json_dict(), "normalized": True}


def test_the_budget_bounds_each_level_before_it_is_enumerated():
    # the normalized exp₃(S²) holds 30 simplices at level 5, its largest
    assert max(counts(normalized("exp", 2, 3, max_level_size=30))) == 30
    with pytest.raises(LevelSizeError) as err:
        normalized("exp", 2, 3, max_level_size=29)
    assert (err.value.level, err.value.size, err.value.bound) == (5, 30, 29)


def test_the_id_bound_is_checked_only_on_levels_that_rank_rows():
    # the cap kn + 1 holds no row, so exp₅₆(S¹) builds: Tuffley's S⁵⁵
    model = normalized("exp", 1, 56)
    assert model.nondeg_count(model.level_cap) == 0
    assert [d for d, dim in enumerate(model.betti_table().dims) if dim] == [0, 55]
    with pytest.raises(ContractViolation, match="level 57 overflow int64"):
        normalized("exp", 1, 57)


def test_the_model_refuses_other_kinds_directly():
    base = one_vertex_sphere(2, 5)
    assert NormalizedModel("exp", base, 2).level_cap == 5
    with pytest.raises(ContractViolation):
        NormalizedModel("power", base, 2)
    with pytest.raises(ContractViolation):
        NormalizedModel("exp", base, 0)
    with pytest.raises(ContractViolation, match="up to level 7"):
        NormalizedModel("exp", base, 3)


def test_the_cache_keeps_a_normalized_model_in_memory_only(tmp_path):
    cache_dir = tmp_path / "cache"
    cache = ModelCache(cache_dir=str(cache_dir))
    spec = SpaceSpec("sym", n=2, k=3, base="one-vertex", normalized=True)
    model = cache.model_for(spec)
    assert isinstance(model, NormalizedModel)
    assert cache.model_for(spec) is model
    assert cache.hashes == {} and not os.path.exists(cache_dir)


def test_threads_share_one_model_and_its_memos():
    reference = normalized("exp", 3, 2)
    degrees = range(reference.level_cap + 1)
    want = [[c.support for c in reference.cohomology_basis(d)] for d in degrees]
    model = normalized("exp", 3, 2)

    def work(reverse):
        order = sorted(degrees, reverse=reverse)
        return {d: [c.support for c in model.cohomology_basis(d)] for d in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, k % 2 == 1) for k in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all([r[d] for d in degrees] == want for r in results)
    for n in range(1, model.level_cap + 1):
        kept_sets = [tuple(t for t in range(n + 1) if t != i) for i in range(n + 1)]
        stack = model._face_stack(n)
        assert all(row is model.restrict(n, kept) for row, kept in zip(stack, kept_sets))
