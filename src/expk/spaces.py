"""Constructors for the spaces under study and the maps between them.

Everything is built levelwise on dense integer ids, and every model's
face and degeneracy tables come from one image rule, handed to
``SimplicialSetModel.from_operators``:

* ``from_complex`` turns an ordered facet list into the simplicial set of
  weakly monotone vertex tuples supported on a face.
* ``sphere(n)`` is the boundary of the standard (n+1)-simplex, ∂Δⁿ⁺¹;
  its level m has C(m+n+2, n+1) − C(m, n+1) simplices.
* ``one_vertex_sphere(n)`` is Δⁿ/∂Δⁿ: a basepoint plus the surjective
  monotone maps [m] -> [n], C(m, n) + 1 simplices at level m.  Levelwise
  products, quotients and pushouts of either model realise to the same
  space (realisation commutes with finite products and colimits), so the
  one-vertex model gives the same tables from far smaller levels.
* ``product`` / ``power`` use mixed-radix ids, so faces and degeneracies
  are plain integer arithmetic.
* ``sym_power`` quotients the k-fold power by coordinate permutation;
  level elements are sorted id tuples (multisets), enumerated directly.
  ``sym_projection`` is the levelwise quotient map from the power.
* ``exp_subsets`` keeps nonempty id subsets of size at most k; faces act
  elementwise with duplicates collapsing.
* ``pushout`` glues two maps with a shared source, level by level,
  labelling each class by its smallest element.

Symmetric powers, subset spaces and the maps into them share one
canonical-key path: map key rows entrywise, sort them (a min/max network
for rows of width 2 or 3; collapsing repeats for subsets), and look the
rows up in the target level.

Each constructed model records its canonical per-level labels in
``simplex_keys`` (id tuples into the input model's levels); these are
construction metadata and are not serialized.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, LevelSizeError
from .simplicial import SimplicialSetModel, canonical_json, operators

DEFAULT_MAX_LEVEL_SIZE = 5_000_000

SPACE_SPEC_FORMAT = "space-spec/1"


class SimplicialMapModel:
    """A levelwise function between models that respects the structure maps."""

    def __init__(self, source, target, level_maps, description=""):
        if source.level_cap != target.level_cap:
            raise ContractViolation("map endpoints must share a level cap")
        if len(level_maps) != source.level_cap + 1:
            raise ContractViolation("need one level map per level")
        self.source = source
        self.target = target
        self.description = description
        maps = []
        for n, m in enumerate(level_maps):
            arr = np.ascontiguousarray(m, dtype=np.int32)
            if arr.shape != (source.level_sizes[n],):
                raise ContractViolation(f"level map {n} has wrong length")
            if arr.size and (arr.min() < 0 or arr.max() >= target.level_sizes[n]):
                raise ContractViolation(f"level map {n} points out of range")
            arr.setflags(write=False)
            maps.append(arr)
        self.level_maps = maps

    def commutes(self) -> bool:
        """Exhaustive levelwise check against all faces and degeneracies."""
        src, tgt, f = self.source, self.target, self.level_maps
        return all(
            np.array_equal(
                getattr(tgt, kind)[n][i][f[n]], f[t][getattr(src, kind)[n][i]]
            )
            for kind, n, i, t in operators(src.level_cap)
        )

    def __eq__(self, other):
        if not isinstance(other, SimplicialMapModel):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.level_maps, other.level_maps)
            )
        )

    def __repr__(self):
        return f"SimplicialMapModel({self.description or 'unnamed'})"


def identity_map(x: SimplicialSetModel) -> SimplicialMapModel:
    return SimplicialMapModel(
        x,
        x,
        [np.arange(s, dtype=np.int32) for s in x.level_sizes],
        description=f"id[{x.description}]",
    )


# ---------------------------------------------------------------------------
# canonical keys


def _encode(rows: np.ndarray, base: int) -> np.ndarray:
    """Positional base-``base`` int64 code of each key row."""
    rows = np.asarray(rows, dtype=np.int64)
    codes = np.zeros(rows.shape[0], dtype=np.int64)
    for j in range(rows.shape[1]):
        codes = codes * base + rows[:, j]
    return codes


# compare-exchange column pairs that sort rows of width 2 or 3
_SORTING_NETWORKS = {2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1))}


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    """A copy of ``rows`` with each row sorted ascending.

    Rows of width 2 or 3 go through a min/max sorting network, a few
    whole-column passes; on rows that narrow, ``np.sort(axis=1)`` spends
    its time in per-row overhead.
    """
    network = _SORTING_NETWORKS.get(rows.shape[1])
    if network is None:
        return np.sort(rows, axis=1)
    rows = rows.copy()
    for a, b in network:
        low = np.minimum(rows[:, a], rows[:, b])
        np.maximum(rows[:, a], rows[:, b], out=rows[:, b])
        rows[:, a] = low
    return rows


def _canonical(rows: np.ndarray, sentinel: int | None = None) -> np.ndarray:
    """Sort each key row; with a sentinel, repeated entries collapse to it.

    Sorted rows are multiset keys.  Subset keys are padded with the
    sentinel (the level size), so a collapsed repeat becomes padding and
    sorts to the end.
    """
    rows = _sort_rows(rows)
    if sentinel is not None:
        rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = sentinel
        rows = _sort_rows(rows)
    return rows


class _RowCoder:
    """Lookup table from canonical key rows to level ids.

    Rows are encoded positionally in base M into int64 when that fits,
    with a dict fallback otherwise.  Ids follow the construction order of
    the supplied key array.
    """

    def __init__(self, keys: np.ndarray, base: int):
        self.base = max(int(base), 1)
        self.width = keys.shape[1]
        self._fast = self.base**self.width < 2**62
        if self._fast:
            codes = _encode(keys, self.base)
            self._order = np.argsort(codes, kind="stable").astype(np.int64)
            self._sorted = codes[self._order]
        else:
            self._table = {tuple(row): i for i, row in enumerate(keys.tolist())}

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        if rows.shape[1] != self.width:
            # positional codes would read a short row as zero-padded
            raise ContractViolation(
                f"lookup of width-{rows.shape[1]} rows among width-{self.width} keys"
            )
        if self._fast:
            codes = _encode(rows, self.base)
            pos = np.searchsorted(self._sorted, codes)
            if pos.size and (
                pos.max() >= self._sorted.size
                or not np.array_equal(self._sorted[pos], codes)
            ):
                raise ContractViolation("lookup of a key outside the level")
            return self._order[pos].astype(np.int32)
        return np.fromiter(
            (self._table[tuple(r)] for r in rows.tolist()),
            dtype=np.int32,
            count=len(rows),
        )


def _rows(tuples, width: int, count: int) -> np.ndarray:
    """The ``count`` int tuples of one width, stacked into an array."""
    return np.fromiter(
        itertools.chain.from_iterable(tuples), dtype=np.int32, count=width * count
    ).reshape(-1, width)


def _key_quotient(x, level_keys, padded: bool, description: str):
    """Model on canonical key rows of x's level ids; operators act entrywise.

    In padded (subset) keys the level size marks an empty slot and
    repeated ids collapse to it; otherwise keys are sorted multisets.
    """
    sizes = x.level_sizes
    coders = [_RowCoder(keys, sizes[m] + padded) for m, keys in enumerate(level_keys)]

    def image(op, m, i, t):
        table = getattr(x, op)[m][i]
        if padded:
            table = np.append(table, np.int32(sizes[t]))  # empty slots stay empty
        rows = _canonical(table[level_keys[m]], sizes[t] if padded else None)
        return coders[t].lookup(rows)

    return SimplicialSetModel.from_operators(
        x.level_cap, [len(keys) for keys in level_keys], image, description, level_keys
    )


def _check_level_size(what: str, level: int, size: int, bound: int):
    if size > bound:
        raise LevelSizeError(what, level, size, bound)


# ---------------------------------------------------------------------------
# complexes and spheres


def from_complex(facets, cap: int, description: str = "") -> SimplicialSetModel:
    """Model of an abstract simplicial complex given by ordered facets.

    Level m holds all weakly monotone (m+1)-tuples of vertices whose
    support is a face of the complex; faces delete a position and
    degeneracies repeat one.
    """
    if cap < 1:
        raise ContractViolation("cap must be at least 1")
    facets = [tuple(int(v) for v in f) for f in facets]
    if not facets:
        raise ContractViolation("facet list is empty")
    for f in facets:
        if not f or any(a >= b for a, b in zip(f, f[1:])):
            raise ContractViolation(
                f"facet {f} is not a strictly increasing vertex tuple"
            )
    vertices = np.array(sorted({v for f in facets for v in f}), dtype=np.int32)
    face_set = set()
    for f in facets:
        pos = np.searchsorted(vertices, f).tolist()
        for s in range(1, len(pos) + 1):
            face_set.update(frozenset(c) for c in itertools.combinations(pos, s))

    # keys hold vertex positions; simplex_keys translate them to vertices
    level_keys = [
        np.array(
            [
                t
                for t in itertools.combinations_with_replacement(
                    range(vertices.size), m + 1
                )
                if frozenset(t) in face_set
            ],
            dtype=np.int32,
        )
        for m in range(cap + 1)
    ]
    coders = [_RowCoder(keys, vertices.size) for keys in level_keys]

    def image(op, m, i, t):
        return coders[t].lookup(_vertex_rows(level_keys[m], op, i))

    return SimplicialSetModel.from_operators(
        cap,
        [len(keys) for keys in level_keys],
        image,
        description or "complex",
        [vertices[keys] for keys in level_keys],
    )


def _vertex_rows(keys: np.ndarray, op: str, i: int) -> np.ndarray:
    """Monotone vertex rows under face i (delete) or degeneracy i (repeat)."""
    if op == "faces":
        return np.delete(keys, i, axis=1)
    return np.insert(keys, i, keys[:, i], axis=1)


def _sphere_cap(n: int, cap: int | None) -> int:
    """The level cap of an n-sphere model: n + 1 by default, at least n."""
    if n < 1:
        raise ContractViolation("sphere dimension must be at least 1")
    if cap is None:
        return n + 1
    if cap < n:
        raise ContractViolation("cap must be at least the sphere dimension")
    return cap


def sphere(n: int, cap: int | None = None) -> SimplicialSetModel:
    """Boundary of the standard (n+1)-simplex on n+2 ordered vertices."""
    cap = _sphere_cap(n, cap)
    facets = list(itertools.combinations(range(n + 2), n + 1))
    return from_complex(facets, cap, description=f"sphere({n})")


def one_vertex_sphere(n: int, cap: int | None = None) -> SimplicialSetModel:
    """The n-simplex with its boundary collapsed to a point, Δⁿ/∂Δⁿ.

    Level m holds the basepoint (id 0, keyed by the constant row of zeros)
    and the surjective monotone maps [m] -> [n] as rows of vertex labels,
    in the order of their step sets: C(m, n) + 1 simplices, against
    C(m+n+2, n+1) − C(m, n+1) for the boundary of the (n+1)-simplex.  A
    face whose row stops being surjective lands in the collapsed boundary,
    the basepoint; the basepoint maps to itself under every operator.
    """
    cap = _sphere_cap(n, cap)
    level_keys = []
    for m in range(cap + 1):
        count = math.comb(m, n)
        steps = _rows(itertools.combinations(range(1, m + 1), n), n, count)
        keys = np.zeros((count + 1, m + 1), dtype=np.int32)
        # a row's label at position p counts the steps at or before p
        keys[1:] = (steps[:, :, None] <= np.arange(m + 1)).sum(axis=1)
        level_keys.append(keys)
    coders = [_RowCoder(keys, n + 1) for keys in level_keys]

    def image(op, m, i, t):
        rows = _vertex_rows(level_keys[m], op, i)
        onto = (rows[:, 0] == 0) & (rows[:, -1] == n)
        onto &= (np.diff(rows, axis=1) <= 1).all(axis=1)
        rows[~onto] = 0
        return coders[t].lookup(rows)

    return SimplicialSetModel.from_operators(
        cap,
        [len(keys) for keys in level_keys],
        image,
        f"one_vertex_sphere({n})",
        level_keys,
    )


def point(cap: int) -> SimplicialSetModel:
    return from_complex([(0,)], cap, description="point")


# ---------------------------------------------------------------------------
# products and powers


def multi_product(
    factors, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE, description: str = ""
) -> SimplicialSetModel:
    """Levelwise product with mixed-radix ids (last factor fastest)."""
    if not factors:
        raise ContractViolation("need at least one factor")
    cap = factors[0].level_cap
    if any(f.level_cap != cap for f in factors):
        raise ContractViolation("factors must share a level cap")
    nf = len(factors)
    sizes = [[f.level_sizes[m] for f in factors] for m in range(cap + 1)]
    level_sizes = [math.prod(s) for s in sizes]
    for m, ls in enumerate(level_sizes):
        _check_level_size("product", m, ls, max_level_size)

    coords = []
    for m in range(cap + 1):
        cs = np.empty((level_sizes[m], nf), dtype=np.int32)
        rest = np.arange(level_sizes[m], dtype=np.int64)
        for j in range(nf - 1, -1, -1):
            rest, cs[:, j] = np.divmod(rest, sizes[m][j])
        coords.append(cs)

    def image(op, m, i, t):
        ids = np.zeros(level_sizes[m], dtype=np.int64)
        for j, f in enumerate(factors):
            ids = ids * sizes[t][j] + getattr(f, op)[m][i][coords[m][:, j]]
        return ids.astype(np.int32)

    return SimplicialSetModel.from_operators(
        cap,
        level_sizes,
        image,
        description or "(" + " x ".join(f.description for f in factors) + ")",
        coords,
    )


def product(a, b, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE):
    """Binary product; pairs are nondegenerate unless one index degenerates both."""
    return multi_product([a, b], max_level_size=max_level_size)


def power(x, k: int, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE):
    if k < 1:
        raise ContractViolation("power exponent must be at least 1")
    return multi_product(
        [x] * k,
        max_level_size=max_level_size,
        description=f"{x.description}^{k}",
    )


# ---------------------------------------------------------------------------
# symmetric powers and finite subset spaces


def sym_power(
    x, k: int, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE
) -> SimplicialSetModel:
    """Orbit quotient of the k-fold power by coordinate permutation.

    Level elements are size-k multisets of level ids, canonically sorted
    tuples in lexicographic order, enumerated directly without building
    the power.  ``sym_projection`` gives the quotient map from the power.
    """
    if k < 1:
        raise ContractViolation("multiset size must be at least 1")
    counts = [math.comb(lm + k - 1, k) for lm in x.level_sizes]
    for m, count in enumerate(counts):
        _check_level_size("sym-power", m, count, max_level_size)
    level_keys = [
        _rows(itertools.combinations_with_replacement(range(lm), k), k, count)
        for lm, count in zip(x.level_sizes, counts)
    ]
    return _key_quotient(x, level_keys, False, f"sym_{k}({x.description})")


def _subset_level_count(level_size: int, k: int) -> int:
    return sum(math.comb(level_size, s) for s in range(1, k + 1))


def exp_subsets(
    x, k: int, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE
) -> SimplicialSetModel:
    """Space of nonempty subsets of size at most k, level by level.

    Level m consists of the nonempty subsets of the level-m ids of x with
    at most k elements; faces and degeneracies act elementwise, collapsing
    duplicates.  Keys are sorted id tuples padded with the level size.
    """
    if k < 1:
        raise ContractViolation("cardinality bound must be at least 1")
    for m, lm in enumerate(x.level_sizes):
        _check_level_size("subset space", m, _subset_level_count(lm, k), max_level_size)
    level_keys = []
    for lm in x.level_sizes:
        keys = np.full((_subset_level_count(lm, k), k), lm, dtype=np.int32)
        row = 0
        for s in range(1, min(k, lm) + 1):
            count = math.comb(lm, s)
            combos = itertools.combinations(range(lm), s)
            keys[row : row + count, :s] = _rows(combos, s, count)
            row += count
        level_keys.append(keys)
    return _key_quotient(x, level_keys, True, f"exp_{k}({x.description})")


# ---------------------------------------------------------------------------
# the squaring map and the gluing square


def _multiset_map(x, source, target, rows, description) -> SimplicialMapModel:
    """Send each source simplex to the target multiset ``rows`` of its key."""
    if source.level_cap != x.level_cap or target.level_cap != x.level_cap:
        raise ContractViolation("all caps must agree")
    maps = [
        _RowCoder(target.simplex_keys[m], x.level_sizes[m]).lookup(
            _canonical(rows(source.simplex_keys[m]))
        )
        for m in range(x.level_cap + 1)
    ]
    return SimplicialMapModel(source, target, maps, description=description)


def diagonal_insertion(
    x,
    square: SimplicialSetModel | None = None,
    sym3: SimplicialSetModel | None = None,
) -> SimplicialMapModel:
    """The map sending a pair (u, v) to the multiset {u, u, v}.

    Levelwise insertion of the doubled first coordinate into the 3-fold
    symmetric power.  Prebuilt product / symmetric-power models may be
    supplied to avoid reconstruction; they must match structurally.
    """
    if square is None:
        square = product(x, x)
    if sym3 is None:
        sym3 = sym_power(x, 3)
    return _multiset_map(
        x,
        square,
        sym3,
        lambda pairs: pairs[:, [0, 0, 1]],
        f"(u,v) -> {{u,u,v}} on {x.description}",
    )


def sym_projection(
    x,
    k: int,
    source: SimplicialSetModel | None = None,
    sym: SimplicialSetModel | None = None,
) -> SimplicialMapModel:
    """The quotient map from the k-fold power onto ``sym_power(x, k)``.

    A k-tuple goes to the multiset of its coordinates.  A prebuilt power
    (``source``) / symmetric-power model may be supplied, as for
    ``diagonal_insertion``.
    """
    if source is None:
        source = power(x, k)
    if sym is None:
        sym = sym_power(x, k)
    return _multiset_map(
        x, source, sym, lambda tuples: tuples, f"quotient {x.description}^{k} -> sym"
    )


def _class_roots(size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest member of each element's class under u[z] ~ v[z].

    Min-label propagation with pointer jumping: every element points at
    a root; each round hooks each root onto the smallest root it shares
    a pair with and flattens the result, until no pair spans two roots.
    """
    root = np.arange(size)
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            return root
        low = np.minimum(ru, rv)
        np.minimum.at(root, ru, low)
        np.minimum.at(root, rv, low)
        while not np.array_equal(root[root], root):
            root = root[root]


def pushout(f: SimplicialMapModel, g: SimplicialMapModel):
    """Levelwise set pushout of two maps sharing a source.

    Returns the glued model and the two canonical maps from the targets.
    Class ids follow first occurrence, scanning the first target's ids and
    then the second's.
    """
    if f.source != g.source:
        raise ContractViolation("pushout legs must share their source")
    a, b = f.target, g.target
    cap = a.level_cap
    if b.level_cap != cap:
        raise ContractViolation("pushout targets must share the level cap")

    # elements of level m: a's ids, then b's ids shifted by a's level size
    class_of = []
    reps = []
    for m in range(cap + 1):
        la = a.level_sizes[m]
        root = _class_roots(
            la + b.level_sizes[m], f.level_maps[m], la + g.level_maps[m]
        )
        rep, labels = np.unique(root, return_inverse=True)
        reps.append(rep)
        class_of.append(labels.astype(np.int32))

    def image(op, m, i, t):
        table = np.concatenate(
            [getattr(a, op)[m][i], a.level_sizes[t] + getattr(b, op)[m][i]]
        )
        return class_of[t][table[reps[m]]]

    glued = SimplicialSetModel.from_operators(
        cap,
        [rep.size for rep in reps],
        image,
        f"pushout({a.description} <- {f.source.description} -> {b.description})",
    )
    into_a = SimplicialMapModel(
        a,
        glued,
        [class_of[m][: a.level_sizes[m]] for m in range(cap + 1)],
        description="pushout leg from first target",
    )
    into_b = SimplicialMapModel(
        b,
        glued,
        [class_of[m][a.level_sizes[m] :] for m in range(cap + 1)],
        description="pushout leg from second target",
    )
    return glued, into_a, into_b


# ---------------------------------------------------------------------------
# comparisons pinning the subset-space models to the gluing square


def _support_codes(keys: np.ndarray, level_size: int, width: int) -> np.ndarray:
    """Encode the support set of each key row (sorted, dedup, padded)."""
    rows = np.full((keys.shape[0], width), level_size, dtype=np.int32)
    rows[:, : keys.shape[1]] = keys
    return _encode(_canonical(rows, level_size), level_size + 1)


def compare_pushout_with_subsets(x, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE):
    """Levelwise comparison of the gluing square with the subset space.

    Glues the triple symmetric power and the double symmetric power along
    the square of x (doubled-coordinate insertion on one leg, quotient
    projection on the other) and checks that taking supports is a
    bijection from the glued classes onto the level sets of the space of
    at most three points.  Returns (ok, detail).
    """
    square = product(x, x, max_level_size=max_level_size)
    sym3 = sym_power(x, 3, max_level_size=max_level_size)
    sym2 = sym_power(x, 2, max_level_size=max_level_size)
    alpha = diagonal_insertion(x, square=square, sym3=sym3)
    proj2 = sym_projection(x, 2, source=square, sym=sym2)
    glued, into_sym3, into_sym2 = pushout(alpha, proj2)
    subsets = exp_subsets(x, 3, max_level_size=max_level_size)
    for m in range(x.level_cap + 1):
        if not np.array_equal(
            into_sym3.level_maps[m][alpha.level_maps[m]],
            into_sym2.level_maps[m][proj2.level_maps[m]],
        ):
            return False, f"gluing square fails to commute at level {m}"
        nclasses = glued.level_sizes[m]
        if nclasses != subsets.level_sizes[m]:
            return False, f"class count differs from subset count at level {m}"
        lm = x.level_sizes[m]
        # support must be constant on classes, and class -> support must
        # enumerate the subset level exactly
        class_support = np.full(nclasses, -1, dtype=np.int64)
        batches = [
            (_support_codes(sym3.simplex_keys[m], lm, 3), into_sym3.level_maps[m]),
            (_support_codes(sym2.simplex_keys[m], lm, 3), into_sym2.level_maps[m]),
        ]
        for codes, cls in batches:
            class_support[cls] = codes
        for codes, cls in batches:
            if not np.array_equal(class_support[cls], codes):
                return False, f"support is not constant on classes at level {m}"
        if (class_support < 0).any():
            return False, f"an empty glued class appeared at level {m}"
        expect = _support_codes(subsets.simplex_keys[m], lm, 3)
        if not np.array_equal(np.sort(class_support), np.sort(expect)):
            return False, f"glued classes and subset level differ at level {m}"
    return True, "supports give a levelwise bijection"


def compare_sym2_with_subsets(x, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE):
    """Supports identify double-multiset levels with two-point subset levels."""
    sym2 = sym_power(x, 2, max_level_size=max_level_size)
    subsets = exp_subsets(x, 2, max_level_size=max_level_size)
    for m in range(x.level_cap + 1):
        lm = x.level_sizes[m]
        codes_sym = _support_codes(sym2.simplex_keys[m], lm, 2)
        codes_sub = _support_codes(subsets.simplex_keys[m], lm, 2)
        if np.unique(codes_sym).size != codes_sym.size:
            return False, f"support map fails to be injective at level {m}"
        if not np.array_equal(np.sort(codes_sym), np.sort(codes_sub)):
            return False, f"support map fails to be onto at level {m}"
    return True, "supports give a levelwise bijection"


# ---------------------------------------------------------------------------
# declarative space descriptions (CLI-facing)


SPACE_KINDS = ("sphere", "product", "power", "sym", "exp", "complex")

# the sphere models a spec's ``base`` names
SPHERE_BASES = {"boundary": sphere, "one-vertex": one_vertex_sphere}


@dataclass(frozen=True)
class SpaceSpec:
    """Declarative description of a buildable space.

    ``base`` names the sphere model that every kind but ``complex`` is
    built on: ``"boundary"`` (∂Δⁿ⁺¹, the default) or ``"one-vertex"``
    (Δⁿ/∂Δⁿ).  The JSON form carries ``base`` only for ``"one-vertex"``,
    so a boundary spec's text, and every hash keyed by it, is the one it
    had before the field existed.
    """

    kind: str
    n: int | None = None
    k: int | None = None
    cap: int | None = None
    facets: tuple | None = None
    max_level_size: int = DEFAULT_MAX_LEVEL_SIZE
    base: str = "boundary"

    def __post_init__(self):
        if self.kind not in SPACE_KINDS:
            raise ContractViolation(f"unknown space kind {self.kind!r}")
        if self.base not in SPHERE_BASES:
            raise ContractViolation(f"unknown sphere base {self.base!r}")
        if self.kind == "complex":
            if not self.facets:
                raise ContractViolation("complex spec needs facets")
            if self.base != "boundary":
                raise ContractViolation("a complex spec has no sphere base")
        elif self.n is None or self.n < 1:
            raise ContractViolation("spec needs a sphere dimension n >= 1")
        if self.kind in ("power", "sym", "exp") and (self.k is None or self.k < 1):
            raise ContractViolation(f"{self.kind} spec needs k >= 1")
        if self.cap is not None and self.cap < 1:
            raise ContractViolation("cap must be at least 1")

    def default_cap(self) -> int:
        if self.cap is not None:
            return self.cap
        if self.kind == "sphere":
            return self.n + 1
        if self.kind == "product":
            return 2 * self.n + 1
        if self.kind == "complex":
            return max(len(f) for f in self.facets) + 1
        return self.k * self.n + 1

    def to_json_dict(self) -> dict:
        d = {"format": SPACE_SPEC_FORMAT, "kind": self.kind}
        if self.kind == "complex":
            d["facets"] = [list(f) for f in self.facets]
        else:
            d["n"] = self.n
        if self.kind in ("power", "sym", "exp"):
            d["k"] = self.k
        d["cap"] = self.default_cap()
        d["max_level_size"] = self.max_level_size
        if self.base != "boundary":  # boundary specs keep their pre-base text
            d["base"] = self.base
        return d

    def to_json_text(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d) -> "SpaceSpec":
        if d.get("format") != SPACE_SPEC_FORMAT:
            raise ContractViolation("not a space-spec document")
        facets = d.get("facets")
        return cls(
            kind=d["kind"],
            n=d.get("n"),
            k=d.get("k"),
            cap=d.get("cap"),
            facets=tuple(tuple(f) for f in facets) if facets else None,
            max_level_size=d.get("max_level_size", DEFAULT_MAX_LEVEL_SIZE),
            base=d.get("base", "boundary"),
        )

    @classmethod
    def from_json_text(cls, text: str) -> "SpaceSpec":
        return cls.from_json_dict(json.loads(text))


def build_space(spec: SpaceSpec) -> SimplicialSetModel:
    """Build the model a spec describes."""
    cap = spec.default_cap()
    bound = spec.max_level_size
    if spec.kind == "complex":
        return from_complex(spec.facets, cap)
    base = SPHERE_BASES[spec.base](spec.n, cap)
    if spec.kind == "sphere":
        return base
    if spec.kind == "product":
        return product(base, base, max_level_size=bound)
    if spec.kind == "power":
        return power(base, spec.k, max_level_size=bound)
    if spec.kind == "sym":
        return sym_power(base, spec.k, max_level_size=bound)
    if spec.kind == "exp":
        return exp_subsets(base, spec.k, max_level_size=bound)
    raise ContractViolation(f"unknown space kind {spec.kind!r}")
