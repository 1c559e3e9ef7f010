"""Constructors for the spaces under study and the maps between them.

Everything is built levelwise on dense integer ids, and every model's
face and degeneracy tables come from one image rule, handed to
``SimplicialSetModel.from_operators``.  The rule maps the ids it is asked
about: every simplex for the degeneracies, only the nondegenerate ones
for the faces.  The faces of a degenerate s_j y follow from the tables
below by the identities d_i s_j = s_{j-1} d_i, id, s_j d_{i-1}, so they
hold by construction for that (j, y):

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
canonical-key path: map key rows entrywise, sort them (collapsing repeats
for subsets), and rank them.  Every keyed level lists its keys in
lexicographic order (subsets by size first), so a row's id is its rank
(``_rank``), a sum of binomials read from one cached table, one gather
per key column; a subset key's padding, −1, comes first and adds 0.
A strictly increasing table, such as every degeneracy of either sphere
model, keeps rows canonical, so its images are never built: the cached
binomials are composed with the table once, and the key rows are ranked
through the result.
One-vertex sphere rows rank their step positions, complex rows their
vertex multisets.

Each constructed model records its canonical per-level labels in
``simplex_keys`` (id tuples into the input model's levels); these are
construction metadata and are not serialized.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, LevelSizeError
from .simplicial import SimplicialSetModel, canonical_json, operators, read_document

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


# ---------------------------------------------------------------------------
# canonical keys


def _combos(n: int, width: int, repeat: bool) -> np.ndarray:
    """The rows of ``itertools.combinations(range(n), width)`` as an array.

    With ``repeat`` the rows are those of ``combinations_with_replacement``.
    Built one column at a time: each row of the columns so far gets one
    child per value its next entry can take, leaving room for the entries
    after it, and that entry is the row's first allowed value plus a
    running offset inside the row's block of children, which keeps lex
    order.  The array is then filled from the last column back: each
    entry is repeated once per full row it begins, the sum over its
    children.
    """
    columns, counts = [], []
    first = np.zeros(1, dtype=np.intp)  # each row's smallest next entry
    for j in range(width):
        end = n if repeat else n - (width - 1 - j)  # past each row's last value
        count = np.maximum(end - first, 0)
        blocks = np.cumsum(count) - count  # where each row's children start
        column = np.repeat(first - blocks, count) + np.arange(count.sum())
        columns.append(column)
        counts.append(count)
        first = column + (not repeat)
    rows = np.empty((len(first), width), dtype=np.int32)
    begun = None  # how many full rows each entry of column j begins: one in the last
    for j in reversed(range(width)):
        rows[:, j] = columns[j] if begun is None else np.repeat(columns[j], begun)
        # a row begins the full rows its children begin; past the first
        # column no row is childless, so no block of reduceat is empty
        if begun is None:
            begun = counts[j]
        elif j:
            begun = np.add.reduceat(begun, np.cumsum(counts[j]) - counts[j])
    return rows


def _canonical(rows: np.ndarray, sentinel: int | None = None) -> np.ndarray:
    """Sort each key row; with a sentinel, repeated entries collapse to it.

    Sorted rows are multiset keys.  Subset keys are padded with the
    sentinel, −1, so a collapsed repeat becomes padding and sorts to the
    front.
    """
    rows = np.sort(rows, axis=1)
    if sentinel is not None:
        rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = sentinel
        rows.sort(axis=1)
    return rows


@functools.cache
def _weights(n: int, width: int, padded: bool) -> np.ndarray:
    """What each entry of a key row adds to its id; padding (a = n or −1) adds 0.

    An entry a with r entries from it to the end of the row adds
    ``weights[r, a]`` = −C(n − 1 − a, r), plus C(n, r) in a padded row
    (the subsets of size r come first) or C(n, width) at r = width in a
    full one, and −1 at r = 1, read once per row.  Row r = 0 is read by
    nothing; it lets column j of a row read ``weights[width − j]``.  Clipped
    so that sums stay in int64: a valid row reads no entry above its
    level's count, the others can overflow (in ``sphere(1, 70)``).
    """
    top = np.iinfo(np.int64).max // (width + 1)
    weights = np.zeros((width + 1, n + 1), dtype=np.int64)
    for r in range(1, width + 1):
        before = (math.comb(n, r) if padded or r == width else 0) - (r == 1)
        row = (before - math.comb(n - 1 - a, r) for a in range(n))
        weights[r, :n] = [min(max(w, -top), top) for w in row]
    weights.setflags(write=False)  # shared by every call through the cache
    return weights


def _rank(
    rows: np.ndarray, n: int, padded: bool = False, through: np.ndarray | None = None
) -> np.ndarray:
    """The level id of each strictly increasing key row over range(n), as int64.

    A full row a_0 < … < a_(w−1) has rank
    C(n, w) − 1 − Σ_j C(n − 1 − a_j, w − j), its position in
    ``_combos(n, w, False)``.  Padded rows are the subset keys of
    ``exp_subsets``: a row of size s holds w − s paddings −1, then its s
    entries, and keys run by size, then lexicographically, so its id is
    Σ_(t=1..s) C(n, t) − 1 − Σ_(j<s) C(n − 1 − a_j, s − j).  Either way
    entry j of a row has w − j entries from it to the end, and the id is
    the sum of ``weights[w − j]`` over the columns j; −1 reads the zero
    padding column.

    ``through`` ranks the image rows ``through[j][rows[:, j]]`` without
    building them: it holds one table per column, each column of weights
    is composed with its table once, and the key column gathers from the
    result.  The tables must keep rows canonical, which a strictly
    increasing table does; for padded rows each ends in −1, the image of
    the padding.
    """
    width = rows.shape[1]
    weights = _weights(n, width, padded)
    total = np.zeros(len(rows), dtype=np.int64)
    for j in range(width):  # entry j has r = width − j
        column = weights[width - j]
        if through is not None:
            column = column.take(through[j])
        total += column.take(rows[:, j])
    return total


def _multiset_rank(
    rows: np.ndarray, n: int, through: np.ndarray | None = None
) -> np.ndarray:
    """The position of each sorted multiset row in ``_combos(n, w, True)``.

    Adding (0, 1, …, w−1) turns the rows into rows of distinct entries
    over range(n + w − 1), in the same order; ``through``, one table per
    column, gets the same shift.
    """
    width = rows.shape[1]
    shift = np.arange(width)
    if through is None:
        return _rank(rows + shift, n + width - 1)
    return _rank(rows, n + width - 1, through=through + shift[:, None])


def _increasing(table: np.ndarray) -> bool:
    return bool((table[1:] > table[:-1]).all())


def _key_quotient(x, level_keys, padded: bool, description: str):
    """Model on canonical key rows of x's level ids; operators act entrywise.

    In padded (subset) keys −1 marks an empty slot and repeated ids
    collapse to it; otherwise keys are sorted multisets.  A strictly
    increasing table keeps key rows sorted and their distinct entries
    distinct, so its key rows are ranked through it, with −1 appended to
    a padded one (``_rank``'s ``through``): no image row is built or
    sorted.  Every degeneracy table of both sphere models is increasing;
    any other table maps the keys and canonicalises them.
    """
    sizes = x.level_sizes
    rank = functools.partial(_rank, padded=True) if padded else _multiset_rank

    def image(op, m, i, t, ids):
        table = getattr(x, op)[m][i]
        keys = level_keys[m][ids]
        increasing = _increasing(table)
        if padded:
            table = np.append(table, np.int32(-1))  # empty slots stay empty
        if increasing:  # one table per key column
            through = np.broadcast_to(table, (keys.shape[1], table.size))
            return rank(keys, sizes[t], through=through).astype(np.int32)
        rows = _canonical(table.take(keys), -1 if padded else None)
        return rank(rows, sizes[t]).astype(np.int32)

    return SimplicialSetModel.from_operators(
        x.level_cap, [len(keys) for keys in level_keys], image, description, level_keys
    )


def _check_level_size(what: str, level: int, size: int, bound: int):
    if size > bound:
        raise LevelSizeError(what, level, size, bound)


# ---------------------------------------------------------------------------
# complexes and spheres


def from_complex(
    facets,
    cap: int,
    description: str = "",
    max_level_size: int = DEFAULT_MAX_LEVEL_SIZE,
) -> SimplicialSetModel:
    """Model of an abstract simplicial complex given by ordered facets.

    Level m holds all weakly monotone (m+1)-tuples of vertices whose
    support is a face of the complex; faces delete a position and
    degeneracies repeat one: the union of each facet's (m+1)-multisets,
    where a row's id is its place among the sorted multiset ranks.  The
    budget bounds each facet's C(|f|+m, m+1) multisets before they are
    enumerated, and the merged level after.
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
    positions = [np.searchsorted(vertices, f) for f in facets]
    sizes = {len(f) for f in facets}
    # the clip of _weights: no valid row reads a weight above its level's count
    if math.comb(vertices.size + cap, cap + 1) > np.iinfo(np.int64).max // (cap + 2):
        raise ContractViolation(f"vertex multiset ranks of level {cap} overflow int64")

    # keys hold vertex positions; simplex_keys translate them to vertices.
    # level_codes[m] holds the sorted multiset ranks of level m's rows
    level_keys, level_codes = [], []
    for m in range(cap + 1):
        count = math.comb(max(sizes) + m, m + 1)  # a facet's multisets, at most
        _check_level_size("complex facet rows", m, count, max_level_size)
        multisets = {size: _combos(size, m + 1, repeat=True) for size in sizes}
        rows = np.concatenate([f[multisets[f.size]] for f in positions])
        codes, first = np.unique(_multiset_rank(rows, vertices.size), return_index=True)
        _check_level_size("complex", m, codes.size, max_level_size)
        level_keys.append(rows[first])
        level_codes.append(codes)

    def image(op, m, i, t, ids):
        codes = _multiset_rank(_vertex_rows(level_keys[m][ids], op, i), vertices.size)
        found = level_codes[t].searchsorted(codes)
        if (level_codes[t].take(found, mode="clip") != codes).any():
            raise ContractViolation("a vertex row off the complex")
        return found

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


def sphere(
    n: int, cap: int | None = None, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE
) -> SimplicialSetModel:
    """Boundary of the standard (n+1)-simplex on n+2 ordered vertices."""
    cap = _sphere_cap(n, cap)
    facets = list(itertools.combinations(range(n + 2), n + 1))
    return from_complex(facets, cap, f"sphere({n})", max_level_size=max_level_size)


def one_vertex_sphere(
    n: int, cap: int | None = None, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE
) -> SimplicialSetModel:
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
        _check_level_size("one-vertex sphere", m, math.comb(m, n) + 1, max_level_size)
        steps = _combos(m, n, repeat=False) + 1
        keys = np.zeros((len(steps) + 1, m + 1), dtype=np.int32)
        # a row's label at position p counts the steps at or before p
        keys[1:] = (steps[:, :, None] <= np.arange(m + 1)).sum(axis=1)
        level_keys.append(keys)

    def image(op, m, i, t, ids):
        rows = _vertex_rows(level_keys[m][ids], op, i)
        steps = np.diff(rows, axis=1)
        onto = (rows[:, 0] == 0) & (rows[:, -1] == n) & (steps <= 1).all(axis=1)
        found = np.zeros(len(rows), dtype=np.int32)
        # an onto row's steps are n positions among t
        found[onto] = 1 + _rank(np.nonzero(steps[onto])[1].reshape(-1, n), t)
        return found

    return SimplicialSetModel.from_operators(
        cap,
        [len(keys) for keys in level_keys],
        image,
        f"one_vertex_sphere({n})",
        level_keys,
    )


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

    def image(op, m, i, t, ids):
        cs = coords[m][ids]
        out = np.zeros(len(cs), dtype=np.int64)
        for j, f in enumerate(factors):
            out = out * sizes[t][j] + getattr(f, op)[m][i][cs[:, j]]
        return out.astype(np.int32)

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
    for m, lm in enumerate(x.level_sizes):
        _check_level_size("sym-power", m, math.comb(lm + k - 1, k), max_level_size)
    level_keys = [_combos(lm, k, repeat=True) for lm in x.level_sizes]
    return _key_quotient(x, level_keys, False, f"sym_{k}({x.description})")


def _subset_level_count(level_size: int, k: int) -> int:
    return sum(math.comb(level_size, s) for s in range(1, k + 1))


def exp_subsets(
    x, k: int, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE
) -> SimplicialSetModel:
    """Space of nonempty subsets of size at most k, level by level.

    Level m consists of the nonempty subsets of the level-m ids of x with
    at most k elements; faces and degeneracies act elementwise, collapsing
    duplicates.  Keys are sorted id tuples, padded in front with −1.
    """
    if k < 1:
        raise ContractViolation("cardinality bound must be at least 1")
    for m, lm in enumerate(x.level_sizes):
        _check_level_size("subset space", m, _subset_level_count(lm, k), max_level_size)
    level_keys = []
    for lm in x.level_sizes:
        keys = np.full((_subset_level_count(lm, k), k), -1, dtype=np.int32)
        row = 0
        for s in range(1, min(k, lm) + 1):
            combos = _combos(lm, s, repeat=False)
            keys[row : row + len(combos), k - s :] = combos
            row += len(combos)
        level_keys.append(keys)
    return _key_quotient(x, level_keys, True, f"exp_{k}({x.description})")


# ---------------------------------------------------------------------------
# the squaring map and the gluing square


def _multiset_map(x, source, target, rows, description) -> SimplicialMapModel:
    """Send each source simplex to the target multiset ``rows`` of its key."""
    if source.level_cap != x.level_cap or target.level_cap != x.level_cap:
        raise ContractViolation("all caps must agree")
    if source.simplex_keys is None or target.simplex_keys is None:
        raise ContractViolation("a model read back from a file carries no simplex keys")
    maps = []
    for m, n in enumerate(x.level_sizes):
        image = _canonical(rows(source.simplex_keys[m]))
        keys = target.simplex_keys[m]
        ids = _multiset_rank(np.clip(image, 0, n), n)  # clipped into the weights
        inside = np.all((ids >= 0) & (ids < len(keys)))
        if not (inside and np.array_equal(keys[ids], image)):
            raise ContractViolation(f"level {m} images are not keys of the target")
        maps.append(ids)
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

    def image(op, m, i, t, ids):
        table = np.concatenate(
            [getattr(a, op)[m][i], a.level_sizes[t] + getattr(b, op)[m][i]]
        )
        return class_of[t][table[reps[m][ids]]]

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
    """The id of each key row's support among subsets of at most ``width`` ids."""
    rows = np.full((keys.shape[0], width), -1, dtype=np.int32)
    rows[:, width - keys.shape[1] :] = keys
    return _rank(_canonical(rows, -1), level_size, padded=True)


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
    had before the field existed.  A field its kind does not read is
    refused, so one space has one spec text.
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
            if self.n is not None:
                raise ContractViolation("complex spec takes no sphere dimension n")
        elif self.facets is not None:
            raise ContractViolation(f"{self.kind} spec takes no facets")
        elif self.n is None or self.n < 1:
            raise ContractViolation("spec needs a sphere dimension n >= 1")
        if self.kind in ("power", "sym", "exp"):
            if self.k is None or self.k < 1:
                raise ContractViolation(f"{self.kind} spec needs k >= 1")
        elif self.k is not None:
            raise ContractViolation(f"{self.kind} spec takes no k")
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
        # the fields the kind reads, which are the ones set: the others are refused
        d = {"format": SPACE_SPEC_FORMAT, "kind": self.kind, "n": self.n, "k": self.k}
        d = {key: value for key, value in d.items() if value is not None}
        if self.facets:
            d["facets"] = [list(f) for f in self.facets]
        d["cap"] = self.default_cap()
        d["max_level_size"] = self.max_level_size
        if self.base != "boundary":  # boundary specs keep their pre-base text
            d["base"] = self.base
        return d

    def to_json_text(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d) -> "SpaceSpec":
        read_document(d, SPACE_SPEC_FORMAT, "kind")
        facets = d.get("facets")
        return cls(
            kind=d["kind"],
            n=d.get("n"),
            k=d.get("k"),
            cap=d.get("cap"),
            facets=tuple(tuple(f) for f in facets) if facets is not None else None,
            max_level_size=d.get("max_level_size", DEFAULT_MAX_LEVEL_SIZE),
            base=d.get("base", "boundary"),
        )


def build_space(spec: SpaceSpec) -> SimplicialSetModel:
    """Build the model a spec describes."""
    cap = spec.default_cap()
    bound = spec.max_level_size
    if spec.kind == "complex":
        return from_complex(spec.facets, cap, max_level_size=bound)
    base = SPHERE_BASES[spec.base](spec.n, cap, max_level_size=bound)
    if spec.kind == "sphere":
        return base
    if spec.kind == "product":
        return product(base, base, max_level_size=bound)
    build = {"power": power, "sym": sym_power, "exp": exp_subsets}[spec.kind]
    return build(base, spec.k, max_level_size=bound)
