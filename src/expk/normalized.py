"""The normalized chain complex of exp_k and Sym_k over a stored base.

A stored model (``expk.spaces``) keeps every simplex of every level and
marks the nondegenerate ones; exp₅(S²) stores 6.47M simplices for 18,763
nondegenerate ones.  ``NormalizedModel`` keeps only the nondegenerate
simplices, and gives ``simplicial.ChainModel`` the members it builds on:
``level_cap``, ``_nondegenerate_ids`` and ``_restrict``.  Its base is a
stored model, such as either sphere of ``expk.spaces`` or a
``from_complex`` model, read only through the base's own tables.

Keys
----
A level-m simplex of exp_k is a set of at most k of the base's level-m
ids, and one of Sym_k a multiset of k: the key rows of
``spaces.KEY_LAYOUTS``, k ids sorted ascending, an exp row padded in
front with -1.  A row's id is the layout's rank, the id that
``spaces.exp_subsets`` or ``spaces.sym_power`` of the same base gives
it; a level keeps its rows sorted by id and the ids, ascending, as
``_nondegenerate_ids``, so nondegenerate positions, cohomology bases and
ring tables are the stored model's.  A level with a row whose ids could
pass int64 is refused.

An element's mask has bit p, for p in 1..m, set when the element is not
in the image of s_(p-1), read off the base's degeneracy tables.
Degeneracies act elementwise and are injective, so a row is s_(p-1)
of a row exactly when each of its elements is s_(p-1) of an element:
a row is nondegenerate exactly when its elements' masks cover 1..m.  An
element that degenerates from a nondegenerate d-simplex y has d bits
set, the steps of the surjection [m] -> [d] that takes y to it; so the
levels stop at k·dim, dim the base's top nondegenerate level, and
``level_cap`` is k·dim + 1, a level the base must reach.

Enumeration
-----------
Elements are offered in the order of their masks' lowest bits, zero
masks first (on the one-vertex sphere, the id order).  A level's
families grow one element at a time, in increasing offer order
(nondecreasing for Sym), as ``spaces._combos`` grows its rows.  An
element whose lowest bit lies past a family's lowest uncovered position,
and every element after it, leaves that position uncovered: only
elements up to the last one whose lowest bit is at or below it are
offered.  A family with more positions uncovered than dim times its
free slots is dropped.  The per-level budget is checked before a level
is enumerated, against its count by inclusion–exclusion over the base's
nondegenerate simplices (``nondegenerate_count``).

Faces
-----
The face of a row spanned by vertex positions ``kept`` is the row of its
elements' faces.  ``restrict`` composes the base's face tables into one
lookup over the level's ids (``apply``), gathers every row through it,
sorts the rows (for exp, a repeat becomes padding), drops the faces
whose masks do not cover, ranks the rest and finds them by
``searchsorted`` over the ids of the level below.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation
from .simplicial import ChainModel
from .spaces import DEFAULT_MAX_LEVEL_SIZE, KEY_LAYOUTS, _canonical, _check_level_size


def nondegenerate_count(kind: str, cells, k: int, m: int) -> int:
    """How many nondegenerate level-m simplices exp_k or Sym_k of a base has.

    ``cells[d]`` counts the base's nondegenerate d-simplices.
    Inclusion–exclusion over the positions left uncovered: the families
    whose masks avoid j given positions are the keys over the elements
    that avoid them, C(m − j, d) step sets for each nondegenerate d-simplex.
    """
    count = KEY_LAYOUTS[kind].count
    return sum(
        (-1) ** j
        * math.comb(m, j)
        * count(sum(c * math.comb(m - j, d) for d, c in enumerate(cells)), k)
        for j in range(m + 1)
    )


def _first_bit(masks: np.ndarray) -> np.ndarray:
    """The position of each mask's lowest set bit; 64 for a zero mask."""
    # bitwise_count counts the bits of |x|, so a zero mask is read apart
    return np.where(masks == 0, 64, np.bitwise_count((masks & -masks) - 1))


class NormalizedModel(ChainModel):
    """The nondegenerate simplices of exp_k or Sym_k of ``base``, levels 0..k·dim + 1.

    ``base`` is a stored model whose level cap is at least k·dim + 1.
    Every level is enumerated when the model is built; over the budget,
    the build raises ``LevelSizeError``.  A level's ids are the stored
    model's, sorted, in ``_nondegenerate_ids``.
    """

    def __init__(self, kind, base, k, max_level_size=DEFAULT_MAX_LEVEL_SIZE):
        if kind not in KEY_LAYOUTS:
            raise ContractViolation(f"no normalized complex of kind {kind!r}")
        if k < 1:
            raise ContractViolation("a normalized complex needs k >= 1")
        self.kind, self.k, self._base = kind, k, base
        self._layout = KEY_LAYOUTS[kind]
        self._dim = base.top_nondegenerate_level()
        self.level_cap = k * self._dim + 1
        if base.level_cap < self.level_cap:
            raise ContractViolation(
                f"a normalized complex reads its base up to level {self.level_cap}, "
                f"above the base's cap {base.level_cap}"
            )
        if self.level_cap > 61:  # a mask holds bits 1..m of one int64
            raise ContractViolation(f"level cap {self.level_cap} exceeds 61")
        self.description = f"{kind}_{k}({base.description}), normalized"
        cells = [base.nondeg_count(d) for d in range(self._dim + 1)]
        # the clip of _weights: no valid row reads a weight above its
        # level's count; a level with no row, such as the cap, ranks none
        limit = np.iinfo(np.int64).max // (k + 1)
        self._masks, self._rows, self._nondegenerate_ids = [], [], []
        for m in range(self.level_cap + 1):
            count = nondegenerate_count(kind, cells, k, m)
            _check_level_size(f"normalized {kind}", m, count, max_level_size)
            size = base.level_sizes[m]
            if count and self._layout.count(size, k) > limit:
                raise ContractViolation(f"the ids of level {m} overflow int64")
            masks = np.full(size, (1 << (m + 1)) - 2, dtype=np.int64)
            for p, into in enumerate(base.degeneracies[m - 1] if m else (), start=1):
                masks[into] &= ~(1 << p)
            rows = self._families(masks, m)
            ids = self._layout.rank(rows, size)
            order = np.argsort(ids)
            self._masks.append(masks)
            self._rows.append(rows[order])
            self._nondegenerate_ids.append(ids[order])
        super().__init__()

    def _families(self, masks: np.ndarray, m: int) -> np.ndarray:
        """The nondegenerate level-m rows, in no particular order."""
        dim, k, repeat = self._dim, self.k, self.kind == "sym"
        full = (1 << (m + 1)) - 2
        first = np.where(masks == 0, 0, _first_bit(masks))
        offer = np.argsort(first, kind="stable")  # the element offered at each place
        first, masks = first.take(offer), masks.take(offer)  # first is nondecreasing
        rows = np.empty((1, 0), dtype=np.intp)
        cover = np.zeros(1, dtype=np.int64)
        low = np.zeros(1, dtype=np.intp)  # each family's smallest next place
        found = []
        for size in range(1, k + 1):
            high = np.searchsorted(first, _first_bit(full & ~cover), side="right")
            count = np.maximum(high - low, 0)
            parent = np.repeat(np.arange(count.size), count)
            starts = np.cumsum(count) - count
            places = np.repeat(low - starts, count) + np.arange(count.sum())
            cover = cover[parent] | masks[places]
            uncovered = np.bitwise_count(full & ~cover)
            keep = uncovered <= dim * (k - size)
            rows = np.column_stack([rows[parent[keep]], places[keep]])
            cover, low = cover[keep], places[keep] + (not repeat)
            if not repeat or size == k:
                done = rows[cover == full]
                found.append(np.pad(done, ((0, 0), (k - size, 0)), constant_values=-1))
        # places to the base's ids, sorted into keys; the padding -1 stays -1
        return _canonical(np.append(offer, -1).take(np.concatenate(found)))

    def _restrict(self, n: int, kept) -> np.ndarray:
        r = len(set(kept)) - 1
        dropped = tuple(("faces", t) for t in range(n + 1) if t not in kept)
        table = np.append(self._base.apply(n, dropped), -1)  # -1 pads, and stays
        faces = _canonical(table.take(self._rows[n]), self._layout.sentinel)
        masks = np.append(self._masks[r], 0)  # -1 covers nothing
        nondegenerate = np.bitwise_or.reduce(masks.take(faces), axis=1) == (
            (1 << (r + 1)) - 2
        )
        ids = self._layout.rank(faces[nondegenerate], self._masks[r].size)
        below = self._nondegenerate_ids[r]
        found = np.searchsorted(below, ids)
        if (below.take(found, mode="clip") != ids).any():
            raise AssertionError("a nondegenerate face missing from its level")
        out = np.full(len(faces), -1, dtype=np.int32)
        out[nondegenerate] = found
        return out
