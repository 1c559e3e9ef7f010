"""The normalized chain complex of exp_k and Sym_k over the one-vertex sphere.

A stored model (``expk.spaces``) keeps every simplex of every level and
marks the nondegenerate ones; exp₅(S²) stores 6.47M simplices for 18,763
nondegenerate ones.  ``NormalizedModel`` keeps only the nondegenerate
simplices, and gives ``simplicial.ChainModel`` the members it builds on:
``level_cap``, ``_nondegenerate_ids`` and ``_restrict``.

Keys
----
A level-m simplex of Δⁿ/∂Δⁿ is the basepoint or a monotone surjection
[m] -> [n], written as its step set: the n positions among 1..m where
its label goes up.  Its element id is 0 for the basepoint, then 1 plus
the lexicographic rank of the step set, the ids of
``spaces.one_vertex_sphere``.  A step set is also kept as a bitmask, bit
p for position p, with 0 for the basepoint.

A level-m simplex of exp_k is a set of at most k elements and one of
Sym_k a multiset of k: the key rows of ``spaces.KEY_LAYOUTS``, k element
ids sorted ascending, an exp row padded in front with -1.  Degeneracies
act elementwise, and s_i hits exactly the elements without a step at
i + 1, so a simplex is nondegenerate exactly when its elements' masks
cover 1..m.  So the levels stop at kn, and ``level_cap`` is kn + 1.  A
row's id is the one the stored model gives it, the layout's rank; a
level keeps its rows sorted by id and the ids, ascending, as
``_nondegenerate_ids``, so nondegenerate positions, cohomology bases and
ring tables are the stored model's.  A level with a row whose ids could
pass int64 is refused.

Enumeration
-----------
A level's families grow one element at a time, in increasing id order
(nondecreasing for Sym), as ``spaces._combos`` grows its rows.  Ids
in lexicographic order have nondecreasing first steps, so an element
whose first step lies past a family's lowest uncovered position, and
every element after it, leaves that position uncovered: only ids up to
the last one whose first step is at or below it are offered.  A family
with more positions uncovered than n times its free slots is dropped.
The per-level budget is checked before a level is enumerated, against
its count by inclusion–exclusion (``nondegenerate_count``).

Faces
-----
The face of an element spanned by vertex positions v_0 < … < v_r is the
basepoint when it has a step at or before v_0, after v_r, or two steps
in one gap (v_(j-1), v_j]; otherwise its steps are the gaps that hold a
step.  ``restrict`` builds this as one lookup table over the element
ids of (level, kept), gathers every row through it, sorts the rows
(for exp, a repeat becomes padding), drops the faces whose masks do not
cover, ranks the rest and finds them by ``searchsorted`` over the ids of
the level below.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation
from .simplicial import ChainModel
from .spaces import (
    DEFAULT_MAX_LEVEL_SIZE,
    KEY_LAYOUTS,
    _canonical,
    _check_level_size,
    _combos,
    _rank,
)


def nondegenerate_count(kind: str, n: int, k: int, m: int) -> int:
    """How many nondegenerate level-m simplices exp_k or Sym_k of Sⁿ has.

    Inclusion–exclusion over the positions left uncovered: the families
    whose masks avoid j given positions are the keys over the C(m − j, n) + 1
    elements that avoid them.
    """
    count = KEY_LAYOUTS[kind].count
    return sum(
        (-1) ** j * math.comb(m, j) * count(math.comb(m - j, n) + 1, k)
        for j in range(m + 1)
    )


def _first_bit(masks: np.ndarray) -> np.ndarray:
    """The position of each mask's lowest set bit; 64 for a zero mask."""
    # bitwise_count counts the bits of |x|, so a zero mask is read apart
    return np.where(masks == 0, 64, np.bitwise_count((masks & -masks) - 1))


class NormalizedModel(ChainModel):
    """The nondegenerate simplices of exp_k or Sym_k of Δⁿ/∂Δⁿ, levels 0..kn + 1.

    Every level is enumerated when the model is built; over the budget,
    the build raises ``LevelSizeError``.  A level's ids are the stored
    model's, sorted, in ``_nondegenerate_ids``.
    """

    def __init__(self, kind, n, k, max_level_size=DEFAULT_MAX_LEVEL_SIZE):
        if kind not in KEY_LAYOUTS:
            raise ContractViolation(f"no normalized complex of kind {kind!r}")
        if n < 1 or k < 1:
            raise ContractViolation("a normalized complex needs n >= 1 and k >= 1")
        self.kind, self.n, self.k = kind, n, k
        self._layout = KEY_LAYOUTS[kind]
        self.level_cap = k * n + 1
        if self.level_cap > 61:  # a mask holds bits 1..m of one int64
            raise ContractViolation(f"level cap {self.level_cap} exceeds 61")
        self.description = f"{kind}_{k}(one_vertex_sphere({n})), normalized"
        self._steps, self._masks, self._rows, self._nondegenerate_ids = [], [], [], []
        for m in range(self.level_cap + 1):
            count = nondegenerate_count(kind, n, k, m)
            _check_level_size(f"normalized {kind}", m, count, max_level_size)
            size = math.comb(m, n) + 1  # the sphere's level-m elements
            # the clip of _weights: no valid row reads a weight above its
            # level's count; a level with no row, such as the cap, ranks none
            limit = np.iinfo(np.int64).max // (k + 1)
            if count and self._layout.count(size, k) > limit:
                raise ContractViolation(f"the ids of level {m} overflow int64")
            steps = _combos(m, n, repeat=False) + 1
            masks = np.concatenate([[0], (1 << steps.astype(np.int64)).sum(axis=1)])
            rows = self._families(masks, m)
            ids = self._layout.rank(rows, size)
            order = np.argsort(ids)
            self._steps.append(steps)
            self._masks.append(masks)
            self._rows.append(rows[order])
            self._nondegenerate_ids.append(ids[order])
        super().__init__()

    def _families(self, masks: np.ndarray, m: int) -> np.ndarray:
        """The nondegenerate level-m rows, in no particular order."""
        n, k, repeat = self.n, self.k, self.kind == "sym"
        full = (1 << (m + 1)) - 2
        first = np.concatenate([[0], _first_bit(masks[1:])])  # nondecreasing
        rows = np.empty((1, 0), dtype=np.intp)
        cover = np.zeros(1, dtype=np.int64)
        low = np.zeros(1, dtype=np.intp)  # each family's smallest next id
        found = []
        for size in range(1, k + 1):
            high = np.searchsorted(first, _first_bit(full & ~cover), side="right")
            count = np.maximum(high - low, 0)
            parent = np.repeat(np.arange(count.size), count)
            starts = np.cumsum(count) - count
            ids = np.repeat(low - starts, count) + np.arange(count.sum())
            cover = cover[parent] | masks[ids]
            uncovered = np.bitwise_count(full & ~cover)
            keep = uncovered <= n * (k - size)
            rows = np.column_stack([rows[parent[keep]], ids[keep]])
            cover, low = cover[keep], ids[keep] + (not repeat)
            if not repeat or size == k:
                done = rows[cover == full]
                found.append(np.pad(done, ((0, 0), (k - size, 0)), constant_values=-1))
        return np.concatenate(found)

    def _face_elements(self, m: int, kept) -> np.ndarray:
        """The id of each level-m element's face spanned by ``kept``, then -1.

        The trailing -1 is what a row's padding, -1, reads.
        """
        vertices = sorted(set(kept))
        r = len(vertices) - 1
        gaps = np.searchsorted(vertices, self._steps[m])  # kept vertices before
        onto = (gaps >= 1).all(axis=1) & (gaps <= r).all(axis=1)
        onto &= (np.diff(gaps, axis=1) > 0).all(axis=1)
        table = np.zeros(len(gaps) + 2, dtype=np.intp)
        table[-1] = -1
        table[1:-1][onto] = 1 + _rank(gaps[onto] - 1, r)
        return table

    def _restrict(self, n: int, kept) -> np.ndarray:
        r = len(set(kept)) - 1
        faces = self._face_elements(n, kept).take(self._rows[n])
        faces = _canonical(faces, self._layout.sentinel)  # a repeat pads, for exp
        masks = np.append(self._masks[r], 0)  # -1 pads, and covers nothing
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
