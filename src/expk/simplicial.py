"""Finite levelwise simplicial-set models and their normalized mod-2 chains.

A model stores, for every level 0..cap, the full (possibly degenerate)
simplex set as a dense range of integer ids, together with one integer
array per face and degeneracy operator.  Homology is computed on the
normalized chain complex: only simplices that are not in the image of any
degeneracy operator carry chains, which keeps the boundary matrices small
even when the stored levels are large.

Conventions
-----------
* ``faces[n][i]`` maps level-``n`` ids to level-``n-1`` ids (``1 <= n``,
  ``0 <= i <= n``).
* ``degeneracies[n][i]`` maps level-``n`` ids to level-``n+1`` ids
  (``n + 1 <= cap``, ``0 <= i <= n``).
* A simplex is degenerate exactly when it is hit by some degeneracy
  operator from the level below.
* Mod-2 Betti numbers are ``nullity(boundary_n) - rank(boundary_{n+1})``;
  with field coefficients these are simultaneously the homology and
  cohomology dimensions.
* The cohomology layer (``ChainModel`` here, cup-i and Sq in ``cochains``)
  reads a model only through ``nondeg_count``, ``restrict`` and
  ``level_cap``.  ``ChainModel`` owns the first two and the ``restrict``
  contract; a model kind gives ``level_cap``, ``_nondegenerate_ids`` and
  ``_restrict``: the stored ``SimplicialSetModel`` is one,
  ``expk.normalized.NormalizedModel`` another.  ``restrict(n, kept)``
  gives each nondegenerate n-simplex's face spanned by the vertex
  positions ``kept``; -1 marks a degenerate face.  Its arrays are
  memoized and read-only.
* The chain layer reads faces only from the face stack of each degree:
  row i of the degree-n stack is the memoized ``restrict(n, all but i)``
  itself, so the stack copies nothing.  An array it indexes by the stack
  is one longer than the level below, so -1 reads the trailing slot: a
  row never kept, or the 0 of ``_padded_values``.
  A coboundary gathers the cochain's values through the stack and xors
  over the faces; only the stored model's ``boundary_matrix`` builds a
  matrix.  The degree-n cocycles are the relations among the rows of
  ``boundary_{n+1}`` and the coboundaries are spanned by the rows of
  ``boundary_n``; the elimination packs from the stack only the rows it
  keeps, ``ROW_BLOCK`` rows at a time.
* Each boundary is eliminated once for Betti tables and bases, with
  clearing (Chen & Kerber, *Persistent homology computation with a
  twist*): a row of ``boundary_n`` whose index leads a degree-(n-1)
  coboundary is a sum of earlier rows, since δδ = 0, and is never
  packed.  The pass gives the span of the degree-n coboundaries and, as
  the relations among the kept rows, the basis of H^(n-1) (de Silva,
  Morozov & Vejdemo-Johansson, *Dualities in persistent (co)homology*):
  the first cocycles, in kernel order, that are independent modulo
  coboundaries.  A model keeps the basis and only the span's pivots,
  which are what clearing the next degree reads, as PHAT (Bauer,
  Kerber, Reininghaus & Wagner, 2017) and Ripser (Bauer, 2021) keep
  only what clearing reads; ``coboundary_span`` runs the pass once more
  for a degree whose span is asked for, and keeps that span.  A
  ``cohomology_basis(n)`` call that runs the pass over ``boundary_n``
  keeps its span, which expressing classes in that basis reads.

The top stored level must be free of nondegenerate simplices before a
Betti table is trusted; otherwise ``CapError`` is raised.

Construction
------------
A model has one of two forms.  It is either built by an image rule
(``from_operators``) or given its tables (the constructor,
``from_json_dict`` and ``from_words``).  A model given its tables keeps
all of them verbatim.

``from_operators`` builds every model of ``expk.spaces`` from one image
rule.  The rule gives every degeneracy table, and the faces of the
nondegenerate simplices only; it is never asked about an empty id set,
so a constructor never keys a level without nondegenerate simplices,
such as a closed top.  Each degenerate simplex x is written once
as s_j y, with j the smallest index whose degeneracy hits it, and its
faces come from the tables of the level below by the identities
d_i s_j = s_{j-1} d_i (i < j), id (i = j, j+1), s_j d_{i-1} (i > j+1).
So on a built model these face-degeneracy identities hold by
construction for that one (j, y) per simplex; ``validate`` still checks
them for every other pair, and the face-face and degeneracy-degeneracy
identities, against what the rule gave.  The faces are derived one j
at a time, the simplices of each j as int32 ids like the tables, and
the gathers chain ``take``.

The build splits the levels at the top nondegenerate level: below it
the build stores every face table; at and above it (the last two levels
of a closed model) a level keeps only the faces of its nondegenerate
simplices and each simplex's smallest degeneracy index, and derives its
tables by the same identities when read (``_DerivedFaces``).  The chain
layer never reads them: ``restrict`` starts at a nondegenerate
n-simplex, takes its first face from the kept faces, and reads whole
tables only below level n.  Any other read of a derived level, by
index, derives the whole level once, from the level below, and keeps
it.  ``words``, ``content_hash``, ``__eq__``, ``validate``,
``to_json_dict`` and ``SimplicialMapModel.commutes`` read ``faces`` so,
as the image rules of ``expk.spaces`` read a base model.  The word
stream, and so the content hash, is the same as if every level were
stored.  The split stays at the top nondegenerate level because the
multi-deletion ``restrict`` calls of cup-i and Sq read whole tables of
every level below it.

A model is its tables: besides them and its memos it keeps only the
nondegenerate ids, ``_nondegenerate_ids``, and at a derived level the
faces and flags it derives its tables from (a kept level adds the
tables, and no other form of them); ``restrict`` spreads the ids into a
position table of the level it reads for one call.  It stores no
simplex keys; the key rows a constructor of ``expk.spaces`` ranks are a
function of its input's level sizes there, so a model read back from its
words behaves as the one built.

Serialization
-------------
* ``operators(cap)`` is the one operator order: every ``faces[n][i]``,
  then every ``degeneracies[n][i]``, in (n, i) order.  ``words()`` is the
  model's canonical word stream, its tables in that order as
  little-endian int32.  ``from_words`` gives a model the tables of such
  a stream, held in one int32 array, as views of it.
* ``content_hash`` is SHA-256 over one header line -- the canonical JSON of
  ``{"scheme": HASH_SCHEME, "description", "level_cap", "level_sizes"}``
  and a newline -- followed by the word stream.  No JSON is built for
  the arrays.
* The JSON document (``MODEL_FORMAT``, ``to_json_text``/``from_json_dict``)
  is the exchange format of the command line.
"""

from __future__ import annotations

import collections
import collections.abc
import contextlib
import hashlib
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import CapError, ContractViolation
from .gf2 import Gf2Matrix, Gf2Span, Gf2Vector, pack_rows

MODEL_FORMAT = "simplicial-set-model/1"
HASH_SCHEME = "simplicial-set-model-hash/2"
BETTI_FORMAT = "betti-table/1"
# boundary rows packed at a time: a block of ∂_n's dense bits is
# ROW_BLOCK × nondeg_count(n) / 8 bytes
ROW_BLOCK = 4096


def canonical_json(obj) -> str:
    """Stable textual form used for hashing and bit-exact round-trips."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def read_document(d, fmt: str, *fields) -> dict:
    """``d``, checked to be a ``fmt`` JSON object with every one of ``fields``."""
    if not isinstance(d, dict) or d.get("format") != fmt:
        raise ContractViolation(f"expected a JSON object of format {fmt}: {d!r:.30}")
    for field in fields:
        if field not in d:
            raise ContractViolation(f"the {fmt} document has no {field!r} field")
    return d


@contextlib.contextmanager
def malformed_fields(fmt: str):
    """Raise a misshapen field of a ``fmt`` document as a ContractViolation."""
    try:
        yield
    except ContractViolation:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        message = " ".join(str(exc).split())
        raise ContractViolation(
            f"malformed {fmt} document: {type(exc).__name__}: {message}"
        ) from exc


@dataclass(frozen=True)
class BettiTable:
    """Mod-2 graded dimensions, indexed from degree 0."""

    dims: tuple

    @property
    def max_degree(self) -> int:
        return len(self.dims) - 1

    def dim(self, k: int) -> int:
        if 0 <= k <= self.max_degree:
            return self.dims[k]
        return 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * d for k, d in enumerate(self.dims))

    def matches(self, dims) -> bool:
        """Equality with ``dims`` degree by degree (trailing zeros ignored)."""
        probe = BettiTable(tuple(dims))
        top = max(len(self.dims), len(probe.dims))
        return all(self.dim(k) == probe.dim(k) for k in range(top))

    def to_json_dict(self) -> dict:
        return {"format": BETTI_FORMAT, "dims": list(self.dims)}

    def __str__(self):
        return "(" + ", ".join(str(d) for d in self.dims) + ")"


@dataclass(frozen=True)
class CochainClass:
    """A degree-tagged cochain supported on nondegenerate simplices.

    It does not record whether it is closed; ``cochains`` asks the model.
    """

    degree: int
    support: Gf2Vector


@dataclass(frozen=True)
class Violation:
    identity: str
    level: int
    i: int
    j: int
    simplex: int

    def __str__(self):
        return (
            f"identity '{self.identity}' fails at level {self.level}, "
            f"indices (i={self.i}, j={self.j}), simplex {self.simplex}"
        )


def _check_range(kind: str, n: int, i: int, table, bound: int):
    if table.size and (table.min() < 0 or table.max() >= bound):
        raise ContractViolation(f"{kind}[{n}][{i}] points out of range")


def _as_id_array(a):
    arr = np.ascontiguousarray(a, dtype=np.int32)
    arr.setflags(write=False)
    return arr


def operators(cap: int) -> tuple:
    """Every operator of a cap-``cap`` model as (kind, n, i, target level).

    Faces of levels 1..cap come first, then degeneracies of levels
    0..cap-1, each in (n, i) order: the order of the word stream.
    """
    faces = [("faces", n, i, n - 1) for n in range(1, cap + 1) for i in range(n + 1)]
    degeneracies = [
        ("degeneracies", n, i, n + 1) for n in range(cap) for i in range(n + 1)
    ]
    return tuple(faces + degeneracies)


def _identities(cap: int):
    """The simplicial identities a cap-``cap`` model stores both sides of.

    Yields (family, n, i, j, lhs, rhs) in scan order: family, level,
    indices.  ``lhs`` and ``rhs`` are words on level n (see ``apply``).
    """
    d, s = "faces", "degeneracies"
    for n in range(2, cap + 1):
        for j in range(1, n + 1):
            for i in range(j):
                yield "face-face", n, i, j, ((d, i), (d, j)), ((d, j - 1), (d, i))
    for n in range(cap - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs, rhs = ((s, i), (s, j)), ((s, j + 1), (s, i))
                yield "degeneracy-degeneracy", n, i, j, lhs, rhs
    for n in range(cap):
        for j in range(n + 1):
            for i in range(n + 2):
                if i < j:
                    family, rhs = "low", ((s, j - 1), (d, i))
                elif i <= j + 1:
                    family, rhs = "identity", ()
                else:
                    family, rhs = "high", ((s, j), (d, i - 1))
                yield f"face-degeneracy-{family}", n, i, j, ((d, i), (s, j)), rhs


def _first_degeneracy(degeneracies, size: int) -> np.ndarray:
    """The smallest j whose s_j hits each simplex of a level; -1 where none does.

    ``degeneracies`` are the tables into the level, s_0 first.  A simplex
    is degenerate exactly when its entry is at least 0.
    """
    first = np.full(size, -1, dtype=np.min_scalar_type(-len(degeneracies) - 1))
    for j, s in enumerate(degeneracies):
        first[s[first.take(s) < 0]] = j
    return first


class _DerivedFaces(collections.abc.Sequence):
    """The face tables d_0..d_n of a level of ``from_operators``, derived when read.

    The level keeps only the faces of its nondegenerate simplices
    (``nondegenerate[i]``, in id order) and ``_first_degeneracy``.  Each
    degenerate simplex x is written once as s_j y, with j its first
    degeneracy, and its faces are read off the tables of the level below:

        d_i s_j y = s_{j-1} d_i y (i < j), y (i = j, j+1),
                    s_j d_{i-1} y (i > j+1).

    The first index derives the whole level, reading the level below by
    index too, and keeps it; the kept tuple is assigned whole, so two
    racing readers may both derive it but neither sees part of it.
    """

    def __init__(self, model, n: int, first):
        # the model's tables, not the model: a level holds no model alive
        self.nondegenerate = model.faces[n]
        self._ids, self._first = model._nondegenerate_ids[n], first
        self._into, self._below = model.degeneracies[n - 1], model.faces[n - 1]
        self._under = model.degeneracies[n - 2] if n > 1 else []
        self._kept = None

    def __len__(self):
        return len(self.nondegenerate)

    def __getitem__(self, i):
        if self._kept is None:
            self._kept = tuple(self.derive())
        return self._kept[i]

    def derive(self) -> list:
        """This level's tables, d_0 first, read off the level below by index."""
        groups = []  # (ys, xs) per j: the x = s_j y whose first degeneracy is j
        for j, into in enumerate(self._into):
            ys = np.flatnonzero(self._first.take(into) == j)
            groups.append((ys.astype(np.int32), into.take(ys)))
        s, below, tables = self._under, self._below, []
        for i in range(len(self)):
            out = np.empty(self._first.size, dtype=np.int32)
            out[self._ids] = self.nondegenerate[i]
            for j, (ys, xs) in enumerate(groups):
                if i < j:
                    values = s[j - 1].take(below[i].take(ys))
                elif i <= j + 1:
                    values = ys
                else:
                    values = s[j].take(below[i - 1].take(ys))
                # numpy converts an int32 index faster than it scatters through one
                out[xs.astype(np.intp)] = values
            out.setflags(write=False)
            tables.append(out)
        return tables


def _padded_values(support: Gf2Vector) -> np.ndarray:
    """A cochain's values, one per simplex, then the 0 that a -1 face reads."""
    data = support.to_int().to_bytes(support.length // 8 + 1, "little")
    packed = np.frombuffer(data, dtype=np.uint8)
    return np.unpackbits(packed, count=support.length + 1, bitorder="little")


class ChainModel:
    """The normalized mod-2 cochain layer of a model.

    A subclass gives ``level_cap``, ``_nondegenerate_ids`` (each level's
    nondegenerate ids, ascending) and ``_restrict(n, kept)``, the faces of
    one valid call.  Every other method reads the model only through
    ``level_cap``, ``nondeg_count(n)`` and ``restrict(n, kept)``, which
    hold the contract here: the check on ``kept``, the memo and the
    read-only arrays.  The restrict arrays, face stacks, eliminations and
    coboundary spans are memoized, and threads share them.
    """

    def __init__(self):
        self._restrict_cache = {}
        self._face_stacks = {}
        self._elimination_cache = {}
        self._spans = {}

    def nondeg_count(self, n: int) -> int:
        if 0 <= n <= self.level_cap:
            return int(self._nondegenerate_ids[n].size)
        return 0

    def restrict(self, n: int, kept) -> np.ndarray:
        """Where the face spanned by ``kept`` of each nondegenerate n-simplex lies.

        ``kept`` is a nonempty tuple of positions in 0..n, read as a set.
        One int32 entry per nondegenerate n-simplex: the face's
        nondegenerate position, or -1 where the face is degenerate.
        Memoized per (n, kept); the array is read-only.
        """
        key = n, kept
        if key not in self._restrict_cache:
            if not (kept and 0 <= min(kept) <= max(kept) <= n <= self.level_cap):
                raise ContractViolation(f"{kept} is not a nonempty subset of 0..{n}")
            face = self._restrict(n, kept)
            face.setflags(write=False)
            # the first array stored is the one every caller gets: a racing
            # thread's equal copy is dropped, so a face stack holds no copy
            self._restrict_cache.setdefault(key, face)
        return self._restrict_cache[key]

    def top_nondegenerate_level(self) -> int:
        for n in range(self.level_cap, -1, -1):
            if self.nondeg_count(n):
                return n
        return -1

    def _face_stack(self, n: int) -> tuple:
        """The faces of the nondegenerate n-simplices, one row per deleted vertex.

        Row i is the memoized array ``restrict(n, all but i)`` itself, so
        the stack copies nothing; its -1 (a degenerate face) indexes the
        trailing slot of an array one longer than the level below.
        Memoized per degree.
        """
        if not 1 <= n <= self.level_cap:
            raise ContractViolation(f"boundary degree {n} outside 1..cap")
        if n not in self._face_stacks:
            kept_sets = [tuple(t for t in range(n + 1) if t != i) for i in range(n + 1)]
            stack = tuple(self.restrict(n, kept) for kept in kept_sets)
            self._face_stacks.setdefault(n, stack)
        return self._face_stacks[n]

    def _boundary_rows(self, n: int, skip=()):
        """The rows of ∂_n whose index is not in ``skip``, in blocks of ``ROW_BLOCK``.

        Yields (indices, row ints) per block, in ascending row order.  Row p
        is the dual of (n-1)-simplex p, bit j set when p is a face of
        n-simplex j an odd number of times.  Only the rows yielded are
        packed, one block at a time, so the dense bits of a single block
        are all that exist at once.
        """
        stack, length = self._face_stack(n), self.nondeg_count(n - 1)
        keep = np.ones(length, dtype=bool)
        keep[np.asarray(skip, dtype=np.intp)] = False
        kept = np.flatnonzero(keep)
        width = self.nondeg_count(n)
        for start in range(0, kept.size, ROW_BLOCK):
            block = kept[start : start + ROW_BLOCK]
            # each row's place in the block, -1 for a row outside it; the
            # trailing slot, which a degenerate face's -1 reads, is -1 too
            place = np.full(length + 1, -1)
            place[block] = np.arange(block.size)
            rows, cols = [], []
            for faces in stack:  # take: a fancy index would convert int32
                at = place.take(faces)
                hit = np.flatnonzero(at >= 0)  # the simplices with a face here
                rows.append(at.take(hit))
                cols.append(hit)
            rows, cols = np.concatenate(rows), np.concatenate(cols)
            yield block.tolist(), pack_rows(block.size, width, rows, cols)

    def _require_closed_top(self):
        top = self.top_nondegenerate_level()
        if top == self.level_cap and self.level_cap >= 0:
            raise CapError(
                f"level cap {self.level_cap} still carries nondegenerate "
                "simplices; raise the cap by one"
            )
        return top

    def betti_table(self) -> BettiTable:
        """dim H^k: the size of the basis of H^k, the relations of ∂_(k+1)."""
        top = self._require_closed_top()
        bases = (self._elimination(k + 1)[1] for k in range(top + 1))
        return BettiTable(tuple(len(basis) for basis in bases))

    def cohomology_basis(self, n: int) -> list[CochainClass]:
        """Deterministic cocycle representatives of a basis of H^n.

        Computed once per degree; each call returns a fresh list.  A call
        that runs the pass over ∂_n keeps that pass's span for
        ``coboundary_span(n)``.
        """
        self._require_closed_top()
        if not 0 <= n <= self.level_cap:
            raise ContractViolation(f"degree {n} outside 0..cap")
        if n == self.level_cap:  # a closed top holds no n-simplices
            return []
        if n not in self._elimination_cache:
            # the pass over ∂_n runs now for the clearing below: keep its
            # span too, which expressing a class in this basis reads
            self._spans.setdefault(n, self._eliminate(n))
        return list(self._elimination(n + 1)[1])

    def coboundary_span(self, n: int) -> Gf2Span:
        """Span of the degree-n coboundaries, as a copy: threads share the memo.

        The elimination keeps only its pivots, so the first call per degree
        runs the cleared pass over ∂_n once more and keeps its span, unless
        ``cohomology_basis(n)`` ran that pass and kept it.
        """
        if n not in self._spans:
            self._spans.setdefault(n, self._eliminate(n))
        return self._spans[n].copy()

    def _elimination(self, n: int) -> tuple[np.ndarray, list[CochainClass]]:
        """The memoized cleared pass over ∂_n: (pivots, basis of H^(n−1)).

        The pivots are the sorted leading bits of δC^(n−1), the span of the
        degree-n coboundaries, as a read-only array: all that the pass over
        ∂_(n+1) reads of it.  ``coboundary_span`` rebuilds the span itself.
        """
        if n not in self._elimination_cache:
            self._eliminate(n)
        return self._elimination_cache[n]

    def _eliminate(self, n: int) -> Gf2Span:
        """The cleared pass over ∂_n: memoizes its pivots and basis, returns its span.

        Row p of ∂_n is δ of the dual of (n−1)-simplex p; it enters tagged
        1 << p, in ascending p, block by block.  When p leads a row c = δb
        of the degree-(n−1) span, δc = δδb = 0, so row p is the sum of the
        rows at the other bits of c, all below p, and is skipped.  The kept
        rows build the pivot table that eliminating every row builds; its
        tags are dropped.  Their relations have no bit at a pivot of the
        degree-(n−1) span, so they are independent modulo coboundaries, and
        there are nondeg_count(n−1) − rank ∂_(n−1) − rank ∂_n of them: a
        basis.  The first result stored is the one every caller gets.
        """
        span, basis = Gf2Span(), []
        if n >= 1:
            cleared = self._elimination(n - 1)[0]
            length = self.nondeg_count(n - 1)
            for indices, rows in self._boundary_rows(n, cleared):
                for p, row in zip(indices, rows):
                    if (z := span.add(row, 1 << p)) is not None:
                        basis.append(CochainClass(n - 1, Gf2Vector(length, z)))
            span.drop_tags()
        pivots = np.array(span.pivots(), dtype=np.intp)
        pivots.setflags(write=False)
        self._elimination_cache.setdefault(n, (pivots, basis))
        return span

    def apply_coboundary(self, degree: int, support: Gf2Vector) -> Gf2Vector:
        """Coboundary of a cochain: on each simplex, the xor of its faces' values."""
        if degree >= self.level_cap:
            raise CapError(f"coboundary at degree {degree} needs level {degree + 1}")
        first, *others = self._face_stack(degree + 1)
        if support.length != self.nondeg_count(degree):
            raise ContractViolation("cochain length does not fit its degree")
        values = _padded_values(support)
        out = values.take(first)
        for faces in others:
            out ^= values.take(faces)
        return Gf2Vector.from_bits(out)

    def is_cocycle(self, degree: int, support: Gf2Vector) -> bool:
        return self.apply_coboundary(degree, support).is_zero()


class SimplicialSetModel(ChainModel):
    """Levelwise simplicial set on dense integer ids; immutable once built."""

    def __init__(
        self,
        level_cap: int,
        level_sizes,
        faces,
        degeneracies,
        description: str = "",
        first_degeneracy=None,
    ):
        self.level_cap = int(level_cap)
        self.level_sizes = [int(s) for s in level_sizes]
        if len(self.level_sizes) != self.level_cap + 1:
            raise ContractViolation("level_sizes must cover 0..cap")
        self.faces = [[_as_id_array(f) for f in faces[n]] for n in range(len(faces))]
        self.degeneracies = [
            [_as_id_array(s) for s in degeneracies[n]]
            for n in range(len(degeneracies))
        ]
        self.description = description
        # from_operators passes each level's _first_degeneracy and the faces
        # of the nondegenerate simplices only: the other faces are derived,
        # here below the top nondegenerate level and at or above it on read
        derive = first_degeneracy is not None
        if not derive:
            self._check_shapes(self.level_sizes)
            first_degeneracy = [
                _first_degeneracy(into, size)
                for into, size in zip([[]] + self.degeneracies, self.level_sizes)
            ]
        self._nondegenerate_ids = [np.flatnonzero(f < 0) for f in first_degeneracy]
        if derive:
            self._check_shapes([ids.size for ids in self._nondegenerate_ids])
            top = self.top_nondegenerate_level()
            for n in range(1, self.level_cap + 1):
                level = _DerivedFaces(self, n, first_degeneracy[n])
                self.faces[n] = level.derive() if n < top else level
        super().__init__()

    # perfbench/tracer.py wraps these through SimplicialSetModel.__dict__
    betti_table = ChainModel.betti_table
    cohomology_basis = ChainModel.cohomology_basis

    # -- construction helpers ---------------------------------------------

    def _check_shapes(self, face_lengths):
        """Check each table's count, length and range.

        A face table of level n has ``face_lengths[n]`` entries: the level
        size, or its nondegenerate count where the other faces are derived.
        """
        cap, sizes = self.level_cap, self.level_sizes
        ops = operators(cap)
        counts = collections.Counter((kind, n) for kind, n, _, _ in ops)
        for kind in ("faces", "degeneracies"):
            tables = getattr(self, kind)
            if len(tables) != cap + 1:
                raise ContractViolation("face/degeneracy tables must cover 0..cap")
            for n, level in enumerate(tables):
                if len(level) != counts[kind, n]:
                    raise ContractViolation(f"level {n} needs {counts[kind, n]} {kind}")
        for kind, n, i, t in ops:
            table = getattr(self, kind)[n][i]
            if table.shape != ((face_lengths if kind == "faces" else sizes)[n],):
                raise ContractViolation(f"{kind}[{n}][{i}] has wrong length")
            _check_range(kind, n, i, table, sizes[t])

    # -- basic queries -------------------------------------------------------

    def _restrict(self, n: int, kept) -> np.ndarray:
        ids, level = self._nondegenerate_ids[n], n
        # delete from the highest position down, so lower positions keep their index
        for t in range(n, -1, -1):
            if t not in kept:
                faces = self.faces[level]
                if level == n and isinstance(faces, _DerivedFaces):
                    # ids are all of the level's nondegenerate simplices,
                    # whose faces a derived level keeps
                    ids = faces.nondegenerate[t]
                elif ids.size:
                    # only an n above the top nondegenerate level, which
                    # has no simplex to follow, meets a derived level here
                    ids = faces[t][ids]
                level -= 1
        # each simplex's nondegenerate position, built for this call only:
        # the model keeps no per-simplex table (a binary search over the
        # ids made the squares pass's restrict calls three times slower)
        nondegenerate = self._nondegenerate_ids[level]
        position = np.full(self.level_sizes[level], -1, dtype=np.int32)
        position[nondegenerate] = np.arange(nondegenerate.size, dtype=np.int32)
        return position[ids]

    def boundary_matrix(self, n: int) -> Gf2Matrix:
        """Normalized boundary: nondegenerate n-simplices to level n-1.

        Column of a simplex is the mod-2 sum of its faces with degenerate
        faces dropped; coinciding face pairs cancel.  Built from the face
        stack on each call, for callers that want the whole matrix: Betti
        tables, bases and coboundaries never build it.
        """
        rows = [row for _, block in self._boundary_rows(n) for row in block]
        return Gf2Matrix(rows, self.nondeg_count(n))

    def apply(self, level: int, word) -> np.ndarray:
        """The images of every level-``level`` id under a word.

        A word is a tuple of (kind, index) pairs, read as a composite of
        operators: the last pair acts first, so d_i s_j is
        (("faces", i), ("degeneracies", j)).
        """
        tables = {"faces": self.faces, "degeneracies": self.degeneracies}
        out = None
        for kind, i in reversed(word):
            table = tables[kind][level][i]
            out = table if out is None else table[out]
            level += -1 if kind == "faces" else 1
        if out is None:
            return np.arange(self.level_sizes[level], dtype=np.int32)
        return out

    def __eq__(self, other):
        if not isinstance(other, SimplicialSetModel):
            return NotImplemented
        return (
            self.level_cap == other.level_cap
            and self.level_sizes == other.level_sizes
            and all(map(np.array_equal, self.words(), other.words()))
        )

    def __hash__(self):
        return hash((self.level_cap, tuple(self.level_sizes)))

    def __repr__(self):
        return (
            f"SimplicialSetModel({self.description or 'unnamed'}, cap="
            f"{self.level_cap}, sizes={self.level_sizes})"
        )

    # -- simplicial identity validation -------------------------------------

    def validate(self) -> Violation | None:
        """Check every simplicial identity whose both sides are stored.

        Returns ``None`` when all hold, else the first violation in the scan
        order of ``_identities`` (family, level, indices), with a witness
        simplex.  No separate injectivity scan: d_j s_j = id already fails
        on any non-injective s_j.
        """
        for family, n, i, j, lhs, rhs in _identities(self.level_cap):
            sides = self.apply(n, lhs), self.apply(n, rhs)
            bad = np.flatnonzero(sides[0] != sides[1])
            if bad.size:
                return Violation(family, n, i, j, int(bad[0]))
        return None

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "description": self.description,
            "level_cap": self.level_cap,
            "level_sizes": self.level_sizes,
            "faces": [[f.tolist() for f in fs] for fs in self.faces],
            "degeneracies": [[s.tolist() for s in ss] for ss in self.degeneracies],
        }

    def to_json_text(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d) -> "SimplicialSetModel":
        fields = ("level_cap", "level_sizes", "faces", "degeneracies")
        d = read_document(d, MODEL_FORMAT, *fields)
        with malformed_fields(MODEL_FORMAT):
            return cls(*(d[f] for f in fields), description=d.get("description", ""))

    def header(self) -> dict:
        """Everything but the operator tables; ``from_words`` reads it back."""
        return {
            "description": self.description,
            "level_cap": self.level_cap,
            "level_sizes": list(self.level_sizes),
        }

    def operator_tables(self):
        """(operator, table) for every operator in ``operators`` order."""
        levels = itertools.chain(self.faces, self.degeneracies)
        return zip(operators(self.level_cap), itertools.chain.from_iterable(levels))

    def words(self) -> list:
        """The word stream: every operator table, whole, in ``operators`` order."""
        return [np.asarray(table, dtype="<i4") for _, table in self.operator_tables()]

    @classmethod
    def from_operators(
        cls, cap, level_sizes, rule, description=""
    ) -> "SimplicialSetModel":
        """The model whose operator tables come from one image rule.

        ``rule(kind, n, i, t, ids)`` gives the level-t images of the
        level-n ``ids`` (an intp id array, or ``slice(None)`` for the whole
        level) under operator i of ``kind`` ("faces" or "degeneracies").
        The rule is asked for every degeneracy on whole levels first, then
        level by level for the faces of the nondegenerate simplices only.
        The rule is never asked about an empty id set, so it keys no level
        that has no nondegenerate simplex.  Every other face is that of a
        degenerate x = s_j y, with j the smallest index whose degeneracy
        hits x, and the simplicial identities read it off the tables of the
        level below (``_DerivedFaces``): when the model is built on every
        level below the top nondegenerate one, and at or above it the first
        time a reader indexes the level, which then keeps it.

        So a rule that is a simplicial set gives the tables it would give on
        every simplex, and the word stream is the same either way.
        """
        sizes = [int(s) for s in level_sizes]
        degeneracies = [
            [rule("degeneracies", n, i, n + 1, slice(None)) for i in range(n + 1)]
            for n in range(cap)
        ] + [[]]
        first = [
            _first_degeneracy(into, size)
            for into, size in zip([[]] + degeneracies, sizes)
        ]
        faces = [[]]
        for n in range(1, cap + 1):
            ids = np.flatnonzero(first[n] < 0)
            if ids.size:
                faces.append([rule("faces", n, i, n - 1, ids) for i in range(n + 1)])
            else:  # the rule is never asked about an empty id set
                faces.append([np.empty(0, dtype=np.int32)] * (n + 1))
        return cls(cap, sizes, faces, degeneracies, description, first)

    @classmethod
    def from_words(cls, header: dict, words) -> "SimplicialSetModel":
        """The model of a ``header()`` and its word stream, given its tables.

        ``words`` is the stream as one int32 array.  Each table is a view of
        it, so no word is copied and no level is derived; the constructor
        checks every table's length and range, as for any model given its
        tables.
        """
        cap = int(header["level_cap"])
        sizes = [int(s) for s in header["level_sizes"]]
        if len(sizes) != cap + 1:
            raise ContractViolation("level_sizes must cover 0..cap")
        ops = operators(cap)
        starts = list(itertools.accumulate((sizes[n] for _, n, _, _ in ops), initial=0))
        if len(words) != starts[-1]:
            raise ContractViolation("word stream length does not match level_sizes")
        tables = {"faces": [[] for _ in sizes], "degeneracies": [[] for _ in sizes]}
        for (kind, n, _, _), at in zip(ops, starts):
            tables[kind][n].append(words[at : at + sizes[n]])
        faces, degeneracies = tables["faces"], tables["degeneracies"]
        return cls(cap, sizes, faces, degeneracies, header["description"])

    def content_hash(self) -> str:
        """SHA-256 over the model's hash header line, then its word stream."""
        head = canonical_json({"scheme": HASH_SCHEME, **self.header()})
        h = hashlib.sha256((head + "\n").encode())
        for table in self.words():
            h.update(table)
        return h.hexdigest()
