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
  ``level_cap``, the three members a model kind implements; the stored
  ``SimplicialSetModel`` is one.  ``restrict(n, kept)`` gives each
  nondegenerate n-simplex's face spanned by the vertex positions ``kept``;
  -1 marks a degenerate face.  Its arrays are memoized and read-only.
* The chain layer reads faces only from one memoized face stack per
  degree: row i of the degree-n stack is ``restrict(n, all but i)``.  An
  array it indexes by the stack is one longer than the level below, so -1
  reads the trailing slot: a row never kept, or the 0 of ``_padded_values``.
  A coboundary gathers the cochain's values through the stack and xors
  over the faces; only the stored model's ``boundary_matrix`` builds a
  matrix.  The degree-n cocycles are the relations among the rows of
  ``boundary_{n+1}`` and the coboundaries are spanned by the rows of
  ``boundary_n``; the elimination packs from the stack only the rows it
  keeps.
* Each boundary is eliminated once, with clearing (Chen & Kerber,
  *Persistent homology computation with a twist*): a row of
  ``boundary_n`` whose index leads a degree-(n-1) coboundary is a sum of
  earlier rows, since δδ = 0, and is never packed.  The pass gives the
  span of the degree-n coboundaries and, as the relations among the kept
  rows, the basis of H^(n-1) (de Silva, Morozov & Vejdemo-Johansson,
  *Dualities in persistent (co)homology*): the first cocycles, in kernel
  order, that are independent modulo coboundaries.

The top stored level must be free of nondegenerate simplices before a
Betti table is trusted; otherwise ``CapError`` is raised.

Construction
------------
``from_operators`` builds every model of ``expk.spaces`` from one image
rule.  The rule gives every degeneracy table, and the faces of the
nondegenerate simplices only.  Each degenerate simplex x is written once
as s_j y, with j the smallest index whose degeneracy hits it, and its
faces come from the tables of the level below by the identities
d_i s_j = s_{j-1} d_i (i < j), id (i = j, j+1), s_j d_{i-1} (i > j+1).
So on a built model these face-degeneracy identities hold by
construction for that one (j, y) per simplex; ``validate`` still checks
them for every other pair, and the face-face and degeneracy-degeneracy
identities, against what the rule gave.  The faces are filled one j
at a time, on intp ids (numpy's index type), so no scatter converts its
index array; the gathers chain ``take``.

Serialization
-------------
* ``operators(cap)`` is the one operator order: every ``faces[n][i]``,
  then every ``degeneracies[n][i]``, in (n, i) order.  ``words()`` is the
  model's canonical word stream, its tables in that order as
  little-endian int32; ``from_words`` slices such a stream back into
  operator tables and reads every one of them verbatim.
* ``content_hash`` is SHA-256 over one header line -- the canonical JSON of
  ``{"scheme": HASH_SCHEME, "description", "level_cap", "level_sizes"}``
  and a newline -- followed by the word stream.  No JSON is built for the
  arrays.
* The JSON document (``MODEL_FORMAT``, ``to_json_text``/``from_json_dict``)
  is the exchange format of the command line.
"""

from __future__ import annotations

import collections
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

    def matches(self, other) -> bool:
        """Equality as functions degree -> dimension (trailing zeros ignored)."""
        other_dims = other.dims if hasattr(other, "dims") else tuple(other)
        top = max(len(self.dims), len(other_dims))
        probe = BettiTable(tuple(other_dims))
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


def _degenerate_groups(degeneracies, size: int):
    """Nondegenerate flags of a level, and each degenerate simplex once as s_j y.

    ``degeneracies`` are the tables into the level, s_0 first.  Group j
    holds the intp ids y whose s_j y is hit by no s_i with i < j; their
    images are the simplices whose smallest degeneracy index is j, which
    the scan marks degenerate.
    """
    degenerate = np.zeros(size, dtype=bool)
    groups = []
    for s in degeneracies:
        ys = np.flatnonzero(~degenerate.take(s))
        degenerate[s.take(ys)] = True
        groups.append(ys)
    return ~degenerate, groups


def _padded_values(support: Gf2Vector) -> np.ndarray:
    """A cochain's values, one per simplex, then the 0 that a -1 face reads."""
    return Gf2Vector(support.length + 1, support.to_int()).to_bits()


class ChainModel:
    """The normalized mod-2 cochain layer of a model.

    Every method reads the model only through ``level_cap``,
    ``nondeg_count(n)`` and ``restrict(n, kept)``, which a subclass gives;
    the face stacks and eliminations are memoized, and threads share them.
    """

    def __init__(self):
        self._face_stacks = {}
        self._elimination_cache = {}

    def top_nondegenerate_level(self) -> int:
        for n in range(self.level_cap, -1, -1):
            if self.nondeg_count(n):
                return n
        return -1

    def _face_stack(self, n: int) -> np.ndarray:
        """The faces of the nondegenerate n-simplices, one row per deleted vertex.

        An (n+1) x nondeg_count(n) intp array: row i is
        ``restrict(n, all but i)``, whose -1 (a degenerate face) indexes the
        trailing slot of an array one longer than the level below.
        Memoized per degree; read-only.
        """
        if not 1 <= n <= self.level_cap:
            raise ContractViolation(f"boundary degree {n} outside 1..cap")
        if n not in self._face_stacks:
            kept_sets = [tuple(t for t in range(n + 1) if t != i) for i in range(n + 1)]
            faces = np.stack([self.restrict(n, kept) for kept in kept_sets])
            faces = faces.astype(np.intp)
            faces.setflags(write=False)
            self._face_stacks[n] = faces
        return self._face_stacks[n]

    def _boundary_rows(self, n: int, skip=()) -> tuple[list[int], list[int]]:
        """The rows of ∂_n whose index is not in ``skip``: (indices, row ints).

        Row p is the dual of (n-1)-simplex p, bit j set when p is a face of
        n-simplex j an odd number of times; only the rows returned are packed.
        """
        faces = self._face_stack(n)
        length = self.nondeg_count(n - 1)
        keep = np.ones(length + 1, dtype=bool)
        keep[[*skip, length]] = False  # -1, a degenerate face, reads keep[length]
        slot = np.cumsum(keep) - 1  # a kept row's place among the kept rows
        hit = keep[faces]
        cols = np.broadcast_to(np.arange(faces.shape[1]), faces.shape)[hit]
        kept = np.flatnonzero(keep)
        rows = pack_rows(kept.size, faces.shape[1], slot[faces[hit]], cols)
        return kept.tolist(), rows

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

        Computed once per degree; each call returns a fresh list.
        """
        self._require_closed_top()
        if not 0 <= n <= self.level_cap:
            raise ContractViolation(f"degree {n} outside 0..cap")
        if n == self.level_cap:  # a closed top holds no n-simplices
            return []
        return list(self._elimination(n + 1)[1])

    def coboundary_span(self, n: int) -> Gf2Span:
        """Span of the degree-n coboundaries, as a copy: threads share the cache."""
        return self._elimination(n)[0].copy()

    def _elimination(self, n: int) -> tuple[Gf2Span, list[CochainClass]]:
        """The cached cleared pass over ∂_n: (δC^(n−1), basis of H^(n−1)).

        Row p of ∂_n is δ of the dual of (n−1)-simplex p; it enters tagged
        1 << p.  When p leads a row c = δb of the degree-(n−1) span,
        δc = δδb = 0, so row p is the sum of the rows at the other bits of
        c, all below p, and is skipped.  The kept rows build the pivot table
        that eliminating every row builds; its tags are dropped.  Their
        relations have no bit at a pivot of the degree-(n−1) span, so they
        are independent modulo coboundaries, and there are
        nondeg_count(n−1) − rank ∂_(n−1) − rank ∂_n of them: a basis.
        """
        if n not in self._elimination_cache:
            span, basis = Gf2Span(), []
            if n >= 1:
                cleared = self._elimination(n - 1)[0].pivots()
                length = self.nondeg_count(n - 1)
                for p, row in zip(*self._boundary_rows(n, cleared)):
                    if (z := span.add(row, 1 << p)) is not None:
                        basis.append(CochainClass(n - 1, Gf2Vector(length, z)))
                span.drop_tags()
            self._elimination_cache[n] = span, basis
        return self._elimination_cache[n]

    def apply_coboundary(self, degree: int, support: Gf2Vector) -> Gf2Vector:
        """Coboundary of a cochain: on each simplex, the xor of its faces' values."""
        if degree >= self.level_cap:
            raise CapError(f"coboundary at degree {degree} needs level {degree + 1}")
        faces = self._face_stack(degree + 1)
        if support.length != self.nondeg_count(degree):
            raise ContractViolation("cochain length does not fit its degree")
        values = _padded_values(support)
        return Gf2Vector.from_bits(np.bitwise_xor.reduce(values[faces], axis=0))

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
        simplex_keys=None,
        nondegenerate=None,
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
        # Construction metadata (canonical labels per level); not serialized.
        self.simplex_keys = simplex_keys
        self._check_shapes()
        # from_operators passes the flags it marked while building the faces
        if nondegenerate is None:
            nondegenerate = [np.ones(self.level_sizes[0], dtype=bool)] + [
                _degenerate_groups(self.degeneracies[n - 1], self.level_sizes[n])[0]
                for n in range(1, self.level_cap + 1)
            ]
        self.nondegenerate = nondegenerate
        for f in self.nondegenerate:
            f.setflags(write=False)
        self._nondegenerate_ids = [np.nonzero(nd)[0] for nd in self.nondegenerate]
        self._nondeg_pos = []
        for n, nd in enumerate(self.nondegenerate):
            pos = np.full(self.level_sizes[n], -1, dtype=np.int32)
            pos[self._nondegenerate_ids[n]] = np.arange(self._nondegenerate_ids[n].size)
            pos.setflags(write=False)
            self._nondeg_pos.append(pos)
        # memos shared by every caller and thread; their arrays are read-only
        self._restrict_cache = {}
        super().__init__()

    # perfbench/tracer.py wraps these through SimplicialSetModel.__dict__
    betti_table = ChainModel.betti_table
    cohomology_basis = ChainModel.cohomology_basis

    # -- construction helpers ---------------------------------------------

    def _check_shapes(self):
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
            if table.shape != (sizes[n],):
                raise ContractViolation(f"{kind}[{n}][{i}] has wrong length")
            if table.size and (table.min() < 0 or table.max() >= sizes[t]):
                raise ContractViolation(f"{kind}[{n}][{i}] points out of range")

    # -- basic queries -------------------------------------------------------

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
            ids, level = self._nondegenerate_ids[n], n
            # delete from the highest position down, so lower positions keep their index
            for t in range(n, -1, -1):
                if t not in kept:
                    ids = self.faces[level][t][ids]
                    level -= 1
            face = self._nondeg_pos[level][ids]
            face.setflags(write=False)
            self._restrict_cache[key] = face
        return self._restrict_cache[key]

    def boundary_matrix(self, n: int) -> Gf2Matrix:
        """Normalized boundary: nondegenerate n-simplices to level n-1.

        Column of a simplex is the mod-2 sum of its faces with degenerate
        faces dropped; coinciding face pairs cancel.  Built from the face
        stack on each call, for callers that want the whole matrix: Betti
        tables, bases and coboundaries never build it.
        """
        return Gf2Matrix(self._boundary_rows(n)[1], self.nondeg_count(n))

    def apply(self, level: int, word) -> np.ndarray:
        """The images of every level-``level`` id under a word.

        A word is a tuple of (kind, index) pairs, read as a composite of
        operators: the last pair acts first, so d_i s_j is
        (("faces", i), ("degeneracies", j)).
        """
        out = None
        for kind, i in reversed(word):
            table = getattr(self, kind)[level][i]
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
            bad = np.flatnonzero(self.apply(n, lhs) != self.apply(n, rhs))
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

    def words(self) -> list:
        """The word stream: every operator table, in ``operators`` order."""
        return [
            np.asarray(getattr(self, kind)[n][i], dtype="<i4")
            for kind, n, i, _ in operators(self.level_cap)
        ]

    @classmethod
    def from_operators(
        cls, cap, level_sizes, table, description="", simplex_keys=None
    ) -> "SimplicialSetModel":
        """The model whose operator tables come from one image rule.

        ``table(kind, n, i, t, ids)`` gives the level-t images of the
        level-n ``ids`` (an intp id array, or ``slice(None)`` for the whole
        level) under operator i of ``kind`` ("faces" or "degeneracies").
        The rule is asked for every degeneracy on whole levels first, then
        level by level for the faces of the nondegenerate simplices only.
        Every other face is that of a degenerate x = s_j y, with j the
        smallest index whose degeneracy hits x, and the simplicial
        identities read it off the tables already built:

            d_i s_j y = s_{j-1} d_i y (i < j), y (i = j, j+1),
                        s_j d_{i-1} y (i > j+1).

        So a rule that is a simplicial set gives the tables it would give on
        every simplex.  ``from_words`` reads tables verbatim instead.
        """
        sizes = [int(s) for s in level_sizes]
        degeneracies = [
            [table("degeneracies", n, i, n + 1, slice(None)) for i in range(n + 1)]
            for n in range(cap)
        ] + [[]]
        faces = [[]]
        nondegenerate = [np.ones(sizes[0], dtype=bool)]
        for n in range(1, cap + 1):
            flags, groups = _degenerate_groups(degeneracies[n - 1], sizes[n])
            ids = np.flatnonzero(flags)
            d, s = faces[n - 1], degeneracies[n - 2]  # y's faces; s_i into its level
            level = [np.empty(sizes[n], dtype=np.int32) for _ in range(n + 1)]
            for i, out in enumerate(level):
                out[ids] = table("faces", n, i, n - 1, ids)
            for j, ys in enumerate(groups):
                xs = degeneracies[n - 1][j].take(ys).astype(np.intp)
                for i, out in enumerate(level):
                    if i < j:
                        out[xs] = s[j - 1].take(d[i].take(ys))
                    elif i <= j + 1:
                        out[xs] = ys
                    else:
                        out[xs] = s[j].take(d[i - 1].take(ys))
            faces.append(level)
            nondegenerate.append(flags)
        return cls(
            cap, sizes, faces, degeneracies, description, simplex_keys, nondegenerate
        )

    @classmethod
    def from_words(cls, header: dict, words) -> "SimplicialSetModel":
        """The model of a ``header()`` and its word stream, as slices of ``words``.

        Every table is read verbatim, so a damaged word changes the model
        and its content hash.
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
        for (kind, n, _, _), first in zip(ops, starts):
            tables[kind][n].append(words[first : first + sizes[n]])
        return cls(
            cap, sizes, tables["faces"], tables["degeneracies"], header["description"]
        )

    def content_hash(self) -> str:
        head = canonical_json({"scheme": HASH_SCHEME, **self.header()}) + "\n"
        h = hashlib.sha256(head.encode())
        for table in self.words():
            h.update(table)
        return h.hexdigest()
