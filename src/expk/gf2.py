"""Exact linear algebra over the two-element field.

Matrices and vectors are bit-packed into unsigned 64-bit words.  All
elimination goes through one routine, the tagged pivot table ``Gf2Span``.
Its results are deterministic: the kernel basis is ordered by free
column, ``solve`` returns the solution whose free variables are zero, and
cohomology representatives are the first cocycles, in kernel order, that
are independent modulo coboundaries.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

_WORD = 64


def _word_count(nbits: int) -> int:
    return (nbits + _WORD - 1) // _WORD


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a 2-D 0/1 array into uint64 words, one row per row.

    Rows are little-endian and padded with zeros to a whole number of
    words; a nonzero entry packs as 1.
    """
    nrows, nbits = bits.shape
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((nrows, _word_count(nbits) * _WORD // 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(np.uint64)


def _unpack_rows(words: np.ndarray, nbits: int) -> np.ndarray:
    """The first ``nbits`` bits of each row of packed words, as uint8."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=nbits, bitorder="little")


def _row_ints(words: np.ndarray) -> list[int]:
    """Each row of packed words as a python int, bit j = column j."""
    return [int.from_bytes(row.tobytes(), "little") for row in words.astype("<u8")]


class Gf2Vector:
    """Immutable bit vector over the two-element field."""

    __slots__ = ("length", "_words")

    def __init__(self, length: int, words: np.ndarray):
        self.length = int(length)
        words = np.ascontiguousarray(words, dtype=np.uint64)
        words.setflags(write=False)
        self._words = words

    @classmethod
    def zeros(cls, length: int) -> "Gf2Vector":
        return cls(length, np.zeros(_word_count(length), dtype=np.uint64))

    @classmethod
    def from_bits(cls, bits) -> "Gf2Vector":
        bits = np.asarray(bits, dtype=np.uint8).reshape(1, -1) & 1
        return cls(bits.size, _pack_rows(bits)[0])

    @classmethod
    def from_int(cls, length: int, x: int) -> "Gf2Vector":
        """The vector whose bit i is bit i of the python int ``x``."""
        data = x.to_bytes(_word_count(length) * _WORD // 8, "little")
        return cls(length, np.frombuffer(data, dtype="<u8"))

    def to_int(self) -> int:
        return _row_ints(self._words[None, :])[0]

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        w, b = divmod(i, _WORD)
        return int(self._words[w] >> np.uint64(b)) & 1

    def to_bits(self) -> np.ndarray:
        return _unpack_rows(self._words[None, :], self.length)[0]

    def nonzero_indices(self) -> list[int]:
        return np.nonzero(self.to_bits())[0].tolist()

    def is_zero(self) -> bool:
        return not self._words.any()

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.length != other.length:
            raise ContractViolation("vector length mismatch")
        return Gf2Vector(self.length, self._words ^ other._words)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Vector)
            and self.length == other.length
            and bool(np.array_equal(self._words, other._words))
        )

    def __hash__(self):
        return hash((self.length, self._words.tobytes()))

    def __repr__(self):
        return f"Gf2Vector({self.length}, ones={self.nonzero_indices()})"


class Gf2Span:
    """Row space over GF(2) kept as a pivot table, one row per leading bit.

    Vectors and tags are python ints, bit i = coordinate i.  A row's tag
    is the xor of the tags of the inputs combined into it, so a vector
    that reduces to zero yields the relation among the inputs.
    """

    __slots__ = ("_rows",)

    def __init__(self, vectors=()):
        self._rows = {}
        for x in vectors:
            self.add(x)

    def __len__(self) -> int:
        return len(self._rows)

    def copy(self) -> "Gf2Span":
        out = Gf2Span()
        out._rows = dict(self._rows)
        return out

    def reduce(self, x: int, tag: int = 0) -> tuple[int, int]:
        """Clear the leading bits of x that the table holds; (rest, tag)."""
        rows = self._rows
        while x:
            row = rows.get(x.bit_length() - 1)
            if row is None:
                break
            x ^= row[0]
            tag ^= row[1]
        return x, tag

    def add(self, x: int, tag: int = 0) -> int | None:
        """Insert x; None when it enlarges the span, else the relation's tag."""
        x, tag = self.reduce(x, tag)
        if x:
            self._rows[x.bit_length() - 1] = (x, tag)
            return None
        return tag


def relations(vectors) -> list[int]:
    """Relations among the vectors, one per input that depends on earlier ones.

    Input j's relation is bit j plus the unique combination of the earlier
    independent inputs that equals it.  For the columns of a matrix this
    is the kernel basis ordered by free column.
    """
    span = Gf2Span()
    tags = [span.add(x, 1 << i) for i, x in enumerate(vectors)]
    return [t for t in tags if t is not None]


class Gf2Matrix:
    """Immutable bit matrix; rows are packed little-endian into uint64."""

    __slots__ = ("row_count", "col_count", "_words", "_rank")

    def __init__(self, row_count: int, col_count: int, words: np.ndarray):
        self.row_count = int(row_count)
        self.col_count = int(col_count)
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.shape != (self.row_count, _word_count(self.col_count)):
            raise ContractViolation("packed storage has wrong shape")
        words.setflags(write=False)
        self._words = words
        self._rank = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows, col_count: int | None = None) -> "Gf2Matrix":
        rows = [np.asarray(r, dtype=np.uint8).ravel() & 1 for r in rows]
        if col_count is None:
            col_count = rows[0].size if rows else 0
        if any(r.size != col_count for r in rows):
            raise ContractViolation("ragged rows")
        bits = np.array(rows, dtype=np.uint8).reshape(len(rows), col_count)
        return cls(len(rows), col_count, _pack_rows(bits))

    @classmethod
    def from_triplets(cls, row_count, col_count, rows, cols) -> "Gf2Matrix":
        """Sparse constructor; a repeated (row, col) entry cancels mod 2."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ContractViolation("triplet arrays differ in length")
        if rows.size and (
            rows.min() < 0
            or rows.max() >= row_count
            or cols.min() < 0
            or cols.max() >= col_count
        ):
            raise ContractViolation("triplet index out of range")
        words = np.zeros((row_count, _word_count(col_count)), dtype=np.uint64)
        if rows.size:
            shifted = np.uint64(1) << (cols % _WORD).astype(np.uint64)
            np.bitwise_xor.at(words, (rows, cols // _WORD), shifted)
        return cls(row_count, col_count, words)

    # -- accessors ---------------------------------------------------------

    def row_ints(self) -> list[int]:
        """Each row as a python int, bit j = column j."""
        return _row_ints(self._words)

    def to_dense(self) -> np.ndarray:
        return _unpack_rows(self._words, self.col_count)

    def is_zero(self) -> bool:
        return not self._words.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.row_count == other.row_count
            and self.col_count == other.col_count
            and bool(np.array_equal(self._words, other._words))
        )

    def __hash__(self):
        return hash((self.row_count, self.col_count, self._words.tobytes()))

    def __repr__(self):
        return f"Gf2Matrix({self.row_count}x{self.col_count})"

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "Gf2Matrix":
        bits = _unpack_rows(self._words, self.col_count).T
        return Gf2Matrix(self.col_count, self.row_count, _pack_rows(bits))

    def mul_vec(self, v: Gf2Vector) -> Gf2Vector:
        if v.length != self.col_count:
            raise ContractViolation("dimension mismatch in matrix-vector product")
        if self.row_count == 0:
            return Gf2Vector.zeros(0)
        parities = np.bitwise_count(self._words & v._words[None, :]).sum(axis=1) & 1
        return Gf2Vector.from_bits(parities.astype(np.uint8))

    def matmul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.col_count != other.row_count:
            raise ContractViolation("dimension mismatch in matrix product")
        words = np.zeros((self.row_count, _word_count(other.col_count)), np.uint64)
        for i, row in enumerate(self._words):
            words[i] = other.combine_rows(Gf2Vector(self.col_count, row))._words
        return Gf2Matrix(self.row_count, other.col_count, words)

    def combine_rows(self, v: Gf2Vector) -> Gf2Vector:
        """The xor of the rows that v selects: the product v.m."""
        if v.length != self.row_count:
            raise ContractViolation("dimension mismatch in vector-matrix product")
        selected = self._words[np.nonzero(v.to_bits())[0]]
        return Gf2Vector(self.col_count, np.bitwise_xor.reduce(selected, axis=0))

    def rank(self) -> int:
        if self._rank is None:
            self._rank = len(Gf2Span(self.row_ints()))
        return self._rank

    def _column_ints(self) -> list[int]:
        return _row_ints(_pack_rows(self.to_dense().T))

    def solve(self, b: Gf2Vector):
        """The solution of m.x = b with free variables zero, or None."""
        if b.length != self.row_count:
            raise ContractViolation("right-hand side length must equal row count")
        # The solution is the relation of b appended as a last column.
        n = self.col_count
        found = relations([*self._column_ints(), b.to_int()])
        if not found or not found[-1] >> n:
            return None
        return Gf2Vector.from_int(n, found[-1] ^ 1 << n)

    def kernel_basis(self) -> list[Gf2Vector]:
        """Deterministic basis of the null space, ordered by free column."""
        return [
            Gf2Vector.from_int(self.col_count, x)
            for x in relations(self._column_ints())
        ]
