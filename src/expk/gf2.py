"""Exact linear algebra over the two-element field.

Matrices and vectors are bit-packed into unsigned 64-bit words so that a
row elimination is a handful of word-level XORs.  Every operation is
deterministic: pivots are always taken from the lowest-index nonzero row,
so ranks, particular solutions, and kernel bases are reproducible bit for
bit across runs.
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
    def from_indices(cls, length: int, indices) -> "Gf2Vector":
        bits = np.zeros(length, dtype=np.uint8)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            bits[idx] ^= 1
        return cls.from_bits(bits)

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        w, b = divmod(i, _WORD)
        return int(self._words[w] >> np.uint64(b)) & 1

    def to_bits(self) -> np.ndarray:
        return _unpack_rows(self._words[None, :], self.length)[0]

    def nonzero_indices(self) -> list[int]:
        return np.nonzero(self.to_bits())[0].tolist()

    def weight(self) -> int:
        return int(np.bitwise_count(self._words).sum())

    def is_zero(self) -> bool:
        return not self._words.any()

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.length != other.length:
            raise ContractViolation("vector length mismatch")
        return Gf2Vector(self.length, self._words ^ other._words)

    def dot(self, other: "Gf2Vector") -> int:
        if self.length != other.length:
            raise ContractViolation("vector length mismatch")
        return int(np.bitwise_count(self._words & other._words).sum()) & 1

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


def _rref(words: np.ndarray, ncols: int):
    """In-place reduced row echelon form; returns the pivot columns.

    Scans columns left to right and picks the lowest-index available row
    as pivot, then clears the column everywhere else.
    """
    nrows = words.shape[0]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        w, b = divmod(c, _WORD)
        bit = np.uint64(1 << b)
        below = np.nonzero(words[r:, w] & bit)[0]
        if below.size == 0:
            continue
        p = r + int(below[0])
        if p != r:
            words[[r, p]] = words[[p, r]]
        hits = (words[:, w] & bit) != 0
        hits[r] = False
        if hits.any():
            words[hits] ^= words[r]
        pivots.append(c)
        r += 1
    return pivots


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
    def zeros(cls, row_count: int, col_count: int) -> "Gf2Matrix":
        return cls(
            row_count,
            col_count,
            np.zeros((row_count, _word_count(col_count)), dtype=np.uint64),
        )

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        words = np.zeros((n, _word_count(n)), dtype=np.uint64)
        idx = np.arange(n)
        words[idx, idx // _WORD] = np.uint64(1) << (idx % _WORD).astype(np.uint64)
        return cls(n, n, words)

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

    def row(self, i: int) -> Gf2Vector:
        return Gf2Vector(self.col_count, self._words[i])

    def get(self, i: int, j: int) -> int:
        w, b = divmod(j, _WORD)
        return int(self._words[i, w] >> np.uint64(b)) & 1

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
        words = np.zeros(
            (self.row_count, _word_count(other.col_count)), dtype=np.uint64
        )
        for i, row in enumerate(self.to_dense()):
            sel = np.nonzero(row)[0]
            if sel.size:
                words[i] = np.bitwise_xor.reduce(other._words[sel], axis=0)
        return Gf2Matrix(self.row_count, other.col_count, words)

    def rank(self) -> int:
        if self._rank is None:
            work = self._words.copy()
            self._rank = len(_rref(work, self.col_count))
        return self._rank

    def solve(self, b: Gf2Vector):
        """One solution of m.x = b, or None when the system is inconsistent.

        Free variables are set to zero, so the result is the echelon-form
        particular solution.
        """
        if b.length != self.row_count:
            raise ContractViolation("right-hand side length must equal row count")
        n = self.col_count
        aug_cols = n + 1
        aug = np.zeros((self.row_count, _word_count(aug_cols)), dtype=np.uint64)
        aug[:, : self._words.shape[1]] = self._words
        w, sh = divmod(n, _WORD)
        bbits = b.to_bits()
        aug[:, w] |= bbits.astype(np.uint64) << np.uint64(sh)
        pivots = _rref(aug, aug_cols)
        if pivots and pivots[-1] == n:
            return None
        xbits = np.zeros(n, dtype=np.uint8)
        xbits[pivots] = (aug[: len(pivots), w] >> np.uint64(sh)) & np.uint64(1)
        return Gf2Vector.from_bits(xbits)

    def kernel_basis(self) -> list[Gf2Vector]:
        """Deterministic basis of the null space, ordered by free column."""
        work = self._words.copy()
        pivots = _rref(work, self.col_count)
        free = np.setdiff1d(np.arange(self.col_count), pivots)
        # Basis vector i sets free column free[i]; its pivot coordinates
        # are column free[i] of the reduced rows.  Those columns are read
        # byte by byte, so only rank x nfree bytes are unpacked, not all
        # rank x ncols bits.
        bits = np.zeros((free.size, self.col_count), dtype=np.uint8)
        bits[np.arange(free.size), free] = 1
        reduced = work[: len(pivots)].view(np.uint8)[:, free >> 3]
        reduced >>= (free & 7).astype(np.uint8)
        reduced &= 1
        bits[:, pivots] = reduced.T
        return [Gf2Vector(self.col_count, w) for w in _pack_rows(bits)]
