"""Exact linear algebra over the two-element field.

Every GF(2) value is a python int whose bit j is coordinate j: a vector
is its length and one int, a matrix is a tuple of row ints and a column
count.  A bit past a vector's length, or past a matrix's column count, is
a ``ContractViolation``.  numpy meets this form only through
``_from_bits`` (rows of a 0/1 array to ints; ``_from_bytes`` when the
rows are packed already), ``pack_rows`` (the entries of a sparse 0/1
matrix to row ints), ``_to_bits`` (ints to rows of a 0/1 array) and
their one-vector forms ``Gf2Vector.from_bits`` and ``to_bits``.

All elimination goes through one routine, the tagged pivot table
``Gf2Span``.  Its results are deterministic: the kernel basis is ordered
by free column, ``solve`` returns the solution whose free variables are
zero, and cohomology representatives are the relations among the
boundary rows that clearing keeps, which are the first cocycles, in
kernel order, that are independent modulo coboundaries.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation


def _from_bits(bits) -> list[int]:
    """Each row of a 2-D array as an int whose bit j is set where entry j is nonzero."""
    return _from_bytes(np.packbits(bits, axis=1, bitorder="little"))


def _from_bytes(packed) -> list[int]:
    """Each row of a 2-D uint8 array of little-endian packed bits as an int."""
    count, width = packed.shape
    if not width:
        return [0] * count
    # one bytes object per row, made in C; numpy drops its trailing zero
    # bytes, which are the high ones here
    rows = np.ascontiguousarray(packed).view(f"S{width}").ravel().tolist()
    return [int.from_bytes(row, "little") for row in rows]


def pack_rows(row_count: int, col_count: int, rows, cols) -> list[int]:
    """The row ints of the matrix with a 1 at each (rows, cols) entry.

    A repeated entry cancels mod 2.  The indices must be in range.
    """
    packed = np.zeros((row_count, (col_count + 7) // 8), dtype=np.uint8)
    np.bitwise_xor.at(packed, (rows, cols >> 3), (1 << (cols & 7)).astype(np.uint8))
    return _from_bytes(packed)


def _to_bits(ints, nbits: int) -> np.ndarray:
    """Bits 0..nbits-1 of each int, one uint8 row per int."""
    width = (nbits + 7) // 8
    data = b"".join(x.to_bytes(width, "little") for x in ints)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(ints), width)
    return np.unpackbits(packed, axis=1, count=nbits, bitorder="little")


def _check_width(x: int, nbits: int, what: str):
    if x < 0 or x >> nbits:
        raise ContractViolation(f"{what} has bits outside 0..{nbits - 1}")


class Gf2Vector:
    """Immutable bit vector over the two-element field."""

    __slots__ = ("length", "_int")

    def __init__(self, length: int, x: int):
        self.length = int(length)
        _check_width(x, self.length, "vector")
        self._int = x

    @classmethod
    def zeros(cls, length: int) -> "Gf2Vector":
        return cls(length, 0)

    @classmethod
    def from_bits(cls, bits) -> "Gf2Vector":
        bits = np.asarray(bits, dtype=np.uint8).ravel() & 1
        packed = np.packbits(bits, bitorder="little")
        return cls(bits.size, int.from_bytes(packed.tobytes(), "little"))

    def to_int(self) -> int:
        return self._int

    def to_bits(self) -> np.ndarray:
        data = self._int.to_bytes((self.length + 7) // 8, "little")
        packed = np.frombuffer(data, dtype=np.uint8)
        return np.unpackbits(packed, count=self.length, bitorder="little")

    def nonzero_indices(self) -> list[int]:
        return np.nonzero(self.to_bits())[0].tolist()

    def is_zero(self) -> bool:
        return not self._int

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.length != other.length:
            raise ContractViolation("vector length mismatch")
        return Gf2Vector(self.length, self._int ^ other._int)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Vector)
            and self.length == other.length
            and self._int == other._int
        )

    def __hash__(self):
        return hash((self.length, self._int))

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

    def pivots(self) -> list[int]:
        """The leading bit of each row, ascending."""
        return sorted(self._rows)

    def drop_tags(self):
        """Zero every row's tag, keeping the span."""
        self._rows = {p: (x, 0) for p, (x, _) in self._rows.items()}

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
        # reduce's loop, inlined: one call per row is most of an elimination
        rows = self._rows
        while x:
            lead = x.bit_length() - 1
            row = rows.get(lead)
            if row is None:
                rows[lead] = (x, tag)
                return None
            x ^= row[0]
            tag ^= row[1]
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
    """Immutable bit matrix: a tuple of row ints, bit j = column j."""

    __slots__ = ("row_count", "col_count", "_rows", "_rank")

    def __init__(self, rows, col_count: int):
        self._rows = tuple(rows)
        self.row_count = len(self._rows)
        self.col_count = int(col_count)
        for x in self._rows:
            _check_width(x, self.col_count, "matrix row")
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
        return cls(_from_bits(bits), col_count)

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
        return cls(pack_rows(row_count, col_count, rows, cols), col_count)

    # -- accessors ---------------------------------------------------------

    def row_ints(self) -> list[int]:
        """Each row as a python int, bit j = column j."""
        return list(self._rows)

    def to_dense(self) -> np.ndarray:
        return _to_bits(self._rows, self.col_count)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.col_count == other.col_count
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.col_count, self._rows))

    def __repr__(self):
        return f"Gf2Matrix({self.row_count}x{self.col_count})"

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix(self._column_ints(), self.row_count)

    def mul_vec(self, v: Gf2Vector) -> Gf2Vector:
        if v.length != self.col_count:
            raise ContractViolation("dimension mismatch in matrix-vector product")
        x = v.to_int()
        return Gf2Vector.from_bits([(row & x).bit_count() & 1 for row in self._rows])

    def matmul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.col_count != other.row_count:
            raise ContractViolation("dimension mismatch in matrix product")
        rows = (other.combine_rows(Gf2Vector(self.col_count, r)) for r in self._rows)
        return Gf2Matrix([v.to_int() for v in rows], other.col_count)

    def combine_rows(self, v: Gf2Vector) -> Gf2Vector:
        """The xor of the rows that v selects: the product v.m."""
        if v.length != self.row_count:
            raise ContractViolation("dimension mismatch in vector-matrix product")
        acc = 0
        for i in v.nonzero_indices():
            acc ^= self._rows[i]
        return Gf2Vector(self.col_count, acc)

    def rank(self) -> int:
        if self._rank is None:
            self._rank = len(Gf2Span(self._rows))
        return self._rank

    def _column_ints(self) -> list[int]:
        return _from_bits(self.to_dense().T)

    def solve(self, b: Gf2Vector):
        """The solution of m.x = b with free variables zero, or None."""
        if b.length != self.row_count:
            raise ContractViolation("right-hand side length must equal row count")
        # The solution is the relation of b appended as a last column.
        n = self.col_count
        found = relations([*self._column_ints(), b.to_int()])
        if not found or not found[-1] >> n:
            return None
        return Gf2Vector(n, found[-1] ^ 1 << n)

    def kernel_basis(self) -> list[Gf2Vector]:
        """Deterministic basis of the null space, ordered by free column."""
        return [Gf2Vector(self.col_count, x) for x in relations(self._column_ints())]
