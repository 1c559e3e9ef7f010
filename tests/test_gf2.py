"""GF(2) linear algebra checked against exhaustive enumeration."""

import itertools

import numpy as np
import pytest

from expk.errors import ContractViolation
from expk.gf2 import Gf2Matrix, Gf2Vector

# The reference elimination below works on its own uint64 words.
_WORD = 64


def _word_count(nbits):
    return (nbits + _WORD - 1) // _WORD


def _words(m):
    """The rows of m packed little-endian into uint64 words."""
    packed = np.packbits(m.to_dense(), axis=1, bitorder="little")
    words = np.zeros((m.row_count, _word_count(m.col_count) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(np.uint64)


def brute_rank(dense):
    """Rank as log2 of the column-space size, enumerated directly."""
    dense = np.asarray(dense, dtype=np.uint8)
    m, n = dense.shape
    seen = set()
    for x in itertools.product((0, 1), repeat=n):
        y = tuple((dense @ np.array(x, dtype=np.uint8)) % 2)
        seen.add(y)
    return len(seen).bit_length() - 1


def brute_kernel(dense):
    dense = np.asarray(dense, dtype=np.uint8)
    m, n = dense.shape
    out = []
    for x in itertools.product((0, 1), repeat=n):
        xv = np.array(x, dtype=np.uint8)
        if not ((dense @ xv) % 2).any():
            out.append(tuple(x))
    return set(out)


def mat(dense):
    return Gf2Matrix.from_rows(np.asarray(dense, dtype=np.uint8))


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


def rref_solution(m, b):
    """Reference solve: RREF of [m | b], free variables set to zero."""
    n = m.col_count
    aug = np.zeros((m.row_count, _word_count(n + 1)), dtype=np.uint64)
    words = _words(m)
    aug[:, : words.shape[1]] = words
    w, sh = divmod(n, _WORD)
    aug[:, w] |= b.to_bits().astype(np.uint64) << np.uint64(sh)
    pivots = _rref(aug, n + 1)
    if pivots and pivots[-1] == n:
        return None
    xbits = np.zeros(n, dtype=np.uint8)
    xbits[pivots] = (aug[: len(pivots), w] >> np.uint64(sh)) & np.uint64(1)
    return Gf2Vector.from_bits(xbits)


def loop_kernel_basis(m):
    """Reference kernel basis: one free column at a time, bit by bit."""
    work = _words(m)
    pivots = _rref(work, m.col_count)
    basis = []
    for f in range(m.col_count):
        if f in pivots:
            continue
        bits = np.zeros(m.col_count, dtype=np.uint8)
        bits[f] = 1
        wf, bf = divmod(f, _WORD)
        for r, c in enumerate(pivots):
            bits[c] = (work[r, wf] >> np.uint64(bf)) & np.uint64(1)
        basis.append(Gf2Vector.from_bits(bits))
    return basis


def test_rank_identity_and_zero():
    assert mat(np.eye(3)).rank() == 3
    assert mat(np.zeros((4, 7))).rank() == 0


def test_rank_all_2x2_against_enumeration():
    for bits in itertools.product((0, 1), repeat=4):
        dense = np.array(bits, dtype=np.uint8).reshape(2, 2)
        assert mat(dense).rank() == brute_rank(dense)


def test_solve_identity_returns_rhs():
    m = mat(np.eye(5))
    b = Gf2Vector.from_bits([1, 0, 1, 1, 0])
    assert m.solve(b) == b


def test_solve_zero_matrix_unsatisfiable():
    m = mat(np.zeros((3, 4)))
    assert m.solve(Gf2Vector.from_bits([0, 1, 0])) is None
    assert m.solve(Gf2Vector.zeros(3)) == Gf2Vector.zeros(4)


def test_solve_random_5x8_against_enumeration():
    rng = np.random.default_rng(20240811)
    for _ in range(25):
        dense = rng.integers(0, 2, size=(5, 8), dtype=np.uint8)
        b = rng.integers(0, 2, size=5, dtype=np.uint8)
        candidates = [
            x
            for x in itertools.product((0, 1), repeat=8)
            if not ((dense @ np.array(x, dtype=np.uint8) + b) % 2).any()
        ]
        got = mat(dense).solve(Gf2Vector.from_bits(b))
        if candidates:
            assert got is not None
            assert tuple(got.to_bits()) in candidates
        else:
            assert got is None


def test_solve_dimension_mismatch():
    with pytest.raises(ContractViolation):
        mat(np.eye(3)).solve(Gf2Vector.zeros(4))


def test_kernel_identity_empty():
    assert mat(np.eye(3)).kernel_basis() == []


def test_kernel_of_1x2_ones():
    basis = mat([[1, 1]]).kernel_basis()
    assert basis == [Gf2Vector.from_bits([1, 1])]


def test_kernel_random_6x6_span_by_enumeration():
    rng = np.random.default_rng(99)
    for _ in range(20):
        dense = rng.integers(0, 2, size=(6, 6), dtype=np.uint8)
        m = mat(dense)
        basis = m.kernel_basis()
        assert len(basis) == 6 - m.rank()
        for v in basis:
            assert m.mul_vec(v).is_zero()
        span = set()
        for picks in itertools.product((0, 1), repeat=len(basis)):
            acc = Gf2Vector.zeros(6)
            for take, v in zip(picks, basis):
                if take:
                    acc = acc ^ v
            span.add(tuple(acc.to_bits()))
        assert span == brute_kernel(dense)


def test_rank_nullity_and_transpose_invariants():
    rng = np.random.default_rng(7)
    for _ in range(40):
        r, c = rng.integers(1, 10, size=2)
        dense = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
        m = mat(dense)
        assert m.rank() == c - len(m.kernel_basis())
        assert m.rank() == m.transpose().rank()


def test_solve_finds_solution_whenever_one_exists_up_to_12_cols():
    rng = np.random.default_rng(12)
    for _ in range(30):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 13))
        dense = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
        x = rng.integers(0, 2, size=c, dtype=np.uint8)
        b = (dense @ x) % 2
        got = mat(dense).solve(Gf2Vector.from_bits(b))
        assert got is not None
        assert ((dense @ got.to_bits()) % 2 == b).all()


def test_from_triplets_xor_semantics():
    # A duplicated entry cancels mod 2.
    m = Gf2Matrix.from_triplets(2, 3, rows=[0, 0, 1], cols=[1, 1, 2])
    assert m.to_dense().tolist() == [[0, 0, 0], [0, 0, 1]]


def test_matmul_and_mul_vec_agree_with_dense():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, size=(6, 9), dtype=np.uint8)
    b = rng.integers(0, 2, size=(9, 4), dtype=np.uint8)
    prod = mat(a).matmul(mat(b))
    assert (prod.to_dense() == (a @ b) % 2).all()
    v = rng.integers(0, 2, size=9, dtype=np.uint8)
    assert (mat(a).mul_vec(Gf2Vector.from_bits(v)).to_bits() == (a @ v) % 2).all()


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    dense = rng.integers(0, 2, size=(8, 11), dtype=np.uint8)
    m1, m2 = mat(dense), mat(dense)
    assert m1.rank() == m2.rank()
    assert m1.kernel_basis() == m2.kernel_basis()
    b = Gf2Vector.from_bits(rng.integers(0, 2, size=8, dtype=np.uint8))
    s1, s2 = m1.solve(b), m2.solve(b)
    assert (s1 is None and s2 is None) or s1 == s2


@pytest.mark.parametrize("rows", [0, 1, 64, 65])
@pytest.mark.parametrize("cols", [0, 1, 63, 64, 65, 128, 129])
def test_packed_operations_across_word_boundaries(rows, cols):
    rng = np.random.default_rng(1000 * rows + cols)
    # Sparse matrices leave zero columns and interleaved free columns;
    # dense ones are mostly of full rank.
    for density in (0.05, 0.5):
        dense = (rng.random((rows, cols)) < density).astype(np.uint8)
        m = Gf2Matrix.from_rows(dense, col_count=cols)
        assert m == Gf2Matrix.from_triplets(rows, cols, *np.nonzero(dense))
        assert (m.to_dense() == dense).all()
        t = m.transpose()
        assert (t.row_count, t.col_count) == (cols, rows)
        assert (t.to_dense() == dense.T).all()
        assert t == Gf2Matrix.from_triplets(cols, rows, *np.nonzero(dense.T))
        assert t.transpose() == m
        basis = m.kernel_basis()
        assert basis == loop_kernel_basis(m)
        assert all(m.mul_vec(v).is_zero() for v in basis)
        assert m.rank() == len(_rref(_words(m), cols))
        x = Gf2Vector.from_bits(rng.integers(0, 2, size=cols, dtype=np.uint8))
        b = m.mul_vec(x)
        assert m.solve(b) == rref_solution(m, b)


def test_constructors_keep_the_low_bit():
    assert Gf2Vector.from_bits([2, 3, 1]) == Gf2Vector.from_bits([0, 1, 1])
    assert mat([[2, 3], [5, 4]]) == mat([[0, 1], [1, 0]])


def test_a_bit_past_the_length_is_rejected():
    # bit 3 of 8 lies past a length-3 vector; it would hide from to_bits
    with pytest.raises(ContractViolation):
        Gf2Vector(3, 8)
    with pytest.raises(ContractViolation):
        Gf2Vector(3, -1)
    v = Gf2Vector(3, 4)
    assert v.to_bits().tolist() == [0, 0, 1] and v.to_int() == 4
    assert Gf2Vector(3, 0) == Gf2Vector.zeros(3)


def test_a_row_bit_past_the_column_count_is_rejected():
    with pytest.raises(ContractViolation):
        Gf2Matrix([1, 8], 3)
    with pytest.raises(ContractViolation):
        Gf2Matrix([1], 0)
    m = Gf2Matrix([1, 4], 3)
    assert m.to_dense().tolist() == [[1, 0, 0], [0, 0, 1]]
    assert m.row_ints() == [1, 4] and m == mat([[1, 0, 0], [0, 0, 1]])
