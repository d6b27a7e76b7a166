"""GF(2) constructors and accessors that only the tests use.

The package holds a matrix as its packed columns (``GF2Matrix(rows, cols,
columns)``, bit rows-1-i of ``columns[j]`` the entry (i, j), so row 0 is
the top bit); these helpers spell small matrices and vectors out entry by
entry, with the range checks a hand-written example deserves, and give the
row-wise oracles the packed rows they read (``by_rows``, ``row_bits``,
``transpose``), and compare matrices (``columns_of``) and add vectors
(``xor``).  ``support_by_top_bits`` is the walk over set bits that
``GF2Vector.support`` once ran, and ``TaggedReduction`` the column
reduction with a tag on every column that ``GF2Matrix`` once ran, each
kept as the oracle of what replaced it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from obstructor.gf2 import GF2Matrix, GF2Vector


def _flip(length: int, words: Sequence[int]) -> list[int]:
    """Packed rows from packed columns, or back: bit j of word i becomes bit
    i of word j.  It walks the set bits, so a sparse boundary flips fast."""
    out = [0] * length
    for i, w in enumerate(words):
        bit = 1 << i
        while w:
            top = w.bit_length() - 1
            out[top] |= bit
            w ^= 1 << top
    return out


def by_rows(rows: int, cols: int, row_bits: Sequence[int]) -> GF2Matrix:
    """The matrix whose row i is the packed int ``row_bits[i]``; read
    backward, row i is word rows-1-i, which ``_flip`` turns into that bit."""
    return GF2Matrix(rows, cols, _flip(cols, list(row_bits)[::-1]))


def row_bits(m: GF2Matrix) -> tuple[int, ...]:
    """The rows of ``m``, each packed into one int (bit j = column j)."""
    return tuple(_flip(m.rows, m.columns)[::-1])


def transpose(m: GF2Matrix) -> GF2Matrix:
    """The rows of the transpose are the columns of ``m``."""
    return by_rows(m.cols, m.rows, [column(m, j).bits for j in range(m.cols)])


def columns_of(m: GF2Matrix) -> tuple[int, int, tuple[int, ...]]:
    """The shape and columns of ``m``, which pin the matrix down."""
    return (m.rows, m.cols, m.columns)


def xor(a: GF2Vector, b: GF2Vector) -> GF2Vector:
    if a.length != b.length:
        raise ValueError(f"length mismatch {a.length} != {b.length}")
    return GF2Vector(a.length, a.bits ^ b.bits)


def zero(rows: int, cols: int) -> GF2Matrix:
    return GF2Matrix(rows, cols, [0] * cols)


def identity(n: int) -> GF2Matrix:
    return GF2Matrix(n, n, [1 << (n - 1 - i) for i in range(n)])


def from_rows(entries: Sequence[Sequence[int]], cols: Optional[int] = None) -> GF2Matrix:
    if cols is None:
        cols = len(entries[0]) if entries else 0
    bits = []
    for row in entries:
        if len(row) != cols:
            raise ValueError("ragged rows")
        bits.append(sum((e & 1) << j for j, e in enumerate(row)))
    return by_rows(len(entries), cols, bits)


def from_entries(rows: int, cols: int, ones: Iterable[tuple[int, int]]) -> GF2Matrix:
    """The matrix with a one at each (i, j) of ``ones``; a repeated entry cancels."""
    bits = [0] * cols
    for i, j in ones:
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"entry ({i}, {j}) out of range for shape ({rows}, {cols})")
        bits[j] ^= 1 << (rows - 1 - i)
    return GF2Matrix(rows, cols, bits)


def entry(m: GF2Matrix, i: int, j: int) -> int:
    if not (0 <= i < m.rows and 0 <= j < m.cols):
        raise IndexError((i, j))
    return (m.columns[j] >> (m.rows - 1 - i)) & 1


def column(m: GF2Matrix, j: int) -> GF2Vector:
    if not 0 <= j < m.cols:
        raise IndexError(j)
    # Row i is bit rows-1-i of the column, and bit i of the vector.
    return GF2Vector(m.rows, int(f"{m.columns[j]:0{m.rows}b}"[::-1], 2))


def rows_iter(m: GF2Matrix) -> Iterator[GF2Vector]:
    for r in row_bits(m):
        yield GF2Vector(m.cols, r)


def from_support(length: int, support: Iterable[int]) -> GF2Vector:
    bits = 0
    for i in support:
        if not 0 <= i < length:
            raise ValueError(f"index {i} out of range for length {length}")
        bits |= 1 << i
    return GF2Vector(length, bits)


def to_list(v: GF2Vector) -> list[int]:
    return [(v.bits >> i) & 1 for i in range(v.length)]


def support_by_top_bits(v: GF2Vector) -> tuple[int, ...]:
    """The set coordinates, ascending, found by clearing the top bit until
    none is left: each clear rewrites the whole int, so it is quadratic."""
    out, bits = [], v.bits
    while bits:
        top = bits.bit_length() - 1
        out.append(top)
        bits ^= 1 << top
    return tuple(reversed(out))


def reverse(bits: int, length: int) -> int:
    """``bits`` read backward over ``length`` places: bit i goes to length-1-i."""
    return int(f"{bits:0{length}b}"[::-1], 2)


class TaggedReduction:
    """The column reduction with tags.  A reduced column keeps its tag, the
    set of original columns it sums, in bits 0..cols-1, original column j
    at bit j, and its rows above them, row 0 at the top; it is reduced at
    its lowest row, its top bit.  A free column's tag is its kernel vector,
    and a vector v pairs with a column's tag as v . tag, read off at once."""

    def __init__(self, m: GF2Matrix) -> None:
        rows, cols = self.rows, self.cols = m.rows, m.cols
        pivots: dict[int, int] = {}  # pivot row -> reduced column
        self.free: dict[int, int] = {}
        for j, c in enumerate(m.columns):
            c = c << cols | 1 << j
            low = rows + cols - c.bit_length()
            while low < rows:
                pivot = pivots.get(low)
                if pivot is None:
                    pivots[low] = c
                    break
                c ^= pivot
                low = rows + cols - c.bit_length()
            else:
                self.free[j] = c
        self.pivots = tuple(sorted(pivots.items(), reverse=True))

    def rank(self) -> int:
        return len(self.pivots)

    def kernel_vector(self, free: int) -> GF2Vector:
        tag = self.free.get(free)
        if tag is None:
            raise ValueError(f"column {free} is not a free column")
        return GF2Vector(self.cols, tag)

    def kernel_basis(self) -> list[GF2Vector]:
        return [GF2Vector(self.cols, tag) for tag in self.free.values()]

    def residue(self, v: GF2Vector) -> GF2Vector:
        residue = 0
        for f, tag in self.free.items():
            residue |= ((v.bits & tag).bit_count() & 1) << f
        return GF2Vector(self.cols, residue)

    def row_reduce(self, v: GF2Vector) -> tuple[GF2Vector, GF2Vector]:
        """Back-substitution over the pivot rows, highest first: x holds v
        in bits 0..cols-1 and y above them, so one popcount reads
        y . column + v . tag."""
        x, top = v.bits, self.rows + self.cols - 1
        for row, c in self.pivots:
            if (x & c).bit_count() & 1:
                x |= 1 << (top - row)
        return self.residue(v), GF2Vector(self.rows, reverse(x >> self.cols, self.rows))
