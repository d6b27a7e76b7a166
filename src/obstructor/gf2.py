"""Dense linear algebra over GF(2) with bit-packed columns.

A matrix is its columns, each a single Python int; entry (i, j) is bit
``rows - 1 - i`` of column ``j``, row 0 at the top.  Reduction is then a
handful of XORs on machine words, which is fast enough for every chain
complex this package produces and stays exact.

Rank, kernel and row reduction all read one column reduction per matrix.
The columns are reduced left to right, each at its lowest nonzero row
against the pivots of the columns before it, until it vanishes or founds a
pivot; each carries a tag, the set of original columns it sums.  The lowest
row is the top bit, which ``bit_length`` reads at once.  A column that
vanishes is free, and its tag is its kernel vector.  Reducing a vector v
reads its residue on each free column as v . tag and finds the sum of
basis rows by one back-substitution over the pivot rows, which a caller
that needs only the residue skips.

The output is canonical.  A column vanishes iff it lies in the span of the
columns before it, and a pivot row is a row outside the span of the rows
before it, since column operations keep the rank of every prefix of rows.
So the free columns, the pivot rows (the basis rows) and each answer are
pinned down whatever the order of elimination: the kernel vector that is 1
on one free column and 0 on the others, and the one sum of basis rows that
leaves a residue 0 on every pivot column.  Its bits are those a reduced
echelon form gives, which the obstruction certificates rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = ["GF2Vector", "GF2Matrix"]


@dataclass(frozen=True)
class GF2Vector:
    """A vector over GF(2), packed into one int (bit i = coordinate i)."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative vector length {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError(f"bits 0x{self.bits:x} do not fit in length {self.length}")

    @classmethod
    def from_list(cls, entries: Sequence[int]) -> "GF2Vector":
        """Bit i is entry i mod 2, read in one pass as a binary numeral,
        where OR-ing each bit into a growing int would be quadratic."""
        return cls(len(entries), int("0" + "".join(["1" if e & 1 else "0" for e in reversed(entries)]), 2))

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def dot(self, other: "GF2Vector") -> int:
        if self.length != other.length:
            raise ValueError(f"length mismatch {self.length} != {other.length}")
        return (self.bits & other.bits).bit_count() & 1

    def support(self) -> tuple[int, ...]:
        # Bit i is place i of the numeral read backward, so each set bit is
        # one str.find, and the walk is linear in the length.
        digits, out, i = f"{self.bits:b}"[::-1], [], -1
        while (i := digits.find("1", i + 1)) >= 0:
            out.append(i)
        return tuple(out)

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0


class GF2Matrix:
    """An immutable rows x cols matrix over GF(2), held as its columns."""

    __slots__ = ("rows", "cols", "columns", "_reduced")

    def __init__(self, rows: int, cols: int, columns: Sequence[int]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape ({rows}, {cols})")
        if len(columns) != cols:
            raise ValueError(f"expected {cols} columns, got {len(columns)}")
        for c in columns:
            if c < 0 or c >> rows:
                raise ValueError(f"column 0x{c:x} does not fit in {rows} rows")
        self.rows = rows
        self.cols = cols
        self.columns = tuple(columns)
        self._reduced: Optional[tuple[tuple[tuple[int, int], ...], dict[int, int]]] = None

    # -- basics -------------------------------------------------------

    def __repr__(self) -> str:
        return f"GF2Matrix({self.rows}x{self.cols})"

    @staticmethod
    def _sum_columns(select: int, columns: Sequence[int]) -> int:
        """The XOR of ``columns[b]`` for each bit b set in ``select``."""
        acc = 0
        while select:
            top = select.bit_length() - 1
            acc ^= columns[top]
            select ^= 1 << top
        return acc

    def apply(self, v: GF2Vector) -> GF2Vector:
        """Matrix-vector product, the sum of the columns that v selects."""
        if v.length != self.cols:
            raise ValueError(f"vector length {v.length} != cols {self.cols}")
        return GF2Vector(self.rows, _reverse(self._sum_columns(v.bits, self.columns), self.rows))

    def apply_transpose(self, y: GF2Vector) -> GF2Vector:
        """y^T M: bit j is the parity of y on column j."""
        if y.length != self.rows:
            raise ValueError(f"vector length {y.length} != rows {self.rows}")
        ybits = _reverse(y.bits, self.rows)
        return GF2Vector.from_list([(c & ybits).bit_count() for c in self.columns])

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        # Bit b of a column of ``other`` selects column cols-1-b of ``self``.
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} != {other.rows}")
        backward = self.columns[::-1]
        out = [self._sum_columns(c, backward) for c in other.columns]
        return GF2Matrix(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return not any(self.columns)

    # -- elimination --------------------------------------------------

    def _eliminate(self) -> tuple[tuple[tuple[int, int], ...], dict[int, int]]:
        """Column reduction, once per matrix: (the pivot columns as (pivot
        row, reduced column), highest pivot row first; {free column: tag}).

        A reduced column keeps its tag in bits 0..cols-1, original column j
        at bit j, and its rows above them, row 0 at the top.  Its lowest row,
        where it is reduced, is then its top bit, which ``bit_length`` reads."""
        if self._reduced is None:
            rows, cols = self.rows, self.cols
            pivots: dict[int, int] = {}  # pivot row -> reduced column
            free: dict[int, int] = {}
            for j, c in enumerate(self.columns):
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
                    free[j] = c
            self._reduced = (tuple(sorted(pivots.items(), reverse=True)), free)
        return self._reduced

    def rank(self) -> int:
        return len(self._eliminate()[0])

    def kernel_vector(self, free: int) -> GF2Vector:
        """The one kernel vector that is 1 on free column ``free`` and 0 on
        every other free column: the tag of that column, which reduced to 0."""
        tag = self._eliminate()[1].get(free)
        if tag is None:
            raise ValueError(f"column {free} is not a free column")
        return GF2Vector(self.cols, tag)

    def kernel_basis(self) -> list[GF2Vector]:
        """Basis of {x : Mx = 0}: ``kernel_vector`` of each free column,
        ascending, the same vectors a reduced echelon form gives."""
        return [GF2Vector(self.cols, tag) for tag in self._eliminate()[1].values()]

    def residue(self, v: GF2Vector) -> GF2Vector:
        """The part of v outside the row space: 0 on every pivot column and
        v . tag on each free column, so a kernel vector pairs with it as
        with v.  It is 0 iff v lies in the row space."""
        if v.length != self.cols:
            raise ValueError(f"vector length {v.length} != cols {self.cols}")
        residue = 0
        for f, tag in self._eliminate()[1].items():
            residue |= ((v.bits & tag).bit_count() & 1) << f
        return GF2Vector(self.cols, residue)

    def row_reduce(self, v: GF2Vector) -> tuple[GF2Vector, GF2Vector]:
        """Split v = residue + y^T M, with ``residue(v)``; y is the one sum
        of basis rows with y^T M = v + residue, found by back-substitution
        over the pivot rows, highest first: y pairs with the rows of each
        reduced column as v pairs with its tag."""
        residue = self.residue(v)
        # x holds v in bits 0..cols-1 and y above them, laid out as the
        # columns are, so one popcount reads y . column + v . tag.  y is set
        # so far only on rows after the pivot row, so the pivot row's bit
        # settles the parity.
        x, top = v.bits, self.rows + self.cols - 1
        for row, c in self._eliminate()[0]:
            if (x & c).bit_count() & 1:
                x |= 1 << (top - row)
        return residue, GF2Vector(self.rows, _reverse(x >> self.cols, self.rows))


def _reverse(bits: int, length: int) -> int:
    """``bits`` read backward over ``length`` places: bit i goes to length-1-i."""
    return int(f"{bits:0{length}b}"[::-1], 2)
