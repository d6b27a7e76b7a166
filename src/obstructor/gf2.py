"""Dense linear algebra over GF(2) with bit-packed rows.

A matrix row is a single Python int; bit ``j`` is the entry in column ``j``.
Row reduction is then a handful of XORs on machine words, which is fast
enough for every chain complex this package produces and stays exact.

Rank, kernel and row reduction all read one column reduction per matrix.
The columns are reduced left to right, each at its lowest nonzero row
against the pivots of the columns before it, until it vanishes or founds a
pivot; each carries a tag, the set of original columns it sums.  A column that
vanishes is free, and its tag is its kernel vector.  Reducing a vector v
reads its residue on each free column as v . tag and finds the sum of
basis rows by one back-substitution over the pivot rows.

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
        bits = 0
        for i, e in enumerate(entries):
            if e & 1:
                bits |= 1 << i
        return cls(len(entries), bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "GF2Vector") -> "GF2Vector":
        if self.length != other.length:
            raise ValueError(f"length mismatch {self.length} != {other.length}")
        return GF2Vector(self.length, self.bits ^ other.bits)

    def dot(self, other: "GF2Vector") -> int:
        if self.length != other.length:
            raise ValueError(f"length mismatch {self.length} != {other.length}")
        return (self.bits & other.bits).bit_count() & 1

    def support(self) -> tuple[int, ...]:
        # Clearing the top bit shrinks the int, so walk the set bits downward.
        out, bits = [], self.bits
        while bits:
            top = bits.bit_length() - 1
            out.append(top)
            bits ^= 1 << top
        return tuple(reversed(out))

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0


class GF2Matrix:
    """An immutable rows x cols matrix over GF(2)."""

    __slots__ = ("rows", "cols", "row_bits", "_reduced")

    def __init__(self, rows: int, cols: int, row_bits: Sequence[int]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape ({rows}, {cols})")
        if len(row_bits) != rows:
            raise ValueError(f"expected {rows} rows, got {len(row_bits)}")
        for r in row_bits:
            if r < 0 or r >> cols:
                raise ValueError(f"row 0x{r:x} does not fit in {cols} columns")
        self.rows = rows
        self.cols = cols
        self.row_bits = tuple(row_bits)
        self._reduced: Optional[tuple[tuple[tuple[int, int], ...], dict[int, int]]] = None

    # -- basics -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.row_bits) == (other.rows, other.cols, other.row_bits)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.row_bits))

    def __repr__(self) -> str:
        return f"GF2Matrix({self.rows}x{self.cols})"

    def transpose(self) -> "GF2Matrix":
        out = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            bit = 1 << i
            while r:
                top = r.bit_length() - 1
                out[top] |= bit
                r ^= 1 << top
        return GF2Matrix(self.cols, self.rows, out)

    def apply(self, v: GF2Vector) -> GF2Vector:
        """Matrix-vector product; v lives in the column space's domain."""
        if v.length != self.cols:
            raise ValueError(f"vector length {v.length} != cols {self.cols}")
        bits = 0
        for i, r in enumerate(self.row_bits):
            bits |= ((r & v.bits).bit_count() & 1) << i
        return GF2Vector(self.rows, bits)

    def apply_transpose(self, y: GF2Vector) -> GF2Vector:
        """y^T M, the sum of the rows that y selects, with no transpose built."""
        if y.length != self.rows:
            raise ValueError(f"vector length {y.length} != rows {self.rows}")
        bits = 0
        for i in y.support():
            bits ^= self.row_bits[i]
        return GF2Vector(self.cols, bits)

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} != {other.rows}")
        out = []
        for r in self.row_bits:
            acc = 0
            rr = r
            while rr:
                low = rr & -rr
                acc ^= other.row_bits[low.bit_length() - 1]
                rr ^= low
            out.append(acc)
        return GF2Matrix(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_bits)

    # -- elimination --------------------------------------------------

    def _eliminate(self) -> tuple[tuple[tuple[int, int], ...], dict[int, int]]:
        """Column reduction, once per matrix: (the pivot columns as (top bit,
        reduced column), highest pivot row first; {free column: tag}).

        A reduced column keeps its tag in bits 0..cols-1 and row i at bit
        cols + rows - 1 - i.  Its lowest row, where it is reduced, is then
        its top bit: ``bit_length`` finds it at once, and clearing it
        shrinks the int."""
        if self._reduced is None:
            rows, cols = self.rows, self.cols
            # Transposed bottom row first, a column holds row i at bit rows - 1 - i.
            columns = list(GF2Matrix(rows, cols, self.row_bits[::-1]).transpose().row_bits)
            pivots: dict[int, int] = {}  # top bit -> reduced column
            free: dict[int, int] = {}
            for j in range(cols):
                c, columns[j] = columns[j], 0
                c = c << cols | 1 << j
                top = c.bit_length() - 1
                while top >= cols:
                    pivot = pivots.get(top)
                    if pivot is None:
                        pivots[top] = c
                        break
                    c ^= pivot
                    top = c.bit_length() - 1
                else:
                    free[j] = c
            self._reduced = (tuple(sorted(pivots.items())), free)
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

    def row_reduce(self, v: GF2Vector) -> tuple[GF2Vector, GF2Vector]:
        """Split v = residue + y^T M.  The residue is 0 on every pivot column
        and is v . tag on each free column, so a kernel vector pairs with it
        as with v; y is the one sum of basis rows with y^T M = v + residue,
        found by back-substitution over the pivot rows, highest first: y
        pairs with each reduced column as v pairs with its tag."""
        if v.length != self.cols:
            raise ValueError(f"vector length {v.length} != cols {self.cols}")
        pivots, free = self._eliminate()
        residue = 0
        for f, tag in free.items():
            residue |= ((v.bits & tag).bit_count() & 1) << f
        # x holds v in bits 0..cols-1 and y above them, laid out as the
        # columns are, so one popcount reads v . tag + y . column.  y is set
        # so far only on rows after the pivot row, so the pivot row's bit
        # settles the parity.
        x, y = v.bits, 0
        for top, c in pivots:
            if (x & c).bit_count() & 1:
                x |= 1 << top
                y |= 1 << (self.cols + self.rows - 1 - top)
        return GF2Vector(self.cols, residue), GF2Vector(self.rows, y)
