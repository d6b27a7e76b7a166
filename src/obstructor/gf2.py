"""Dense linear algebra over GF(2) with bit-packed rows.

A matrix row is a single Python int; bit ``j`` is the entry in column ``j``.
Row reduction is then a handful of XORs on machine words, which is fast
enough for every chain complex this package produces and stays exact.

Rank, kernel and row reduction all read one forward elimination per
matrix, with no back-substitution: each row is reduced at its lowest set
bit until it vanishes or founds a pivot row.  The rows that found one are
the basis rows, and each pivot row carries a tag, the basis rows it sums.
A kernel vector is then one triangular back-solve, and reducing a vector
against the pivot rows splits it into a residue and a sum of basis rows.

The output is canonical.  The pivot columns and the basis rows are those
not in the span of the columns (rows) before them, whatever the order of
elimination, and each answer is the one vector they pin down: the kernel
vector that is 1 on one free column and 0 on the others, the one sum of
basis rows that equals a vector of the row space.  Its bits are those a
reduced echelon form gives, which the obstruction certificates rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

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
    def zero(cls, length: int) -> "GF2Vector":
        return cls(length, 0)

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "GF2Vector":
        bits = 0
        for i in support:
            if not 0 <= i < length:
                raise ValueError(f"index {i} out of range for length {length}")
            bits |= 1 << i
        return cls(length, bits)

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
        return tuple(i for i in range(self.length) if (self.bits >> i) & 1)

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def to_list(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.length)]


class GF2Matrix:
    """An immutable rows x cols matrix over GF(2)."""

    __slots__ = ("rows", "cols", "row_bits", "_echelon")

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
        self._echelon: Optional[tuple[dict[int, int], tuple[int, ...], tuple[int, ...]]] = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "GF2Matrix":
        return cls(rows, cols, [0] * rows)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]], cols: Optional[int] = None) -> "GF2Matrix":
        if cols is None:
            cols = len(entries[0]) if entries else 0
        bits = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            b = 0
            for j, e in enumerate(row):
                if e & 1:
                    b |= 1 << j
            bits.append(b)
        return cls(len(entries), cols, bits)

    @classmethod
    def from_entries(cls, rows: int, cols: int, ones: Iterable[tuple[int, int]]) -> "GF2Matrix":
        bits = [0] * rows
        for i, j in ones:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) out of range for shape ({rows}, {cols})")
            bits[i] ^= 1 << j
        return cls(rows, cols, bits)

    # -- basics -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.row_bits) == (other.rows, other.cols, other.row_bits)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.row_bits))

    def __repr__(self) -> str:
        return f"GF2Matrix({self.rows}x{self.cols})"

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self.row_bits[i] >> j) & 1

    def column(self, j: int) -> GF2Vector:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        bits = 0
        for i, r in enumerate(self.row_bits):
            bits |= ((r >> j) & 1) << i
        return GF2Vector(self.rows, bits)

    def transpose(self) -> "GF2Matrix":
        out = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= 1 << i
                r ^= low
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

    def rows_iter(self) -> Iterator[GF2Vector]:
        for r in self.row_bits:
            yield GF2Vector(self.cols, r)

    # -- elimination --------------------------------------------------

    def _eliminate(self) -> tuple[dict[int, int], tuple[int, ...], tuple[int, ...]]:
        """Forward elimination, once per matrix: ({pivot column: pivot row},
        the pivot columns ascending, the basis rows).  A pivot row carries
        its tag above bit ``cols``; tag bit k stands for row ``basis[k]``."""
        if self._echelon is None:
            width = (1 << self.cols) - 1
            pivot_rows: dict[int, int] = {}
            basis: list[int] = []
            for i, r in enumerate(self.row_bits):
                r |= 1 << (self.cols + len(basis))
                while r & width:
                    low = (r & -r).bit_length() - 1
                    pivot = pivot_rows.get(low)
                    if pivot is None:
                        pivot_rows[low] = r
                        basis.append(i)
                        break
                    r ^= pivot
            self._echelon = (pivot_rows, tuple(sorted(pivot_rows)), tuple(basis))
        return self._echelon

    def _back_solve(self, x: int) -> int:
        """Set x's pivot coordinates, highest first, so that every pivot row
        has row . x = 0; a pivot row has no bit below its pivot, so it fixes
        that coordinate alone."""
        pivot_rows, pivots, _ = self._eliminate()
        for col in reversed(pivots):
            if (pivot_rows[col] & x).bit_count() & 1:
                x |= 1 << col
        return x

    def rank(self) -> int:
        return len(self._eliminate()[2])

    def kernel_vector(self, free: int) -> GF2Vector:
        """The one kernel vector that is 1 on free column ``free`` and 0 on
        every other free column."""
        if not 0 <= free < self.cols or free in self._eliminate()[0]:
            raise ValueError(f"column {free} is not a free column")
        return GF2Vector(self.cols, self._back_solve(1 << free))

    def kernel_basis(self) -> list[GF2Vector]:
        """Basis of {x : Mx = 0}: ``kernel_vector`` of each free column,
        ascending, the same vectors a reduced echelon form gives."""
        pivot_rows = self._eliminate()[0]
        return [self.kernel_vector(f) for f in range(self.cols) if f not in pivot_rows]

    def row_reduce(self, v: GF2Vector) -> tuple[GF2Vector, GF2Vector]:
        """Split v = residue + y^T M by reducing v against the pivot rows in
        ascending order.  The residue is 0 on every pivot column, so a kernel
        vector pairs with it as with v; if it is 0, y is the one sum of
        basis rows that equals v."""
        if v.length != self.cols:
            raise ValueError(f"vector length {v.length} != cols {self.cols}")
        pivot_rows, _, basis = self._eliminate()
        rest, residue, width = v.bits, 0, (1 << self.cols) - 1
        while rest & width:
            low = rest & -rest
            pivot = pivot_rows.get(low.bit_length() - 1)
            if pivot is None:
                residue |= low
                pivot = low
            rest ^= pivot
        y = sum(((rest >> (self.cols + k)) & 1) << i for k, i in enumerate(basis))
        return GF2Vector(self.cols, residue), GF2Vector(self.rows, y)
