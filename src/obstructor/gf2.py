"""Dense linear algebra over GF(2) with bit-packed rows.

A matrix row is a single Python int; bit ``j`` is the entry in column ``j``.
Row reduction is then a handful of XORs on machine words, which is fast
enough for every chain complex this package produces and stays exact.

Elimination is deterministic: pivot columns are chosen left to right (the
lowest set bit of each row), and kernel vectors are emitted in increasing
order of their free column.  Two runs on equal matrices give identical
output, which the obstruction certificates rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CertificateError

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

    __slots__ = ("rows", "cols", "row_bits", "_rank", "_rref")

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
        self._rank: Optional[int] = None
        self._rref: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

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

    def row(self, i: int) -> GF2Vector:
        return GF2Vector(self.cols, self.row_bits[i])

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

    def _reduced_echelon(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Reduced row echelon form: (nonzero rows, their pivot columns).

        Pivot columns come out strictly increasing; each row's pivot is the
        leftmost set bit and the only set bit in its column.
        """
        if self._rref is not None:
            return self._rref
        pivot_rows: dict[int, int] = {}  # pivot column -> current row value
        for r in self.row_bits:
            while r:
                low = (r & -r).bit_length() - 1
                existing = pivot_rows.get(low)
                if existing is None:
                    pivot_rows[low] = r
                    break
                r ^= existing
        # Back-substitution: clear pivot columns from all other rows.
        for col in sorted(pivot_rows, reverse=True):
            r = pivot_rows[col]
            mask = 1 << col
            for other_col, other in pivot_rows.items():
                if other_col != col and other & mask:
                    pivot_rows[other_col] = other ^ r
        pivots = tuple(sorted(pivot_rows))
        rows = tuple(pivot_rows[c] for c in pivots)
        self._rref = (rows, pivots)
        self._rank = len(pivots)
        return self._rref

    def rank(self) -> int:
        if self._rank is None:
            self._reduced_echelon()
        assert self._rank is not None
        return self._rank

    def kernel_basis(self) -> list[GF2Vector]:
        """Basis of {x : Mx = 0}, one vector per free column, ascending.

        Each basis vector has a 1 in its own free column and in no other
        free column, so the list is echelonized and deterministic.
        """
        rows, pivots = self._reduced_echelon()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            bits = 1 << free
            for r, p in zip(rows, pivots):
                if (r >> free) & 1:
                    bits |= 1 << p
            basis.append(GF2Vector(self.cols, bits))
        return basis

    def solve(self, b: GF2Vector) -> Optional[GF2Vector]:
        """One solution of Mx = b (free variables zero), or None.

        The particular solution is the deterministic one with zeros in all
        free columns; combine with ``kernel_basis`` for the full set.
        """
        if b.length != self.rows:
            raise ValueError(f"rhs length {b.length} != rows {self.rows}")
        aug_col = self.cols
        pivot_rows: dict[int, int] = {}
        for i, r in enumerate(self.row_bits):
            r |= ((b.bits >> i) & 1) << aug_col
            while r:
                low = (r & -r).bit_length() - 1
                existing = pivot_rows.get(low)
                if existing is None:
                    pivot_rows[low] = r
                    break
                r ^= existing
        if aug_col in pivot_rows:
            return None  # a row reduced to 0 = 1
        for col in sorted(pivot_rows, reverse=True):
            r = pivot_rows[col]
            mask = 1 << col
            for other_col, other in pivot_rows.items():
                if other_col != col and other & mask:
                    pivot_rows[other_col] = other ^ r
        bits = 0
        for col, r in pivot_rows.items():
            if (r >> aug_col) & 1:
                bits |= 1 << col
        x = GF2Vector(self.cols, bits)
        if self.apply(x).bits != b.bits:
            raise CertificateError("solution does not substitute into the system")
        return x
