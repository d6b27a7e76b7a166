"""Dense linear algebra over GF(2) with bit-packed columns.

A matrix is its columns, each a single Python int; entry (i, j) is bit
``rows - 1 - i`` of column ``j``, row 0 at the top.  Reduction is then a
handful of XORs on machine words, which is fast enough for every chain
complex this package produces and stays exact.

Every answer reads one column reduction, ``_reduce``: the columns left
to right, each reduced at its lowest nonzero row (its top bit) against the
pivots before it until it vanishes (is free) or founds a pivot.  Beside
each column rides its tag, the set of original columns it sums: column j
starts with bit j and XORs in a pivot's tag with the pivot, so a free
column's tag is a kernel vector.  A vector v pairs with any tag in one
popcount: the first free tag where v . tag is 1 is a cycle, and if there
is none the pivots, each read with v . its tag, back-substitute for the
sum of basis rows that is v.

The output is canonical.  A column vanishes iff it lies in the span of the
columns before it, and a pivot row is a row outside the span of the rows
before it, since column operations keep the rank of every prefix of rows.
So the free columns, the pivot rows (the basis rows) and each answer are
pinned down whatever the order of elimination: the kernel vector that is 1
on one free column and 0 on the others, and the one sum of basis rows
that is v.  Its bits are those a reduced echelon form gives, which the
obstruction certificates rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["GF2Vector", "GF2Matrix", "pivot_bits"]


@dataclass(frozen=True)
class GF2Vector:
    """A vector over GF(2), packed into one int (bit i = coordinate i)."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if type(self.length) is not int or type(self.bits) is not int:
            raise ValueError(f"length and bits must be ints, got {self.length!r} and {self.bits!r}")
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

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: Sequence[int]) -> None:
        if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
            raise ValueError(f"shape ({rows!r}, {cols!r}) is not two ints >= 0")
        if len(columns) != cols:
            raise ValueError(f"expected {cols} columns, got {len(columns)}")
        if columns and ({*map(type, columns)} != {int} or min(columns) < 0 or max(columns) >> rows):
            for c in columns:
                if type(c) is not int:
                    raise ValueError(f"column {c!r} is not an int")
                if c < 0 or c >> rows:
                    raise ValueError(f"column 0x{c:x} does not fit in {rows} rows")
        self.rows = rows
        self.cols = cols
        self.columns = tuple(columns)

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

    def rank(self) -> int:
        return len(_reduce(self.columns, tags=False)[0])

    def kernel_basis(self) -> list[GF2Vector]:
        """Basis of {x : Mx = 0}: the tag of each free column, ascending, the
        one kernel vector 1 on that column and 0 on every other free column,
        the same vectors a reduced echelon form gives."""
        return [GF2Vector(self.cols, tag) for tag in _reduce(self.columns, tags=True)[1]]

    def cycle_or_primitive(self, v: GF2Vector) -> tuple[int, GF2Vector, bool]:
        """(The rank, a certificate, whether it is a cycle), from one tagged
        reduction.  The cycle is the first free tag with v . tag = 1, the
        first of ``kernel_basis`` pairing to 1.  With none, v lies in the
        row space, and y with y^T M = v, the one sum of basis rows, is set
        over the pivot rows, highest first: y pairs with each reduced column
        as v with its tag, and is set so far only below, so the pivot row
        settles it."""
        if v.length != self.cols:
            raise ValueError(f"vector length {v.length} != cols {self.cols}")
        pivots, frees = _reduce(self.columns, tags=True)
        for tag in frees:
            if (v.bits & tag).bit_count() & 1:
                return len(pivots), GF2Vector(self.cols, tag), True
        y = 0
        for top in sorted(pivots):
            c, tag = pivots[top]
            if ((y & c).bit_count() ^ (v.bits & tag).bit_count()) & 1:
                y |= 1 << top - 1
        return len(pivots), GF2Vector(self.rows, _reverse(y, self.rows)), False


def _reduce(columns: Iterable[int], tags: bool) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """The column reduction: ({top bit length of a pivot: (the reduced
    column, its tag)}, the free columns' tags in column order).  Column j
    starts with the tag 1 << j, or 0 if ``tags`` is off, and XORs in each
    pivot's tag as it XORs in the pivot's column."""
    pivots: dict[int, tuple[int, int]] = {}
    frees: list[int] = []
    for j, c in enumerate(columns):
        tag = 1 << j if tags else 0
        while c:
            pivot = pivots.get(top := c.bit_length())
            if pivot is None:
                pivots[top] = (c, tag)
                break
            c ^= pivot[0]
            tag ^= pivot[1]
        else:
            frees.append(tag)
    return pivots, frees


def pivot_bits(columns: Iterable[int]) -> set[int]:
    """The pivots' top bits, one per unit of rank, reading a column stream once."""
    return {top - 1 for top in _reduce(columns, tags=False)[0]}


def _reverse(bits: int, length: int) -> int:
    """``bits`` read backward over ``length`` places: bit i goes to length-1-i."""
    return int(f"{bits:0{length}b}"[::-1], 2)
