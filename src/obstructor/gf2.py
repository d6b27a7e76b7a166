"""Dense linear algebra over GF(2) with bit-packed columns.

A matrix is its columns, each a single Python int; entry (i, j) is bit
``rows - 1 - i`` of column ``j``, row 0 at the top.  Reduction is then a
handful of XORs on machine words, which is fast enough for every chain
complex this package produces and stays exact.

Rank, kernel and row reduction all read one column reduction per matrix.
The columns are reduced left to right, each at its lowest nonzero row (its
top bit) against the pivots before it, until it vanishes (is free) or
founds a pivot.  A column keeps only its history, the set of earlier pivot
columns XORed into it, so its tag (the original columns it sums, a kernel
vector if free) is column j plus the tags of its history, unrolled on
request, and v . tag is v_j plus v . tag over it: one pass, a popcount a
column, gives the residue and, by back-substitution, the sum of basis rows.

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
from functools import reduce
from operator import xor
from typing import Iterable, Optional, Sequence

__all__ = ["GF2Vector", "GF2Matrix", "pivot_bits"]

_Reduction = tuple[dict[int, tuple[int, int]], int, Optional[list[int]]]


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
        if columns and (min(columns) < 0 or max(columns) >> rows):
            for c in columns:
                if c < 0 or c >> rows:
                    raise ValueError(f"column 0x{c:x} does not fit in {rows} rows")
        self.rows = rows
        self.cols = cols
        self.columns = tuple(columns)
        self._reduced: Optional[_Reduction] = None

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

    def _eliminate(self) -> _Reduction:
        """``_reduce`` of the columns with histories, once per matrix."""
        if self._reduced is None:
            self._reduced = _reduce(self.columns, history=True)
        return self._reduced

    def rank(self) -> int:
        return len(self._eliminate()[0])

    def kernel_vector(self, free: int) -> GF2Vector:
        """The one kernel vector 1 on free column ``free`` and 0 on every other
        free column: its tag, unrolled from the top, as a history names only
        earlier columns."""
        _, frees, history = self._eliminate()
        if not 0 <= free < self.cols or not frees >> free & 1:
            raise ValueError(f"column {free} is not a free column")
        tag, pending = 0, 1 << free
        while pending:
            tag |= 1 << (j := pending.bit_length() - 1)
            pending ^= 1 << j ^ history[j]
        return GF2Vector(self.cols, tag)

    def kernel_basis(self) -> list[GF2Vector]:
        """Basis of {x : Mx = 0}: ``kernel_vector`` of each free column,
        ascending, the same vectors a reduced echelon form gives."""
        _, frees, history = self._eliminate()
        tags: list[int] = []
        for j, used in enumerate(history):
            tags.append(reduce(xor, [tags[p] for p in GF2Vector(j, used).support()], 1 << j))
        return [GF2Vector(self.cols, tags[f]) for f in GF2Vector(self.cols, frees).support()]

    def _pairings(self, v: GF2Vector) -> int:
        """v . tag_j at bit j: v, with bit j flipped where v . tag is odd over
        the history of j, left to right."""
        if v.length != self.cols:
            raise ValueError(f"vector length {v.length} != cols {self.cols}")
        pairing = v.bits
        for j, used in enumerate(self._eliminate()[2]):
            if used and (pairing & used).bit_count() & 1:
                pairing ^= 1 << j
        return pairing

    def residue(self, v: GF2Vector) -> GF2Vector:
        """The part of v outside the row space: 0 on every pivot column and
        v . tag on each free column, so a kernel vector pairs with it as
        with v.  It is 0 iff v lies in the row space."""
        return GF2Vector(self.cols, self._pairings(v) & self._eliminate()[1])

    def row_reduce(self, v: GF2Vector) -> tuple[GF2Vector, GF2Vector]:
        """Split v = residue + y^T M, with ``residue(v)``; y is the one sum
        of basis rows with y^T M = v + residue, by back-substitution over the
        pivot rows, highest first: y pairs with each reduced column as v with
        its tag, and y is set so far only below, so the pivot row settles it."""
        (pivots, frees, _), pairing, y = self._eliminate(), self._pairings(v), 0
        for top in sorted(pivots):
            j, c = pivots[top]
            if ((y & c).bit_count() ^ pairing >> j) & 1:
                y |= 1 << top - 1
        return GF2Vector(self.cols, pairing & frees), GF2Vector(self.rows, _reverse(y, self.rows))


def _reduce(columns: Iterable[int], history: bool) -> _Reduction:
    """The column reduction: ({top bit length of a pivot: (its column, the
    reduced column)}, the free columns as a bitset, and per column the
    bitset of pivot columns XORed into it, unless ``history`` is off)."""
    pivots: dict[int, tuple[int, int]] = {}
    free, histories = 0, [] if history else None
    for j, c in enumerate(columns):
        used = 0
        while c:
            pivot = pivots.get(top := c.bit_length())
            if pivot is None:
                pivots[top] = (j, c)
                break
            c ^= pivot[1]
            if history:
                used |= 1 << pivot[0]
        else:
            free |= 1 << j
        if histories is not None:
            histories.append(used)
    return pivots, free, histories


def pivot_bits(columns: Iterable[int]) -> set[int]:
    """The pivots' top bits, one per unit of rank, reading a column stream once."""
    return {top - 1 for top in _reduce(columns, history=False)[0]}


def _reverse(bits: int, length: int) -> int:
    """``bits`` read backward over ``length`` places: bit i goes to length-1-i."""
    return int(f"{bits:0{length}b}"[::-1], 2)
