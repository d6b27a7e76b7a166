"""Dense linear algebra over GF(2) with bit-packed columns.

A matrix is its columns, each a single Python int; entry (i, j) is bit
``rows - 1 - i`` of column ``j``, row 0 at the top.  Reduction is then a
handful of XORs on machine words, which is fast enough for every chain
complex this package produces and stays exact.

Every answer reads one column reduction, ``_reduce``: the columns left
to right, each reduced at its lowest nonzero row (its top bit) against the
pivots before it until it vanishes (is free) or founds a pivot.  A column
keeps only its history, the set of earlier pivot columns XORed into it, so
its tag (the original columns it sums, a kernel vector if free) is column
j plus the tags of its history, unrolled on request.  A vector v may ride
along, v_j on column j and each pivot's bit XORed in with the pivot, so a
column carries v . tag: one pass gives the first free column where that is
1 or, if none, the sum of basis rows that is v, by back-substitution.

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
from functools import reduce
from operator import xor
from itertools import repeat
from typing import Iterable, Sequence

__all__ = ["GF2Vector", "GF2Matrix", "pivot_bits"]


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

    __slots__ = ("rows", "cols", "columns")

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
        return len(_reduce(self.columns, history=False)[0])

    def kernel_basis(self) -> list[GF2Vector]:
        """Basis of {x : Mx = 0}: the tag of each free column, ascending, the
        one kernel vector 1 on that column and 0 on every other free column,
        the same vectors a reduced echelon form gives."""
        _, frees, history, _ = _reduce(self.columns, history=True)
        tags: list[int] = []
        for j, used in enumerate(history):
            tags.append(reduce(xor, [tags[p] for p in GF2Vector(j, used).support()], 1 << j))
        return [GF2Vector(self.cols, tags[f]) for f in GF2Vector(self.cols, frees).support()]

    def cycle_or_primitive(self, v: GF2Vector) -> tuple[int, GF2Vector, bool]:
        """(The rank, a certificate, whether it is a cycle), from one reduction
        with v riding along.  If some kernel vector pairs with v to 1, the
        certificate is the first of ``kernel_basis`` that does, the tag of
        the first free column where v . tag is 1, unrolled from the top, as a
        history names only earlier columns.  Else v lies in the row space and
        the certificate is y with y^T M = v, the one sum of basis rows, by
        back-substitution over the pivot rows, highest first: y pairs with
        each reduced column as v with its tag, and y is set so far only
        below, so the pivot row settles it."""
        if v.length != self.cols:
            raise ValueError(f"vector length {v.length} != cols {self.cols}")
        bits = f"{v.bits:0{self.cols}b}"[::-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
        pivots, _, history, first = _reduce(self.columns, True, bits)
        if first >= 0:
            tag, pending = 0, 1 << first
            while pending:
                tag |= 1 << (j := pending.bit_length() - 1)
                pending ^= 1 << j ^ history[j]
            return len(pivots), GF2Vector(self.cols, tag), True
        y = 0
        for top in sorted(pivots):
            _, c, parity = pivots[top]
            if ((y & c).bit_count() ^ parity) & 1:
                y |= 1 << top - 1
        return len(pivots), GF2Vector(self.rows, _reverse(y, self.rows)), False


def _reduce(
    columns: Iterable[int], history: bool, passenger: Iterable[int] = repeat(0)
) -> tuple[dict[int, tuple[int, int, int]], int, list[int], int]:
    """The column reduction, with the bits of a vector v riding along, one a
    column: ({top bit length of a pivot: (its column, the reduced column,
    v . its tag)}, the free columns as a bitset, per column the bitset of
    pivot columns XORed into it (empty if ``history`` is off), and the
    first free column with v . tag = 1, or -1).  Column j starts at v_j and
    takes v . tag of each pivot XORed into it, as its tag takes the tag."""
    pivots: dict[int, tuple[int, int, int]] = {}
    free, histories, first = 0, [], -1
    for j, (c, parity) in enumerate(zip(columns, passenger)):
        used = 0
        while c:
            pivot = pivots.get(top := c.bit_length())
            if pivot is None:
                pivots[top] = (j, c, parity)
                break
            c ^= pivot[1]
            parity ^= pivot[2]
            if history:
                used |= 1 << pivot[0]
        else:
            free |= 1 << j
            if parity and first < 0:
                first = j
        if history:
            histories.append(used)
    return pivots, free, histories, first


def pivot_bits(columns: Iterable[int]) -> set[int]:
    """The pivots' top bits, one per unit of rank, reading a column stream once."""
    return {top - 1 for top in _reduce(columns, history=False)[0]}


def _reverse(bits: int, length: int) -> int:
    """``bits`` read backward over ``length`` places: bit i goes to length-1-i."""
    return int(f"{bits:0{length}b}"[::-1], 2)
