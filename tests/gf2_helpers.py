"""GF(2) constructors and accessors that only the tests use.

The package builds its matrices from packed rows (``GF2Matrix(rows, cols,
row_bits)``); these helpers spell small matrices and vectors out entry by
entry, with the range checks a hand-written example deserves.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from obstructor.gf2 import GF2Matrix, GF2Vector


def zero(rows: int, cols: int) -> GF2Matrix:
    return GF2Matrix(rows, cols, [0] * rows)


def identity(n: int) -> GF2Matrix:
    return GF2Matrix(n, n, [1 << i for i in range(n)])


def from_rows(entries: Sequence[Sequence[int]], cols: Optional[int] = None) -> GF2Matrix:
    if cols is None:
        cols = len(entries[0]) if entries else 0
    bits = []
    for row in entries:
        if len(row) != cols:
            raise ValueError("ragged rows")
        bits.append(sum((e & 1) << j for j, e in enumerate(row)))
    return GF2Matrix(len(entries), cols, bits)


def from_entries(rows: int, cols: int, ones: Iterable[tuple[int, int]]) -> GF2Matrix:
    """The matrix with a one at each (i, j) of ``ones``; a repeated entry cancels."""
    bits = [0] * rows
    for i, j in ones:
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"entry ({i}, {j}) out of range for shape ({rows}, {cols})")
        bits[i] ^= 1 << j
    return GF2Matrix(rows, cols, bits)


def entry(m: GF2Matrix, i: int, j: int) -> int:
    if not (0 <= i < m.rows and 0 <= j < m.cols):
        raise IndexError((i, j))
    return (m.row_bits[i] >> j) & 1


def column(m: GF2Matrix, j: int) -> GF2Vector:
    if not 0 <= j < m.cols:
        raise IndexError(j)
    return GF2Vector(m.rows, sum(((r >> j) & 1) << i for i, r in enumerate(m.row_bits)))


def rows_iter(m: GF2Matrix) -> Iterator[GF2Vector]:
    for r in m.row_bits:
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
