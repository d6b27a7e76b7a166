"""Answers and certificate checks that do not come from the code under test.

Everything here is written against facet lists and the documented cell
order (``cells[d]`` holds the d-dimensional disjoint pairs (sigma, tau),
sigma < tau, sorted lexicographically); the program's own configuration
space, boundary matrices and maps are never used.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

Simplex = tuple[int, ...]
Cell = tuple[Simplex, Simplex]


def faces_by_dim(facets: Iterable[Sequence[int]]) -> dict[int, list[Simplex]]:
    found: set[Simplex] = set()
    for f in facets:
        f = tuple(sorted(f))
        for r in range(1, len(f) + 1):
            found.update(combinations(f, r))
    out: dict[int, list[Simplex]] = {}
    for s in sorted(found):
        out.setdefault(len(s) - 1, []).append(s)
    return out


def cells(faces: dict[int, list[Simplex]], d: int) -> list[Cell]:
    """The d-cells of the configuration space of disjoint simplex pairs, in order."""
    out: list[Cell] = []
    for a in range(d // 2 + 1):
        b = d - a
        fa, fb = faces.get(a, []), faces.get(b, [])
        if a == b:
            pairs = combinations(fa, 2)
        else:
            pairs = ((s, t) for s in fa for t in fb)
        for s, t in pairs:
            if not set(s) & set(t):
                out.append((s, t) if s < t else (t, s))
    out.sort()
    return out


def _support(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _cell_facets(cell: Cell) -> Iterable[Cell]:
    s, t = cell
    for side, other, first in ((s, t, True), (t, s, False)):
        if len(side) > 1:
            for i in range(len(side)):
                face = side[:i] + side[i + 1 :]
                pair = (face, other) if first else (other, face)
                yield pair if pair[0] < pair[1] else (pair[1], pair[0])


def crosses(cell: Cell) -> int:
    """Crossing parity of a complementary pair under the map v -> (v, v^2, ..., v^n).

    On the moment curve the only Radon partition of n+2 points is the
    alternating one (Gale evenness), so the two simplices cross exactly
    when their vertices interlace in parameter order.
    """
    s, t = cell
    side = sorted([(v, 0) for v in s] + [(v, 1) for v in t])
    return int(all(side[i][1] != side[i + 1][1] for i in range(len(side) - 1)))


def check_cycle(facets: Iterable[Sequence[int]], n: int, cert_bits: int, cocycle_bits: int) -> list[str]:
    """Problems with a cycle certificate: it must be a cycle pairing to 1.

    The pairing is taken twice: with the program's cocycle, and with the
    crossing parities of an independent map on the moment curve.  A cycle
    pairs to the same value with every general-position cocycle, so the
    second pairing certifies non-embeddability without the program's map.
    """
    layer = cells(faces_by_dim(facets), n)
    support = _support(cert_bits)
    if not support:
        return ["cycle certificate is empty"]
    if support[-1] >= len(layer):
        return [f"cycle certificate indexes cell {support[-1]} of {len(layer)}"]
    problems = []
    boundary: set[Cell] = set()
    for i in support:
        boundary.symmetric_difference_update(_cell_facets(layer[i]))
    if boundary:
        problems.append(f"certificate is not a cycle ({len(boundary)} boundary cells)")
    if len(_support(cert_bits & cocycle_bits)) % 2 != 1:
        problems.append("certificate pairs to 0 with the program's cocycle")
    if sum(crosses(layer[i]) for i in support) % 2 != 1:
        problems.append("certificate pairs to 0 with an independent moment-curve map")
    return problems


def check_cochain(facets: Iterable[Sequence[int]], n: int, cert_bits: int, cocycle_bits: int) -> list[str]:
    """Problems with a cochain certificate: its coboundary must equal the cocycle."""
    faces = faces_by_dim(facets)
    top, below = cells(faces, n), cells(faces, n - 1)
    index = {c: i for i, c in enumerate(below)}
    if cert_bits >> len(below):
        return [f"cochain certificate is longer than the {len(below)} {n - 1}-cells"]
    coboundary = 0
    for j, cell in enumerate(top):
        parity = 0
        for f in _cell_facets(cell):
            parity ^= (cert_bits >> index[f]) & 1
        coboundary |= parity << j
    if coboundary != cocycle_bits:
        return ["coboundary of the cochain certificate differs from the cocycle"]
    return []


def check_certificate(facets: Iterable[Sequence[int]], n: int, kind: str, cert_bits: int, cocycle_bits: int) -> list[str]:
    if kind == "cycle":
        return check_cycle(facets, n, cert_bits, cocycle_bits)
    if kind == "cochain":
        return check_cochain(facets, n, cert_bits, cocycle_bits)
    return [f"unknown certificate kind {kind!r}"]


def doubled_facets(facets: Iterable[Sequence[int]], num_vertices: int, delta: Sequence[int]) -> set[Simplex]:
    """Facets of Dbl(L, delta), labelled as ``double_over`` documents.

    Octahedralization sends vertex v to 2v (minus) and 2v+1 (plus); the
    double keeps every minus copy and the plus copies of delta, renumbered
    in increasing order.
    """
    keep = sorted([2 * v for v in range(num_vertices)] + [2 * v + 1 for v in delta])
    rename = {v: i for i, v in enumerate(keep)}
    dset = set(delta)
    out = set()
    for f in facets:
        shared = [v for v in f if v in dset]
        for r in range(len(shared) + 1):
            for plus in combinations(shared, r):
                out.add(tuple(sorted(rename[2 * v + (v in plus)] for v in f)))
    return out


def q_factorial(q: int, n: int) -> int:
    """[n]_q! = number of complete flags in F_q^n."""
    out = 1
    for i in range(1, n + 1):
        out *= (q**i - 1) // (q - 1)
    return out


def subspace_count(q: int, n: int) -> int:
    """Proper nonzero subspaces of F_q^n: the vertices of the building."""
    total = 0
    for k in range(1, n):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total
