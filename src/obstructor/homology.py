"""Simplicial homology with Z/2 coefficients.

Each chain complex builds its own boundary maps and checks that
consecutive maps compose to zero: the simplicial chains here from
``SimplicialComplex.faces`` and ``combinations``, the configuration space
of ``vankampen`` from its table of facet ids, one column per cell.

Betti numbers are unreduced: a point has b_0 = 1.  ``betti`` and
``cycle_basis`` build only the maps they read, and bit i of a column is the
i-th face below: a column pivots on its highest face (kernels do not depend
on the row order).  Ranks do not depend on the order either, and the ranks
behind the Betti numbers take every layer in colex order (sorted by
reversed tuple), in which a face's index counts only faces whose top
vertex is no higher than its own: a reduced column is an int as long as its
pivot's index, and on Opp(C) the columns come out shorter than in
lexicographic order.  Ranks are read top down with clearing (Chen-Kerber,
"Persistent homology computation with a twist", EuroCG 2011;
Bauer-Kerber-Reininghaus-Wagner, "Phat", J. Symb. Comput. 78, 2017): a
reduced column of boundary[d+1] is a cycle, so column s of boundary[d], s
its pivot, lies in the span of the columns before it and is skipped.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import itemgetter, xor
from typing import Sequence

from .complexes import Simplex, SimplicialComplex
from .errors import CertificateError
from .gf2 import GF2Matrix, GF2Vector, pivot_bits

__all__ = ["betti", "betti_numbers", "cycle_basis"]


def _facets(faces: Sequence[Simplex], below: Sequence[Simplex], d: int) -> list[list[int]]:
    """Per d-face in ``faces``, the positions of its facets in ``below``."""
    index = {f: i for i, f in enumerate(below)}
    return [[index[f] for f in combinations(s, d)] if d else [] for s in faces]


def _boundary(k: SimplicialComplex, d: int) -> GF2Matrix:
    """``boundary[d]``; column j, read as a ``GF2Vector``, is the boundary of
    the j-th d-face (a vertex has none: unreduced homology)."""
    columns = [reduce(xor, [1 << i for i in ids], 0) for ids in _facets(k.faces(d), k.faces(d - 1), d)]
    return GF2Matrix(len(k.faces(d - 1)), len(columns), columns)


def _colex(k: SimplicialComplex, d: int) -> list[Simplex]:
    return sorted(k.faces(d), key=itemgetter(slice(None, None, -1)))


def _ranks(k: SimplicialComplex, low: int, high: int) -> dict[int, int]:
    """The rank of ``boundary[d]`` for low < d <= high, top down, with the
    faces in colex order and the columns streamed and cleared.  Under each
    (d+1)-face, every (d-1)-face must lie in an even number of facets, or
    ``CertificateError``."""
    ranks: dict[int, int] = {}
    cleared, above = set(), []
    layer = _colex(k, high)
    for d in range(high, low, -1):
        below = _colex(k, d - 1)
        facets = _facets(layer, below, d)
        for ids in above:
            twice = sorted([i for s in ids for i in facets[s]])
            if twice[::2] != twice[1::2]:
                raise CertificateError(f"boundary of boundary is nonzero in dimension {d + 1}")
        cleared = pivot_bits(reduce(xor, [1 << i for i in ids], 0) for j, ids in enumerate(facets) if j not in cleared)
        ranks[d], above, layer = len(cleared), facets, below
    return ranks


def betti(k: SimplicialComplex, dim: int) -> int:
    return len(k.faces(dim)) - sum(_ranks(k, dim - 1, dim + 1).values())


def betti_numbers(k: SimplicialComplex) -> tuple[int, ...]:
    top = max(k.dimension, 0)
    ranks = _ranks(k, -1, top + 1)
    return tuple(len(k.faces(d)) - ranks[d] - ranks[d + 1] for d in range(top + 1))


def cycle_basis(k: SimplicialComplex, dim: int) -> list[GF2Vector]:
    """A basis of the Z/2 ``dim``-cycles over the ``dim``-faces in the
    lexicographic order of ``SimplicialComplex.faces``, so its indices are
    stable across calls: one canonical kernel vector per free column, 1 on
    that face and 0 on every other free one, ascending."""
    return _boundary(k, dim).kernel_basis()
