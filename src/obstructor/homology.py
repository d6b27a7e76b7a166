"""Simplicial homology with Z/2 coefficients.

Each chain complex builds its own boundary maps and checks that
consecutive maps compose to zero: the simplicial chains here from
``SimplicialComplex.faces`` and ``combinations``, the configuration space
of ``vankampen`` from its table of facet ids, one column per cell.

Betti numbers are unreduced: a point has b_0 = 1.  ``betti`` and
``cycle_basis`` build only the maps they read, with each layer in the
lexicographic order of ``SimplicialComplex.faces``, so indices are stable
across calls.  Ranks and kernels are exact.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import SimplicialComplex
from .errors import CertificateError
from .gf2 import GF2Matrix, GF2Vector

__all__ = ["betti", "betti_numbers", "cycle_basis"]


def _boundaries(k: SimplicialComplex, low: int, high: int) -> dict[int, GF2Matrix]:
    """The boundary maps ``boundary[d]`` of ``k`` for low < d <= high.

    Column j of ``boundary[d]`` XORs in one bit for each facet of the j-th
    d-face, row i at bit rows-1-i, so the column reduction reads it as
    built; a vertex has no facet (unreduced homology).  Every product
    ``boundary[d-1] @ boundary[d]`` of two built maps out of a nonempty
    layer is checked to vanish, and a nonzero one raises ``CertificateError``.
    """
    boundary: dict[int, GF2Matrix] = {}
    for d in range(low + 1, high + 1):
        below = {f: i for i, f in enumerate(reversed(k.faces(d - 1)))}
        columns = []
        for s in k.faces(d):
            column = 0
            for f in combinations(s, d) if d else ():
                column ^= 1 << below[f]
            columns.append(column)
        boundary[d] = GF2Matrix(len(below), len(columns), columns)
        if d - 1 in boundary and columns and not (boundary[d - 1] @ boundary[d]).is_zero():
            raise CertificateError(f"boundary of boundary is nonzero in dimension {d}")
    return boundary


def betti(k: SimplicialComplex, dim: int) -> int:
    boundary = _boundaries(k, dim - 1, dim + 1)
    return len(k.faces(dim)) - boundary[dim].rank() - boundary[dim + 1].rank()


def betti_numbers(k: SimplicialComplex) -> tuple[int, ...]:
    top = max(k.dimension, 0)
    boundary = _boundaries(k, -1, top + 1)
    return tuple(len(k.faces(d)) - boundary[d].rank() - boundary[d + 1].rank() for d in range(top + 1))


def cycle_basis(k: SimplicialComplex, dim: int) -> list[GF2Vector]:
    return _boundaries(k, dim - 1, dim)[dim].kernel_basis()
