"""Boundary maps over GF(2), and simplicial homology with Z/2 coefficients.

``boundary_maps`` builds the boundary matrices of the simplicial chains
here, layer by layer with a facet function, and checks that consecutive
maps compose to zero.  The configuration space of ``vankampen`` builds its
own two maps from its table of facet ids, one column per cell.

Betti numbers are unreduced: a point has b_0 = 1.  ``betti`` and
``cycle_basis`` build only the layers they read, with each layer in the
lexicographic order of ``SimplicialComplex.faces``, so indices are stable
across calls.  Ranks and kernels are exact.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .complexes import Simplex, SimplicialComplex
from .errors import CertificateError
from .gf2 import GF2Matrix, GF2Vector

__all__ = ["boundary_maps", "betti", "betti_numbers", "cycle_basis"]


def boundary_maps(
    cells: Mapping[int, Sequence[Hashable]], facets: Callable[[Hashable], Iterable[Hashable]]
) -> dict[int, GF2Matrix]:
    """The boundary maps of simplicial chains, between consecutive layers of ``cells``.

    ``cells[d]`` lists the d-cells under any hashable key (here, simplices,
    with ``facets`` their facets); ``boundary[d]`` is built for every
    d whose layer d-1 is given, with shape ``len(cells[d-1]) x len(cells[d])``
    and column j holding one bit for each of the ``facets`` of cell j, XORed
    in, so the column reduction reads it as built.
    Every product ``boundary[d-1] @ boundary[d]`` of two built maps is
    checked to vanish, and a nonzero one raises ``CertificateError``; a
    map out of an empty layer is zero, so its product is skipped.
    """
    boundary: dict[int, GF2Matrix] = {}
    for d in sorted(cells):
        if d - 1 not in cells:
            continue
        below = {c: i for i, c in enumerate(reversed(cells[d - 1]))}  # row i at bit rows-1-i
        columns = []
        for c in cells[d]:
            column = 0
            for f in facets(c):
                column ^= 1 << below[f]
            columns.append(column)
        boundary[d] = GF2Matrix(len(cells[d - 1]), len(columns), columns)
        if d - 1 in boundary and cells[d] and not (boundary[d - 1] @ boundary[d]).is_zero():
            raise CertificateError(f"boundary of boundary is nonzero in dimension {d}")
    return boundary


def _simplex_facets(s: Simplex) -> Iterable[Simplex]:
    # Unreduced homology: a vertex has no facet, so boundary[0] is zero.
    return combinations(s, len(s) - 1) if len(s) > 1 else ()


def _boundaries(k: SimplicialComplex, low: int, high: int) -> dict[int, GF2Matrix]:
    """Boundary maps of the faces of dimension ``low`` to ``high``."""
    return boundary_maps({d: k.faces(d) for d in range(low, high + 1)}, _simplex_facets)


def betti(k: SimplicialComplex, dim: int) -> int:
    boundary = _boundaries(k, dim - 1, dim + 1)
    return len(k.faces(dim)) - boundary[dim].rank() - boundary[dim + 1].rank()


def betti_numbers(k: SimplicialComplex) -> tuple[int, ...]:
    top = max(k.dimension, 0)
    boundary = _boundaries(k, -1, top + 1)
    return tuple(len(k.faces(d)) - boundary[d].rank() - boundary[d + 1].rank() for d in range(top + 1))


def cycle_basis(k: SimplicialComplex, dim: int) -> list[GF2Vector]:
    return _boundaries(k, dim - 1, dim)[dim].kernel_basis()
