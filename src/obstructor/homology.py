"""Simplicial chain complexes and homology with Z/2 coefficients.

Betti numbers here are unreduced: a point has b_0 = 1.  Everything is
computed by exact rank/kernel arithmetic on bit-packed boundary matrices,
so results are deterministic and independent of cell ordering quirks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import Simplex, SimplicialComplex
from .errors import CertificateError
from .gf2 import GF2Matrix, GF2Vector

__all__ = ["ChainComplexF2", "chain_complex", "betti", "betti_numbers", "cycle_basis"]


@dataclass(frozen=True)
class ChainComplexF2:
    """Cells per dimension plus boundary maps over GF(2).

    ``boundary[d]`` sends d-chains to (d-1)-chains: shape is
    ``len(cells[d-1]) x len(cells[d])``, and ``boundary[0]`` is the zero map
    to the trivial group (0 rows).
    """

    cells: tuple[tuple[Simplex, ...], ...]
    boundary: tuple[GF2Matrix, ...]

    @property
    def top_dimension(self) -> int:
        return len(self.cells) - 1

    def boundary_or_zero(self, d: int) -> GF2Matrix:
        """The boundary map in dimension d, zero-shaped outside range."""
        if 0 <= d <= self.top_dimension:
            return self.boundary[d]
        if d == self.top_dimension + 1:
            return GF2Matrix.zero(len(self.cells[-1]), 0)
        return GF2Matrix.zero(0, 0)

    def betti(self, k: int) -> int:
        if k < 0 or k > self.top_dimension:
            return 0
        cycles = len(self.cells[k]) - self.boundary_or_zero(k).rank()
        return cycles - self.boundary_or_zero(k + 1).rank()

    def betti_numbers(self) -> tuple[int, ...]:
        return tuple(self.betti(k) for k in range(self.top_dimension + 1))

    def cycle_basis(self, k: int) -> list[GF2Vector]:
        if k < 0 or k > self.top_dimension:
            return []
        return self.boundary_or_zero(k).kernel_basis()


def chain_complex(k: SimplicialComplex) -> ChainComplexF2:
    """Build the F2 chain complex of a simplicial complex.

    Cells in each dimension are the faces in lexicographic order, matching
    ``SimplicialComplex.faces`` so indices are stable across calls.
    """
    dim = k.dimension
    if k.num_vertices == 0:
        return ChainComplexF2(((),), (GF2Matrix.zero(0, 0),))
    cells = tuple(k.faces(d) for d in range(dim + 1))
    index = [{s: i for i, s in enumerate(cs)} for cs in cells]
    maps = [GF2Matrix.zero(0, len(cells[0]))]
    for d in range(1, dim + 1):
        ones = []
        for col, s in enumerate(cells[d]):
            for facet in combinations(s, d):
                ones.append((index[d - 1][facet], col))
        maps.append(GF2Matrix.from_entries(len(cells[d - 1]), len(cells[d]), ones))
    for d in range(1, dim):
        if not (maps[d] @ maps[d + 1]).is_zero():
            raise CertificateError(f"boundary of boundary is nonzero in dimension {d + 1}")
    return ChainComplexF2(cells, tuple(maps))


def betti(k: SimplicialComplex, dim: int) -> int:
    return chain_complex(k).betti(dim)


def betti_numbers(k: SimplicialComplex) -> tuple[int, ...]:
    return chain_complex(k).betti_numbers()


def cycle_basis(k: SimplicialComplex, dim: int) -> list[GF2Vector]:
    return chain_complex(k).cycle_basis(dim)
