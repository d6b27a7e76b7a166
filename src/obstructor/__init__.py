"""Exact-arithmetic toolkit for embedding obstructions of simplicial complexes.

Builds configuration spaces of disjoint simplex pairs, evaluates the Z/2
intersection-parity cocycle of the vertices placed on the moment curve, and
decides whether a complex can embed in a given Euclidean dimension.  Companion
modules construct the complexes the theory feeds on: octahedralizations and
doublings, chamber complexes of finite Coxeter systems, and spherical
buildings of flags over prime fields with their opposition machinery.
"""

from .complexes import (
    SimplicialComplex,
    cycle_complex,
    double_over,
    full_simplex,
    join,
    octahedralize,
    path_complex,
    points_complex,
)
from .errors import CertificateError, ResourceLimitError
from .gf2 import GF2Matrix, GF2Vector
from .homology import betti, betti_numbers, cycle_basis
from .vankampen import is_trivial, obstruction_cocycle, verify_ados

__version__ = "0.1.0"

__all__ = [
    "SimplicialComplex",
    "GF2Matrix",
    "GF2Vector",
    "CertificateError",
    "ResourceLimitError",
    "betti",
    "betti_numbers",
    "cycle_basis",
    "cycle_complex",
    "double_over",
    "full_simplex",
    "is_trivial",
    "join",
    "obstruction_cocycle",
    "octahedralize",
    "path_complex",
    "points_complex",
    "verify_ados",
    "__version__",
]
