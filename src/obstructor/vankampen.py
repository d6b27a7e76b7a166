"""The Z/2 van Kampen obstruction, computed exactly.

Pipeline: build the three layers of the configuration space of unordered
disjoint simplex pairs that a decision in R^n reads (dimensions n-1, n
and n+1), place the vertices on the moment curve in R^n at seeded
distinct parameters, count (mod 2) the intersections of every
complementary disjoint pair, and decide whether the resulting cocycle is
a coboundary.  A nonzero pairing with an explicit cycle certifies that
the complex does not embed in R^n.

No coordinates are computed.  Points on the moment curve with distinct
parameters are in general position, and two complementary simplices cross
exactly when their vertices interlace in parameter order (the cyclic
polytope theorem), so every parity is an exact integer comparison.  The
cocycle condition and the certificate's substitution are checked at run
time and raise ``CertificateError``, also under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Iterator, NamedTuple, Optional, Sequence

from .complexes import Simplex, SimplicialComplex, double_over
from .errors import DEFAULT_MAX_CELLS, CertificateError, ResourceLimitError
from .gf2 import GF2Matrix, GF2Vector
from .homology import betti, boundary_maps

__all__ = [
    "CellPair",
    "ConfigurationSpace",
    "ObstructionCocycle",
    "ObstructionVerdict",
    "AdosReport",
    "configuration_space",
    "pair_intersection_parity",
    "obstruction_cocycle",
    "is_trivial",
    "verify_ados",
]


class CellPair(NamedTuple):
    """Unordered pair of disjoint simplices; dimension = dim sigma + dim tau."""

    sigma: Simplex
    tau: Simplex

    @classmethod
    def make(cls, a: Simplex, b: Simplex) -> "CellPair":
        if set(a) & set(b):
            raise ValueError(f"simplices {a} and {b} share vertices")
        return cls(a, b) if a < b else cls(b, a)

    @property
    def cell_dim(self) -> int:
        return len(self.sigma) + len(self.tau) - 2


@dataclass(frozen=True)
class ConfigurationSpace:
    """The window of disjoint-pair cells that a decision in R^n reads.

    ``cells[d]`` lists the d-cells in lexicographic order for d = n-1, n
    and n+1: the n-cells carry the cocycle, the (n-1)-cells index a cochain
    certificate and the (n+1)-cells give the cocycle check.
    ``boundary[d]`` maps d-chains to (d-1)-chains for d = n and n+1; the
    boundary of {sigma, tau} is the sum of {sigma', tau} over facets
    sigma' of sigma plus {sigma, tau'} over facets tau' of tau.
    """

    source: SimplicialComplex
    n: int
    cells: dict[int, tuple[CellPair, ...]]
    boundary: dict[int, GF2Matrix]


def _disjoint_pairs(k: SimplicialComplex, cell_dim: int) -> Iterator[CellPair]:
    """All disjoint unordered pairs with dim sigma + dim tau = cell_dim."""
    mask = {s: sum(1 << v for v in s) for d in range(min(cell_dim, k.dimension) + 1) for s in k.faces(d)}
    for a in range(cell_dim // 2 + 1):
        b = cell_dim - a
        if a > k.dimension or b > k.dimension:
            continue
        # The masks prove disjointness, so only the order is left to fix,
        # and faces of one dimension already come in lexicographic order.
        if a == b:
            for s, t in combinations(k.faces(a), 2):
                if not mask[s] & mask[t]:
                    yield CellPair(s, t)
        else:
            for s in k.faces(a):
                ms = mask[s]
                for t in k.faces(b):
                    if not ms & mask[t]:
                        yield CellPair(s, t) if s < t else CellPair(t, s)


def configuration_space(
    k: SimplicialComplex, n: int, max_cells: Optional[int] = None
) -> ConfigurationSpace:
    """The cells of dimension n-1, n and n+1 and the boundary maps between them.

    ``max_cells`` (default ``DEFAULT_MAX_CELLS``) caps the cells of these
    three layers together and must be positive; the one product of the
    window, boundary[n] @ boundary[n+1], is checked to vanish.
    """
    if n < 1:
        raise ValueError(f"target dimension must be >= 1, got {n}")
    cap = DEFAULT_MAX_CELLS if max_cells is None else max_cells
    if cap < 1:
        raise ValueError(f"max_cells must be positive, got {cap}")
    cells: dict[int, tuple[CellPair, ...]] = {}
    total = 0
    for d in (n - 1, n, n + 1):
        # Enumerate one cell past the remaining budget, so an oversized
        # layer is refused without being built.
        layer = tuple(sorted(islice(_disjoint_pairs(k, d), cap - total + 1)))
        total += len(layer)
        if total > cap:
            raise ResourceLimitError(
                f"configuration space exceeds {cap} cells by dimension {d}"
            )
        cells[d] = layer
    return ConfigurationSpace(k, n, cells, boundary_maps(cells, _cell_facets))


def _cell_facets(cell: CellPair) -> Iterator[CellPair]:
    # A face of a disjoint pair is disjoint, so only the order can change,
    # and only when sigma shrinks: s < t with s, t disjoint means
    # s[0] < t[0], and a facet of t starts at t[0] or later.
    s, t = cell
    if len(s) > 1:
        for drop in range(len(s)):
            f = s[:drop] + s[drop + 1 :]
            yield CellPair(f, t) if f < t else CellPair(t, f)
    if len(t) > 1:
        for drop in range(len(t)):
            yield CellPair(s, t[:drop] + t[drop + 1 :])


# -- crossing parity on the moment curve -----------------------------

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def _seeded_values(seed: int, count: int) -> list[int]:
    """Distinct 16-bit integers from a 64-bit LCG, reproducible per seed."""
    state = (seed ^ 0x9E3779B97F4A7C15) & _LCG_MASK
    out: list[int] = []
    used = set()
    while len(out) < count:
        state = (state * _LCG_MUL + _LCG_INC) & _LCG_MASK
        v = state >> 48
        if v not in used:
            used.add(v)
            out.append(v)
    return out


def pair_intersection_parity(params: Sequence[int], cell: CellPair) -> int:
    """1 iff the images of the two simplices cross, 0 otherwise.

    Vertex v sits at (t, t^2, ..., t^n) with t = ``params[v]``, the
    parameters distinct.  Any n+2 such points are the vertices of a cyclic
    polytope: every n+1 of them are affinely independent, and their only
    Radon partition is the alternating one (Gale 1963; Breen 1973).  So
    the open simplices on sigma and tau meet, in exactly one point, iff
    their vertices alternate in parameter order.
    """
    in_sigma = set(cell.sigma)
    sides = [v in in_sigma for v in sorted(cell.sigma + cell.tau, key=params.__getitem__)]
    return 1 if all(a != b for a, b in zip(sides, sides[1:])) else 0


# -- the obstruction -------------------------------------------------


@dataclass(frozen=True)
class ObstructionCocycle:
    """Parity of crossings for every n-cell, as one GF(2) vector."""

    n: int
    values: GF2Vector


def obstruction_cocycle(space: ConfigurationSpace, seed: int = 0) -> ObstructionCocycle:
    """Evaluate the parity of every n-cell of ``space``; the cocycle
    condition is checked on its (n+1)-cells."""
    n = space.n
    params = _seeded_values(seed, space.source.num_vertices)
    values = GF2Vector.from_list([pair_intersection_parity(params, c) for c in space.cells[n]])
    if not space.boundary[n + 1].apply_transpose(values).is_zero():
        raise CertificateError("obstruction failed the cocycle condition")
    return ObstructionCocycle(n, values)


@dataclass(frozen=True)
class ObstructionVerdict:
    """Triviality decision with a substitution-checked certificate.

    Nontrivial: ``certificate`` is a cycle (kernel vector of the boundary)
    whose pairing with the cocycle is 1, and ``certificate_cells`` are the
    n-cells it indexes.  Trivial: ``certificate`` is a cochain whose
    coboundary equals the cocycle, and ``certificate_cells`` are the
    (n-1)-cells it indexes.
    """

    n: int
    nontrivial: bool
    certificate: GF2Vector
    certificate_kind: str  # "cycle" | "cochain"
    cocycle: ObstructionCocycle
    seed: int
    certificate_cells: tuple[CellPair, ...] = field(repr=False)

    @property
    def trivial(self) -> bool:
        return not self.nontrivial


def is_trivial(
    k: SimplicialComplex,
    n: int,
    seed: int = 0,
    *,
    max_cells: Optional[int] = None,
) -> ObstructionVerdict:
    """Decide whether the obstruction class vanishes in dimension n.

    The class is nonzero iff it pairs nonzero with some n-cycle of the
    configuration space; the witness cycle (or, when trivial, an explicit
    primitive for the cocycle) is re-verified by direct substitution before
    being returned.
    """
    cfg = configuration_space(k, n, max_cells=max_cells)
    cocycle = obstruction_cocycle(cfg, seed)
    boundary_n = cfg.boundary[n]
    residue, primitive = boundary_n.row_reduce(cocycle.values)
    if residue.bits:
        # Cycles vanish on the row space, so the cycle of free column f pairs
        # with the cocycle as the residue does at f: the lowest residue bit
        # names the first cycle of the kernel basis that pairs to 1.
        cycle = boundary_n.kernel_vector((residue.bits & -residue.bits).bit_length() - 1)
        if not boundary_n.apply(cycle).is_zero() or cycle.dot(cocycle.values) != 1:
            raise CertificateError("certificate is not a cycle pairing to 1")
        return ObstructionVerdict(n, True, cycle, "cycle", cocycle, seed, cfg.cells[n])
    if boundary_n.apply_transpose(primitive) != cocycle.values:
        raise CertificateError("primitive substitution failed")
    return ObstructionVerdict(n, False, primitive, "cochain", cocycle, seed, cfg.cells[n - 1])


# -- doubled-complex criterion ---------------------------------------


@dataclass(frozen=True)
class AdosReport:
    """The doubled complex's obstruction beside the base's top homology."""

    lhs: bool  # obstruction of the doubled complex is nontrivial in R^{2k}
    rhs: bool  # the base complex has nonzero mod-2 homology in degree k
    agree: bool  # lhs == rhs: a comparison, not a law (see verify_ados)
    verdict: ObstructionVerdict


def verify_ados(
    l: SimplicialComplex,
    delta: Simplex,
    k: int,
    seed: int = 0,
    *,
    max_cells: Optional[int] = None,
) -> AdosReport:
    """Compare the doubled complex's obstruction with the homology of the base.

    ``l`` must be a flag complex of dimension ``k`` and ``delta`` one of
    its k-simplices; the doubled complex is tested in R^{2k} while the
    right-hand side just asks whether betti_k(l) is positive.  The two
    verdicts are computed independently -- neither shortcut feeds the
    other.

    ``agree`` only compares them; nothing promises it.  What holds for
    graphs (k = 1), with the proof in acceptance criterion 3, is:

    (a) if ``delta`` lies in the support of a nonzero mod-2 k-cycle of
        ``l``, then ``lhs`` holds;
    (b) if ``lhs`` holds, then ``rhs`` holds.

    The hypothesis of (a) is the one the building application needs:
    every chamber of Opp(C) lies on a top cycle.  Off that hypothesis
    either verdict can occur for graphs: a 4-cycle with a pendant edge,
    doubled over the pendant edge, is planar although b1 = 1.
    """
    if not l.is_flag():
        raise ValueError("base complex is not flag; the doubling laws assume flagness")
    if l.dimension != k:
        raise ValueError(f"k must equal the complex dimension {l.dimension}, got {k}")
    if len(tuple(delta)) != k + 1:
        # Doubling over a lower-dimensional simplex can leave an embeddable
        # complex even when it lies on a top cycle (double a 4-cycle over a
        # vertex: still planar), so law (a) needs a top cell.
        raise ValueError(f"doubling simplex must be a {k}-simplex, got {tuple(delta)}")
    d = double_over(l, delta)  # validates that delta is a face
    verdict = is_trivial(d, 2 * k, seed, max_cells=max_cells)
    lhs = verdict.nontrivial
    rhs = betti(l, k) >= 1
    return AdosReport(lhs, rhs, lhs == rhs, verdict)
