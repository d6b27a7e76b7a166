"""The Z/2 van Kampen obstruction, computed exactly.

Pipeline: build the three layers of the configuration space of unordered
disjoint simplex pairs that a decision in R^n reads (dimensions n-1, n
and n+1), place the vertices on the moment curve in R^n at seeded
distinct parameters, count (mod 2) the intersections of every
complementary disjoint pair, and decide whether the resulting cocycle is
a coboundary.  A nonzero pairing with an explicit cycle certifies that
the complex does not embed in R^n.

A cell is an int key over one numbering of the faces (see
``ConfigurationSpace``).  Ascending keys are the lexicographic order of
the pairs, each boundary column is XORed in one pass over a table of
facet ids, and a cell stays an int from enumeration to verdict: only the
cells a certificate names are decoded to ``CellPair`` tuples.  A nontrivial
verdict reads the residue of the cocycle alone; only a trivial one
back-substitutes for the primitive.

No coordinates are computed.  Points on the moment curve with distinct
parameters are in general position, and two complementary simplices cross
exactly when their vertices interlace in parameter order (the cyclic
polytope theorem), so every parity is an exact bit test.  Each face gets
two masks over the vertices' parameter ranks: m, a bit at each vertex's
rank, and p, whose bit j is the parity of the face's vertices of rank <= j
(the XOR of ``-(1 << rank)`` over them).  For disjoint faces s and t, bit
j of p_s ^ p_t is then the parity of their vertices together of rank <= j,
so ``(m_s | m_t) & (p_s ^ p_t)`` keeps the 1st, 3rd, 5th, ... of them in
parameter order.  They alternate iff those are all of s or all of t: iff
that mask is m_s or m_t.  The cocycle condition and the certificate's
substitution are checked at run time and raise ``CertificateError``, also
under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .complexes import Simplex, SimplicialComplex, _ids_in, double_over
from .errors import DEFAULT_MAX_CELLS, MAX_BOUNDARY_BYTES, CertificateError, ResourceLimitError
from .gf2 import GF2Matrix, GF2Vector
from .homology import betti

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


class ConfigurationSpace:
    """The window of disjoint-pair cells that a decision in R^n reads: the
    cells of dimension n-1, n and n+1 and the boundary maps between them,
    built and checked by the constructor.

    The faces of ``source`` up to dimension n+1 are numbered once, in
    lexicographic order, as ``faces``, and cell {sigma, tau} with ids s < t
    is the int ``s * len(faces) + t``; ``decode`` turns one key into its
    ``CellPair``.  ``keys[d]`` lists the d-cells for d = n-1, n and n+1,
    ascending: the n-cells carry the cocycle, the (n-1)-cells index a
    cochain certificate and the (n+1)-cells give the cocycle check.
    ``boundary[d]`` maps d-chains to (d-1)-chains for d = n and n+1; the
    boundary of {sigma, tau} is the sum of {sigma', tau} over facets
    sigma' of sigma plus {sigma, tau'} over facets tau' of tau.

    ``n`` must be an int >= 1.  ``max_cells`` (default ``DEFAULT_MAX_CELLS``),
    a positive int, caps the cells of the three layers together, checked
    first against the n-cells of the largest facet alone and then after each
    face's row of partners; ``MAX_BOUNDARY_BYTES`` caps the two maps' dense
    columns before any is built.  The one product of the window,
    boundary[n] @ boundary[n+1], is checked to vanish.
    """

    def __init__(self, k: SimplicialComplex, n: int, max_cells: Optional[int] = None) -> None:
        if type(n) is not int or not (max_cells is None or type(max_cells) is int):
            raise ValueError(f"target dimension and max_cells must be ints, got {n!r} and {max_cells!r}")
        if n < 1:
            raise ValueError(f"target dimension must be >= 1, got {n}")
        cap = DEFAULT_MAX_CELLS if max_cells is None else max_cells
        if cap < 1:
            raise ValueError(f"max_cells must be positive, got {cap}")
        # One facet of m vertices alone holds C(m, n+2) * (2^(n+1) - 1) n-cells.
        m = max(map(len, k.facets), default=0)
        if m >= n + 2 and comb(m, n + 2) * ((2 << n) - 1) > cap:
            raise ResourceLimitError(f"configuration space exceeds {cap} cells in one facet of {m} vertices")
        # When no two disjoint faces hold the n+1 vertices of a lowest cell, the
        # window is empty and no face is numbered.
        top = min(n + 1, m - 1) if n + 1 <= min(k.num_vertices, 2 * m) else -1
        self.source, self.n = k, n
        self.faces = sorted(f for a in range(top + 1) for f in k.faces(a))
        self._ids = ids = {f: i for i, f in enumerate(self.faces)}
        self._masks = [sum(1 << v for v in f) for f in self.faces]
        self._by_dim = [[ids[f] for f in k.faces(a)] for a in range(top + 1)]
        self.keys: dict[int, list[int]] = {}
        keys, total = self.keys, 0
        for d in (n - 1, n, n + 1):
            layer = keys[d] = []
            for row in self._rows(d):
                layer += row
                if total + len(layer) > cap:
                    raise ResourceLimitError(f"configuration space exceeds {cap} cells by dimension {d}")
            layer.sort()
            total += len(layer)
        if (size := len(keys[n]) * (len(keys[n - 1]) + len(keys[n + 1])) // 8) > MAX_BOUNDARY_BYTES:
            raise ResourceLimitError(f"boundary columns of {size} bytes exceed {MAX_BOUNDARY_BYTES}")
        boundary = self.boundary = {d: self._boundary(d) for d in (n, n + 1)}
        if keys[n + 1] and not (boundary[n] @ boundary[n + 1]).is_zero():
            raise CertificateError(f"boundary of boundary is nonzero in dimension {n + 1}")

    def decode(self, key: int) -> CellPair:
        s, t = divmod(key, len(self.faces))
        return CellPair(self.faces[s], self.faces[t])

    @cached_property
    def _facet_ids(self) -> list[tuple[int, ...]]:
        """Per face, the ids of its facets: drop the first vertex, then the second, ..."""
        ids = self._ids
        return [tuple(ids[f[:i] + f[i + 1 :]] for i in range(len(f))) if len(f) > 1 else () for f in self.faces]

    def _rows(self, d: int) -> Iterator[list[int]]:
        """Per split and face s, the d-cells {s, t} with dim s <= dim t: each
        (d-a)-face t is tested against s's mask or, when under half as many
        (a lookup costs about two tests), each set of d-a+1 vertices outside
        s is looked up; on one big facet, most t meet s."""
        count, masks, ids, top = len(self.faces), self._masks, self._ids, len(self._by_dim) - 1
        vertices = self.source.num_vertices
        for a in range(max(0, d - top), min(d // 2, top) + 1):
            partners, size = self._by_dim[d - a], d - a + 1
            lookup = 2 * comb(vertices - a - 1, size) < len(partners)
            for i, s in enumerate(self._by_dim[a]):
                ms = masks[s]
                if lookup:
                    rest = [v for v in range(vertices) if not ms >> v & 1]
                    later = [t for t in map(ids.get, combinations(rest, size)) if t is not None and (2 * a < d or t > s)]
                else:
                    later = partners[i + 1 :] if 2 * a == d else partners
                yield [s * count + t if s < t else t * count + s for t in later if not ms & masks[t]]

    def _boundary(self, d: int) -> GF2Matrix:
        """boundary[d], row i at bit rows-1-i, each column XORed straight from
        the two facet-id tuples.  A face of a disjoint pair is disjoint, so
        only the order can change, and only when sigma shrinks: s < t with
        s, t disjoint means s[0] < t[0], and a facet of t starts at t[0] or
        later."""
        cells, lower = self.keys[d], self.keys[d - 1]
        if not cells:
            return GF2Matrix(len(lower), 0, [])
        count, facet_ids = len(self.faces), self._facet_ids
        below = dict(zip(reversed(lower), range(len(lower))))
        columns = []
        for cell in cells:
            s, t = divmod(cell, count)
            column, head, tail = 0, t * count, cell - t
            for f in facet_ids[s]:
                column ^= 1 << below[f * count + t if f < t else head + f]
            for f in facet_ids[t]:
                column ^= 1 << below[tail + f]
            columns.append(column)
        return GF2Matrix(len(lower), len(columns), columns)


configuration_space = ConfigurationSpace


# -- crossing parity on the moment curve -----------------------------

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
_PARAMETERS = 1 << 16  # distinct 16-bit moment-curve parameters


def _require_parameters(count: int) -> None:
    """More than 2^16 vertices are refused, as no more distinct values exist."""
    if count > _PARAMETERS:
        raise ResourceLimitError(f"{count} vertices exceed the {_PARAMETERS} distinct moment-curve parameters")


def _seeded_values(seed: int, count: int) -> list[int]:
    """Distinct 16-bit integers from a 64-bit LCG, reproducible per int seed."""
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    _require_parameters(count)
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


def pair_intersection_parity(params: Sequence[int], sigma: Simplex, tau: Simplex) -> int:
    """1 iff the images of the two simplices cross, 0 otherwise.

    Vertex v sits at (t, t^2, ..., t^n) with t = ``params[v]``, the
    parameters distinct.  Any n+2 such points are the vertices of a cyclic
    polytope: every n+1 of them are affinely independent, and their only
    Radon partition is the alternating one (Gale 1963; Breen 1973).  So
    the open simplices on sigma and tau meet, in exactly one point, iff
    their vertices alternate in parameter order.  Faces that share or repeat
    a vertex, a vertex outside ``params`` or a repeated parameter are refused."""
    if not _ids_in((*sigma, *tau), len(params)) or len({*sigma, *tau}) < len(sigma) + len(tau) or len(set(params)) < len(params):
        raise ValueError(f"need disjoint faces of vertices 0..{len(params) - 1} at distinct parameters, got {sigma} and {tau}")
    return _interlace(*_rank_masks(params, (sigma, tau)))


def _rank_masks(params: Sequence[int], faces: Iterable[Simplex]) -> list[tuple[int, int]]:
    """Per face, (m, p) over the vertices' ranks in ``params``: bit r of m
    for each vertex of rank r, and bit j of p the parity of those of rank <= j."""
    bits = [0] * len(params)
    for rank, v in enumerate(sorted(range(len(params)), key=params.__getitem__)):
        bits[v] = 1 << rank
    out = []
    for f in faces:
        m = p = 0
        for v in f:
            m |= bits[v]
            p ^= -bits[v]
        out.append((m, p))
    return out


def _interlace(a: tuple[int, int], b: tuple[int, int]) -> int:
    """1 iff the (m, p) masks of disjoint faces a, b alternate: the odd places
    of their union in rank order are all of a or all of b."""
    odd = (a[0] | b[0]) & (a[1] ^ b[1])
    return 1 if odd == a[0] or odd == b[0] else 0


# -- the obstruction -------------------------------------------------


@dataclass(frozen=True)
class ObstructionCocycle:
    """Parity of crossings for every n-cell, as one GF(2) vector."""

    n: int
    values: GF2Vector


def obstruction_cocycle(space: ConfigurationSpace, seed: int = 0) -> ObstructionCocycle:
    """Evaluate the parity of every n-cell of ``space`` by the rule of
    ``pair_intersection_parity``, ranking the parameters and masking each
    face once, unless no n-cell reads them; the cocycle condition is checked
    on its (n+1)-cells."""
    n, count = space.n, len(space.faces)
    params = _seeded_values(seed, space.source.num_vertices)
    masks = _rank_masks(params, space.faces) if space.keys[n] else []
    values = GF2Vector.from_list([_interlace(masks[c // count], masks[c % count]) for c in space.keys[n]])
    if not space.boundary[n + 1].apply_transpose(values).is_zero():
        raise CertificateError("obstruction failed the cocycle condition")
    return ObstructionCocycle(n, values)


@dataclass(frozen=True)
class ObstructionVerdict:
    """Triviality decision with a substitution-checked certificate.

    Nontrivial: ``certificate`` is a cycle (kernel vector of the boundary)
    whose pairing with the cocycle is 1, over the window's n-cells.
    Trivial: ``certificate`` is a cochain whose coboundary equals the
    cocycle, over the (n-1)-cells.  ``certificate_cells`` are the cells of
    its support, ascending, decoded once; the verdict keeps no other part of
    the window.  ``stats`` holds deterministic counters: cells per window
    layer, the shape and rank of boundary[n], the cocycle weight, and the
    certificate kind and weight.
    """

    n: int
    nontrivial: bool
    certificate: GF2Vector
    certificate_kind: str  # "cycle" | "cochain"
    cocycle: ObstructionCocycle
    seed: int
    stats: dict
    certificate_cells: tuple[CellPair, ...]

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
    being returned.  Too many vertices to place are refused before any
    cell is enumerated.
    """
    _require_parameters(k.num_vertices)
    cfg = configuration_space(k, n, max_cells=max_cells)
    cocycle = obstruction_cocycle(cfg, seed)
    boundary_n = cfg.boundary[n]
    residue = boundary_n.residue(cocycle.values)
    if residue.bits:
        # Cycles vanish on the row space, so the cycle of free column f pairs
        # with the cocycle as the residue does at f: the lowest residue bit
        # names the first cycle of the kernel basis that pairs to 1.
        certificate, kind = boundary_n.kernel_vector((residue.bits & -residue.bits).bit_length() - 1), "cycle"
        if not boundary_n.apply(certificate).is_zero() or certificate.dot(cocycle.values) != 1:
            raise CertificateError("certificate is not a cycle pairing to 1")
    else:
        certificate, kind = boundary_n.row_reduce(cocycle.values)[1], "cochain"
        if boundary_n.apply_transpose(certificate) != cocycle.values:
            raise CertificateError("primitive substitution failed")
    stats = {
        "cells": {d: len(layer) for d, layer in cfg.keys.items()},
        "boundary_rows": boundary_n.rows,
        "boundary_cols": boundary_n.cols,
        "boundary_rank": boundary_n.rank(),
        "cocycle_weight": cocycle.values.weight(),
        "certificate_kind": kind,
        "certificate_weight": certificate.weight(),
    }
    layer = cfg.keys[n if kind == "cycle" else n - 1]
    named = tuple([cfg.decode(layer[i]) for i in certificate.support()])
    return ObstructionVerdict(n, kind == "cycle", certificate, kind, cocycle, seed, stats, named)


# -- doubled-complex criterion ---------------------------------------


@dataclass(frozen=True)
class AdosReport:
    """The doubled complex's obstruction beside the base's top homology."""

    lhs: bool  # obstruction of the doubled complex is nontrivial in R^{2k}
    rhs: bool  # the base complex has nonzero mod-2 homology in degree k
    agree: bool  # lhs == rhs: a comparison, not a law (see verify_ados)
    verdict: ObstructionVerdict


def verify_ados(l: SimplicialComplex, delta: Iterable[int], k: int, seed: int = 0) -> AdosReport:
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
    delta = tuple(delta)
    if len(delta) != k + 1:
        # Doubling over a lower-dimensional simplex can leave an embeddable
        # complex even when it lies on a top cycle (double a 4-cycle over a
        # vertex: still planar), so law (a) needs a top cell.
        raise ValueError(f"doubling simplex must be a {k}-simplex, got {delta}")
    d = double_over(l, delta)  # validates that delta is a face
    verdict = is_trivial(d, 2 * k, seed)
    lhs = verdict.nontrivial
    rhs = betti(l, k) >= 1
    return AdosReport(lhs, rhs, lhs == rhs, verdict)
