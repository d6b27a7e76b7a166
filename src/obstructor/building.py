"""Spherical buildings of type A: flag complexes of subspaces of F_q^n.

Vertices are the proper nonzero subspaces of F_q^n (q prime), kept in
reduced row echelon form so equality is structural; simplices are chains
under inclusion and chambers are complete flags.  A chamber is named by
its sorted tuple of vertex ids, and ``b.vertices[v]`` is the subspace of
vertex ``v``.  On top of the complex this module provides what the
paper's constructions use: opposite chambers (pairwise-transversal
flags), the opposition complex Opp(C), the unique apartment through two
opposite chambers and its coordinates by the symmetric group, and the
check that bending the doubled opposition complex into apartments never
makes two disjoint cells collide.

Everything is exact integer arithmetic mod q; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Optional, Sequence

from .complexes import Simplex, SimplicialComplex
from .coxeter import symmetric
from .errors import CertificateError, ResourceLimitError

__all__ = [
    "Subspace",
    "Frame",
    "Building",
    "EmbeddingReport",
    "EmbeddingWitness",
    "gaussian_binomial",
    "enumerate_subspaces",
    "build",
    "is_opposite",
    "opposite_chambers",
    "opp_complex",
    "unique_apartment",
    "Apartment",
    "verify_dbl_embedding",
    "standard_flag",
    "reversed_flag",
    "coordinate_frame",
]

#: Refuse to enumerate when the ambient space gets this big.
MAX_FIELD_SIZE = 1_000_000
MAX_SUBSPACES = 200_000

Vector = tuple[int, ...]


def _require_prime(q: int) -> None:
    if q < 2 or any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        raise ValueError(f"q must be prime, got {q}")


# -- F_q row operations ----------------------------------------------


def fq_rref(rows: Iterable[Sequence[int]], q: int, width: int) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form over F_q: (nonzero rows, pivot columns)."""
    work = [[x % q for x in r] for r in rows]
    for r in work:
        if len(r) != width:
            raise ValueError(f"row of length {len(r)}, expected {width}")
    rank = 0
    pivots = []
    for col in range(width):
        sel = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        inv = pow(work[rank][col], -1, q)
        work[rank] = [(x * inv) % q for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                c = work[i][col]
                work[i] = [(a - c * b) % q for a, b in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)


def fq_rank(rows: Iterable[Sequence[int]], q: int, width: int) -> int:
    return len(fq_rref(rows, q, width)[0])


def fq_kernel(rows: Sequence[Sequence[int]], q: int, width: int) -> list[Vector]:
    """Basis of the right kernel {v : M v = 0}, one vector per free column."""
    rref, pivots = fq_rref(rows, q, width)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = [0] * width
        v[free] = 1
        for r, p in zip(rref, pivots):
            v[p] = (-r[free]) % q
        basis.append(tuple(v))
    return basis


# -- subspaces -------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^n in reduced row echelon form (hence canonical)."""

    q: int
    n: int
    rows: tuple[Vector, ...]

    def __post_init__(self) -> None:
        _require_prime(self.q)
        rref, _ = fq_rref(self.rows, self.q, self.n)
        if rref != self.rows:
            raise ValueError(f"rows {self.rows} are not in reduced echelon form; use Subspace.span")

    @classmethod
    def span(cls, q: int, n: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        rref, _ = fq_rref(vectors, q, n)
        return cls(q, n, rref)

    @classmethod
    def full(cls, q: int, n: int) -> "Subspace":
        return cls(q, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, v: Sequence[int]) -> bool:
        residue = [x % self.q for x in v]
        for row in self.rows:
            p = next(j for j, x in enumerate(row) if x)
            if residue[p]:
                c = residue[p]
                residue = [(a - c * b) % self.q for a, b in zip(residue, row)]
        return not any(residue)

    def contains(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(self.contains_vector(r) for r in other.rows)

    def _same_ambient(self, other: "Subspace") -> None:
        if (self.q, self.n) != (other.q, other.n):
            raise ValueError(f"ambient mismatch: F_{self.q}^{self.n} vs F_{other.q}^{other.n}")

    def sum_dim(self, other: "Subspace") -> int:
        self._same_ambient(other)
        return fq_rank(self.rows + other.rows, self.q, self.n)

    def intersection_dim(self, other: "Subspace") -> int:
        return self.dim + other.dim - self.sum_dim(other)

    def intersection(self, other: "Subspace") -> "Subspace":
        """Computed via the left kernel of the stacked basis matrix."""
        self._same_ambient(other)
        stacked = self.rows + other.rows
        transpose = [[r[i] for r in stacked] for i in range(self.n)]
        vectors = []
        for coeffs in fq_kernel(transpose, self.q, len(stacked)):
            v = [0] * self.n
            for c, row in zip(coeffs[: self.dim], self.rows):
                v = [(a + c * x) % self.q for a, x in zip(v, row)]
            vectors.append(v)
        out = Subspace.span(self.q, self.n, vectors)
        if out.dim != self.intersection_dim(other):
            raise CertificateError("kernel method disagrees with rank count")
        return out

    def label(self) -> str:
        body = ",".join("".join(str(x) for x in row) for row in self.rows)
        return f"{self.dim}-subspace:{body}"


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    out, rem = divmod(num, den)
    if rem:
        raise CertificateError(f"Gaussian binomial [{n} choose {k}]_{q} is not an integer")
    return out


def enumerate_subspaces(q: int, n: int, k: int) -> list[Subspace]:
    """All k-subspaces of F_q^n, canonical form, deterministic order.

    Enumeration goes by RREF shape: choose pivot columns, then run through
    all values of the free entries (those right of their pivot and outside
    pivot columns).  Each subspace is produced exactly once.
    """
    _require_prime(q)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if q**n > MAX_FIELD_SIZE:
        raise ResourceLimitError(f"F_{q}^{n} has {q**n} vectors, beyond the desk-scale cap")
    if gaussian_binomial(n, k, q) > MAX_SUBSPACES:
        raise ResourceLimitError(
            f"{gaussian_binomial(n, k, q)} subspaces requested, cap is {MAX_SUBSPACES}"
        )
    out = []
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            out.append(Subspace(q, n, tuple(tuple(r) for r in rows)))
    return out


# -- flags, frames, the building -------------------------------------


@dataclass(frozen=True)
class Frame:
    """n lines in direct sum; ordered, so it also fixes apartment coordinates."""

    lines: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        if not self.lines:
            raise ValueError("empty frame")
        n = self.lines[0].n
        if len(self.lines) != n:
            raise ValueError(f"frame has {len(self.lines)} lines in dimension {n}")
        for line in self.lines:
            if line.dim != 1:
                raise ValueError(f"frame member of dimension {line.dim} is not a line")
        q = self.lines[0].q
        stacked = [row for line in self.lines for row in line.rows]
        if fq_rank(stacked, q, n) != n:
            raise ValueError("frame lines are not in direct sum")

    @property
    def q(self) -> int:
        return self.lines[0].q

    @property
    def n(self) -> int:
        return self.lines[0].n


class Building:
    """The flag complex of proper nonzero subspaces of F_q^n."""

    def __init__(self, q: int, n: int, vertices: Sequence[Subspace], chambers: Sequence[Simplex]) -> None:
        self.q = q
        self.n = n
        self.vertices = tuple(vertices)
        self.vertex_ids = {s: i for i, s in enumerate(self.vertices)}
        self.vertex_dims = tuple(s.dim for s in self.vertices)
        self.chambers = tuple(chambers)
        self.chamber_index = {c: i for i, c in enumerate(self.chambers)}
        labels = tuple(s.label() for s in self.vertices)
        self.complex = SimplicialComplex(self.chambers, labels=labels, num_vertices=len(self.vertices))
        if self.complex.facets != self.chambers:
            raise CertificateError("chambers are not the facets of the building")

    def chamber_ids(self, chamber: Iterable[int]) -> Simplex:
        """The sorted vertex ids of a chamber of this building, in any order."""
        ids = tuple(sorted(int(v) for v in chamber))
        if ids not in self.chamber_index:
            raise ValueError(f"{ids} is not a chamber of this building")
        return ids

    def __repr__(self) -> str:
        return f"Building(q={self.q}, n={self.n}, vertices={len(self.vertices)}, chambers={len(self.chambers)})"


def build(q: int, n: int) -> Building:
    """Construct the building of F_q^n flags."""
    _require_prime(q)
    if n < 2:
        raise ValueError(f"need ambient dimension >= 2, got {n}")
    if q**n > MAX_FIELD_SIZE:
        raise ResourceLimitError(f"F_{q}^{n} has {q**n} vectors, beyond the desk-scale cap")
    by_dim = {k: enumerate_subspaces(q, n, k) for k in range(1, n)}
    vertices: list[Subspace] = []
    for k in range(1, n):
        vertices.extend(by_dim[k])
    vertex_ids = {s: i for i, s in enumerate(vertices)}
    # covers[v] = ids of (dim+1)-subspaces directly containing vertex v
    covers: dict[int, list[int]] = {}
    for k in range(1, n - 1):
        for small in by_dim[k]:
            covers[vertex_ids[small]] = [
                vertex_ids[big] for big in by_dim[k + 1] if big.contains(small)
            ]
    chambers: list[Simplex] = []

    def extend(chain: list[int], dim: int) -> None:
        if dim == n - 1:
            chambers.append(tuple(chain))
            return
        for nxt in covers[chain[-1]]:
            extend(chain + [nxt], dim + 1)

    for line in by_dim[1]:
        extend([vertex_ids[line]], 1)
    return Building(q, n, vertices, chambers)


# -- opposition ------------------------------------------------------


def _transversal(a: Subspace, b: Subspace) -> bool:
    return a.intersection_dim(b) == max(0, a.dim + b.dim - a.n)


def is_opposite(b: Building, c: Iterable[int], d: Iterable[int]) -> bool:
    """Chambers whose flags are pairwise in general position."""
    ci = b.chamber_ids(c)
    di = b.chamber_ids(d)
    return all(_transversal(b.vertices[u], b.vertices[v]) for u in ci for v in di)


def opposite_chambers(b: Building, c: Iterable[int]) -> tuple[Simplex, ...]:
    ci = b.chamber_ids(c)
    return tuple(d for d in b.chambers if is_opposite(b, ci, d))


def opp_complex(b: Building, c: Iterable[int]) -> SimplicialComplex:
    """The opposition complex Opp(C), relabeled to its own vertex ids.

    A vertex V of dimension k survives iff it is transversal to the
    complementary flag level of C, i.e. V meets C's (n-k)-subspace in 0.
    The result is cross-checked to be exactly the union of the chambers
    opposite to C (so it is a full -- hence flag -- subcomplex).
    """
    ci = b.chamber_ids(c)
    level = {b.vertex_dims[v]: b.vertices[v] for v in ci}
    keep = []
    for v in range(len(b.vertices)):
        k = b.vertex_dims[v]
        if b.vertices[v].intersection_dim(level[b.n - k]) == 0:
            keep.append(v)
    sub = b.complex.full_subcomplex(keep)
    lifted = {tuple(keep[i] for i in f) for f in sub.facets}
    if lifted != set(opposite_chambers(b, ci)):
        raise CertificateError("Opp(C) is not the union of opposite chambers")
    return sub


# -- apartments ------------------------------------------------------


def unique_apartment(b: Building, c: Iterable[int], d: Iterable[int]) -> Frame:
    """The frame spanning the unique apartment through opposite chambers.

    Line i (0-based) is V_{i+1} of C intersected with W_{n-i-1} of D (with
    the full space standing in at level n), so listing prefixes of the
    frame in order recovers C, and suffixes recover D.
    """
    ci = b.chamber_ids(c)
    di = b.chamber_ids(d)
    if not is_opposite(b, ci, di):
        raise ValueError("chambers are not opposite; no unique apartment")
    full = Subspace.full(b.q, b.n)
    cs = [None] + [b.vertices[v] for v in ci] + [full]  # cs[i] has dim i
    ds = [None] + [b.vertices[v] for v in di] + [full]
    lines = []
    for i in range(1, b.n + 1):
        lines.append(cs[i].intersection(ds[b.n + 1 - i]))  # type: ignore[union-attr]
    return Frame(tuple(lines))


class Apartment:
    """Coordinates of the apartment an ordered frame spans.

    Vertices correspond to proper nonempty subsets of frame lines; a
    permutation w picks the chamber whose level-k subspace is spanned by
    the first k lines in w's order.  The identity permutation yields the
    chamber of frame-order prefixes.
    """

    def __init__(self, building: Building, frame: Frame) -> None:
        if (frame.q, frame.n) != (building.q, building.n):
            raise ValueError("frame does not live in this building")
        self.building = building
        self.frame = frame
        self.n = building.n
        self.vertex_of_subset: dict[frozenset[int], int] = {}
        for size in range(1, self.n):
            for subset in combinations(range(self.n), size):
                span = Subspace.span(
                    building.q,
                    building.n,
                    [row for i in subset for row in frame.lines[i].rows],
                )
                if span.dim != size:
                    raise CertificateError("frame lines are not independent")
                self.vertex_of_subset[frozenset(subset)] = building.vertex_ids[span]

    def chamber_of_perm(self, w: Sequence[int]) -> Simplex:
        prefix: set[int] = set()
        out = []
        for i in range(self.n - 1):
            prefix.add(w[i])
            out.append(self.vertex_of_subset[frozenset(prefix)])
        return tuple(sorted(out))

    def chambers(self) -> tuple[Simplex, ...]:
        return tuple(self.chamber_of_perm(w) for w in permutations(range(self.n)))

    def vertex_ids(self) -> frozenset[int]:
        return frozenset(self.vertex_of_subset.values())

# -- bending ---------------------------------------------------------


def _bending_table(b: Building, dp: Simplex, sigma: Simplex) -> dict[frozenset[int], frozenset[Simplex]]:
    """The chambers a bent octahedron cell covers, for every level set.

    The apartment through ``dp`` and ``sigma`` is coordinatized by the
    symmetric group with ``dp`` as identity chamber.  A level set (flag
    levels, i.e. subspace dimensions 1..n-1) maps to the chambers whose
    permutation w has the right-descent set of w^{-1} equal to it, shifted
    to generator indices.  Every level set appears, and the sets partition
    the apartment.
    """
    frame = unique_apartment(b, dp, sigma)
    apt = Apartment(b, frame)
    system = symmetric(b.n)
    table: dict[frozenset[int], set[Simplex]] = {}
    for w in system.elements():
        levels = frozenset(s + 1 for s in system.in_set_inverse(w))
        table.setdefault(levels, set()).add(apt.chamber_of_perm(w))
    return {k: frozenset(v) for k, v in table.items()}


@dataclass(frozen=True)
class EmbeddingWitness:
    """A collision: two disjoint doubled cells whose chamber sets meet."""

    doubling_chamber: Simplex
    sigma: Simplex
    alpha: Simplex  # signed vertices, 2*v for the plain copy, 2*v+1 for the doubled one
    tau: Simplex
    beta: Simplex
    overlap: tuple[Simplex, ...]


@dataclass(frozen=True)
class EmbeddingReport:
    ok: bool
    witness: Optional[EmbeddingWitness]
    pairs_checked: int


#: A top cell of the doubled complex: (minus part, plus part, bent chambers).
_BentCell = tuple[frozenset[int], frozenset[int], frozenset[Simplex]]


def verify_dbl_embedding(b: Building, delta_plus: Iterable[int]) -> EmbeddingReport:
    """Check that bending the doubled opposition complex never collides.

    For every choice of doubling chamber Delta among the chambers opposite
    to ``delta_plus``, every pair of top cells of the doubled complex lying
    over chambers sigma, tau of the opposition complex is examined: if the
    two cells are disjoint (as signed vertex sets) their bending chamber
    sets must be disjoint too.  The first violation is returned as a
    witness; ``ok`` means none exists anywhere.
    """
    dp = b.chamber_ids(delta_plus)
    opp = opposite_chambers(b, dp)
    tables = {sigma: _bending_table(b, dp, sigma) for sigma in opp}
    checked = 0
    for delta in opp:
        dset = set(delta)
        # Top cells of O(sigma) that survive the doubling over delta: any
        # subset of sigma's delta-vertices may switch to its doubled copy.
        # Each cell carries the chambers it bends onto, read off the level
        # set of its minus part.
        cells_by_chamber: dict[Simplex, list[_BentCell]] = {}
        for sigma in opp:
            shared = sorted(set(sigma) & dset)
            cells = []
            for r in range(len(shared) + 1):
                for plus in combinations(shared, r):
                    minus = frozenset(set(sigma) - set(plus))
                    bent = tables[sigma][frozenset(b.vertex_dims[v] for v in minus)]
                    cells.append((minus, frozenset(plus), bent))
            cells_by_chamber[sigma] = cells
        for i, sigma in enumerate(opp):
            for tau in opp[i:]:
                cells_a = cells_by_chamber[sigma]
                cells_b = cells_by_chamber[tau]
                for ia, (minus_a, plus_a, set_a) in enumerate(cells_a):
                    start = ia + 1 if sigma == tau else 0
                    for minus_b, plus_b, set_b in cells_b[start:]:
                        if (minus_a & minus_b) or (plus_a & plus_b):
                            continue  # cells share a vertex of the doubled complex
                        checked += 1
                        common = set_a & set_b
                        if common:
                            witness = EmbeddingWitness(
                                doubling_chamber=delta,
                                sigma=sigma,
                                alpha=_signed_cell(minus_a, plus_a),
                                tau=tau,
                                beta=_signed_cell(minus_b, plus_b),
                                overlap=tuple(sorted(common)),
                            )
                            return EmbeddingReport(False, witness, checked)
    return EmbeddingReport(True, None, checked)


def _signed_cell(minus: frozenset[int], plus: frozenset[int]) -> Simplex:
    return tuple(sorted([2 * v for v in minus] + [2 * v + 1 for v in plus]))


# -- convenience constructors ----------------------------------------


def _unit(q: int, n: int, i: int) -> Subspace:
    return Subspace.span(q, n, [[1 if j == i else 0 for j in range(n)]])


def _basis_flag(b: Building, order: Sequence[int]) -> Simplex:
    """The chamber whose level-k subspace is spanned by the first k unit
    vectors taken in ``order``."""
    units = [[1 if j == i else 0 for j in range(b.n)] for i in order]
    return b.chamber_ids(b.vertex_ids[Subspace.span(b.q, b.n, units[:k])] for k in range(1, b.n))


def standard_flag(b: Building) -> Simplex:
    """The coordinate chamber spanned by growing prefixes of the standard basis."""
    return _basis_flag(b, range(b.n))


def reversed_flag(b: Building) -> Simplex:
    """The coordinate chamber built from the standard basis taken backwards;
    it is opposite ``standard_flag(b)``."""
    return _basis_flag(b, range(b.n - 1, -1, -1))


def coordinate_frame(q: int, n: int) -> Frame:
    return Frame(tuple(_unit(q, n, i) for i in range(n)))
