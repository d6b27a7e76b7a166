"""Spherical buildings of type A: flag complexes of subspaces of F_q^n.

Vertices are the proper nonzero subspaces of F_q^n (q prime).  A subspace
is its tuple of reduced row echelon rows, so equality is structural, and
``b.vertices[v]`` is the rows of vertex ``v``.  Simplices are chains
under inclusion and chambers are complete flags.  A chamber is named by
its sorted tuple of vertex ids.  On top of the complex this module
provides what the paper's constructions use: opposite chambers
(pairwise-transversal flags), the opposition complex Opp(C), the unique
apartment through two opposite chambers and its coordinates by the
symmetric group, and the check that bending the doubled opposition
complex into apartments never makes two disjoint cells collide.

Incidence runs on line masks.  Lines come first among the vertices, so
line vertex ``l`` is vertex id ``l``, and ``b.masks[v]`` is the integer
whose bit ``l`` is set iff line ``l`` lies in subspace ``v``.  A
d-dimensional subspace holds ``(q^d - 1) / (q - 1)`` lines, so the
dimension of an intersection is read off the popcount of an AND, and
containment is ``mA & mB == mA``.  A frame is the tuple of its line
vertex ids, and an apartment is found by AND-ing the transposed masks.
The echelon rows only build the masks and name the vertices.

Everything is exact integer arithmetic mod q; no floating point anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, groupby, product
from math import isqrt, prod
from operator import lt
from typing import Iterable, Optional, Sequence

from .complexes import Simplex, SimplicialComplex, signings
from .coxeter import symmetric
from .errors import DEFAULT_MAX_CELLS, CertificateError, ResourceLimitError

__all__ = [
    "Building",
    "EmbeddingReport",
    "EmbeddingWitness",
    "gaussian_binomial",
    "enumerate_subspaces",
    "build",
    "opposite_chambers",
    "opp_complex",
    "Apartment",
    "verify_dbl_embedding",
    "standard_flag",
    "coordinate_frame",
]

#: Refuse to enumerate when the ambient space gets this big.
MAX_FIELD_SIZE = 1_000_000
MAX_SUBSPACES = 200_000

Vector = tuple[int, ...]
Rows = tuple[Vector, ...]  # a subspace: its reduced row echelon rows


def _check_field(q: int, n: int) -> None:
    """Refuse F_q^n unless q is prime and q^n is at most ``MAX_FIELD_SIZE``.

    The cap is tested first, so a huge q is refused before trial division,
    and for n of ``MAX_FIELD_SIZE.bit_length()`` or more q^n is over the
    cap without computing it (q >= 2).  The message quotes neither q nor n,
    which may be too long to print.
    """
    if q > MAX_FIELD_SIZE or (q >= 2 and (n >= MAX_FIELD_SIZE.bit_length() or q**n > MAX_FIELD_SIZE)):
        raise ResourceLimitError(f"F_q^n is beyond the desk-scale cap of {MAX_FIELD_SIZE} vectors")
    if q < 2 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        raise ValueError(f"q must be prime, got {q}")


# -- subspaces -------------------------------------------------------


def _label(rows: Rows) -> str:
    """``"2-subspace:100,010"``: the dimension, then the echelon rows."""
    return f"{len(rows)}-subspace:" + ",".join("".join(map(str, row)) for row in rows)


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


def enumerate_subspaces(q: int, n: int, k: int) -> list[Rows]:
    """The echelon rows of all k-subspaces of F_q^n, in a deterministic order.

    Enumeration goes by RREF shape: choose pivot columns, then run through
    all values of the free entries (those right of their pivot and outside
    pivot columns).  Each subspace is produced exactly once.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    _check_field(q, n)
    if gaussian_binomial(n, k, q) > MAX_SUBSPACES:
        raise ResourceLimitError(
            f"{gaussian_binomial(n, k, q)} subspaces requested, cap is {MAX_SUBSPACES}"
        )
    out: list[Rows] = []
    for pivots in combinations(range(n), k):
        choices = []  # choices[i]: every row i with its pivot and free entries
        for p in pivots:
            free = [j for j in range(p + 1, n) if j not in pivots]
            choices.append([])
            for values in product(range(q), repeat=len(free)):
                row = [0] * n
                row[p] = 1
                for j, v in zip(free, values):
                    row[j] = v
                choices[-1].append(tuple(row))
        out.extend(product(*choices))
    return out


# -- flags, the building ---------------------------------------------


class Building:
    """The flag complex of proper nonzero subspaces of F_q^n.

    A vertex is its echelon rows, ``vertices[v]``, and its line mask,
    ``masks[v]``, which sets bit ``l`` iff line ``l`` lies in vertex ``v``.
    Vertices are sorted by dimension, so the lines are vertex ids
    ``0 .. lines_in[n] - 1``, and ``lines_in[d]`` counts the lines of a
    d-dimensional subspace.  The bitsets ``holders[l]`` (vertices holding
    line ``l``) and ``of_dim[d]`` (vertices of dimension d) are lazy, and
    so is the labelled ``complex``.  Its facets are the chambers as given,
    checked eagerly: a chamber's vertices have dimensions 1..n-1 in order
    and strictly increasing ids, the chambers strictly ascend, and every
    vertex lies on one.  An id out of range or repeated raises ``ValueError``
    as ``SimplicialComplex`` would, the rest ``CertificateError``.
    """

    def __init__(
        self,
        q: int,
        n: int,
        vertices: Sequence[Rows],
        chambers: Sequence[Simplex],
        masks: Sequence[int],
    ) -> None:
        self.q = q
        self.n = n
        self.vertices = tuple(vertices)
        self.vertex_of_rows = {rows: i for i, rows in enumerate(self.vertices)}
        self.vertex_dims = tuple(len(rows) for rows in self.vertices)
        self.lines_in = tuple((q**d - 1) // (q - 1) for d in range(n + 1))
        self.masks = tuple(masks)
        if len(self.masks) != len(self.vertices) or any(
            m.bit_count() != self.lines_in[d] for m, d in zip(self.masks, self.vertex_dims)
        ):
            raise CertificateError("line masks disagree with the subspace dimensions")
        if self.masks[: self.lines_in[n]] != tuple(1 << line for line in range(self.lines_in[n])):
            raise CertificateError("line vertices are not the first vertex ids")
        self.chambers = tuple(chambers)
        on_chamber = set().union(*self.chambers)
        if not on_chamber <= set(range(len(self.vertices))):
            raise ValueError("a chamber names a vertex id out of range")
        levels = list(zip(*self.chambers))  # levels[k - 1]: the k-th vertex of every chamber
        in_order = set(map(len, self.chambers)) <= {n - 1} and all(all(map(lt, a, b)) for a, b in zip(levels, levels[1:]))
        flags = in_order and all(set(map(self.vertex_dims.__getitem__, level)) == {k} for k, level in enumerate(levels, 1))
        if not flags and any(len(set(c)) < len(c) for c in self.chambers):
            raise ValueError("a chamber repeats a vertex")
        if not flags or len(on_chamber) < len(self.vertices) or not all(map(lt, self.chambers, self.chambers[1:])):
            raise CertificateError("chambers are not the facets of the building")

    @cached_property
    def complex(self) -> SimplicialComplex:
        labels = tuple(_label(rows) for rows in self.vertices)
        return SimplicialComplex(self.chambers, labels=labels, num_vertices=len(self.vertices))

    @cached_property
    def holders(self) -> tuple[int, ...]:
        return tuple(sum(1 << v for v, m in enumerate(self.masks) if m >> line & 1) for line in range(self.lines_in[self.n]))

    @cached_property
    def of_dim(self) -> tuple[int, ...]:
        return tuple(sum(1 << v for v, dim in enumerate(self.vertex_dims) if dim == d) for d in range(self.n))

    def chamber_ids(self, chamber: Iterable[int]) -> Simplex:
        """The sorted vertex ids of a chamber of this building, in any order."""
        ids = tuple(sorted(int(v) for v in chamber))
        i = bisect_left(self.chambers, ids)
        if self.chambers[i : i + 1] != (ids,):
            raise ValueError(f"{ids} is not a chamber of this building")
        return ids

    def __repr__(self) -> str:
        return f"Building(q={self.q}, n={self.n}, vertices={len(self.vertices)}, chambers={len(self.chambers)})"


def _line_masks(q: int, n: int, vertices: Sequence[Rows]) -> list[int]:
    """Bit ``l`` of mask ``v`` is set iff line vertex ``l`` lies in subspace ``v``.

    A line of an echelon subspace has exactly one normalised vector (first
    nonzero entry 1).  Those of ``rows`` are those of ``rows[1:]``, a vertex
    one dimension down, and ``rows[0] + u`` for u in that vertex's span.  A
    vector is an int of h + 1 bits a coordinate, 2^h >= q, so a coordinate
    sum s <= 2q - 2 has q taken off iff s + 2^h - q sets its bit h.
    """
    h = (q - 1).bit_length()
    shifts = range(0, (h + 1) * n, h + 1)
    lanes = sum(1 << s for s in shifts)
    offset, guard = lanes * ((1 << h) - q), lanes << h

    def plus(r: int, vectors: list[int]) -> list[int]:
        return [s - (((s + offset) & guard) >> h) * q for s in [r + u for u in vectors]]

    def code(row: Vector) -> int:
        return sum([x << s for x, s in zip(row, shifts)])

    line_of = {code(rows[0]): i for i, rows in enumerate(vertices) if len(rows) == 1}
    below: dict[Rows, tuple[int, list[int]]] = {(): (0, [0])}  # mask and span, by echelon rows
    masks = []
    for rows in vertices:
        mask, span = below[rows[1:]]
        r = code(rows[0])
        layers = [span, plus(r, span)]  # layers[c]: c * rows[0] + span
        masks.append(mask | sum([1 << line_of[u] for u in layers[1]]))
        if len(rows) < n - 1:  # a span is read only one dimension up
            while len(layers) < q:
                layers.append(plus(r, layers[-1]))
            below[rows] = (masks[-1], [u for layer in layers for u in layer])
    return masks


def _flags(masks: Sequence[int], dims: Sequence[int], ids: Iterable[int]) -> list[Simplex]:
    """The full flags through vertex ids ``ids``, sorted by dimension, in
    ascending order: chains grow a dimension at a time by their top's covers."""
    levels = [list(level) for _, level in groupby(ids, dims.__getitem__)]
    chains = [(v,) for v in levels[0]]
    for below, above in zip(levels, levels[1:]):
        pairs = [(w, masks[w]) for w in above]
        covers = {v: [w for w, mw in pairs if mw & m == m] for v, m in zip(below, map(masks.__getitem__, below))}
        chains = [c + (w,) for c in chains for w in covers[c[-1]]]
    return chains


def build(q: int, n: int) -> Building:
    """Construct the building of F_q^n flags, refusing more than
    ``DEFAULT_MAX_CELLS`` chambers before any subspace is enumerated."""
    if n < 2:
        raise ValueError(f"need ambient dimension >= 2, got {n}")
    _check_field(q, n)
    count = prod((q**i - 1) // (q - 1) for i in range(1, n + 1))
    if count > DEFAULT_MAX_CELLS:
        raise ResourceLimitError(f"{count} chambers exceeds cap {DEFAULT_MAX_CELLS}")
    vertices = [rows for k in range(1, n) for rows in enumerate_subspaces(q, n, k)]
    masks = _line_masks(q, n, vertices)
    return Building(q, n, vertices, _flags(masks, [len(rows) for rows in vertices], range(len(vertices))), masks)


# -- opposition ------------------------------------------------------


def _keep(b: Building, ci: Simplex) -> list[int]:
    """The vertices transversal to chamber ``ci``: a k-subspace is iff its
    line mask shares no bit with the chamber's (n-k)-subspace."""
    level = {b.vertex_dims[v]: b.masks[v] for v in ci}
    return [v for v, (m, d) in enumerate(zip(b.masks, b.vertex_dims)) if not m & level[b.n - d]]


def opposite_chambers(b: Building, c: Iterable[int]) -> tuple[Simplex, ...]:
    """The chambers opposite ``c``: the full flags of ``_keep``, in order."""
    return tuple(_flags(b.masks, b.vertex_dims, _keep(b, b.chamber_ids(c))))


def opp_complex(b: Building, c: Iterable[int]) -> SimplicialComplex:
    """The opposition complex Opp(C), relabeled to its own vertex ids.

    Its facets are the chambers opposite C, renumbered in order over the
    vertices ``keep`` transversal to C, so they stay sorted.  They are
    checked to be q^(n(n-1)/2) ascending (n-1)-tuples of ``keep`` that cover
    it, and, by bitsets, to hold two members of ``keep`` together iff one is
    inside the other.  So each is a flag (n - 1 nested subspaces), all the
    flags of ``keep`` by that count (Abramenko-Brown, *Buildings*, 2008,
    ch. 6), and they are the facets of the full subcomplex on ``keep``: a
    maximal chain of ``keep`` is a flag, as a flag through two consecutive
    members holds one between them unless their dimensions differ by one,
    and its least (greatest) member lies on a flag whose line (hyperplane)
    it must be.
    """
    ci = b.chamber_ids(c)
    keep = _keep(b, ci)
    rename = {v: i for i, v in enumerate(keep)}
    opp = opposite_chambers(b, ci)
    if (
        len(opp) != b.q ** (b.n * (b.n - 1) // 2) or set(map(len, opp)) != {b.n - 1}
        or not all(map(lt, opp, opp[1:])) or set().union(*opp) != rename.keys()
    ):
        raise CertificateError("opposite_chambers did not return every flag of the vertices opposite C")
    facets = [tuple([rename[v] for v in d]) for d in opp]
    km, kd = [b.masks[v] for v in keep], [b.vertex_dims[v] for v in keep]
    up, reach = [], [0] * len(keep)  # bit j: keep[j] contains keep[i] / lies above it on a facet
    for m, d in zip(km, kd):
        start = bisect_left(kd, d + 1)
        up.append(sum([1 << j for j, mj in enumerate(km[start:], start) if mj & m == m]))
    for f in facets:
        above = 0
        for i in reversed(f):
            reach[i] |= above
            above |= 1 << i
    if reach != up:
        raise CertificateError("Opp(C) is not the full subcomplex on the vertices opposite C")
    return SimplicialComplex(facets, [_label(b.vertices[v]) for v in keep], len(keep))


# -- apartments ------------------------------------------------------


def _frame_lines(b: Building, c: Simplex, d: Simplex) -> list[int]:
    """Line vertex ids of the frame through opposite chambers ``c`` and ``d``.

    Line i (1-based) is the one line shared by C_i and D_{n+1-i}, with the
    whole space standing in at level n: the single set bit of the AND of
    their masks.
    """
    whole = (1 << b.lines_in[b.n]) - 1
    cs = [b.masks[v] for v in c] + [whole]  # cs[i - 1] has dim i
    ds = [b.masks[v] for v in d] + [whole]
    lines = []
    for i in range(1, b.n + 1):
        common = cs[i - 1] & ds[b.n - i]
        if common.bit_count() != 1:
            raise CertificateError(f"flag levels {i} and {b.n + 1 - i} share {common.bit_count()} lines, not one")
        lines.append(common.bit_length() - 1)
    return lines


class Apartment:
    """Coordinates of the apartment an ordered frame of n line ids spans.

    Vertices correspond to proper nonempty subsets of frame positions,
    keyed by bitmask (bit i stands for ``lines[i]``).  A permutation w
    picks the chamber whose level-k subspace is spanned by the first k
    lines in w's order; the identity yields the frame-order prefixes.

    Keys S ascend: ``within[S]``, the vertices holding S's lines, is
    ``within[S - low]`` AND the holders of S's lowest line, and V_S is its
    one |S|-dimensional vertex.  An independent S lies in exactly one: its
    span.  A minimal dependent proper T spans |T| - 1 dimensions, so it lies
    in (q^(n-|T|+1) - 1) / (q - 1) >= q + 1 and is refused.  A frame
    dependent only as a whole passes every subset, but then each
    hyperplane V_([n]-i) holds line i.
    """

    def __init__(self, building: Building, lines: Sequence[int]) -> None:
        n = building.n
        lines = tuple(int(line) for line in lines)
        if len(lines) != n:
            raise ValueError(f"frame has {len(lines)} lines in dimension {n}")
        if any(not 0 <= line < building.lines_in[n] for line in lines):
            raise ValueError(f"frame {lines} names a vertex that is not a line")
        self.lines = lines
        self.n = n
        self.vertex_of_subset: dict[int, int] = {}
        holders, of_dim, full = building.holders, building.of_dim, (1 << n) - 1
        within = [(1 << len(building.vertices)) - 1] + [0] * full
        for key in range(1, full):
            low = key & -key
            within[key] = within[key ^ low] & holders[lines[low.bit_length() - 1]]
            found = within[key] & of_dim[key.bit_count()]
            if found.bit_count() != 1:
                raise ValueError(f"frame lines {[lines[i] for i in range(n) if key >> i & 1]} are dependent")
            self.vertex_of_subset[key] = found.bit_length() - 1
        if any(holders[line] >> self.vertex_of_subset[full ^ 1 << i] & 1 for i, line in enumerate(lines)):
            raise ValueError(f"frame {lines} spans only a hyperplane")

    def chamber_of_perm(self, w: Sequence[int]) -> Simplex:
        key = 0
        out = []
        for i in range(self.n - 1):
            key |= 1 << w[i]
            out.append(self.vertex_of_subset[key])
        return tuple(sorted(out))


# -- bending ---------------------------------------------------------


@lru_cache(maxsize=None)
def _level_sets(n: int) -> tuple[tuple[tuple[int, ...], frozenset[int]], ...]:
    """Every permutation w of S_n with its level set: the right-descent set
    of w^{-1}, shifted to flag levels 1..n-1."""
    system = symmetric(n)
    return tuple((w, frozenset(s + 1 for s in system.in_set_inverse(w))) for w in system.elements())


def _bending_table(b: Building, dp: Simplex, sigma: Simplex) -> dict[frozenset[int], frozenset[Simplex]]:
    """The chambers a bent octahedron cell covers, for every level set.

    The apartment through ``dp`` and ``sigma`` is coordinatized by the
    symmetric group with ``dp`` as identity chamber.  A level set (flag
    levels, i.e. subspace dimensions 1..n-1) maps to the chambers whose
    permutation w has the right-descent set of w^{-1} equal to it, shifted
    to generator indices.  Every level set appears, and the sets partition
    the apartment.  ``sigma`` must be opposite ``dp`` (it comes from
    ``opposite_chambers``, so this is not re-tested); otherwise a flag
    level pair sharing other than one line raises ``CertificateError``, or
    ``Apartment`` refuses lines not in direct sum with ``ValueError``.
    """
    apt = Apartment(b, _frame_lines(b, dp, sigma))
    table: dict[frozenset[int], set[Simplex]] = {}
    for w, levels in _level_sets(b.n):
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


def verify_dbl_embedding(b: Building, delta_plus: Iterable[int]) -> EmbeddingReport:
    """Check that bending the doubled opposition complex never collides.

    For every choice of doubling chamber Delta among the chambers opposite
    to ``delta_plus``, every pair of top cells of the doubled complex lying
    over chambers sigma, tau of the opposition complex is examined: if the
    two cells are disjoint (as signed vertex sets) their bending chamber
    sets must be disjoint too.  ``ok`` means no violation exists anywhere.

    A top cell over Delta is a signing of some sigma whose plus vertices
    lie in Delta; its signed vertices and bent chambers do not depend on
    Delta.  So the signings of every sigma over all of sigma are numbered
    once, in (sigma, cell) order, which over one Delta is the order of the
    signings over Delta.  Cell j keeps two bitsets of later cells: those
    sharing no signed vertex with it, and those among them sharing a bent
    chamber with it.  Each Delta then needs only the mask of the cells
    present over it.  Each present cell counts its present disjoint
    partners into ``pairs_checked``; the witness is the first present cell
    with a present colliding partner, over the first Delta that has one,
    paired with the earliest such partner.
    """
    dp = b.chamber_ids(delta_plus)
    opp = opposite_chambers(b, dp)
    # Cell j is (sigma, signed vertices, bent chambers), 2v for the plain
    # copy of v and 2v+1 for the doubled one; it bends onto the chambers of
    # the level set of its minus part.  Bit j of at_vertex[sv] /
    # at_chamber[t]: cell j has signed vertex sv / bends onto chamber t.
    cells: list[tuple[Simplex, Simplex, frozenset[Simplex]]] = []
    at_vertex: dict[int, int] = {}
    at_chamber: dict[Simplex, int] = {}
    for sigma in opp:
        table = _bending_table(b, dp, sigma)
        for cell in signings(sigma, sigma):
            bent = table[frozenset(b.vertex_dims[sv >> 1] for sv in cell if not sv & 1)]
            bit = 1 << len(cells)
            cells.append((sigma, cell, bent))
            for sv in cell:
                at_vertex[sv] = at_vertex.get(sv, 0) | bit
            for chamber in bent:
                at_chamber[chamber] = at_chamber.get(chamber, 0) | bit
    every = (1 << len(cells)) - 1
    disjoint, colliding = [], []  # bit i stands for cell j + 1 + i
    for j, (_, cell, bent) in enumerate(cells):
        touching = covering = 0
        for sv in cell:
            touching |= at_vertex[sv]
        for chamber in bent:
            covering |= at_chamber[chamber]
        later = (every ^ touching) >> (j + 1)
        disjoint.append(later)
        colliding.append(later & covering >> (j + 1))
    checked = 0
    for delta in opp:
        present = every  # the cells with no plus vertex outside delta
        for sv, holders in at_vertex.items():
            if sv & 1 and sv >> 1 not in delta:
                present &= ~holders
        rest = present
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest ^= 1 << j
            partners = present >> (j + 1)
            checked += (partners & disjoint[j]).bit_count()
            hits = partners & colliding[j]
            if hits:
                sigma, cell, bent = cells[j]
                tau, cell_b, bent_b = cells[j + (hits & -hits).bit_length()]
                witness = EmbeddingWitness(delta, sigma, cell, tau, cell_b, tuple(sorted(bent & bent_b)))
                return EmbeddingReport(False, witness, checked)
    return EmbeddingReport(True, None, checked)


# -- convenience constructors ----------------------------------------


def coordinate_frame(b: Building) -> tuple[int, ...]:
    """The line vertex ids of the standard basis vectors, in order."""
    units = ((tuple(1 if j == i else 0 for j in range(b.n)),) for i in range(b.n))
    return tuple(b.vertex_of_rows[rows] for rows in units)


def standard_flag(b: Building) -> Simplex:
    """The coordinate chamber spanned by growing prefixes of the standard basis."""
    return Apartment(b, coordinate_frame(b)).chamber_of_perm(range(b.n))
