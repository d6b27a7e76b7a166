"""Spherical buildings of type A: flag complexes of subspaces of F_q^n.

Vertices are the proper nonzero subspaces of F_q^n (q prime).  A subspace
is its tuple of reduced row echelon rows, so equality is structural, and
``b.vertices[v]`` is the rows of vertex ``v``.  Simplices are chains
under inclusion and chambers are complete flags.  A chamber is named by
its sorted tuple of vertex ids.  The chambers are grown from the line
masks only when read, and checked by their count, [n]_q!; nothing that
builds or checks Opp(C) reads them.  On top of the complex this module
provides what the paper's constructions use: opposite chambers
(pairwise-transversal flags, walked and proven once for all readers),
the opposition complex Opp(C), the unique apartment through two opposite
chambers and its coordinates by the symmetric group, and the check that
bending the doubled opposition complex into apartments never makes two
disjoint cells collide.

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
from itertools import chain, combinations, groupby, product
from math import isqrt, prod
from operator import le, lt
from typing import Iterable, Optional, Sequence

from .complexes import Simplex, SimplicialComplex, _ids_in, signings
from .coxeter import prefix_masks, symmetric
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

    After q's type, the cap is tested, so a huge q is refused before trial division,
    and for n of ``MAX_FIELD_SIZE.bit_length()`` or more q^n is over the
    cap without computing it (q >= 2).  The message quotes neither q nor n,
    which may be too long to print.
    """
    if type(q) is not int:
        raise ValueError(f"q must be an int, got {q!r}")
    if q > MAX_FIELD_SIZE or (q >= 2 and (n >= MAX_FIELD_SIZE.bit_length() or q**n > MAX_FIELD_SIZE)):
        raise ResourceLimitError(f"F_q^n is beyond the desk-scale cap of {MAX_FIELD_SIZE} vectors")
    if q < 2 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        raise ValueError(f"q must be prime, got {q}")


# -- subspaces -------------------------------------------------------


def _label(rows: Rows, q: int) -> str:
    """``"2-subspace:100,010"``: the dimension, then the echelon rows.  Over
    F_q with q > 10 an entry may take two digits or more, so the entries of
    a row are then spaced: ``"1-subspace:1 1 10"``."""
    return f"{len(rows)}-subspace:" + ",".join(("" if q <= 10 else " ").join(map(str, row)) for row in rows)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, [n]_q! / ([k]_q! [n-k]_q!); q < 2 is refused."""
    if type(q) is not int or q < 2:
        raise ValueError(f"field size q must be an int >= 2, got {q!r}")
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"n and k must be ints, got {n!r} and {k!r}")
    if not 0 <= k <= n:
        return 0
    out, rem = divmod(_flag_count(q, n), _flag_count(q, k) * _flag_count(q, n - k))
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
    if (count := gaussian_binomial(n, k, q)) > MAX_SUBSPACES:
        raise ResourceLimitError(f"{count} subspaces requested, cap is {MAX_SUBSPACES}")
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
    Vertices must be sorted by dimension, so the lines are vertex ids
    ``0 .. lines_in[n] - 1``, and ``lines_in[d]`` counts the lines of a
    d-dimensional subspace.  The bitsets ``holders[l]`` (vertices holding
    line ``l``) and ``of_dim[d]`` (vertices of dimension d) are lazy, and
    so are the ``chambers``, grown from the masks and checked by count when
    first read, and the labelled ``complex`` whose facets they are.
    """

    def __init__(self, q: int, n: int, vertices: Sequence[Rows], masks: Sequence[int]) -> None:
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
        if not all(map(le, self.vertex_dims, self.vertex_dims[1:])):
            raise CertificateError("vertices are not sorted by dimension")

    @cached_property
    def chambers(self) -> tuple[Simplex, ...]:
        """Every complete flag, in ascending order.

        The vertices are distinct proper nonzero subspaces, so ``_flags``
        yields distinct chains, each inside the next, one vertex per
        dimension present.  F_q^n has [n]_q! flags of dimensions 1..n-1 and
        fewer chains of any other set of dimensions (Abramenko-Brown,
        *Buildings*, 2008, ch. 6), so [n]_q! chains are all the flags.
        """
        chambers = tuple(_flags(self.masks, self.vertex_dims, range(len(self.vertices))))
        if len(chambers) != _flag_count(self.q, self.n):
            raise CertificateError("chambers are not the facets of the building")
        return chambers

    def chamber(self, i: int) -> Simplex:
        """``chambers[i]``, walked alone: the flags through a d-subspace number
        [n-d]_q!, so i is a mixed-radix numeral over the covers, ascending.
        An i that is not an int in ``range([n]_q!)`` is refused."""
        if not _ids_in((i,), count := _flag_count(self.q, self.n)):
            raise ValueError(f"chamber index {i} out of range 0..{count - 1}")
        ids: Simplex = ()
        for d in range(1, self.n):
            digit, i = divmod(i, _flag_count(self.q, self.n - d))
            m = self.masks[ids[-1]] if ids else 0
            ids += ([v for v, (mv, dv) in enumerate(zip(self.masks, self.vertex_dims)) if dv == d and mv & m == m][digit],)
        return ids

    @cached_property
    def complex(self) -> SimplicialComplex:
        labels = tuple(_label(rows, self.q) for rows in self.vertices)
        return SimplicialComplex(self.chambers, labels=labels, num_vertices=len(self.vertices))

    @cached_property
    def holders(self) -> tuple[int, ...]:
        return tuple(sum(1 << v for v, m in enumerate(self.masks) if m >> line & 1) for line in range(self.lines_in[self.n]))

    @cached_property
    def of_dim(self) -> tuple[int, ...]:
        return tuple(sum(1 << v for v, dim in enumerate(self.vertex_dims) if dim == d) for d in range(self.n))

    def chamber_ids(self, chamber: Iterable[int]) -> Simplex:
        """The sorted vertex ids of a chamber of this building, in any order,
        read off no chamber list: exact int ids of dimensions 1..n-1, each
        mask inside the next."""
        ids = tuple(chamber)
        if _ids_in(ids, len(self.vertices)):
            ids = tuple(sorted(ids))
            dims = tuple(map(self.vertex_dims.__getitem__, ids))
            if dims == tuple(range(1, self.n)) and not any(self.masks[u] & ~self.masks[w] for u, w in zip(ids, ids[1:])):
                return ids
        raise ValueError(f"{ids} is not a chamber of this building")

    def __repr__(self) -> str:
        return f"Building(q={self.q}, n={self.n}, vertices={len(self.vertices)}, chambers={_flag_count(self.q, self.n)})"


def _flag_count(q: int, n: int) -> int:
    """[n]_q!, the number of complete flags of F_q^n."""
    return prod((q**i - 1) // (q - 1) for i in range(1, n + 1))


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
    if type(n) is not int or n < 2:
        raise ValueError(f"ambient dimension must be an int >= 2, got {n!r}")
    _check_field(q, n)
    count = _flag_count(q, n)
    if count > DEFAULT_MAX_CELLS:
        raise ResourceLimitError(f"{count} chambers exceeds cap {DEFAULT_MAX_CELLS}")
    vertices = [rows for k in range(1, n) for rows in enumerate_subspaces(q, n, k)]
    return Building(q, n, vertices, _line_masks(q, n, vertices))


# -- opposition ------------------------------------------------------


def _opposition(b: Building, ci: Simplex) -> tuple[list[int], list[Simplex]]:
    """The vertices ``keep`` transversal to chamber ``ci``, and the chambers
    opposite it, walked once by ``_flags`` and proven.

    A k-subspace is transversal iff its line mask shares no bit with the
    chamber's (n-k)-subspace.  The chambers are checked to be q^(n(n-1)/2)
    ascending (n-1)-tuples of ``keep`` that cover it, and, by bitsets, to
    hold two members of ``keep`` together iff one is inside the other, the
    later one of higher dimension.  So each is a flag (n - 1 nested
    subspaces, in dimension order), all the flags of ``keep`` by that count
    (Abramenko-Brown, *Buildings*, 2008, ch. 6), and they are the facets of
    the full subcomplex on ``keep``: a maximal chain of ``keep`` is a flag,
    as a flag through two consecutive members holds one between them unless
    their dimensions differ by one, and its least (greatest) member lies on
    a flag whose line (hyperplane) it must be.
    """
    level = {b.vertex_dims[v]: b.masks[v] for v in ci}
    keep = [v for v, (m, d) in enumerate(zip(b.masks, b.vertex_dims)) if not m & level[b.n - d]]
    opp = _flags(b.masks, b.vertex_dims, keep)
    if (
        len(opp) != b.q ** (b.n * (b.n - 1) // 2) or set(map(len, opp)) != {b.n - 1}
        or not all(map(lt, opp, opp[1:])) or set().union(*opp) != set(keep)
    ):
        raise CertificateError("_flags did not return every flag of the vertices opposite C")
    km, kd = [b.masks[v] for v in keep], [b.vertex_dims[v] for v in keep]
    up, reach = [], [0] * len(b.vertices)  # bit w: w contains v / lies above v on a chamber
    for m, d in zip(km, kd):
        start = bisect_left(kd, d + 1)
        up.append(sum([1 << w for w, mw in zip(keep[start:], km[start:]) if mw & m == m]))
    for chamber in opp:
        above = 0
        for v in reversed(chamber):
            reach[v] |= above
            above |= 1 << v
    if [reach[v] for v in keep] != up:
        raise CertificateError("Opp(C) is not the full subcomplex on the vertices opposite C")
    return keep, opp


def opposite_chambers(b: Building, c: Iterable[int]) -> tuple[Simplex, ...]:
    """The chambers opposite ``c``, in ascending order, as ``_opposition``
    walks and proves them."""
    return tuple(_opposition(b, b.chamber_ids(c))[1])


def opp_complex(b: Building, c: Iterable[int]) -> SimplicialComplex:
    """The opposition complex Opp(C), relabeled to its own vertex ids: the
    chambers of ``_opposition``, proven canonical there, renumbered in order
    over ``keep``, so they stay sorted.  Labels are formatted when first read."""
    keep, opp = _opposition(b, b.chamber_ids(c))
    rename = {v: i for i, v in enumerate(keep)}
    rows, q = [b.vertices[v] for v in keep], b.q
    return SimplicialComplex._proven([tuple([rename[v] for v in d]) for d in opp], len(keep), lambda: [_label(r, q) for r in rows])


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
        lines = tuple(lines)
        if len(lines) != n:
            raise ValueError(f"frame has {len(lines)} lines in dimension {n}")
        if not _ids_in(lines, building.lines_in[n]):
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
        if not (len(w) == self.n and _ids_in(w, self.n) and len(set(w)) == self.n):
            raise ValueError(f"{tuple(w)} is not a permutation of 0..{self.n - 1}")
        return tuple(sorted(map(self.vertex_of_subset.__getitem__, prefix_masks(w))))


# -- bending ---------------------------------------------------------


@lru_cache(maxsize=None)
def _level_keys(n: int) -> tuple[tuple[frozenset[int], tuple[tuple[int, ...], ...]], ...]:
    """Each bending target shifted to flag levels, with the prefix masks of
    the permutations in its bending image."""
    return tuple((frozenset(s + 1 for s in t), tuple(map(prefix_masks, ws))) for t, ws in symmetric(n).bending_images().items())


def _bending_table(b: Building, dp: Simplex, sigma: Simplex) -> dict[frozenset[int], frozenset[Simplex]]:
    """The chambers a bent octahedron cell covers, for every level set.

    The apartment through ``dp`` and ``sigma`` is coordinatized by the
    symmetric group with ``dp`` as identity chamber.  A level set (flag
    levels, i.e. subspace dimensions 1..n-1) maps to the chambers whose
    permutation w has the right-descent set of w^{-1} equal to it, shifted
    to generator indices.  Every level set appears, and the sets partition
    the apartment.  The chamber of w is the vertices of its prefix keys,
    which ascend as the building's ids ascend with dimension.  ``sigma``
    must be opposite ``dp``; the embedding check takes it from
    ``_opposition``, which proves it, so this is not re-tested.  Otherwise
    a flag level pair sharing other than one line raises
    ``CertificateError``, or ``Apartment`` refuses lines not in direct sum
    with ``ValueError``.
    """
    vertex = Apartment(b, _frame_lines(b, dp, sigma)).vertex_of_subset.__getitem__
    return {levels: frozenset([tuple(map(vertex, keys)) for keys in perms]) for levels, perms in _level_keys(b.n)}


def _signing_patterns(n: int) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """The cells of a flag of dimensions 1..n-1, in ``signings`` order: the
    plus bit of each position, and the levels of the minus positions."""
    bits = [tuple(sv & 1 for sv in cell) for cell in signings(range(n - 1), range(n - 1))]
    return [(plus, frozenset(k for k, bit in enumerate(plus, 1) if not bit)) for plus in bits]


def _against(cells: Sequence[tuple], others: Sequence[tuple], later: bool) -> tuple[list[int], list[int]]:
    """For each (sigma, signed vertices, bent chambers) cell, two bitsets
    over ``others``: the cells sharing no signed vertex with it, and those
    of them sharing a bent chamber.  With ``later`` the two lists are one,
    and bit i of cell j's bitsets stands for cell j + 1 + i."""
    at_vertex: dict[int, int] = {}
    at_chamber: dict[Simplex, int] = {}
    for i, (_, cell, bent) in enumerate(others):
        for sv in cell:
            at_vertex[sv] = at_vertex.get(sv, 0) | 1 << i
        for chamber in bent:
            at_chamber[chamber] = at_chamber.get(chamber, 0) | 1 << i
    disjoint, colliding = [], []
    for j, (_, cell, bent) in enumerate(cells):
        touching = covering = 0
        for sv in cell:
            touching |= at_vertex.get(sv, 0)
        for chamber in bent:
            covering |= at_chamber.get(chamber, 0)
        shift = j + 1 if later else 0
        disjoint.append(((1 << len(others)) - 1 ^ touching) >> shift)
        colliding.append(disjoint[-1] & covering >> shift)
    return disjoint, colliding


def _scan(disjoint: Sequence[int], colliding: Sequence[int], present: int) -> tuple[int, Optional[tuple[int, int]]]:
    """Walk the ``present`` cells in order, each counting its later present
    disjoint partners, up to the first with a colliding one: the pairs
    counted, and that cell with its earliest colliding partner, if any."""
    checked, rest = 0, present
    while rest:
        j = (rest & -rest).bit_length() - 1
        rest ^= 1 << j
        partners = present >> (j + 1)
        checked += (partners & disjoint[j]).bit_count()
        hits = partners & colliding[j]
        if hits:
            return checked, (j, j + (hits & -hits).bit_length())
    return checked, None


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
    Delta.  Each sigma's all-minus cell is present over every Delta, a plus
    cell (one plus vertex or more) over each Delta that has its plus part
    as one of its 2^(n-1) - 1 nonempty faces.  So ``pairs_checked``, the
    disjoint pairs of present cells summed over Delta, is |Opp(C)| times
    the all-minus cells' disjoint pairs, counted once, plus, per Delta, the
    disjoint pairs its plus cells make with all-minus cells (a count per
    plus cell, from bitsets indexed by sigma) and among themselves (bitsets
    of later plus cells ANDed with those present).  The first Delta with a
    disjoint colliding pair is scanned again alone, in (sigma, cell) order:
    the witness is the first cell with a colliding later partner, with the
    earliest one, and ``pairs_checked`` counts that Delta's pairs up to it.
    """
    dp = b.chamber_ids(delta_plus)
    opp = _opposition(b, dp)[1]
    patterns = _signing_patterns(b.n)
    cells = []  # cells[s]: the (sigma, signed vertices, bent chambers) over opp[s], in signings order
    for sigma in opp:
        table = _bending_table(b, dp, sigma)
        cells.append([(sigma, tuple([2 * v + bit for v, bit in zip(sigma, bits)]), table[minus]) for bits, minus in patterns])
    minus, plus = [own[0] for own in cells], [cell for own in cells for cell in own[1:]]
    base, clash = _scan(*_against(minus, minus, True), (1 << len(minus)) - 1)
    disjoint, colliding = _against(plus, plus, True)
    by_plus: dict[Simplex, list[int]] = {}  # plus part: [its cells, their pairs with all-minus cells, collisions]
    for j, ((_, cell, _), free, hits) in enumerate(zip(plus, *_against(plus, minus, False))):
        entry = by_plus.setdefault(tuple([sv >> 1 for sv in cell if sv & 1]), [0, 0, 0])
        entry[0] |= 1 << j
        entry[1] += free.bit_count()
        entry[2] |= hits
    checked = 0
    for delta in opp:
        present, count, collides = 0, base, clash is not None
        for face in chain.from_iterable(combinations(delta, r) for r in range(1, b.n)):
            mask, pairs, hits = by_plus[face]
            present, count, collides = present | mask, count + pairs, collides or hits != 0
        pairs, hit = _scan(disjoint, colliding, present)
        if collides or hit:
            over = [c for own in cells for c in own if {sv >> 1 for sv in c[1] if sv & 1} <= set(delta)]
            partial, (j, k) = _scan(*_against(over, over, True), (1 << len(over)) - 1)
            (sigma, cell, bent), (tau, cell_b, bent_b) = over[j], over[k]
            witness = EmbeddingWitness(delta, sigma, cell, tau, cell_b, tuple(sorted(bent & bent_b)))
            return EmbeddingReport(False, witness, checked + partial)
        checked += count + pairs
    return EmbeddingReport(True, None, checked)


# -- convenience constructors ----------------------------------------


def coordinate_frame(b: Building) -> tuple[int, ...]:
    """The line vertex ids of the standard basis vectors, in order."""
    units = ((tuple(1 if j == i else 0 for j in range(b.n)),) for i in range(b.n))
    return tuple(b.vertex_of_rows[rows] for rows in units)


def standard_flag(b: Building) -> Simplex:
    """The coordinate chamber spanned by growing prefixes of the standard basis."""
    return Apartment(b, coordinate_frame(b)).chamber_of_perm(range(b.n))
