"""Type-A buildings over small prime fields, exhaustively where affordable.

Counting oracles are computed in the tests themselves from first
principles: subspace counts by spanning and deduplicating raw vector
tuples, flag counts from the group-order formula |GL_n| / |Borel|, and
first Betti numbers of graphs from E - V + #components via a plain BFS.
None of those paths touch the enumeration code under test.  Subspace
incidence is checked against a rank oracle (row reduction over F_q), the
line masks against masks built by tuple arithmetic, ``chamber_ids``
against bisecting the chamber list, the opposite chambers against a
filter of every chamber of the building, apartments found by
AND-ing per-line holder bitsets against apartments spanned by row
reduction, also on random frames, the bending tables against one
``chamber_of_perm`` call per permutation, and ``verify_dbl_embedding``
against an explicit loop over cell pairs and against a bitset scan of the
present cells over every doubling chamber in turn.
"""

from __future__ import annotations

import hashlib
import json
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, combinations, permutations, product
from operator import or_
from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings, strategies as st

import obstructor.building as bldg
from obstructor.building import (
    Apartment,
    Building,
    EmbeddingReport,
    EmbeddingWitness,
    _bending_table,
    build,
    coordinate_frame,
    enumerate_subspaces,
    gaussian_binomial,
    opp_complex,
    opposite_chambers,
    standard_flag,
    verify_dbl_embedding,
)
from obstructor import complexes
from obstructor.complexes import SimplicialComplex, double_over, octahedralize, signings, to_json_dict
from obstructor.coxeter import coxeter_complex, symmetric
from obstructor.errors import CertificateError, ResourceLimitError
from obstructor.homology import betti_numbers
from obstructor.vankampen import configuration_space

from complex_helpers import full_subcomplex


@pytest.fixture(scope="module")
def b23() -> Building:
    return build(2, 3)


@pytest.fixture(scope="module")
def b33() -> Building:
    return build(3, 3)


@pytest.fixture(scope="module")
def b24() -> Building:
    return build(2, 4)


def reversed_flag(b: Building) -> tuple[int, ...]:
    """The coordinate chamber built from the standard basis taken backwards;
    it is opposite ``standard_flag(b)``."""
    return Apartment(b, coordinate_frame(b)).chamber_of_perm(range(b.n - 1, -1, -1))


def general_position(b: Building, u: int, v: int) -> bool:
    """Vertices ``u`` and ``v`` meet in the least dimension their own
    dimensions allow, read off their line masks."""
    least = max(0, b.vertex_dims[u] + b.vertex_dims[v] - b.n)
    return (b.masks[u] & b.masks[v]).bit_count() == b.lines_in[least]


def is_opposite(b: Building, c: Iterable[int], d: Iterable[int]) -> bool:
    """Chambers whose flags are pairwise in general position."""
    ci = b.chamber_ids(c)
    di = b.chamber_ids(d)
    return all(general_position(b, u, v) for u in ci for v in di)


def apartment_chambers(apt: Apartment) -> tuple[tuple[int, ...], ...]:
    """The n! chambers of an apartment, one per permutation of its frame."""
    return tuple(apt.chamber_of_perm(w) for w in permutations(range(apt.n)))


def unique_apartment(b: Building, c: Iterable[int], d: Iterable[int]) -> tuple[int, ...]:
    """The frame of the unique apartment through opposite chambers, as line
    vertex ids: listing its prefixes in order recovers C, its suffixes D."""
    ci = b.chamber_ids(c)
    di = b.chamber_ids(d)
    if not is_opposite(b, ci, di):
        raise ValueError("chambers are not opposite; no unique apartment")
    return tuple(bldg._frame_lines(b, ci, di))


# -- the rank oracle -------------------------------------------------
#
# Incidence of subspaces by row reduction over F_q.  The library reads
# incidence off line masks and keeps a subspace as its echelon rows; these
# functions are the independent check, and ``Subspace`` re-checks that
# every vertex's rows are in reduced echelon form.

Vector = tuple[int, ...]


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


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^n in reduced row echelon form (hence canonical)."""

    q: int
    n: int
    rows: tuple[Vector, ...]

    def __post_init__(self) -> None:
        bldg._check_field(self.q, self.n)
        rref, _ = fq_rref(self.rows, self.q, self.n)
        if rref != self.rows:
            raise ValueError(f"rows {self.rows} are not in reduced echelon form; use Subspace.span")

    @classmethod
    def span(cls, q: int, n: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        rref, _ = fq_rref(vectors, q, n)
        return cls(q, n, rref)

    @property
    def dim(self) -> int:
        return len(self.rows)


def subspace(b: Building, v: int) -> Subspace:
    """Vertex ``v`` of ``b`` as a validated ``Subspace``."""
    return Subspace(b.q, b.n, b.vertices[v])


def fq_rank(rows: Sequence[Sequence[int]], q: int, width: int) -> int:
    return len(fq_rref(rows, q, width)[0])


def full(q: int, n: int) -> Subspace:
    return Subspace(q, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def contains_vector(s: Subspace, v: Sequence[int]) -> bool:
    residue = [x % s.q for x in v]
    for row in s.rows:
        p = next(j for j, x in enumerate(row) if x)
        if residue[p]:
            c = residue[p]
            residue = [(a - c * b) % s.q for a, b in zip(residue, row)]
    return not any(residue)


def same_ambient(a: Subspace, b: Subspace) -> None:
    if (a.q, a.n) != (b.q, b.n):
        raise ValueError(f"ambient mismatch: F_{a.q}^{a.n} vs F_{b.q}^{b.n}")


def contains(a: Subspace, b: Subspace) -> bool:
    same_ambient(a, b)
    return all(contains_vector(a, r) for r in b.rows)


def sum_dim(a: Subspace, b: Subspace) -> int:
    same_ambient(a, b)
    return fq_rank(a.rows + b.rows, a.q, a.n)


def intersection_dim(a: Subspace, b: Subspace) -> int:
    return a.dim + b.dim - sum_dim(a, b)


def fq_kernel(rows: Sequence[Sequence[int]], q: int, width: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel {v : M v = 0}, one vector per free column."""
    rref, pivots = fq_rref(rows, q, width)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        v = [0] * width
        v[free] = 1
        for r, p in zip(rref, pivots):
            v[p] = (-r[free]) % q
        basis.append(tuple(v))
    return basis


def intersection(a: Subspace, b: Subspace) -> Subspace:
    """Computed via the left kernel of the stacked basis matrix."""
    same_ambient(a, b)
    stacked = a.rows + b.rows
    transpose = [[r[i] for r in stacked] for i in range(a.n)]
    vectors = []
    for coeffs in fq_kernel(transpose, a.q, len(stacked)):
        v = [0] * a.n
        for c, row in zip(coeffs[: a.dim], a.rows):
            v = [(x + c * y) % a.q for x, y in zip(v, row)]
        vectors.append(v)
    out = Subspace.span(a.q, a.n, vectors)
    assert out.dim == intersection_dim(a, b), "kernel method disagrees with rank count"
    return out


def transversal(a: Subspace, b: Subspace) -> bool:
    return intersection_dim(a, b) == max(0, a.dim + b.dim - a.n)


# -- field arithmetic ------------------------------------------------


def test_rref_examples():
    rows, pivots = fq_rref([[2, 4, 0], [1, 2, 1]], 5, 3)
    assert pivots == (0, 2)
    assert rows == ((1, 2, 0), (0, 0, 1))
    assert fq_rank([[1, 1], [1, 1]], 2, 2) == 1
    assert fq_rref([], 3, 4) == ((), ())


def test_kernel_annihilates():
    for q in (2, 3, 5):
        rows = [[1, 2, 3, 4], [0, 1, 1, 0]]
        for v in fq_kernel(rows, q, 4):
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) % q == 0
        assert fq_rank(rows, q, 4) + len(fq_kernel(rows, q, 4)) == 4


# -- subspaces -------------------------------------------------------


def test_subspace_canonical_form():
    s = Subspace.span(3, 3, [[2, 1, 0], [1, 1, 0]])
    assert s.rows == ((1, 0, 0), (0, 1, 0))
    assert Subspace.span(3, 3, [[2, 1, 0], [1, 2, 0]]).dim == 1  # dependent mod 3
    with pytest.raises(ValueError):
        Subspace(2, 3, ((1, 1, 0), (0, 0, 0)))  # zero row not allowed in RREF
    with pytest.raises(ValueError):
        Subspace(4, 2, ((1, 0),))  # 4 is not prime


def test_subspace_membership():
    s = Subspace.span(2, 4, [[1, 0, 1, 0], [0, 1, 1, 0]])
    assert contains_vector(s, [1, 1, 0, 0])
    assert not contains_vector(s, [0, 0, 0, 1])
    assert contains(s, Subspace.span(2, 4, [[1, 1, 0, 0]]))
    assert contains(full(2, 4), s)
    assert contains(s, Subspace(2, 4, ()))
    with pytest.raises(ValueError):
        contains(s, Subspace.span(3, 4, [[1, 1, 0, 0]]))  # other field


def test_intersection_is_largest_common_subspace():
    q = 3
    a = Subspace.span(q, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    b = Subspace.span(q, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    cap = intersection(a, b)
    assert cap.dim == 2
    assert contains(a, cap) and contains(b, cap)
    # complementary planes in F_2^4 meet only at zero
    u = Subspace.span(2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    v = Subspace.span(2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert intersection(u, v).dim == 0
    assert intersection_dim(u, v) == 0
    assert sum_dim(u, v) == 4


def brute_force_subspaces(q: int, n: int, k: int) -> set[Subspace]:
    """Every k-subspace as the span of some k-tuple of vectors, deduped."""
    vectors = [v for v in product(range(q), repeat=n) if any(v)]
    out = set()
    for combo in combinations(vectors, k):
        s = Subspace.span(q, n, combo)
        if s.dim == k:
            out.add(s)
    return out


def test_enumerate_subspaces_matches_brute_force():
    for q, n, k in ((2, 3, 1), (2, 3, 2), (3, 3, 1), (2, 4, 2)):
        enumerated = enumerate_subspaces(q, n, k)
        assert len(enumerated) == len(set(enumerated))
        assert {Subspace(q, n, rows) for rows in enumerated} == brute_force_subspaces(q, n, k)
        assert enumerated == enumerate_subspaces(q, n, k)  # deterministic


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(4, 2, 2) == (2**4 - 1) * (2**4 - 2) // ((2**2 - 1) * (2**2 - 2))
    assert gaussian_binomial(4, 2, 2) == 35
    for n, k, q in ((4, 1, 2), (4, 3, 2), (5, 2, 3)):
        assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
    assert gaussian_binomial(3, 5, 2) == 0


def test_gaussian_binomial_refuses_q_below_two():
    """It counts subspaces of F_q^n, so q = 1 (a zero denominator), 0 and -1
    are refused; ``build`` and ``enumerate_subspaces`` refuse them first."""
    for q in (1, 0, -1):
        with pytest.raises(ValueError):
            gaussian_binomial(3, 1, q)
        with pytest.raises(ValueError):
            enumerate_subspaces(q, 3, 1)
        with pytest.raises(ValueError):
            build(q, 3)


def test_enumerate_subspaces_validation():
    with pytest.raises(ValueError):
        enumerate_subspaces(2, 3, 0)
    with pytest.raises(ValueError):
        enumerate_subspaces(2, 3, 3)
    with pytest.raises(ValueError):
        enumerate_subspaces(6, 3, 1)
    with pytest.raises(ResourceLimitError):
        enumerate_subspaces(2, 21, 1)
    with pytest.raises(ResourceLimitError):
        enumerate_subspaces(5, 8, 4)


def test_huge_field_is_refused_before_trial_division():
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        build(10**15 + 37, 2)
    assert time.perf_counter() - started < 1.0


def test_huge_inputs_are_refused_without_the_power():
    """For n >= 20, q^n is over the cap for every q >= 2, so it is not
    computed; neither it nor a q too long to print is quoted."""
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="cap of 1000000 vectors"):
        build(3, 10**7)
    with pytest.raises(ResourceLimitError, match="cap of 1000000 vectors"):
        build(10**5000, 2)
    with pytest.raises(ResourceLimitError, match="desk-scale cap"):
        enumerate_subspaces(2, 20, 1)
    assert time.perf_counter() - started < 1.0
    # 2^19 vectors pass the field cap; the subspace count is refused next
    with pytest.raises(ResourceLimitError, match="524287 subspaces requested"):
        enumerate_subspaces(2, 19, 1)


# -- the building ----------------------------------------------------


def general_linear_order(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def borel_order(q: int, n: int) -> int:
    return (q - 1) ** n * q ** (n * (n - 1) // 2)


def test_building_counts(b23, b33, b24):
    assert len(b23.vertices) == 7 + 7
    assert len(b23.chambers) == 21
    assert len(b33.vertices) == 13 + 13
    assert len(b33.chambers) == 52
    assert len(b24.vertices) == 15 + 35 + 15
    assert len(b24.chambers) == 315
    for b in (b23, b33, b24):
        assert len(b.chambers) == general_linear_order(b.q, b.n) // borel_order(b.q, b.n)


def test_every_vertex_is_a_distinct_echelon_subspace(b23, b33, b24):
    """The library keeps each vertex as the rows ``enumerate_subspaces``
    made, unchecked; here each is re-checked to be in reduced echelon form
    over a prime field, and no two vertices share rows."""
    for b in (b23, b33, b24, build(5, 3)):
        spaces = [subspace(b, v) for v in range(len(b.vertices))]
        assert len(set(spaces)) == len(b.vertices)
        assert tuple(s.dim for s in spaces) == b.vertex_dims
        assert tuple(s.rows for s in spaces) == b.vertices


def test_building_vertices_sorted_by_dimension(b24):
    assert b24.vertex_dims == tuple(sorted(b24.vertex_dims))
    assert b24.complex.vertex_label(0).startswith("1-subspace:")


def test_chambers_are_complete_flags(b23):
    for c in b23.chambers:
        line, plane = (subspace(b23, v) for v in c)
        assert (line.dim, plane.dim) == (1, 2)
        assert contains(plane, line)


def test_thickness_every_panel_in_q_plus_one_chambers(b23, b33, b24):
    for b in (b23, b33, b24):
        count: dict[tuple, int] = {}
        for c in b.chambers:
            for p in combinations(c, len(c) - 1):
                count[p] = count.get(p, 0) + 1
        assert set(count.values()) == {b.q + 1}


def test_chamber_coercion(b23):
    ids = standard_flag(b23)
    assert [b23.vertices[v] for v in ids] == [((1, 0, 0),), ((1, 0, 0), (0, 1, 0))]
    assert b23.chamber_ids(ids) == ids
    assert b23.chamber_ids(reversed(ids)) == ids  # id order does not matter
    with pytest.raises(ValueError):
        b23.chamber_ids((0, 1))  # two lines do not form a chamber


def test_flag_and_frame_validation(b23):
    q, n = 2, 3
    line = Subspace.span(q, n, [[1, 0, 0]])
    plane = Subspace.span(q, n, [[0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        b23.chamber_ids((b23.vertex_of_rows[line.rows], b23.vertex_of_rows[plane.rows]))  # line not inside plane
    with pytest.raises(ValueError):
        b23.chamber_ids((b23.vertex_of_rows[line.rows],))  # too few levels for n=3
    e1, _, e3 = coordinate_frame(b23)
    with pytest.raises(ValueError):
        Apartment(b23, (e1, e1, e3))  # repeated line


# -- line masks ------------------------------------------------------


def line_masks_by_tuples(q: int, n: int, vertices: Sequence[tuple[Vector, ...]]) -> list[int]:
    """The line masks by tuple arithmetic mod q: a line of an echelon
    subspace has one normalised vector, a row plus any combination of the
    rows below it, and that vector is a line vertex's own row."""
    line_of = {rows[0]: i for i, rows in enumerate(vertices) if len(rows) == 1}
    masks = []
    for rows in vertices:
        mask = 0
        below: list[Vector] = [(0,) * n]  # the span of the rows below ``row``
        for i in range(len(rows) - 1, -1, -1):
            row = rows[i]
            for v in below:
                mask |= 1 << line_of[tuple([(a + b) % q for a, b in zip(row, v)])]
            if i:
                below = [tuple([(c * a + b) % q for a, b in zip(row, v)]) for c in range(q) for v in below]
        masks.append(mask)
    return masks


def opposite_chambers_by_filter(b: Building, c: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The chambers of ``b`` whose every vertex is in general position
    with every vertex of ``c``, filtered from all of them."""
    ci = b.chamber_ids(c)
    general = {v for v in range(len(b.vertices)) if all(general_position(b, u, v) for u in ci)}
    return tuple(filter(general.issuperset, b.chambers))


def test_masks_match_the_rank_oracle(b23, b33, b24):
    for b in (b23, b33, b24):
        vertices = [subspace(b, v) for v in range(len(b.vertices))]
        for u, a in enumerate(vertices):
            for v, c in enumerate(vertices):
                common = b.masks[u] & b.masks[v]
                assert common.bit_count() == b.lines_in[intersection_dim(a, c)]
                assert (common == b.masks[u]) == contains(c, a)
                assert general_position(b, u, v) == transversal(a, c)
    for b, c in ((b23, b23.chambers[0]), (b33, standard_flag(b33)), (b24, b24.chambers[7])):
        by_rank = tuple(
            d for d in b.chambers
            if all(transversal(subspace(b, u), subspace(b, v)) for u in c for v in d)
        )
        assert opposite_chambers(b, c) == by_rank


@pytest.mark.parametrize("q, n", [(2, 3), (3, 3), (5, 3), (7, 3), (2, 4), (3, 4), (2, 5), (997, 2)])
def test_line_masks_match_the_tuple_oracle(q, n):
    """The integer-coded masks equal those of tuple arithmetic, also at
    q = 997, where a coordinate takes 11 bits."""
    b = build(q, n)
    assert b.masks == tuple(line_masks_by_tuples(q, n, b.vertices))


@pytest.mark.parametrize("q, n, step", [(2, 3, 1), (3, 3, 1), (5, 3, 1), (2, 4, 1), (3, 4, 97), (2, 5, 301)])
def test_opposite_chambers_match_the_filter_oracle(q, n, step):
    """The flags walked inside ``keep`` are the chambers a filter of every
    chamber finds, in the same order, on every ``step``-th chamber."""
    b = build(q, n)
    for c in b.chambers[::step]:
        assert opposite_chambers(b, c) == opposite_chambers_by_filter(b, c)


def test_build_refuses_more_chambers_than_the_cap_at_once(monkeypatch):
    """[7]_2! = 78,129,765 and [6]_3! = 91,611,520 chambers pass the field
    and subspace caps, but not ``DEFAULT_MAX_CELLS``: they are refused
    before any subspace is enumerated.  The cap itself is allowed."""
    started = time.perf_counter()
    with monkeypatch.context() as patch:
        patch.setattr(bldg, "enumerate_subspaces", lambda *args: pytest.fail("a subspace was enumerated"))
        for q, n, count in ((2, 7, 78_129_765), (3, 6, 91_611_520)):
            with pytest.raises(ResourceLimitError, match=f"^{count} chambers exceeds cap 2000000$"):
                build(q, n)
    assert time.perf_counter() - started < 1.0
    monkeypatch.setattr(bldg, "DEFAULT_MAX_CELLS", 315)
    assert len(build(2, 4).chambers) == 315
    monkeypatch.setattr(bldg, "DEFAULT_MAX_CELLS", 314)
    with pytest.raises(ResourceLimitError, match="315 chambers exceeds cap 314"):
        build(2, 4)


def test_construction_cross_checks_raise(b23, monkeypatch):
    b = b23
    with pytest.raises(CertificateError):  # a line mask with a bit too many
        Building(b.q, b.n, b.vertices, (b.masks[0] | 2,) + b.masks[1:])
    with pytest.raises(CertificateError):  # lines not first among the vertices
        Building(b.q, b.n, b.vertices, (b.masks[1],) + b.masks[1:])
    dp = standard_flag(b)
    with pytest.raises(CertificateError):  # flag levels sharing a plane, not a line
        _bending_table(b, dp, dp)
    with pytest.raises(ValueError):  # frame lines not in direct sum
        Apartment(b, (0, 0, 1))
    opp = opposite_chambers(b, dp)
    monkeypatch.setattr("obstructor.building._flags", lambda masks, dims, ids: opp[1:])
    with pytest.raises(CertificateError):
        opp_complex(b, dp)


def test_embedding_check_refuses_opposite_chambers_out_of_dimension_order(b23, monkeypatch):
    """Every chamber opposite C reversed, then sorted: the count, order and
    cover checks pass, and the bitset check sees a plane before its line."""
    dp = standard_flag(b23)
    opp = opposite_chambers(b23, dp)
    monkeypatch.setattr("obstructor.building._flags", lambda masks, dims, ids: sorted(d[::-1] for d in opp))
    with pytest.raises(CertificateError, match="not the full subcomplex"):
        verify_dbl_embedding(b23, dp)


def test_building_refuses_vertices_out_of_dimension_order(b24):
    """A plane and a 3-space swapped, with their masks, keep the lines first
    and every mask's popcount, and are refused at construction."""
    plane, space = b24.vertex_dims.index(2), b24.vertex_dims.index(3)
    order = list(range(len(b24.vertices)))
    order[plane], order[space] = space, plane
    vertices, masks = [b24.vertices[v] for v in order], [b24.masks[v] for v in order]
    with pytest.raises(CertificateError, match="vertices are not sorted by dimension"):
        Building(b24.q, b24.n, vertices, masks)


def _grown(edit):
    """Read the chambers of a new ``build(b.q, b.n)`` whose ``_flags``
    returns ``edit(b, chambers)`` of its own list; none is grown before."""
    def read(b: Building, monkeypatch) -> tuple:
        flags = bldg._flags
        monkeypatch.setattr(bldg, "_flags", lambda *args: edit(b, flags(*args)))
        fresh = build(b.q, b.n)
        assert "chambers" not in vars(fresh)
        return fresh.chambers
    return read


NOT_A_CHAMBER, NOT_THE_FACETS = "is not a chamber of this building", "chambers are not the facets of the building"


@pytest.mark.parametrize(
    "bad, error, match",
    [
        pytest.param(lambda b, _: b.chamber_ids((-1, b.chambers[0][1])), ValueError, NOT_A_CHAMBER, id="negative-id"),
        pytest.param(lambda b, _: b.chamber_ids((b.chambers[-1][0], len(b.vertices))), ValueError, NOT_A_CHAMBER,
                     id="id-past-the-last-vertex"),
        pytest.param(lambda b, _: b.chamber_ids((b.chambers[0][0],) * 2), ValueError, NOT_A_CHAMBER,
                     id="vertex-repeated-in-a-chamber"),
        pytest.param(lambda b, _: b.chamber_ids((len(b.vertices) - 2, len(b.vertices) - 1)), ValueError, NOT_A_CHAMBER,
                     id="two-planes"),
        pytest.param(lambda b, _: b.chamber_ids(b.chambers[0][:1]), ValueError, NOT_A_CHAMBER, id="wrong-length"),
        pytest.param(lambda b, _: b.chamber_ids(()), ValueError, NOT_A_CHAMBER, id="empty"),
        pytest.param(_grown(lambda b, chambers: chambers[1:]), CertificateError, NOT_THE_FACETS, id="chamber-dropped"),
        pytest.param(_grown(lambda b, chambers: [c for c in chambers if len(b.vertices) - 1 not in c]), CertificateError,
                     NOT_THE_FACETS, id="vertex-on-no-chamber"),
        pytest.param(_grown(lambda b, chambers: chambers[:1] + chambers), CertificateError, NOT_THE_FACETS,
                     id="chamber-repeated"),
        pytest.param(lambda b, _: Building(b.q, b.n, b.vertices[:3], b.masks[:3]), CertificateError,
                     "line vertices are not the first vertex ids", id="fewer-vertices-than-lines"),
    ],
)
def test_building_rejects_chambers_that_are_not_its_facets(b23, monkeypatch, bad, error, match):
    """An id tuple that is no flag, which ``SimplicialComplex`` would refuse
    as a facet, is refused by ``chamber_ids`` with ``ValueError``.  Grown
    chambers short of [n]_q! (one dropped, or all on the last hyperplane)
    or past it (one repeated) are refused by their count on the first read,
    and fewer vertices than lines at construction, with
    ``CertificateError``."""
    with pytest.raises(error, match=match):
        bad(b23, monkeypatch)


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param(lambda b: b.chamber_ids((0, 7.9)), "(0, 7.9) is not a chamber of this building", id="float-chamber-id"),
        pytest.param(lambda b: b.chamber_ids(("0", "7")), "('0', '7') is not a chamber of this building", id="str-chamber-ids"),
        pytest.param(lambda b: b.chamber_ids((False, 7)), "(False, 7) is not a chamber of this building", id="bool-chamber-id"),
        pytest.param(lambda b: opposite_chambers(b, (0, 7.9)), "(0, 7.9) is not a chamber of this building",
                     id="opposite-chambers-of-floats"),
        pytest.param(lambda b: opp_complex(b, (0.0, 7)), "(0.0, 7) is not a chamber of this building", id="opp-complex-of-floats"),
        pytest.param(lambda b: verify_dbl_embedding(b, (0.4, 7.6)), "(0.4, 7.6) is not a chamber of this building",
                     id="embedding-check-of-floats"),
        pytest.param(lambda b: Apartment(b, (0.9, 1, 2)), "frame (0.9, 1, 2) names a vertex that is not a line", id="float-line"),
        pytest.param(lambda b: Apartment(b, (0, 1, "2")), "frame (0, 1, '2') names a vertex that is not a line", id="str-line"),
        pytest.param(lambda b: Apartment(b, (0, 1, 1.9)), "frame (0, 1, 1.9) names a vertex that is not a line",
                     id="float-line-near-an-int"),
        pytest.param(lambda b: b.chamber(1.5), "chamber index 1.5 out of range 0..20", id="float-chamber-index"),
        pytest.param(lambda b: b.chamber(True), "chamber index True out of range 0..20", id="bool-chamber-index"),
        pytest.param(lambda b: Apartment(b, coordinate_frame(b)).chamber_of_perm((0.0, 1, 2)),
                     "(0.0, 1, 2) is not a permutation of 0..2", id="float-letter"),
        pytest.param(lambda b: Apartment(b, coordinate_frame(b)).chamber_of_perm((True, 0, 2)),
                     "(True, 0, 2) is not a permutation of 0..2", id="bool-letter"),
    ],
)
def test_an_id_that_is_not_exactly_an_int_is_refused(b23, bad, message):
    """Chamber, frame and letter ids are taken as they are, not through
    ``int()``: a float, str or bool id is refused with ``ValueError`` by the
    call that takes it, never read as a nearby id."""
    with pytest.raises(ValueError) as info:
        bad(b23)
    assert str(info.value) == message


def test_building_refuses_no_chambers(b23, monkeypatch):
    with pytest.raises(CertificateError, match=NOT_THE_FACETS):
        _grown(lambda b, chambers: [])(b23, monkeypatch)


def in_chambers_by_bisect(b: Building, ids: tuple[int, ...]) -> bool:
    """Whether sorted ``ids`` is a chamber, by bisecting the chamber list."""
    i = bisect_left(b.chambers, ids)
    return b.chambers[i : i + 1] == (ids,)


def test_chamber_ids_matches_the_bisect_oracle(b23, b33, b24):
    """Every (n-1)-subset of vertex ids, 43,680 of them at (2,4), is taken
    in reverse order iff it is a chamber of the list."""
    for b in (b23, b33, b24):
        accepted = 0
        for ids in combinations(range(len(b.vertices)), b.n - 1):
            if in_chambers_by_bisect(b, ids):
                assert b.chamber_ids(ids[::-1]) == ids
                accepted += 1
            else:
                with pytest.raises(ValueError, match=NOT_A_CHAMBER):
                    b.chamber_ids(ids[::-1])
        assert accepted == len(b.chambers)


def test_building_chambers_are_built_when_read():
    """Opp(C), its doubling check and apartments read no chamber list; the
    first read grows all [4]_2! = 315, the building complex's facets."""
    b = build(2, 4)
    assert repr(b) == "Building(q=2, n=4, vertices=65, chambers=315)"
    dp = standard_flag(b)
    opposite_chambers(b, dp)
    opp_complex(b, dp)
    assert verify_dbl_embedding(b, dp).ok
    Apartment(b, coordinate_frame(b))
    assert "chambers" not in vars(b)
    assert len(b.chambers) == 315 and b.chambers == b.complex.facets


def test_chamber_walk_matches_the_chamber_list():
    """``chamber(i)`` is ``chambers[i]`` for every i, grown without the list,
    and an index out of range is refused."""
    for q, n in ((2, 3), (3, 3), (2, 4)):
        b = build(q, n)
        walked = [b.chamber(i) for i in range(bldg._flag_count(q, n))]
        assert "chambers" not in vars(b)
        assert tuple(walked) == b.chambers
        for i in (-1, len(b.chambers)):
            with pytest.raises(ValueError, match=f"^chamber index {i} out of range 0..{len(b.chambers) - 1}$"):
                b.chamber(i)


def test_building_complex_is_built_when_read():
    b = build(2, 3)
    assert "complex" not in vars(b)
    k = b.complex
    assert k is b.complex and k.facets == b.chambers and k.num_vertices == len(b.vertices)
    assert k.labels == tuple(bldg._label(rows, b.q) for rows in b.vertices)


@pytest.mark.parametrize("q, n", [(2, 3), (3, 4), (7, 3), (11, 3), (13, 3), (997, 2)])
def test_building_labels_name_their_subspaces(q, n):
    """A label reads back to its vertex's echelon rows, so no two vertices
    share one, also when an entry over F_q takes two digits or more."""
    b = build(q, n)
    labels = tuple(bldg._label(rows, q) for rows in b.vertices)
    for label, rows in zip(labels, b.vertices):
        dim, _, entries = label.partition("-subspace:")
        read = tuple(tuple(map(int, row.split(" ") if q > 10 else row)) for row in entries.split(","))
        assert (int(dim), read) == (len(rows), tuple(map(tuple, rows)))
    assert len(set(labels)) == len(labels)


def test_labels_at_q_13_are_distinct():
    b = build(13, 3)
    assert len(b.vertices) == 366
    assert len(set(b.complex.labels)) == 366
    assert "1-subspace:1 1 10" in b.complex.labels and "1-subspace:1 11 0" in b.complex.labels
    opp = opp_complex(b, standard_flag(b))
    assert len(set(opp.labels)) == opp.num_vertices


# -- opposition ------------------------------------------------------


def test_standard_and_reversed_flags_are_opposite(b23, b24):
    for b in (b23, b24):
        c = standard_flag(b)
        d = reversed_flag(b)
        assert is_opposite(b, c, d)
        assert is_opposite(b, d, c)
        assert not is_opposite(b, c, c)


def test_opposite_chamber_counts(b23, b33, b24):
    # q^(number of positive roots) chambers opposite any fixed chamber
    for c in b23.chambers:
        assert len(opposite_chambers(b23, c)) == 2**3
    c33 = standard_flag(b33)
    assert len(opposite_chambers(b33, c33)) == 3**3
    c24 = standard_flag(b24)
    assert len(opposite_chambers(b24, c24)) == 2**6


def graph_betti(k) -> tuple[int, int]:
    """(components, independent cycles) of a 1-complex by BFS, no linear algebra."""
    assert k.dimension <= 1
    adj: dict[int, set[int]] = {v: set() for v in range(k.num_vertices)}
    for a, b in k.faces(1):
        adj[a].add(b)
        adj[b].add(a)
    seen: set[int] = set()
    comps = 0
    for v in adj:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    cycles = len(k.faces(1)) - k.num_vertices + comps
    return comps, cycles


def test_opposition_complex_of_fano_building_is_an_octagon(b23):
    for c in b23.chambers:
        opp = opp_complex(b23, c)
        assert opp.face_counts() == (8, 8)
        comps, cycles = graph_betti(opp)
        assert (comps, cycles) == (1, 1)
        assert betti_numbers(opp) == (1, 1)
    # degree two everywhere: a single closed curve
    opp = opp_complex(b23, b23.chambers[0])
    degree = {v: 0 for v in range(8)}
    for a, b in opp.faces(1):
        degree[a] += 1
        degree[b] += 1
    assert set(degree.values()) == {2}


def test_opposition_complex_q3(b33):
    opp = opp_complex(b33, standard_flag(b33))
    assert opp.face_counts() == (18, 27)
    comps, cycles = graph_betti(opp)
    assert (comps, cycles) == (1, 10)
    assert betti_numbers(opp) == (1, 10)


def test_opposition_complex_q2_n4(b24):
    opp = opp_complex(b24, standard_flag(b24))
    # vertices: 8 lines avoiding the 3-space, 2^(2*2) = 16 planes
    # complementary to the plane, 8 hyperplanes avoiding the line
    assert opp.face_counts() == (32, 96, 64)
    assert opp.euler_characteristic() == 0
    bn = betti_numbers(opp)
    assert bn[0] == 1 and bn[2] >= 1
    assert bn == (1, 2, 1)  # frozen measurement; chi and b0 corroborate


def test_opp_complex_carries_labels(b23):
    opp = opp_complex(b23, b23.chambers[0])
    assert opp.labels is not None and len(opp.labels) == 8
    assert all(lab.split("-")[0] in ("1", "2") for lab in opp.labels)


@pytest.mark.parametrize("q, n, step", [(2, 3, 1), (3, 3, 1), (5, 3, 7), (2, 4, 7)])
def test_opp_complex_matches_the_full_subcomplex_oracle(q, n, step):
    """Opp(C) as the full subcomplex of the building on the vertices
    transversal to every vertex of C, the construction ``opp_complex``
    replaced, on every ``step``-th chamber."""
    b = build(q, n)
    for c in b.chambers[::step]:
        opp = opp_complex(b, c)
        oracle = full_subcomplex(b.complex, [v for v in range(len(b.vertices)) if all(general_position(b, u, v) for u in c)])
        assert (opp.facets, opp.labels, opp.num_vertices) == (oracle.facets, oracle.labels, oracle.num_vertices)


#: sha256 of ``json.dumps(to_json_dict(k))`` for Opp(C) of the standard flag,
#: its double over its first facet and its octahedralization, recorded while
#: every complex still went through the public constructor.
BUILT_DIGESTS = {
    (2, 3): ("8601d9f33b200f8c9bc6015071a7c5b2484c9cd80c9808ddf00ed88952d12210",
             "72165ecb88694809fd63335d61e8ba7aecfa83e89d8d317da334e78c9bc71785",
             "7e66b41186d75543a59d46289710813bbb5121d5c9533bc3548f630e7a258423"),
    (3, 3): ("7cd1ab8ee75f9523cfd557678ff384dd931df4cae54748130556da67f559d19a",
             "9bdd2e23661fcd7c8df6e0b7464edaf30b5963bf2cf95c2186c5f020a81f8e6e",
             "7c57734d27c19a1235366d727e7e53e1a4226bb6d73752e3b5e722d6b1a7f785"),
    (2, 4): ("b4c808822910ad67aa6ac9cd7fef57b96bd47479d056b4c63f0e42b8e3844b35",
             "8ba0b0978d6e526ea3dd5a76582e75dcc04b478a6dd5179083a7e843e06065a5",
             "e566d166b5b166cd1bfee42b1b27e45eee2ada6e07285eb73c1c497373d7f137"),
    (5, 3): ("30f13609d5a20a4e6a5d951b4fc1a1bcb5c735aa3b287268ad1d7a6a4ed3e2b0",
             "70ae60d12e51f6474d02f92c6795de2a6a466b74667c9831a27db477fba6195e",
             "c3c18b9aa160592ebabe1bc7729c53440b0c732b4de24526ac6eecb69fec756e"),
    (3, 4): ("ef2a36af0423788d27456e7cac3e6db7acd35baa80854396b8da8fc804780de5",
             "5b1d0c494f68b32afe0e24872ec8df3bf8bd3b174b40327c20da0ac6069808df",
             "c77e42fc8249bd4d36b935da56de3b6d77be6bddc0fb0a5d38eee33cae51da9d"),
}


@pytest.mark.parametrize("q, n", sorted(BUILT_DIGESTS))
def test_built_complexes_are_what_the_public_constructor_makes_of_them(q, n):
    """Opp(C), two of its doubles and its octahedralization skip the public
    constructor; given their facets backwards and their labels, it returns
    the same facets, vertex count and labels, for two chambers.  Their JSON
    is pinned byte for byte."""
    b = build(q, n)
    for c in (standard_flag(b), b.chamber(bldg._flag_count(q, n) - 1)):
        opp = opp_complex(b, c)
        built = (opp, double_over(opp, opp.facets[0]), double_over(opp, opp.facets[-1][1:]), octahedralize(opp))
        for k in built:
            want = SimplicialComplex(reversed(k.facets), labels=k.labels, num_vertices=k.num_vertices)
            assert (k.facets, k.num_vertices, k.labels) == (want.facets, want.num_vertices, want.labels)
        if c == standard_flag(b):
            digests = [hashlib.sha256(json.dumps(to_json_dict(k)).encode()).hexdigest() for k in (opp, built[1], built[3])]
            assert tuple(digests) == BUILT_DIGESTS[q, n]


def test_opp_complex_and_its_double_format_labels_on_first_read(b24, monkeypatch):
    """No label is formatted by ``opp_complex`` or ``double_over``; the first
    read of the double's labels formats one per vertex of each, and later
    reads, ``vertex_label``, ``to_json_dict`` and ``join`` format none."""
    made = []
    real_label, real_signed = bldg._label, complexes.signed_label
    monkeypatch.setattr(bldg, "_label", lambda rows, q: made.append("opp") or real_label(rows, q))
    monkeypatch.setattr(complexes, "signed_label", lambda base, sv: made.append("dbl") or real_signed(base, sv))
    opp = opp_complex(b24, standard_flag(b24))
    d = double_over(opp, opp.facets[0])
    assert made == []
    labels = d.labels
    assert (made.count("opp"), made.count("dbl")) == (opp.num_vertices, d.num_vertices) == (32, 35)
    made.clear()
    assert d.labels is labels and opp.labels[0] == d.labels[0][:-1]
    assert d.vertex_label(34) == labels[34] and to_json_dict(d)["labels"] == list(labels)
    assert complexes.join(opp, d).labels == opp.labels + labels
    assert made == []
    fresh = opp_complex(b24, standard_flag(b24))
    assert fresh.vertex_label(0) == opp.labels[0] and made == ["opp"] * 32


def test_a_built_complex_keeps_the_vertex_budget():
    with pytest.raises(ResourceLimitError, match="2000000 vertices"):
        SimplicialComplex._proven([], 2_000_000, list)


def test_opp_complex_refuses_a_non_opposite_chamber(b23, monkeypatch):
    dp = standard_flag(b23)
    opp = opposite_chambers(b23, dp)
    extra = next(d for d in b23.chambers if d not in opp)
    monkeypatch.setattr("obstructor.building._flags", lambda masks, dims, ids: tuple(sorted(opp + (extra,))))
    with pytest.raises(CertificateError):
        opp_complex(b23, dp)


def test_opp_complex_refuses_a_missing_chamber(b24, monkeypatch):
    """Every two vertices of a chamber opposite C at (2,4) lie on another
    one too, so the bitset check passes with one missing.  The count sees
    it dropped, and the ascending, length and ``keep`` checks see it
    replaced by another one again, by its own panel or by a chamber not
    opposite C."""
    dp = standard_flag(b24)
    opp = opposite_chambers(b24, dp)
    outside = next(d for d in b24.chambers if d not in opp)
    for i in (0, len(opp) // 2, len(opp) - 1):
        rest = opp[:i] + opp[i + 1 :]
        assert all(any(set(pair) <= set(d) for d in rest) for pair in combinations(opp[i], 2))
        for extra in ((), (rest[0],), (opp[i][:-1],), (outside,)):
            patched = tuple(sorted(rest + extra))
            monkeypatch.setattr("obstructor.building._flags", lambda masks, dims, ids, patched=patched: patched)
            with pytest.raises(CertificateError, match="did not return every flag"):
                opp_complex(b24, dp)


@pytest.mark.parametrize("q, n", [(2, 3), (2, 4)])
@pytest.mark.parametrize(
    "edit", [lambda opp: opp[1:], lambda opp: opp[:1] + opp, lambda opp: opp[:-1] + [opp[-1][::-1]]],
    ids=["dropped", "repeated", "reversed"],
)
def test_opposition_walk_is_proven_for_every_reader_survives_optimize(q, n, edit, monkeypatch):
    """The walk of the chambers opposite C with one dropped, repeated or
    reversed (the last, so the list still ascends) is refused by each of
    its readers, with checks that hold under ``python -O``."""
    b = build(q, n)
    dp = standard_flag(b)
    flags = bldg._flags
    monkeypatch.setattr(bldg, "_flags", lambda *args: edit(flags(*args)))
    for read in (opposite_chambers, opp_complex, verify_dbl_embedding):
        with pytest.raises(CertificateError):
            read(b, dp)


def test_opp_complex_refuses_chambers_that_are_not_flags(b23, monkeypatch):
    """Two chambers opposite C with their planes swapped: as many ascending
    pairs of vertices opposite C, covering them all, but one line is not in
    its plane, which the bitset check sees."""
    dp = standard_flag(b23)
    opp = opposite_chambers(b23, dp)
    (l1, p1), (l2, p2) = next((d, e) for d, e in combinations(opp, 2) if {(d[0], e[1]), (e[0], d[1])}.isdisjoint(opp))
    assert b23.masks[l1] & b23.masks[p2] != b23.masks[l1]
    swapped = tuple(sorted(set(opp) - {(l1, p1), (l2, p2)} | {(l1, p2), (l2, p1)}))
    assert len(swapped) == len(opp) and set().union(*swapped) == set().union(*opp)
    monkeypatch.setattr("obstructor.building._flags", lambda masks, dims, ids: swapped)
    with pytest.raises(CertificateError, match="not the full subcomplex"):
        opp_complex(b23, dp)


# -- apartments ------------------------------------------------------


def test_unique_apartment_of_coordinate_flags(b23, b24):
    for b in (b23, b24):
        c = standard_flag(b)
        d = reversed_flag(b)
        assert unique_apartment(b, c, d) == coordinate_frame(b)
    with pytest.raises(ValueError):
        unique_apartment(b23, standard_flag(b23), standard_flag(b23))


def test_apartment_shape(b24):
    apt = Apartment(b24, coordinate_frame(b24))
    assert len(set(apt.vertex_of_subset.values())) == 2**4 - 2
    chambers = apartment_chambers(apt)
    assert len(set(chambers)) == 24
    # identity gives the standard flag, reversal the reversed flag
    assert apt.chamber_of_perm((0, 1, 2, 3)) == standard_flag(b24)
    assert apt.chamber_of_perm((3, 2, 1, 0)) == reversed_flag(b24)


def test_chamber_of_perm_refuses_a_non_permutation_survives_optimize(b23):
    """A repeated, missing or foreign letter is refused by a raise, not an
    assert, so under ``python -O`` too; ``range(n)``, which
    ``standard_flag`` passes, is accepted."""
    apt = Apartment(b23, coordinate_frame(b23))
    for w in ((0, 0, 1), (0, 1), (0, 1, 3)):
        with pytest.raises(ValueError, match="is not a permutation of 0..2"):
            apt.chamber_of_perm(w)
    assert apt.chamber_of_perm(range(3)) == standard_flag(b23) == (0, 7)


def test_apartment_is_a_coxeter_complex(b24):
    """The subset-vertex bijection carries the abstract chamber complex
    of the symmetric group onto the apartment, chamber by chamber."""
    apt = Apartment(b24, coordinate_frame(b24))
    cc = coxeter_complex(symmetric(4))
    carry = {}
    for key, vid in apt.vertex_of_subset.items():
        subset = [i for i in range(4) if key >> i & 1]
        cox_vid = cc.complex.labels.index("{" + ",".join(map(str, subset)) + "}")
        carry[cox_vid] = vid
    for w in symmetric(4).elements():
        image = tuple(sorted(carry[v] for v in cc.chamber_of[w]))
        assert image == apt.chamber_of_perm(w)


def test_apartment_opposition_matches_coxeter_opposition(b23, b33, b24):
    for b in (b23, b33, b24):
        apt = Apartment(b, coordinate_frame(b))
        system = symmetric(b.n)
        for u in system.elements():
            for v in system.elements():
                assert is_opposite(
                    b, apt.chamber_of_perm(u), apt.chamber_of_perm(v)
                ) == system.opposite_in_apartment(u, v)


def test_apartment_rejects_foreign_frame(b23, b33):
    with pytest.raises(ValueError):  # ids 9 and 12 are planes of b23
        Apartment(b23, coordinate_frame(b33))


class RrefApartment:
    """Apartment oracle: every vertex spanned by row reduction over F_q.

    The frame is checked to be n lines of rank n, and each proper subset
    of frame lines is spanned by ``fq_rref`` and looked up by its echelon
    rows.  Keys are frozensets of frame positions.
    """

    def __init__(self, b: Building, lines: Sequence[int]) -> None:
        if len(lines) != b.n:
            raise ValueError(f"frame has {len(lines)} lines in dimension {b.n}")
        frame = [subspace(b, line) for line in lines]
        if any(line.dim != 1 for line in frame):
            raise ValueError("frame member is not a line")
        if fq_rank([row for line in frame for row in line.rows], b.q, b.n) != b.n:
            raise ValueError("frame lines are not in direct sum")
        self.n = b.n
        self.vertex_of_subset = {}
        for size in range(1, b.n):
            for subset in combinations(range(b.n), size):
                rows, _ = fq_rref([row for i in subset for row in frame[i].rows], b.q, b.n)
                self.vertex_of_subset[frozenset(subset)] = b.vertex_of_rows[rows]

    def chamber_of_perm(self, w: Sequence[int]) -> tuple[int, ...]:
        return tuple(sorted(self.vertex_of_subset[frozenset(w[: k + 1])] for k in range(self.n - 1)))


def assert_apartments_agree(b: Building, lines: Sequence[int]) -> None:
    apt = Apartment(b, lines)
    oracle = RrefApartment(b, lines)
    keys = {sum(1 << i for i in subset): v for subset, v in oracle.vertex_of_subset.items()}
    assert apt.vertex_of_subset == keys
    for w in permutations(range(b.n)):
        assert apt.chamber_of_perm(w) == oracle.chamber_of_perm(w)


def test_apartment_agrees_with_the_rref_oracle(b23, b33, b24):
    b53 = build(5, 3)
    samples = ((b23, b23.chambers), (b33, b33.chambers), (b24, b24.chambers[::40]), (b53, b53.chambers[::60]))
    for b, chambers in samples:
        for c in chambers:
            for d in opposite_chambers(b, c):
                frame = unique_apartment(b, c, d)
                assert_apartments_agree(b, frame)
                assert b.chamber_ids(Apartment(b, frame).chamber_of_perm(range(b.n))) == c
    for b in (b23, b33, b24, b53):
        assert_apartments_agree(b, coordinate_frame(b))


def test_apartment_and_rref_oracle_refuse_the_same_frames(b23):
    e1, e2, e3 = coordinate_frame(b23)
    coplanar = (e1, e2, b23.vertex_of_rows[((1, 1, 0),)])
    plane = b23.vertex_of_rows[((1, 0, 0), (0, 1, 0))]
    for lines in (
        (e1, e1, e3),  # a repeated line
        coplanar,  # three lines in one plane of F_2^3
        (e1, e2, plane),  # an id that is not a line
        (e1, e2),  # n - 1 ids
    ):
        with pytest.raises(ValueError):
            RrefApartment(b23, lines)
        with pytest.raises(ValueError):
            Apartment(b23, lines)


def apartment_or_refusal(cls: type, b: Building, lines: Sequence[int]):
    try:
        return cls(b, lines)
    except ValueError:
        return None


@settings(deadline=None)
@given(st.data())
def test_apartment_and_rref_oracle_agree_on_drawn_frames(b33, b24, data):
    """Random n-tuples of line ids, most of them dependent at q=2 n=4 and
    over a third at q=3 n=3: both refuse, or both give the same apartment."""
    b = data.draw(st.sampled_from((b33, b24)))
    lines = data.draw(st.lists(st.integers(0, b.lines_in[b.n] - 1), min_size=b.n, max_size=b.n))
    apt, oracle = apartment_or_refusal(Apartment, b, lines), apartment_or_refusal(RrefApartment, b, lines)
    assert (apt is None) == (oracle is None)
    if apt is not None:
        assert_apartments_agree(b, lines)


def test_frame_dependent_only_as_a_whole_is_refused(b24):
    """e1, e2, e3, e1+e2+e3 in F_2^4: every proper subset is independent,
    so each key finds its one vertex, and only the hyperplane check (the
    span of any three holds the fourth) refuses the frame.  With e4 in
    place of e3, the proper subset {e1, e2, e1+e2} is refused first."""
    e1, e2, e3, e4 = coordinate_frame(b24)
    lines = (e1, e2, e3, b24.vertex_of_rows[((1, 1, 1, 0),)])
    vectors = [b24.vertices[line][0] for line in lines]
    for size in range(1, 4):
        assert all(fq_rank(subset, 2, 4) == size for subset in combinations(vectors, size))
    assert fq_rank(vectors, 2, 4) == 3
    with pytest.raises(ValueError):
        RrefApartment(b24, lines)
    with pytest.raises(ValueError, match="hyperplane"):
        Apartment(b24, lines)
    e12 = b24.vertex_of_rows[((1, 1, 0, 0),)]
    with pytest.raises(ValueError, match=rf"\[{e1}, {e2}, {e12}\] are dependent"):
        Apartment(b24, (e1, e2, e12, e4))


def test_holder_tables_transpose_the_line_masks(b23, b33, b24):
    fresh = build(2, 3)
    assert "holders" not in vars(fresh) and "of_dim" not in vars(fresh)
    for b in (b23, b33, b24):
        everyone = range(len(b.vertices))
        assert len(b.holders) == b.lines_in[b.n] and len(b.of_dim) == b.n
        for line, holders in enumerate(b.holders):
            assert holders >> len(b.vertices) == 0
            assert all(holders >> v & 1 == b.masks[v] >> line & 1 for v in everyone)
        for d, members in enumerate(b.of_dim):
            assert {v for v in everyone if members >> v & 1} == {v for v in everyone if b.vertex_dims[v] == d}
            assert members >> len(b.vertices) == 0


def gallery_distances(b: Building, start: int) -> list[int]:
    """Gallery distance from chamber ``start`` by BFS over shared panels."""
    by_panel: dict = {}
    for i, c in enumerate(b.chambers):
        for p in combinations(c, len(c) - 1):
            by_panel.setdefault(p, []).append(i)
    dist = [-1] * len(b.chambers)
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            for p in combinations(b.chambers[i], len(b.chambers[i]) - 1):
                for j in by_panel[p]:
                    if dist[j] < 0:
                        dist[j] = dist[i] + 1
                        nxt.append(j)
        frontier = nxt
    return dist


def test_gallery_distance_between_opposite_chambers(b23):
    c = b23.chambers.index(standard_flag(b23))
    d = b23.chambers.index(reversed_flag(b23))
    dist = gallery_distances(b23, c)
    assert dist[d] == 3  # length of the longest element of S_3
    assert max(dist) == 3


# -- bending ---------------------------------------------------------


def test_bending_extreme_level_sets(b23):
    dp = standard_flag(b23)
    sigma = reversed_flag(b23)
    table = _bending_table(b23, dp, sigma)
    assert table[frozenset()] == frozenset({dp})
    assert table[frozenset({1, 2})] == frozenset({sigma})


def test_bending_partitions_the_apartment(b23):
    dp = standard_flag(b23)
    sigma = reversed_flag(b23)
    table = _bending_table(b23, dp, sigma)
    seen = [c for cells in table.values() for c in cells]
    sizes = {levels: len(cells) for levels, cells in table.items()}
    assert len(seen) == len(set(seen)) == 6
    assert set(seen) == set(apartment_chambers(Apartment(b23, unique_apartment(b23, dp, sigma))))
    assert sizes == {
        frozenset(): 1,
        frozenset({1}): 2,
        frozenset({2}): 2,
        frozenset({1, 2}): 1,
    }


def bending_table_by_perms(b: Building, dp, sigma) -> dict:
    """The bending table from one ``chamber_of_perm`` call per permutation
    w of S_n, filed under the right-descent set of w^{-1} shifted to flag
    levels 1..n-1."""
    apt = Apartment(b, bldg._frame_lines(b, dp, sigma))
    system = symmetric(b.n)
    table: dict = {}
    for w in system.elements():
        table.setdefault(frozenset(s + 1 for s in system.in_set_inverse(w)), set()).add(apt.chamber_of_perm(w))
    return {levels: frozenset(chambers) for levels, chambers in table.items()}


def level_keys_by_grouping(n: int) -> dict:
    """The level keys from one pass over S_n: each w's prefix masks filed
    under the adjacent descents of its inverse, shifted to flag levels."""
    classes: dict = {}
    for w in permutations(range(n)):
        inv = [w.index(i) for i in range(n)]
        levels = frozenset(s + 1 for s in range(n - 1) if inv[s] > inv[s + 1])
        classes.setdefault(levels, []).append(tuple(accumulate([1 << i for i in w[: n - 1]], or_)))
    return {levels: tuple(keys) for levels, keys in classes.items()}


def test_level_keys_match_the_grouping_oracle():
    for n in range(2, 7):
        keys = bldg._level_keys(n)
        assert len(keys) == 2 ** (n - 1)
        assert dict(keys) == level_keys_by_grouping(n)


def test_bending_tables_match_the_permutation_oracle(b23, b33, b24):
    for b in (b23, b33, b24):
        dp = b.chambers[len(b.chambers) // 2]
        for sigma in opposite_chambers(b, dp):
            assert _bending_table(b, dp, sigma) == bending_table_by_perms(b, dp, sigma)


def test_signing_patterns_number_the_cells_as_signings_does(b23, b33, b24):
    for b in (b23, b33, b24):
        for sigma in opposite_chambers(b, standard_flag(b)):
            patterns = bldg._signing_patterns(b.n)
            cells = [tuple(2 * v + bit for v, bit in zip(sigma, bits)) for bits, _ in patterns]
            assert cells == list(signings(sigma, sigma))
            for cell, (_, minus) in zip(cells, patterns):
                assert minus == frozenset(b.vertex_dims[sv >> 1] for sv in cell if not sv & 1)


def test_doubled_opposition_complex_embeds(b23, b33):
    report = verify_dbl_embedding(b23, b23.chambers[0])
    assert report.ok and report.witness is None
    assert report.pairs_checked > 0
    report33 = verify_dbl_embedding(b33, standard_flag(b33))
    assert report33.ok


def test_collision_returns_a_decodable_witness(b23, monkeypatch):
    """With a bending table under which two cells collide exactly when
    their minus parts have equal level sets, the witness names two disjoint
    cells of the doubled complex and the shared marker chamber."""

    def marked(b, dp, sigma):
        levels = range(1, b.n)
        return {frozenset(s): frozenset({s}) for r in range(b.n) for s in combinations(levels, r)}

    monkeypatch.setattr("obstructor.building._bending_table", marked)
    dp = standard_flag(b23)
    report = verify_dbl_embedding(b23, dp)
    assert report.ok is False and report.pairs_checked >= 1
    w = report.witness
    assert {w.doubling_chamber, w.sigma, w.tau} <= set(opposite_chambers(b23, dp))

    def split(signed, chamber):
        minus = {v // 2 for v in signed if v % 2 == 0}
        plus = {v // 2 for v in signed if v % 2 == 1}
        assert minus | plus == set(chamber) and not minus & plus
        assert plus <= set(w.doubling_chamber)
        return minus

    minus_a = split(w.alpha, w.sigma)
    minus_b = split(w.beta, w.tau)
    assert not set(w.alpha) & set(w.beta)  # disjoint cells of the doubled complex
    level_a = tuple(sorted(b23.vertex_dims[v] for v in minus_a))
    assert level_a == tuple(sorted(b23.vertex_dims[v] for v in minus_b))
    assert w.overlap == (level_a,)


def doubled_cells(b: Building, dp, delta) -> list[tuple]:
    """Top cells of the double over ``delta``, in (sigma, cell) order, as
    (sigma, minus part, plus part, bent chambers)."""
    opp = opposite_chambers(b, dp)
    cells = []
    for sigma in opp:
        table = bldg._bending_table(b, dp, sigma)
        shared = sorted(set(sigma) & set(delta))
        for r in range(len(shared) + 1):
            for plus in combinations(shared, r):
                minus = frozenset(set(sigma) - set(plus))
                cells.append((sigma, minus, frozenset(plus), table[frozenset(b.vertex_dims[v] for v in minus)]))
    return cells


def brute_force_embedding(b: Building, dp) -> tuple[bool, int]:
    """(ok, pairs_checked) from an explicit loop over unordered cell pairs.

    Pairs run sigma <= tau in Opp order, then cell by cell, and the loop
    stops at the first disjoint pair whose bent chamber sets meet.
    """
    dp = b.chamber_ids(dp)
    opp = opposite_chambers(b, dp)
    checked = 0
    for delta in opp:
        cells_by_chamber: dict = {sigma: [] for sigma in opp}
        for sigma, minus, plus, bent in doubled_cells(b, dp, delta):
            cells_by_chamber[sigma].append((minus, plus, bent))
        for i, sigma in enumerate(opp):
            for tau in opp[i:]:
                cells_a = cells_by_chamber[sigma]
                cells_b = cells_by_chamber[tau]
                for ia, (minus_a, plus_a, set_a) in enumerate(cells_a):
                    start = ia + 1 if sigma == tau else 0
                    for minus_b, plus_b, set_b in cells_b[start:]:
                        if (minus_a & minus_b) or (plus_a & plus_b):
                            continue
                        checked += 1
                        if set_a & set_b:
                            return False, checked
    return True, checked


def first_collision(b: Building, dp) -> EmbeddingWitness | None:
    """The first colliding cell in (sigma, cell) order over the first
    doubling chamber that has one, with its earliest later partner."""

    def signed(minus, plus):
        return tuple(sorted([2 * v for v in minus] + [2 * v + 1 for v in plus]))

    dp = b.chamber_ids(dp)
    for delta in opposite_chambers(b, dp):
        cells = doubled_cells(b, dp, delta)
        for (sigma, minus_a, plus_a, set_a), (tau, minus_b, plus_b, set_b) in combinations(cells, 2):
            if not (minus_a & minus_b or plus_a & plus_b) and set_a & set_b:
                return EmbeddingWitness(
                    delta, sigma, signed(minus_a, plus_a), tau, signed(minus_b, plus_b), tuple(sorted(set_a & set_b))
                )
    return None


def verify_dbl_embedding_by_scan(b: Building, delta_plus) -> EmbeddingReport:
    """``verify_dbl_embedding`` as a scan of every doubling chamber in turn.

    The signings of every sigma over all of sigma are numbered once, in
    (sigma, cell) order.  Cell j keeps two bitsets of later cells: those
    sharing no signed vertex with it, and those among them sharing a bent
    chamber with it.  Over each Delta the present cells, those with no plus
    vertex outside Delta, are walked in order, each counting its present
    disjoint partners, up to the first with a present colliding one.
    """
    dp = b.chamber_ids(delta_plus)
    opp = opposite_chambers(b, dp)
    cells: list = []
    at_vertex: dict = {}
    at_chamber: dict = {}
    for sigma in opp:
        table = bldg._bending_table(b, dp, sigma)
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
        present = every
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


def marked(b, dp, sigma):
    """Every cell bends onto the marker of its minus level set alone, so two
    cells collide exactly when their minus parts have equal level sets."""
    levels = range(1, b.n)
    return {frozenset(s): frozenset({s}) for r in range(b.n) for s in combinations(levels, r)}


def shared_marker(shared: dict):
    """A bending table under which each cell bends onto a marker of its
    own, except that the cell of ``sigma`` with minus levels ``shared[sigma]``
    bends onto the one shared marker ``()``."""

    def table(b, dp, sigma):
        levels = [frozenset(s) for r in range(b.n) for s in combinations(range(1, b.n), r)]
        return {s: frozenset({()} if shared.get(sigma) == s else {(sigma, tuple(s))}) for s in levels}

    return table


def test_split_count_matches_the_scan(b23, b33, b24, monkeypatch):
    for b, chambers in ((b23, b23.chambers), (b33, b33.chambers), (b24, b24.chambers[::40])):
        for c in chambers:
            assert verify_dbl_embedding(b, c) == verify_dbl_embedding_by_scan(b, c)
    dp = standard_flag(b23)
    opp = opposite_chambers(b23, dp)
    line, plane = opp[-1]
    (sigma,) = [c for c in opp if line in c and c != opp[-1]]
    (tau,) = [c for c in opp if plane in c and c != opp[-1]]
    for table in (marked, shared_marker({sigma: frozenset({2}), tau: frozenset({1})})):
        monkeypatch.setattr("obstructor.building._bending_table", table)
        for c in b23.chambers[:3] + (dp,):
            assert verify_dbl_embedding(b23, c) == verify_dbl_embedding_by_scan(b23, c)
        assert verify_dbl_embedding(b23, dp).ok is False


def _one_clash(b: Building, opp, kind: str) -> dict:
    """Minus level sets, by chamber, of two disjoint cells over a common
    doubling chamber: two all-minus cells, an all-minus cell and one with
    its plane plus, or two cells with one plus vertex each.  The plus cells
    are taken off ``opp[0]``, so their clash is found over a later one."""
    full, plane_plus, line_plus = frozenset({1, 2}), frozenset({1}), frozenset({2})
    for sigma, tau in permutations(opp, 2):
        if kind == "minus-minus" and not set(sigma) & set(tau):
            return {sigma: full, tau: full}
        if kind == "minus-plus" and tau[1] not in opp[0] and tau[0] not in sigma:
            return {sigma: full, tau: plane_plus}
        if kind == "plus-plus" and not set(sigma) & set(tau) and sigma[0] not in opp[0] and (sigma[0], tau[1]) in opp:
            return {sigma: line_plus, tau: plane_plus}
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", ["minus-minus", "minus-plus", "plus-plus"])
def test_a_clash_in_each_pair_class_of_the_split(b23, kind, monkeypatch):
    """One disjoint pair of cells shares a marker chamber, in each class of
    pairs the split count counts apart; the report, ``pairs_checked``
    included, is the scan's, and the witness is the first collision."""
    dp = standard_flag(b23)
    opp = opposite_chambers(b23, dp)
    shared = _one_clash(b23, opp, kind)
    monkeypatch.setattr("obstructor.building._bending_table", shared_marker(shared))
    report = verify_dbl_embedding(b23, dp)
    assert report.ok is False and report == verify_dbl_embedding_by_scan(b23, dp)
    w = report.witness
    assert w == first_collision(b23, dp) and w.overlap == ((),) and {w.sigma, w.tau} == set(shared)
    plus = sorted(any(sv & 1 for sv in cell) for cell in (w.alpha, w.beta))
    assert plus == {"minus-minus": [False, False], "minus-plus": [False, True], "plus-plus": [True, True]}[kind]
    assert (w.doubling_chamber == opp[0]) == (kind == "minus-minus")


def test_pairs_checked_is_pinned(b23, b33, b24):
    """Every chamber of a building checks the same number of disjoint cell
    pairs (GL_n(F_q) is transitive on chambers)."""
    for b, chambers, pairs in (
        (b23, b23.chambers, 448),
        (b33, b33.chambers, 12_879),
        (b24, b24.chambers[::150], 203_776),
    ):
        for c in chambers:
            report = verify_dbl_embedding(b, c)
            assert (report.ok, report.pairs_checked) == (True, pairs)


def test_pairs_checked_counts_the_configuration_space_top_pairs(b23, b33, b24):
    """A disjoint pair of top cells of Dbl(Opp(C), delta) is one 2k-cell of
    its configuration space, so summing those over every delta gives
    ``pairs_checked``.  At (2,4) every delta has the same count (the
    unipotent group fixing C is transitive on Opp(C)), so one is taken 64
    times."""
    for b, deltas, pinned in ((b23, None, 448), (b33, None, 12_879), (b24, 1, 203_776)):
        c = standard_flag(b)
        opp = opp_complex(b, c)
        k = opp.dimension
        counts = [len(configuration_space(double_over(opp, d), 2 * k).keys[2 * k]) for d in opp.facets[:deltas]]
        total = sum(counts) * len(opp.facets) // len(counts)
        assert total == verify_dbl_embedding(b, c).pairs_checked == pinned


def test_bitset_check_agrees_with_the_pair_loop(b23, b33, monkeypatch):
    for b, chambers in ((b23, b23.chambers), (b33, b33.chambers[:3])):
        for c in chambers:
            report = verify_dbl_embedding(b, c)
            assert brute_force_embedding(b, c) == (report.ok, report.pairs_checked)

    def marked(b, dp, sigma):
        levels = range(1, b.n)
        return {frozenset(s): frozenset({s}) for r in range(b.n) for s in combinations(levels, r)}

    monkeypatch.setattr("obstructor.building._bending_table", marked)
    for c in b23.chambers[:3]:
        report = verify_dbl_embedding(b23, c)
        assert report.ok is False and brute_force_embedding(b23, c)[0] is False
        assert report.witness == first_collision(b23, c) is not None


def test_first_collision_over_a_later_doubling_chamber(b23, monkeypatch):
    """Opp(C) of a (2,3) chamber is an octagon.  Take its last chamber
    delta = (line, plane), the other chamber sigma through the line and the
    other chamber tau through the plane, which share no vertex.  Every cell
    bends onto a marker of its own, except that the cell of sigma with only
    its line plus and the cell of tau with only its plane plus share one.
    Both are present only when doubling over delta, so the first collision
    is found there and not over the first doubling chamber."""
    dp = standard_flag(b23)
    opp = opposite_chambers(b23, dp)
    delta = opp[-1]
    line, plane = delta
    (sigma,) = [c for c in opp if line in c and c != delta]
    (tau,) = [c for c in opp if plane in c and c != delta]
    assert not set(sigma) & set(tau)
    shared = {sigma: frozenset({2}), tau: frozenset({1})}  # the minus levels

    def one_shared_marker(b, dp, chamber):
        levels = [frozenset(s) for r in range(b.n) for s in combinations(range(1, b.n), r)]
        return {s: frozenset({()} if shared.get(chamber) == s else {(chamber, tuple(s))}) for s in levels}

    monkeypatch.setattr("obstructor.building._bending_table", one_shared_marker)
    report = verify_dbl_embedding(b23, dp)
    assert report.ok is False and brute_force_embedding(b23, dp)[0] is False
    w = report.witness
    assert w == first_collision(b23, dp)
    assert w.doubling_chamber == delta != opp[0]
    assert {w.sigma, w.tau} == {sigma, tau} and w.overlap == ((),)


# -- chambers opposite a whole apartment -----------------------------


def chambers_opposite_apartment(b: Building, frame: Sequence[int]) -> set:
    """Every chamber opposite all chambers of the apartment, exhaustively."""
    found = set(b.chambers)
    for t in set(apartment_chambers(Apartment(b, frame))):
        found &= set(opposite_chambers(b, t))
    return found


def test_no_chamber_opposite_coordinate_apartment_at_q2(b23):
    frame = coordinate_frame(b23)
    assert chambers_opposite_apartment(b23, frame) == set()
    # exhaustive confirmation: every chamber fails against some apartment chamber
    apt_chambers = set(apartment_chambers(Apartment(b23, frame)))
    for c in b23.chambers:
        assert not all(is_opposite(b23, c, t) for t in apt_chambers)


def test_opposite_to_apartment_found_at_q3(b33):
    frame = coordinate_frame(b33)
    found = chambers_opposite_apartment(b33, frame)
    assert found
    apt = Apartment(b33, frame)
    for ids in found:
        for t in set(apartment_chambers(apt)):
            assert is_opposite(b33, ids, t)
        assert ids not in set(apartment_chambers(apt))


def test_opposite_to_apartment_found_at_q5():
    b = build(5, 3)
    frame = coordinate_frame(b)
    found = chambers_opposite_apartment(b, frame)
    assert found
    for ids in found:
        for t in set(apartment_chambers(Apartment(b, frame))):
            assert is_opposite(b, ids, t)
