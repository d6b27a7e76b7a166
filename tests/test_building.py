"""Type-A buildings over small prime fields, exhaustively where affordable.

Counting oracles are computed in the tests themselves from first
principles: subspace counts by spanning and deduplicating raw vector
tuples, flag counts from the group-order formula |GL_n| / |Borel|, and
first Betti numbers of graphs from E - V + #components via a plain BFS.
None of those paths touch the enumeration code under test.
"""

from __future__ import annotations

from itertools import combinations, product

import pytest

from obstructor.building import (
    Apartment,
    Building,
    FlagChamber,
    Frame,
    Subspace,
    _bending_table,
    build,
    coordinate_frame,
    enumerate_subspaces,
    fq_kernel,
    fq_rank,
    fq_rref,
    gaussian_binomial,
    is_opposite,
    opp_complex,
    opposite_chambers,
    reversed_flag,
    standard_flag,
    unique_apartment,
    verify_dbl_embedding,
)
from obstructor.coxeter import coxeter_complex, symmetric
from obstructor.errors import ResourceLimitError
from obstructor.homology import betti_numbers


@pytest.fixture(scope="module")
def b23() -> Building:
    return build(2, 3)


@pytest.fixture(scope="module")
def b33() -> Building:
    return build(3, 3)


@pytest.fixture(scope="module")
def b24() -> Building:
    return build(2, 4)


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
    assert s.contains_vector([1, 1, 0, 0])
    assert not s.contains_vector([0, 0, 0, 1])
    assert s.contains(Subspace.span(2, 4, [[1, 1, 0, 0]]))
    assert Subspace.full(2, 4).contains(s)
    assert s.contains(Subspace.zero(2, 4))


def test_intersection_is_largest_common_subspace():
    q = 3
    a = Subspace.span(q, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    b = Subspace.span(q, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    cap = a.intersection(b)
    assert cap.dim == 2
    assert a.contains(cap) and b.contains(cap)
    # complementary planes in F_2^4 meet only at zero
    u = Subspace.span(2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    v = Subspace.span(2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert u.intersection(v).dim == 0
    assert u.intersection_dim(v) == 0
    assert u.sum_dim(v) == 4


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
        assert set(enumerated) == brute_force_subspaces(q, n, k)
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


def test_building_vertices_sorted_by_dimension(b24):
    assert b24.vertex_dims == tuple(sorted(b24.vertex_dims))
    assert b24.complex.vertex_label(0).startswith("1-subspace:")


def test_chambers_are_complete_flags(b23):
    for c in b23.chambers:
        flag = b23.flag(c)
        assert [s.dim for s in flag.subspaces] == [1, 2]
        assert flag.subspaces[1].contains(flag.subspaces[0])


def test_thickness_every_panel_in_q_plus_one_chambers(b23, b33, b24):
    for b in (b23, b33, b24):
        count: dict[tuple, int] = {}
        for c in b.chambers:
            for p in b.panels_of(c):
                count[p] = count.get(p, 0) + 1
        assert set(count.values()) == {b.q + 1}


def test_chamber_coercion(b23):
    flag = standard_flag(2, 3)
    ids = b23.chamber_ids(flag)
    assert b23.flag(ids) == flag
    assert b23.chamber_ids(ids) == ids
    with pytest.raises(ValueError):
        b23.chamber_ids((0, 1))  # two lines do not form a chamber
    with pytest.raises(ValueError):
        b23.simplex_ids((0, 1))
    assert b23.simplex_ids((0,)) == (0,)


def test_flag_and_frame_validation():
    q, n = 2, 3
    line = Subspace.span(q, n, [[1, 0, 0]])
    plane = Subspace.span(q, n, [[0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        FlagChamber((line, plane))  # line not inside plane
    with pytest.raises(ValueError):
        FlagChamber((line,))  # too few levels for n=3
    with pytest.raises(ValueError):
        Frame((line, line, Subspace.span(q, n, [[0, 0, 1]])))  # repeated line


# -- opposition ------------------------------------------------------


def test_standard_and_reversed_flags_are_opposite(b23, b24):
    for b in (b23, b24):
        c = b.chamber_ids(standard_flag(b.q, b.n))
        d = b.chamber_ids(reversed_flag(b.q, b.n))
        assert is_opposite(b, c, d)
        assert is_opposite(b, d, c)
        assert not is_opposite(b, c, c)


def test_opposite_chamber_counts(b23, b33, b24):
    # q^(number of positive roots) chambers opposite any fixed chamber
    for c in b23.chambers:
        assert len(opposite_chambers(b23, c)) == 2**3
    c33 = b33.chamber_ids(standard_flag(3, 3))
    assert len(opposite_chambers(b33, c33)) == 3**3
    c24 = b24.chamber_ids(standard_flag(2, 4))
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
    opp = opp_complex(b33, b33.chamber_ids(standard_flag(3, 3)))
    assert opp.face_counts() == (18, 27)
    comps, cycles = graph_betti(opp)
    assert (comps, cycles) == (1, 10)
    assert betti_numbers(opp) == (1, 10)


def test_opposition_complex_q2_n4(b24):
    opp = opp_complex(b24, b24.chamber_ids(standard_flag(2, 4)))
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


# -- apartments ------------------------------------------------------


def test_unique_apartment_of_coordinate_flags(b23, b24):
    for b in (b23, b24):
        c = standard_flag(b.q, b.n)
        d = reversed_flag(b.q, b.n)
        assert unique_apartment(b, c, d) == coordinate_frame(b.q, b.n)
    with pytest.raises(ValueError):
        unique_apartment(b23, standard_flag(2, 3), standard_flag(2, 3))


def test_apartment_shape(b24):
    apt = Apartment(b24, coordinate_frame(2, 4))
    assert len(apt.vertex_ids()) == 2**4 - 2
    chambers = apt.chambers()
    assert len(set(chambers)) == 24
    # identity gives the standard flag, reversal the reversed flag
    assert apt.chamber_of_perm((0, 1, 2, 3)) == b24.chamber_ids(standard_flag(2, 4))
    assert apt.chamber_of_perm((3, 2, 1, 0)) == b24.chamber_ids(reversed_flag(2, 4))


def test_apartment_is_a_coxeter_complex(b24):
    """The subset-vertex bijection carries the abstract chamber complex
    of the symmetric group onto the apartment, chamber by chamber."""
    apt = Apartment(b24, coordinate_frame(2, 4))
    cc = coxeter_complex(symmetric(4))
    carry = {}
    for subset, vid in apt.vertex_of_subset.items():
        cox_vid = cc.complex.labels.index("{" + ",".join(map(str, sorted(subset))) + "}")
        carry[cox_vid] = vid
    for w in symmetric(4).elements():
        image = tuple(sorted(carry[v] for v in cc.chamber_of[w]))
        assert image == apt.chamber_of_perm(w)


def test_apartment_opposition_matches_coxeter_opposition(b23, b33, b24):
    for b in (b23, b33, b24):
        apt = Apartment(b, coordinate_frame(b.q, b.n))
        system = symmetric(b.n)
        for u in system.elements():
            for v in system.elements():
                assert is_opposite(
                    b, apt.chamber_of_perm(u), apt.chamber_of_perm(v)
                ) == system.opposite_in_apartment(u, v)


def test_apartment_rejects_foreign_frame(b23):
    with pytest.raises(ValueError):
        Apartment(b23, coordinate_frame(3, 3))


def gallery_distances(b: Building, start: int) -> list[int]:
    """Gallery distance from chamber ``start`` by BFS over shared panels."""
    by_panel: dict = {}
    for i, c in enumerate(b.chambers):
        for p in b.panels_of(c):
            by_panel.setdefault(p, []).append(i)
    dist = [-1] * len(b.chambers)
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            for p in b.panels_of(b.chambers[i]):
                for j in by_panel[p]:
                    if dist[j] < 0:
                        dist[j] = dist[i] + 1
                        nxt.append(j)
        frontier = nxt
    return dist


def test_gallery_distance_between_opposite_chambers(b23):
    c = b23.chamber_index[b23.chamber_ids(standard_flag(2, 3))]
    d = b23.chamber_index[b23.chamber_ids(reversed_flag(2, 3))]
    dist = gallery_distances(b23, c)
    assert dist[d] == 3  # length of the longest element of S_3
    assert max(dist) == 3


# -- bending ---------------------------------------------------------


def test_bending_extreme_level_sets(b23):
    dp = b23.chamber_ids(standard_flag(2, 3))
    sigma = b23.chamber_ids(reversed_flag(2, 3))
    table = _bending_table(b23, dp, sigma)
    assert table[frozenset()] == frozenset({dp})
    assert table[frozenset({1, 2})] == frozenset({sigma})


def test_bending_partitions_the_apartment(b23):
    dp = b23.chamber_ids(standard_flag(2, 3))
    sigma = b23.chamber_ids(reversed_flag(2, 3))
    table = _bending_table(b23, dp, sigma)
    seen = [c for cells in table.values() for c in cells]
    sizes = {levels: len(cells) for levels, cells in table.items()}
    assert len(seen) == len(set(seen)) == 6
    assert set(seen) == set(Apartment(b23, unique_apartment(b23, dp, sigma)).chambers())
    assert sizes == {
        frozenset(): 1,
        frozenset({1}): 2,
        frozenset({2}): 2,
        frozenset({1, 2}): 1,
    }


def test_doubled_opposition_complex_embeds(b23, b33):
    report = verify_dbl_embedding(b23, b23.chambers[0])
    assert report.ok and report.witness is None
    assert report.pairs_checked > 0
    report33 = verify_dbl_embedding(b33, b33.chamber_ids(standard_flag(3, 3)))
    assert report33.ok


# -- chambers opposite a whole apartment -----------------------------


def chambers_opposite_apartment(b: Building, frame: Frame) -> set:
    """Every chamber opposite all chambers of the apartment, exhaustively."""
    found = set(b.chambers)
    for t in set(Apartment(b, frame).chambers()):
        found &= set(opposite_chambers(b, t))
    return found


def test_no_chamber_opposite_coordinate_apartment_at_q2(b23):
    frame = coordinate_frame(2, 3)
    assert chambers_opposite_apartment(b23, frame) == set()
    # exhaustive confirmation: every chamber fails against some apartment chamber
    apt_chambers = set(Apartment(b23, frame).chambers())
    for c in b23.chambers:
        assert not all(is_opposite(b23, c, t) for t in apt_chambers)


def test_opposite_to_apartment_found_at_q3(b33):
    frame = coordinate_frame(3, 3)
    found = chambers_opposite_apartment(b33, frame)
    assert found
    apt = Apartment(b33, frame)
    for ids in found:
        for t in set(apt.chambers()):
            assert is_opposite(b33, ids, t)
        assert ids not in set(apt.chambers())


def test_opposite_to_apartment_found_at_q5():
    b = build(5, 3)
    frame = coordinate_frame(5, 3)
    found = chambers_opposite_apartment(b, frame)
    assert found
    for ids in found:
        for t in set(Apartment(b, frame).chambers()):
            assert is_opposite(b, ids, t)
