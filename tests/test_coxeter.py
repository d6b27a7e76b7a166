"""Coxeter systems and their chamber complexes, exhaustively at small rank.

The length function is cross-checked against breadth-first word length in
the Cayley graph, which only uses ``multiply`` -- if inversion counting or
popcount were wrong, the two could not agree on every element.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import combinations, permutations, product
from math import factorial

import pytest

import obstructor.coxeter as coxeter
from obstructor.coxeter import (
    _MAX_LETTERS,
    CoxeterSystem,
    coxeter_complex,
    prefix_masks,
    rightangled,
    symmetric,
)
from obstructor.errors import DEFAULT_MAX_CELLS, ResourceLimitError
from obstructor.homology import betti_numbers


def generator_element(system: CoxeterSystem, s: int):
    """The simple reflection s: the transposition of s and s + 1, or bit s."""
    if system.family == "symmetric":
        out = list(range(system.n))
        out[s], out[s + 1] = out[s + 1], out[s]
        return tuple(out)
    return 1 << s


def right_multiply(system: CoxeterSystem, w, s: int):
    """w times the generator s, on the right."""
    return system.multiply(w, generator_element(system, s))


def word_lengths(system: CoxeterSystem) -> dict:
    """Graph distance from the identity under right multiplication."""
    start = system.identity()
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for s in system.generators:
            nxt = right_multiply(system, w, s)
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                queue.append(nxt)
    return dist


SYSTEMS = [symmetric(2), symmetric(3), symmetric(4), rightangled(1), rightangled(2), rightangled(3)]


# -- the group itself ------------------------------------------------


def test_validation():
    with pytest.raises(ValueError):
        symmetric(1)
    with pytest.raises(ValueError):
        rightangled(0)
    with pytest.raises(ValueError):
        CoxeterSystem("dihedral", 5)
    s = symmetric(3)
    with pytest.raises(ValueError):
        s.multiply((0, 1), (1, 0, 2))


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param(lambda: symmetric(3).multiply((0.0, 1, 2), (1, 0, 2)), "(0.0, 1, 2) is not a permutation of 0..2",
                     id="float-letter"),
        pytest.param(lambda: symmetric(3).inverse((True, 0, 2)), "(True, 0, 2) is not a permutation of 0..2", id="bool-letter"),
        pytest.param(lambda: rightangled(2).length(True), "True is not a 2-bit mask", id="bool-mask"),
        pytest.param(lambda: symmetric(3).reflection_separates((1, 0, 2), (0, True)), "(0, True) is not a reflection of symmetric(3)",
                     id="bool-transposition"),
        pytest.param(lambda: rightangled(3).reflection_separates(1, True), "True is not a reflection of rightangled(3)",
                     id="bool-generator"),
    ],
)
def test_an_element_or_wall_that_is_not_made_of_ints_is_refused(bad, message):
    """Letters, masks and walls are ids: exactly ints, so a float or bool
    equal to one is refused with ``ValueError``, not computed with."""
    with pytest.raises(ValueError) as info:
        bad()
    assert str(info.value) == message


def test_orders_and_element_counts():
    for system in SYSTEMS:
        elems = list(system.elements())
        assert len(elems) == system.order()
        assert len(set(elems)) == len(elems)


def test_group_axioms_exhaustive_s3():
    s = symmetric(3)
    elems = list(s.elements())
    e = s.identity()
    for u, v, w in product(elems, repeat=3):
        assert s.multiply(s.multiply(u, v), w) == s.multiply(u, s.multiply(v, w))
    for u in elems:
        assert s.multiply(u, e) == u == s.multiply(e, u)
        assert s.multiply(u, s.inverse(u)) == e


def test_length_is_cayley_graph_distance():
    for system in (symmetric(4), rightangled(3)):
        dist = word_lengths(system)
        assert len(dist) == system.order()  # generators generate
        for w in system.elements():
            assert system.length(w) == dist[w]


def test_longest_element_properties():
    for system in SYSTEMS:
        w0 = system.longest_element()
        lengths = [system.length(w) for w in system.elements()]
        assert system.length(w0) == max(lengths)
        assert lengths.count(max(lengths)) == 1
        assert system.multiply(w0, w0) == system.identity()
        assert system.in_set(w0) == frozenset(system.generators)
    assert symmetric(4).length(symmetric(4).longest_element()) == 6
    assert rightangled(3).length(rightangled(3).longest_element()) == 3


def test_descent_sets_match_length_definition():
    for system in (symmetric(4), rightangled(3)):
        for w in system.elements():
            right = frozenset(
                s
                for s in system.generators
                if system.length(right_multiply(system, w, s)) < system.length(w)
            )
            left = frozenset(
                s
                for s in system.generators
                if system.length(system.multiply(generator_element(system, s), w))
                < system.length(w)
            )
            assert system.in_set(w) == right
            assert system.in_set_inverse(w) == left


def test_reflection_separation_matches_length_drop():
    s4 = symmetric(4)
    for w in s4.elements():
        for a, b in s4.reflections():
            t = list(range(4))
            t[a], t[b] = t[b], t[a]
            drops = s4.length(s4.multiply(tuple(t), w)) < s4.length(w)
            assert s4.reflection_separates(w, (a, b)) == drops
    ra = rightangled(3)
    for w in ra.elements():
        for t in ra.reflections():
            drops = ra.length(ra.multiply(generator_element(ra, t), w)) < ra.length(w)
            assert ra.reflection_separates(w, t) == drops


def test_opposition_is_translation_by_longest():
    for system in (symmetric(3), symmetric(4), rightangled(2), rightangled(3)):
        w0 = system.longest_element()
        for u in system.elements():
            mates = [v for v in system.elements() if system.opposite_in_apartment(u, v)]
            assert mates == [system.multiply(u, w0)]


def test_opposition_symmetric_relation():
    s = symmetric(4)
    for u, v in combinations(list(s.elements()), 2):
        assert s.opposite_in_apartment(u, v) == s.opposite_in_apartment(v, u)


# -- bending strata --------------------------------------------------


def bending_images_by_target(system: CoxeterSystem) -> dict:
    """The former per-target scan: each subset of generators, in
    ``combinations`` order, with the elements whose inverse descends
    exactly there."""
    gens = system.generators
    targets = [frozenset(t) for r in range(len(gens) + 1) for t in combinations(gens, r)]
    return {t: [w for w in system.elements() if system.in_set_inverse(w) == t] for t in targets}


def test_bending_images_match_the_per_target_scan():
    for system in [symmetric(n) for n in range(2, 7)] + [rightangled(r) for r in range(1, 6)]:
        images = system.bending_images()
        oracle = bending_images_by_target(system)
        assert list(images.items()) == list(oracle.items())


def test_bending_image_partitions_the_group():
    for system in (symmetric(3), symmetric(4), rightangled(3)):
        images = system.bending_images()
        assert len(images) == 2**system.num_generators
        assert sorted(w for image in images.values() for w in image) == sorted(system.elements())


def test_bending_image_extremes():
    for system in (symmetric(4), rightangled(3)):
        images = system.bending_images()
        assert images[frozenset()] == [system.identity()]
        assert images[frozenset(system.generators)] == [system.longest_element()]


def test_bending_image_rightangled_is_single_mask():
    assert rightangled(4).bending_images()[frozenset({0, 2})] == [0b0101]


def test_bending_images_read_the_cap_at_call_time(monkeypatch):
    monkeypatch.setattr(coxeter, "DEFAULT_MAX_CELLS", 24)
    assert sum(map(len, symmetric(4).bending_images().values())) == 24
    with pytest.raises(ResourceLimitError, match="more than 24 elements"):
        symmetric(5).bending_images()


def test_bending_images_refuse_an_oversized_group_at_once():
    """S_10 (3,628,800) and (Z/2)^21 (2,097,152) are over the cap, and are
    refused before an element is filed; S_1000000 before 1000000! is."""
    started = time.perf_counter()
    for system in (symmetric(10), rightangled(21), symmetric(10**6), rightangled(10**9)):
        with pytest.raises(ResourceLimitError, match=f"more than {DEFAULT_MAX_CELLS} elements"):
            system.bending_images()
    assert time.perf_counter() - started < 1.0


# -- chamber complexes -----------------------------------------------


def test_symmetric_3_complex_is_hexagon():
    cc = coxeter_complex(symmetric(3))
    assert cc.complex.num_vertices == 6
    assert cc.complex.face_counts() == (6, 6)
    assert betti_numbers(cc.complex) == (1, 1)
    assert set(cc.complex.labels) == {"{0}", "{1}", "{2}", "{0,1}", "{0,2}", "{1,2}"}


def test_symmetric_4_complex_is_two_sphere():
    cc = coxeter_complex(symmetric(4))
    assert cc.complex.face_counts() == (14, 36, 24)
    assert betti_numbers(cc.complex) == (1, 0, 1)


def test_rightangled_3_complex_is_octahedron():
    cc = coxeter_complex(rightangled(3))
    assert cc.complex.face_counts() == (6, 12, 8)
    assert betti_numbers(cc.complex) == (1, 0, 1)


def test_chamber_maps_are_inverse_bijections():
    for system in (symmetric(3), symmetric(4), rightangled(3)):
        cc = coxeter_complex(system)
        assert len(cc.chamber_of) == system.order()
        assert set(cc.chamber_of.values()) == set(cc.complex.facets)
        assert len(set(cc.chamber_of.values())) == len(cc.chamber_of)  # injective


def test_chamber_cap_is_checked_before_enumerating():
    """10! = 3,628,800 and 2^21 chambers exceed ``DEFAULT_MAX_CELLS``; the
    count is refused, even for a million letters, before any is built."""
    for system in (symmetric(10), symmetric(10**6), rightangled(21)):
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            coxeter_complex(system)
        assert time.perf_counter() - started < 1.0


def test_adjacent_chambers_share_a_panel():
    for system in (symmetric(4), rightangled(3)):
        cc = coxeter_complex(system)
        k = system.num_generators
        for w in system.elements():
            for s in system.generators:
                other = cc.chamber_of[right_multiply(system, w, s)]
                shared = set(cc.chamber_of[w]) & set(other)
                assert len(shared) == k - 1


def test_rank_low_systems_have_no_wall_panels():
    # rank 1: two chambers, each a single vertex, so no panel carries a wall
    for system in (symmetric(2), rightangled(1)):
        cc = coxeter_complex(system)
        assert len(cc.chamber_of) == len(cc.complex.facets) == 2
        assert cc.complex.dimension == 0


def test_reflection_separates_refuses_what_is_not_a_reflection():
    """Only members of ``reflections()`` are accepted: a transposition
    written backwards, a fixed pair, an out-of-range bit or a wrongly typed
    t raises ``ValueError`` instead of answering or failing elsewhere."""
    s3, w = symmetric(3), (1, 0, 2)
    assert s3.reflection_separates(w, (0, 1)) is True
    assert s3.reflection_separates(w, (1, 2)) is False
    for t in [(1, 0), (0, 0), (0, 3), (-1, 1), (0, 1, 2), (0,), (), -1, 7, 0, "ab", (0, "1"), [0, 1], (0.0, 1), None]:
        with pytest.raises(ValueError):
            s3.reflection_separates(w, t)
    ra = rightangled(3)
    assert ra.reflection_separates(0b101, 2) is True
    assert ra.reflection_separates(0b101, 1) is False
    for t in [7, 3, -1, (0, 1), "1", 1.0, None]:
        with pytest.raises(ValueError):
            ra.reflection_separates(0b101, t)
    s4 = symmetric(4)
    for pair in product(range(-1, 6), repeat=2):
        if pair in s4.reflections():
            assert s4.reflection_separates(s4.identity(), pair) is False
        else:
            with pytest.raises(ValueError):
                s4.reflection_separates(s4.identity(), pair)


def test_symmetric_chamber_cap_is_the_largest_order_within_budget():
    assert factorial(_MAX_LETTERS) <= DEFAULT_MAX_CELLS < factorial(_MAX_LETTERS + 1)


def test_prefix_masks_are_the_growing_prefix_sets():
    assert prefix_masks((2, 0, 1)) == (0b100, 0b101)
    assert prefix_masks(range(4)) == (0b1, 0b11, 0b111)
    assert prefix_masks((0,)) == ()
    for n in range(2, 7):
        for w in permutations(range(n)):
            assert prefix_masks(w) == tuple(sum(1 << x for x in w[:k]) for k in range(1, n))


# -- the former per-family rules, as oracles -------------------------


def inversion_count(w: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def adjacent_descents(w: tuple[int, ...]) -> frozenset[int]:
    return frozenset(s for s in range(len(w) - 1) if w[s] > w[s + 1])


def set_bits(w: int, r: int) -> frozenset[int]:
    return frozenset(s for s in range(r) if (w >> s) & 1)


def frozenset_prefix_complex(n: int) -> tuple[list[str], dict]:
    """Labels and chambers of the symmetric complex, built with frozenset
    vertices: subsets by size, then lexicographically, and the chamber of w
    the sorted ids of its growing prefix sets."""
    subsets = [frozenset(c) for size in range(1, n) for c in combinations(range(n), size)]
    vid = {t: i for i, t in enumerate(subsets)}
    labels = ["{" + ",".join(str(x) for x in sorted(t)) + "}" for t in subsets]
    chambers = {}
    for w in permutations(range(n)):
        prefix: set[int] = set()
        verts = []
        for i in range(n - 1):
            prefix.add(w[i])
            verts.append(vid[frozenset(prefix)])
        chambers[w] = tuple(sorted(verts))
    return labels, chambers


def test_symmetric_lengths_and_descents_match_the_former_rules():
    """Inversion count, adjacent descents of w and of w^{-1}, and the
    inverse-position wall test, on all of S_2 ... S_6."""
    for n in range(2, 7):
        system = symmetric(n)
        assert system.identity() == tuple(range(n))
        assert system.order() == len(list(system.elements()))
        assert system.reflections() == tuple((a, b) for a in range(n) for b in range(a + 1, n))
        for w in system.elements():
            inv = tuple(w.index(i) for i in range(n))
            assert system.inverse(w) == inv
            assert system.length(w) == inversion_count(w)
            assert system.in_set(w) == adjacent_descents(w)
            assert system.in_set_inverse(w) == adjacent_descents(inv)
            for a, b in system.reflections():
                assert system.reflection_separates(w, (a, b)) == (inv[a] > inv[b])


def test_rightangled_lengths_and_descents_match_the_former_rules():
    """Popcount and set bits, on all of (Z/2)^1 ... (Z/2)^5."""
    for r in range(1, 6):
        system = rightangled(r)
        assert system.identity() == 0
        assert system.order() == 2**r
        assert system.reflections() == tuple(range(r))
        for w in system.elements():
            assert system.length(w) == bin(w).count("1")
            assert system.in_set(w) == system.in_set_inverse(w) == set_bits(w, r)
            for t in range(r):
                assert system.reflection_separates(w, t) == bool((w >> t) & 1)


def test_symmetric_complex_matches_the_frozenset_prefix_builder():
    for n in range(2, 7):
        cc = coxeter_complex(symmetric(n))
        labels, chambers = frozenset_prefix_complex(n)
        assert list(cc.complex.labels) == labels
        assert list(cc.chamber_of.items()) == list(chambers.items())
