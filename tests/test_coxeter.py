"""Coxeter systems and their chamber complexes, exhaustively at small rank.

The length function is cross-checked against breadth-first word length in
the Cayley graph, which only uses ``multiply`` -- if inversion counting or
popcount were wrong, the two could not agree on every element.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product

import pytest

from obstructor.coxeter import (
    CoxeterSystem,
    coxeter_complex,
    rightangled,
    symmetric,
)
from obstructor.homology import betti_numbers


def word_lengths(system: CoxeterSystem) -> dict:
    """Graph distance from the identity under right multiplication."""
    start = system.identity()
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for s in system.generators:
            nxt = system.right_multiply(w, s)
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
    with pytest.raises(ValueError):
        s.generator_element(2)


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
                if system.length(system.right_multiply(w, s)) < system.length(w)
            )
            left = frozenset(
                s
                for s in system.generators
                if system.length(system.multiply(system.generator_element(s), w))
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
            drops = ra.length(ra.multiply(ra.generator_element(t), w)) < ra.length(w)
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


def test_bending_image_partitions_the_group():
    for system in (symmetric(3), symmetric(4), rightangled(3)):
        gens = system.generators
        seen = []
        for size in range(len(gens) + 1):
            for subset in combinations(gens, size):
                seen.extend(system.bending_image(frozenset(subset)))
        assert sorted(seen) == sorted(system.elements())


def test_bending_image_extremes():
    for system in (symmetric(4), rightangled(3)):
        assert system.bending_image(frozenset()) == [system.identity()]
        full = frozenset(system.generators)
        assert system.bending_image(full) == [system.longest_element()]


def test_bending_image_rightangled_is_single_mask():
    ra = rightangled(4)
    assert ra.bending_image({0, 2}) == [0b0101]


def test_bending_image_rejects_bad_generator():
    with pytest.raises(ValueError):
        symmetric(3).bending_image({5})


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


def test_adjacent_chambers_share_a_panel():
    for system in (symmetric(4), rightangled(3)):
        cc = coxeter_complex(system)
        k = system.num_generators
        for w in system.elements():
            for s in system.generators:
                other = cc.chamber_of[system.right_multiply(w, s)]
                shared = set(cc.chamber_of[w]) & set(other)
                assert len(shared) == k - 1


def test_rank_low_systems_have_no_wall_panels():
    # rank 1: two chambers, each a single vertex, so no panel carries a wall
    for system in (symmetric(2), rightangled(1)):
        cc = coxeter_complex(system)
        assert len(cc.chamber_of) == len(cc.complex.facets) == 2
        assert cc.complex.dimension == 0
