"""Simplicial complex construction, canonicalization, and the signed-vertex
operations (octahedralization / doubling), checked against brute-force
reconstructions that never call the functions under test.
"""

from __future__ import annotations

import io
import json
import re
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from obstructor.complexes import (
    SimplicialComplex,
    cycle_complex,
    double_over,
    dump_complex,
    from_json_dict,
    full_simplex,
    join,
    load_complex,
    octahedralize,
    path_complex,
    points_complex,
    signings,
    to_json_dict,
)
from obstructor.building import build, gaussian_binomial
from obstructor.coxeter import rightangled, symmetric
from obstructor.errors import ResourceLimitError
from obstructor.homology import betti
from obstructor.vankampen import verify_ados

from complex_helpers import complex_by_facet_walk, full_subcomplex, signed_complex_by_signings


def small_complexes(max_vertices: int = 6):
    """Hypothesis strategy: arbitrary complexes on at most ``max_vertices``."""
    vertex = st.integers(0, max_vertices - 1)
    face = st.sets(vertex, min_size=1, max_size=max_vertices).map(tuple)
    return st.lists(face, min_size=1, max_size=8).map(SimplicialComplex)


# -- canonicalization ------------------------------------------------


def test_nested_faces_are_dropped():
    k = SimplicialComplex([(0, 1, 2), (0, 1), (2,), (0, 1, 2)])
    assert k.facets == ((0, 1, 2),)
    assert k.num_vertices == 3


def test_facets_sorted_and_vertices_sorted():
    k = SimplicialComplex([(2, 1), (1, 0)])
    assert k.facets == ((0, 1), (1, 2))


def test_gap_vertices_become_singletons():
    k = SimplicialComplex([(0, 3)])
    assert k.num_vertices == 4
    assert k.facets == ((0, 3), (1,), (2,))


def test_explicit_num_vertices_adds_isolated():
    k = SimplicialComplex([(0, 1)], num_vertices=3)
    assert k.facets == ((0, 1), (2,))
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 5)], num_vertices=3)


def test_vertex_validation():
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 0)])
    with pytest.raises(ValueError):
        SimplicialComplex([(-1, 0)])


@given(st.data())
def test_facet_order_and_repeats_do_not_change_the_complex(data):
    """Shuffled or repeated input facets give the same facets, vertex count
    and labels, whatever order duplicates are dropped in."""
    faces = data.draw(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=4).map(tuple), min_size=1, max_size=8))
    labels = [f"v{i}" for i in range(max(v for f in faces for v in f) + 1)]
    k = SimplicialComplex(faces, labels=labels)
    shuffled = data.draw(st.permutations(faces + data.draw(st.lists(st.sampled_from(faces), max_size=4))))
    again = SimplicialComplex([tuple(reversed(f)) for f in shuffled], labels=labels)
    assert (again.facets, again.num_vertices, again.labels) == (k.facets, k.num_vertices, k.labels)


def test_one_shot_facets_are_read_once():
    k = SimplicialComplex([iter([0, 1]), iter([1, 2])])
    assert k.facets == ((0, 1), (1, 2))
    assert k.num_vertices == 3
    assert SimplicialComplex([iter(()), (0,)]).facets == ((0,),)


CONTAINERS = {"list": list, "tuple": tuple, "set": set, "generator": lambda vs: (v for v in vs)}


@st.composite
def facet_inputs(draw):
    """Facets as (container, vertices): duplicates, nested faces and mixed
    lengths, now and then a repeated vertex, a negative id, or a vertex
    that does not compare with an int; with or without labels and a
    vertex count, which may not match."""
    good = st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True)
    bad = st.one_of(
        st.lists(st.integers(0, 7), min_size=2, max_size=4).filter(lambda vs: len(set(vs)) < len(vs)),
        st.lists(st.integers(-2, 7), min_size=1, max_size=4, unique=True).filter(lambda vs: min(vs) < 0),
        st.lists(st.integers(0, 7), max_size=3, unique=True).map(lambda vs: vs + ["a"]),
    )
    faces = draw(st.lists(st.one_of(good, good, good, bad, st.just([])), max_size=10))
    for _ in range(draw(st.integers(0, 4))):
        if faces:
            f = draw(st.sampled_from(faces))
            faces.append(draw(st.permutations(f)) if draw(st.booleans()) else f[: draw(st.integers(0, len(f)))])
    faces = draw(st.permutations(faces))
    specs = [(draw(st.sampled_from(sorted(CONTAINERS))), f) for f in faces]
    labels = draw(st.none() | st.integers(0, 10).map(lambda n: [f"v{i}" for i in range(n)]))
    return specs, labels, draw(st.none() | st.integers(0, 10)), draw(st.booleans())


def _outcome(build):
    try:
        return build()
    except Exception as e:
        return type(e), str(e)


@settings(deadline=None)
@given(facet_inputs())
@example(([("list", [0, 0]), ("list", [1, "a"])], None, None, False))
@example(([("tuple", [-1, 2]), ("set", [3, "a"])], None, None, True))
@example(([("list", [1, "a"]), ("list", [0, 0])], None, None, False))
@example(([("generator", [2, 0]), ("generator", [1, 1])], ["x", "y", "z"], None, True))
@example(([("list", [0, 1, 2]), ("tuple", [1, 2]), ("set", [4]), ("list", [2, 0, 1])], None, 6, False))
def test_bulk_canonicalization_matches_the_facet_walk(spec):
    """Whatever the facets, their containers and the outer iterable, the
    constructor gives the facet walk's facets, vertex count and labels, or
    raises the same exception with the same message."""
    specs, labels, num_vertices, one_shot = spec

    def facets():
        made = (CONTAINERS[kind](vs) for kind, vs in specs)
        return made if one_shot else list(made)

    def build():
        k = SimplicialComplex(facets(), labels=labels, num_vertices=num_vertices)
        return k.facets, k.num_vertices, k.labels

    assert _outcome(build) == _outcome(lambda: complex_by_facet_walk(facets(), labels, num_vertices))


@pytest.mark.parametrize("bad", [(float("nan"), 0), (0, float("nan")), (float("nan"), float("nan"))])
def test_a_facet_whose_vertices_do_not_order_is_named(bad):
    """NaN compares false both ways, so its facet fails the order check with
    no repeated vertex: it is refused by name, where it and every facet after
    it were once dropped without a word."""
    with pytest.raises(ValueError, match=r"^simplex \(.*nan.*\) has vertices that are not totally ordered$"):
        SimplicialComplex([(0, 1), bad, (1, 2)])
    with pytest.raises(ValueError, match="^simplex \\(1, 1\\) repeats vertex 1$"):
        SimplicialComplex([(0, 1), (1, 1), bad])


@pytest.mark.parametrize(
    "facets, named",
    [
        ([(0, 1), (float("nan"),), (1, 2)], "(nan,)"),
        ([(0, 1.5)], "(0, 1.5)"),
        ([(1, 2), (0.5,), (0, 0.5)], "(0.5,)"),
        ([(0, 1), (1.0, 2)], "(1.0, 2)"),
        ([(0, 1), (1, 2), (1.0, 2)], "(1.0, 2)"),
        ([(False, True), (True, 2)], "(False, True)"),
    ],
)
def test_a_vertex_that_is_not_an_int_is_refused_by_its_facet(facets, named):
    """A one-vertex facet passes every order check, and a float sorts among
    ints, so every vertex of the input is checked by type, and the first
    input facet that holds one that is not an int is named: a float equal to
    an int id, as 1.0 is to 1, is refused too, even in a facet that equals an
    earlier int facet.  A bool is refused as well: ids are exactly ints, as
    the JSON loader requires, so every accepted complex round-trips."""
    with pytest.raises(ValueError, match=f"^simplex {re.escape(named)} has a vertex that is not an int$"):
        SimplicialComplex(facets)


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param(lambda: cycle_complex(5).vertex_label(1.0), "vertex 1.0 out of range", id="float-vertex-label"),
        pytest.param(lambda: cycle_complex(5).vertex_label(True), "vertex True out of range", id="bool-vertex-label"),
        pytest.param(lambda: double_over(cycle_complex(4), (False, True)), "simplex (False, True) has a vertex that is not an int",
                     id="bool-delta"),
        pytest.param(lambda: SimplicialComplex([(0,)], num_vertices=True), "num_vertices must be an int, got True",
                     id="bool-num-vertices"),
        pytest.param(lambda: SimplicialComplex([(0,)], num_vertices=3.0), "num_vertices must be an int, got 3.0",
                     id="float-num-vertices"),
        pytest.param(lambda: SimplicialComplex([(0,)], num_vertices="3"), "num_vertices must be an int, got '3'",
                     id="str-num-vertices"),
    ],
)
def test_an_id_that_is_not_exactly_an_int_is_refused(bad, message):
    """A vertex id, and a vertex count, is exactly an int: a float or bool
    equal to one, or a numeral, is refused with ``ValueError``, not read as
    that vertex or count."""
    with pytest.raises(ValueError) as info:
        bad()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "facets, message",
    [
        ([(0, 1.5), (2, 2)], "simplex (0, 1.5) has a vertex that is not an int"),
        ([(2, 2), (0, 1.5)], "simplex (2, 2) repeats vertex 2"),
        ([(0, 1), (-1, 2), (0.5,)], "negative vertex id in (-1, 2)"),
        ([(1.0,), (0, 0), (-1,)], "simplex (1.0,) has a vertex that is not an int"),
    ],
)
def test_the_first_bad_facet_in_input_order_is_named_whatever_its_fault(facets, message):
    with pytest.raises(ValueError) as info:
        SimplicialComplex(facets)
    assert str(info.value) == message


def test_vertex_count_resource_cap():
    with pytest.raises(ResourceLimitError):
        SimplicialComplex([], num_vertices=2_000_000)


def test_labels_must_match_vertex_count():
    k = SimplicialComplex([(0, 1)], labels=("a", "b"))
    assert k.vertex_label(1) == "b"
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 1)], labels=("a",))


@pytest.mark.parametrize("labels, v", [([0, 1, 2], 0), (["a", 1, "c"], 1), (("a", "b", None), 2), (["a", "b", b"c"], 2)])
def test_a_label_that_is_not_a_string_is_refused_by_its_vertex(labels, v):
    """A label that is not a string would break ``double_over``'s signed
    labels with a bare TypeError and make ``dump_complex`` write a file that
    ``load_complex`` refuses, so the constructor names it."""
    with pytest.raises(ValueError) as info:
        SimplicialComplex([(0, 1), (1, 2)], labels=labels)
    assert str(info.value) == f"label {labels[v]!r} of vertex {v} is not a string"
    k = SimplicialComplex([(0, 1), (1, 2)], labels=["0", "1", "2"])
    assert double_over(k, (0, 1)).labels == ("0-", "0+", "1-", "1+", "2-")
    written = io.StringIO()
    dump_complex(k, written)
    assert load_complex(io.StringIO(written.getvalue())).labels == k.labels


# -- basic queries ---------------------------------------------------


def test_face_counts_of_standard_complexes():
    assert cycle_complex(5).face_counts() == (5, 5)
    assert path_complex(4).face_counts() == (5, 4)
    assert points_complex(3).face_counts() == (3,)
    assert full_simplex(4).face_counts() == (4, 6, 4, 1)
    # octahedron = 3-fold octahedralized point set
    octa = octahedralize(full_simplex(3))
    assert octa.face_counts() == (6, 12, 8)
    assert octa.euler_characteristic() == 2


def test_dimension_and_empty():
    assert full_simplex(1).dimension == 0
    assert cycle_complex(4).dimension == 1
    empty = SimplicialComplex([])
    assert empty.num_vertices == 0
    assert empty.dimension == -1
    assert empty.face_counts() == ()


def test_has_face():
    k = SimplicialComplex([(0, 1, 2), (2, 3)])
    assert k.has_face((0, 2))
    assert k.has_face(())
    assert not k.has_face((0, 3))
    assert not k.has_face((1, 2, 3))


@pytest.mark.parametrize("simplex", [(0.0, 1), (True, 2), (1, 1.0), ("0",), (None, 1)])
def test_has_face_refuses_a_vertex_that_is_not_an_int(simplex):
    """0.0 == 0 and True == 1, so by equality these would be faces of C5."""
    with pytest.raises(ValueError, match=f"^simplex {re.escape(repr(simplex))} has a vertex that is not an int$"):
        cycle_complex(5).has_face(simplex)


@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached"])
@pytest.mark.parametrize("d", [1.0, True, "1", None])
def test_faces_refuses_a_dimension_that_is_not_an_int(d, cached):
    """Refused on a fresh complex and after ``faces(1)`` is cached, where
    1.0 and True would hash to the cached edges."""
    k = cycle_complex(5)
    if cached:
        assert len(k.faces(1)) == 5
    with pytest.raises(ValueError, match=f"^d must be an int, got {re.escape(repr(d))}$"):
        k.faces(d)


def test_faces_sorted_and_closed():
    k = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    tri = k.faces(2)
    assert tri == ((0, 1, 2), (1, 2, 3))
    for f in (f for d in range(k.dimension + 1) for f in k.faces(d)):
        for sub in combinations(f, len(f) - 1):
            if sub:
                assert k.has_face(sub)


def test_equality_ignores_labels():
    a = SimplicialComplex([(0, 1)], labels=("x", "y"))
    b = SimplicialComplex([(0, 1)])
    assert a == b and hash(a) == hash(b)


# -- flagness --------------------------------------------------------


def test_flag_examples():
    assert cycle_complex(4).is_flag()
    assert cycle_complex(5).is_flag()
    assert full_simplex(4).is_flag()
    assert points_complex(2).is_flag()
    # hollow triangle: 1-skeleton is a 3-clique but the triangle is missing
    assert not cycle_complex(3).is_flag()
    hollow = SimplicialComplex(list(combinations(range(4), 3)))
    assert not hollow.is_flag()


def is_flag_by_subsets(k: SimplicialComplex) -> bool:
    """The definition: every vertex set whose pairs are all edges is a face,
    by ``has_face`` on every subset of the vertices."""
    edges = set(k.faces(1))
    cliques = (
        s for r in range(k.num_vertices + 1) for s in combinations(range(k.num_vertices), r)
        if all(e in edges for e in combinations(s, 2))
    )
    return all(k.has_face(s) for s in cliques)


@given(small_complexes())
@example(SimplicialComplex([]))
@example(cycle_complex(3))
@example(SimplicialComplex([(0, 1, 2), (2, 3)], num_vertices=5))
@example(SimplicialComplex([(0, 1), (1, 2), (0, 2), (0, 1, 3)]))
def test_is_flag_matches_the_has_face_definition(k):
    assert k.is_flag() == is_flag_by_subsets(k)


@given(small_complexes())
def test_octahedralize_preserves_and_reflects_flagness(k):
    assert octahedralize(k).is_flag() == k.is_flag()


# -- subcomplexes and joins ------------------------------------------


def test_full_subcomplex_relabels():
    k = SimplicialComplex([(0, 1, 2), (2, 3)], labels=("a", "b", "c", "d"))
    sub = full_subcomplex(k, [1, 2, 3])
    assert sub.facets == ((0, 1), (1, 2))
    assert sub.labels == ("b", "c", "d")
    with pytest.raises(ValueError):
        full_subcomplex(k, [0, 9])


@given(small_complexes())
def test_full_subcomplex_on_everything_is_identity(k):
    assert full_subcomplex(k, range(k.num_vertices)) == k


def test_join_of_point_sets_is_complete_bipartite():
    k = join(points_complex(3), points_complex(3))
    assert k.face_counts() == (6, 9)
    assert k.faces(1) == tuple((a, b) for a in range(3) for b in range(3, 6))


def test_join_dimension_adds():
    a = cycle_complex(4)
    b = points_complex(2)
    assert join(a, b).dimension == a.dimension + b.dimension + 1


def test_join_with_empty_is_identity():
    k = cycle_complex(4)
    e = SimplicialComplex([])
    assert join(k, e) == k
    assert join(e, k) == k


@pytest.mark.parametrize(
    "make, n",
    [(cycle_complex, 5_000_000), (path_complex, 1_000_000), (points_complex, 1_000_001), (full_simplex, 100_000_000)],
)
def test_generators_refuse_too_many_vertices_before_building(make, n):
    """Past 1,000,000 vertices the generators refuse at once: no simplex
    is built first.  A path with n edges has n + 1 vertices."""
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="vertices is beyond any supported scale"):
        make(n)
    assert time.perf_counter() - started < 0.1


def test_join_refuses_too_many_facets_before_building():
    """2,002,000 joined facets pass the 2,000,000 cap and are counted, not built."""
    a, b = points_complex(2000), points_complex(1001)
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="2000 x 1001 joined facets exceeds cap 2000000"):
        join(a, b)
    assert time.perf_counter() - started < 0.1
    assert len(join(points_complex(2), points_complex(1001)).facets) == 2002


# -- octahedralization and doubling ----------------------------------


def test_octahedralize_counts_and_labels():
    k = SimplicialComplex([(0, 1)], labels=("p", "q"))
    o = octahedralize(k)
    assert o.num_vertices == 4
    assert o.labels == ("p-", "p+", "q-", "q+")
    assert o.facets == ((0, 2), (0, 3), (1, 2), (1, 3))  # a 4-cycle


def test_octahedralize_point_is_two_points():
    assert octahedralize(points_complex(1)).facets == ((0,), (1,))


@given(small_complexes())
def test_octahedralize_face_counts_scale_by_powers_of_two(k):
    o = octahedralize(k)
    for d in range(k.dimension + 1):
        assert len(o.faces(d)) == len(k.faces(d)) << (d + 1)


def test_signed_facet_cap_is_checked_before_building():
    """The 2^21 = 2,097,152 signings of a 20-simplex exceed
    ``DEFAULT_MAX_CELLS``; both constructions refuse them at once."""
    k = full_simplex(21)
    for build in (lambda: octahedralize(k), lambda: double_over(k, range(21))):
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            build()
        assert time.perf_counter() - started < 1.0


def test_signings_order_and_encoding():
    assert list(signings((1, 3, 4), {3, 4, 9})) == [(2, 6, 8), (2, 7, 8), (2, 6, 9), (2, 7, 9)]
    assert list(signings((0, 2), ())) == [(0, 4)]


def brute_force_double(k: SimplicialComplex, delta: tuple[int, ...]) -> SimplicialComplex:
    """Rebuild the doubling by scanning every signed vertex subset.

    A signed set is kept iff its base vertices are pairwise distinct, span a
    face of ``k``, and every plus vertex lies in ``delta``.  The constructor
    reduces the pile of faces to facets.
    """
    allowed = sorted([2 * v for v in range(k.num_vertices)] + [2 * v + 1 for v in delta])
    rename = {sv: i for i, sv in enumerate(allowed)}
    faces = []
    for r in range(1, len(allowed) + 1):
        for subset in combinations(allowed, r):
            bases = [sv // 2 for sv in subset]
            if len(set(bases)) == len(bases) and k.has_face(bases):
                faces.append(tuple(rename[sv] for sv in subset))
    return SimplicialComplex(faces, num_vertices=len(allowed))


def test_double_over_matches_brute_force():
    cases = [
        (cycle_complex(5), (0, 1)),
        (cycle_complex(4), ()),
        (path_complex(3), (1, 2)),
        (SimplicialComplex([(0, 1, 2), (2, 3)]), (0, 1, 2)),
        (points_complex(3), (2,)),
    ]
    for k, delta in cases:
        assert double_over(k, delta) == brute_force_double(k, delta)


def test_double_over_empty_delta_recovers_the_complex():
    for k in (cycle_complex(5), path_complex(2), full_simplex(3)):
        assert double_over(k, ()) == k


def test_double_over_rejects_non_faces():
    with pytest.raises(ValueError):
        double_over(cycle_complex(4), (0, 2))  # diagonal, not an edge


def test_double_over_refuses_a_delta_vertex_that_is_not_an_int():
    """0.0 == 0, so a float delta passes the face test; the double names it."""
    with pytest.raises(ValueError, match=r"^simplex \(0\.0, 1\) has a vertex that is not an int$"):
        double_over(cycle_complex(4), (0.0, 1))


def test_double_over_full_facet_contains_octahedralization_of_it():
    k = full_simplex(3)
    d = double_over(k, (0, 1, 2))
    assert d == octahedralize(k)


def test_double_over_matches_the_restricted_octahedralization_past_200_vertices():
    """The construction ``double_over`` replaced: octahedralize all of the
    complex, then keep every minus vertex and the plus vertices of delta."""
    k = cycle_complex(300)
    keep = [2 * v for v in range(300)] + [1, 3]
    oracle = full_subcomplex(octahedralize(k), keep)
    d = double_over(k, (0, 1))
    assert d == oracle and d.labels == oracle.labels
    assert d.num_vertices == 302 and len(d.facets) == 297 + 2 + 4 + 2  # sum of 2^{|e ∩ delta|}


@given(small_complexes(), st.booleans(), st.data())
def test_signed_complexes_match_the_signings_oracle(k, labelled, data):
    """``octahedralize`` and ``double_over`` give the facets, labels and
    vertex count that listing each facet's ``signings`` gives, with and
    without labels, doubling over any face."""
    if labelled:
        k = SimplicialComplex(k.facets, labels=[f"v{v}" for v in range(k.num_vertices)], num_vertices=k.num_vertices)
    facet = data.draw(st.sampled_from(k.facets))
    delta = data.draw(st.sets(st.sampled_from(facet)))
    for got, want in (
        (octahedralize(k), signed_complex_by_signings(k, range(k.num_vertices))),
        (double_over(k, delta), signed_complex_by_signings(k, delta)),
    ):
        assert (got.facets, got.labels, got.num_vertices) == (want.facets, want.labels, want.num_vertices)


@given(small_complexes(), st.booleans(), st.data())
def test_signed_complexes_are_what_the_public_constructor_makes_of_them(k, labelled, data):
    """``octahedralize`` and ``double_over`` skip the public constructor;
    given their facets backwards and their labels, it returns the same
    facets, vertex count and labels."""
    if labelled:
        k = SimplicialComplex(k.facets, labels=[f"v{v}" for v in range(k.num_vertices)], num_vertices=k.num_vertices)
    delta = data.draw(st.sets(st.sampled_from(data.draw(st.sampled_from(k.facets)))))
    for got in (octahedralize(k), double_over(k, delta)):
        want = SimplicialComplex(reversed(got.facets), labels=got.labels, num_vertices=got.num_vertices)
        assert (got.facets, got.num_vertices, got.labels) == (want.facets, want.num_vertices, want.labels)


# -- JSON interchange ------------------------------------------------


def test_json_round_trip_with_labels():
    k = octahedralize(cycle_complex(4))
    data = to_json_dict(k)
    back = from_json_dict(data)
    assert back == k and back.labels == k.labels


def test_dump_load_round_trip():
    k = SimplicialComplex([(0, 2), (1,)])
    buf = io.StringIO()
    dump_complex(k, buf)
    buf.seek(0)
    assert load_complex(buf) == k


@st.composite
def labelled_complexes(draw):
    """Any facets, the empty complex among them, labelled or not; labels
    are arbitrary text, quotes, newlines and non-ASCII included."""
    facets = draw(st.lists(st.sets(st.integers(0, 14), min_size=1, max_size=4).map(tuple), max_size=8))
    k = SimplicialComplex(facets)
    if draw(st.booleans()):
        k = SimplicialComplex(facets, labels=draw(st.lists(st.text(), min_size=k.num_vertices, max_size=k.num_vertices)))
    return k


@settings(deadline=None)
@given(labelled_complexes())
@example(SimplicialComplex([]))
@example(SimplicialComplex([], labels=[]))
@example(SimplicialComplex([(0, 1, 12), (2,)], labels=['say "hi"', "two\nlines", "caf\u00e9 \u2603", "\\", "", "\t"] + ["x"] * 7))
def test_dump_complex_writes_what_the_indenting_encoder_writes(k):
    written, expected = io.StringIO(), io.StringIO()
    dump_complex(k, written)
    json.dump(to_json_dict(k), expected, indent=2)
    assert written.getvalue() == expected.getvalue() + "\n"
    back = load_complex(io.StringIO(written.getvalue()))
    assert back == k and back.labels == k.labels


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        from_json_dict([1, 2])
    with pytest.raises(ValueError):
        from_json_dict({"faces": []})
    with pytest.raises(ValueError):
        from_json_dict({"facets": [[0, 1]], "extra": 1})
    with pytest.raises(ValueError):
        from_json_dict({"facets": "nope"})
    with pytest.raises(ValueError):
        from_json_dict({"facets": [[0, True]]})
    with pytest.raises(ValueError):
        from_json_dict({"facets": [[0, 1]], "labels": [1, 2]})
    with pytest.raises(ValueError):
        from_json_dict({"facets": [[0, 1]], "labels": ["only-one"]})


@pytest.mark.parametrize("facet", [[0, True], [False, 1], [0, 1.0], [2.5], [0, "3"], [None], (0, 1), {"v": 0}, 7, "01", None])
@pytest.mark.parametrize("i", [0, 1, 3])
def test_json_names_the_first_facet_that_is_not_a_list_of_ints(facet, i):
    """A bool or float vertex, or a facet that is not a list, is refused by
    its index, and the first bad facet is the one named."""
    facets = [[0, 1], [1, 2], [2, 3], [3, 4], [4, True]]
    facets[i] = facet
    with pytest.raises(ValueError) as info:
        from_json_dict({"facets": facets})
    assert str(info.value) == f"facet #{i} must be a list of integers, got {facet!r}"


def test_json_labels_pin_vertex_count():
    k = from_json_dict({"facets": [[0]], "labels": ["a", "b", "c"]})
    assert k.num_vertices == 3
    assert k.facets == ((0,), (1,), (2,))


# -- generator validation --------------------------------------------


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        cycle_complex(2)
    with pytest.raises(ValueError):
        path_complex(0)
    with pytest.raises(ValueError):
        points_complex(0)
    with pytest.raises(ValueError):
        full_simplex(0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: symmetric(3.0), "symmetric system size must be an int >= 2, got 3.0", id="symmetric-float"),
        pytest.param(lambda: rightangled(True), "rightangled system size must be an int >= 1, got True", id="rightangled-bool"),
        pytest.param(lambda: verify_ados(cycle_complex(5), (0, 1), True),
                     "k must be an int equal to the complex dimension 1, got True", id="verify-ados-bool-k"),
        pytest.param(lambda: build(2, 3.0), "ambient dimension must be an int >= 2, got 3.0", id="build-float-n"),
        pytest.param(lambda: build("2", 3), "q must be an int, got '2'", id="build-str-q"),
        pytest.param(lambda: cycle_complex(5.0), "cycle size must be an int >= 3, got 5.0", id="cycle-float"),
        pytest.param(lambda: cycle_complex(2), "cycle size must be an int >= 3, got 2", id="cycle-small"),
        pytest.param(lambda: path_complex("4"), "path length must be an int >= 1, got '4'", id="path-str"),
        pytest.param(lambda: points_complex(True), "point count must be an int >= 1, got True", id="points-bool"),
        pytest.param(lambda: full_simplex(2.0), "simplex size must be an int >= 1, got 2.0", id="simplex-float"),
        pytest.param(lambda: gaussian_binomial(3, 1.0, 2), "n and k must be ints, got 3 and 1.0", id="gaussian-float-k"),
        pytest.param(lambda: gaussian_binomial(3, 1, 2.0), "field size q must be an int >= 2, got 2.0", id="gaussian-float-q"),
        pytest.param(lambda: build(2, "3"), "ambient dimension must be an int >= 2, got '3'", id="build-str-n"),
        pytest.param(lambda: betti(cycle_complex(5), 1.0), "d must be an int, got 1.0", id="betti-float-dim"),
    ],
)
def test_a_size_that_is_not_exactly_an_int_is_refused(call, message):
    """A size is exactly an int: a float, bool or str is refused with
    ``ValueError``, not read as the int it equals or left to a bare
    ``TypeError`` further in."""
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
