"""Z/2 homology against hand-computable spaces.

Spheres, cones, and disjoint unions have Betti numbers one can write down
without any rank computation, so they make honest oracles.  The Euler
characteristic identity is checked as an independent consistency relation:
it ties the face counts (pure combinatorics) to the Betti numbers (linear
algebra) through two unrelated code paths.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from itertools import combinations
from unittest import mock

from hypothesis import example, given, strategies as st

from obstructor.building import build, opp_complex, standard_flag
from obstructor.complexes import (
    SimplicialComplex,
    cycle_complex,
    full_simplex,
    join,
    octahedralize,
    path_complex,
    points_complex,
)
from obstructor import gf2, homology
from obstructor.gf2 import GF2Matrix, GF2Vector
from obstructor.homology import _boundary, _ranks, betti, betti_numbers, cycle_basis

from gf2_helpers import TaggedReduction, reverse


def sphere_via_boundary(n: int) -> SimplicialComplex:
    """Boundary of the solid (n+1)-simplex: a triangulated n-sphere."""
    return SimplicialComplex(list(combinations(range(n + 2), n + 1)))


def opp(q: int, n: int) -> SimplicialComplex:
    b = build(q, n)
    return opp_complex(b, standard_flag(b))


def small_complexes(max_vertices: int = 6):
    vertex = st.integers(0, max_vertices - 1)
    face = st.sets(vertex, min_size=1, max_size=max_vertices).map(tuple)
    return st.lists(face, min_size=1, max_size=8).map(SimplicialComplex)


# -- frozen oracles --------------------------------------------------


def test_point_and_discrete_sets():
    assert betti_numbers(points_complex(1)) == (1,)
    assert betti_numbers(points_complex(4)) == (4,)


def test_paths_are_contractible():
    for n in (1, 2, 5):
        assert betti_numbers(path_complex(n)) == (1, 0)


def test_cycles_are_circles():
    for n in (3, 4, 5, 8):
        assert betti_numbers(cycle_complex(n)) == (1, 1)


def test_solid_simplices_are_contractible():
    for n in (1, 2, 3, 5):
        bn = betti_numbers(full_simplex(n))
        assert bn[0] == 1 and all(b == 0 for b in bn[1:])


def test_simplex_boundary_spheres():
    for n in (1, 2, 3):
        bn = betti_numbers(sphere_via_boundary(n))
        expected = tuple(1 if k in (0, n) else 0 for k in range(n + 1))
        assert bn == expected


def test_octahedral_spheres():
    # octahedralizing a solid simplex on m vertices gives an (m-1)-sphere
    assert betti_numbers(octahedralize(full_simplex(2))) == (1, 1)
    assert betti_numbers(octahedralize(full_simplex(3))) == (1, 0, 1)
    assert betti_numbers(octahedralize(full_simplex(4))) == (1, 0, 0, 1)


def test_cones_are_acyclic():
    apex = points_complex(1)
    for base in (cycle_complex(5), octahedralize(full_simplex(3)), points_complex(3)):
        bn = betti_numbers(join(base, apex))
        assert bn[0] == 1 and all(b == 0 for b in bn[1:])


def test_suspension_shifts_the_circle():
    # join with two points suspends: S^1 becomes S^2
    assert betti_numbers(join(cycle_complex(4), points_complex(2))) == (1, 0, 1)


def test_complete_bipartite_graph_loops():
    k33 = join(points_complex(3), points_complex(3))
    # connected, 9 edges, 6 vertices: b1 = 9 - 6 + 1
    assert betti_numbers(k33) == (1, 4)


def test_disjoint_union_adds_components():
    two_cycles = SimplicialComplex(
        [(i, (i + 1) % 4) for i in range(4)]
        + [(4 + i, 4 + (i + 1) % 3) for i in range(3)]
    )
    assert betti_numbers(two_cycles) == (2, 2)


def test_out_of_range_dimensions_are_zero():
    k = cycle_complex(4)
    assert betti(k, -1) == 0
    assert betti(k, 2) == 0
    assert cycle_basis(k, 5) == []


def test_empty_complex():
    assert betti_numbers(SimplicialComplex([])) == (0,)


# -- boundary maps ---------------------------------------------------


def test_boundary_shapes_and_composition():
    k = octahedralize(full_simplex(3))
    assert [len(k.faces(d)) for d in range(4)] == [6, 12, 8, 0]
    boundary = {d: _boundary(k, d) for d in (1, 2, 3)}
    assert (boundary[1].rows, boundary[1].cols) == (6, 12)
    assert (boundary[2].rows, boundary[2].cols) == (12, 8)
    assert (boundary[3].rows, boundary[3].cols) == (8, 0)
    # Bit i of a column is the i-th face below, so a column is its chain.
    assert all(boundary[1].apply(GF2Vector(12, c)).is_zero() for c in boundary[2].columns)


@given(small_complexes())
@example(octahedralize(full_simplex(3)))
def test_boundary_entries_are_the_incidence(k):
    """Column j of each map, read as the image of the j-th unit vector, holds
    exactly the faces s - {v} of the j-th face s; a vertex has none.  The
    rows run in descending face order, so face i is row rows-1-i."""
    for d in range(k.dimension + 1):
        below = {f: len(k.faces(d - 1)) - 1 - i for i, f in enumerate(k.faces(d - 1))}
        m = _boundary(k, d)
        assert (m.rows, m.cols) == (len(below), len(k.faces(d)))
        for j, s in enumerate(k.faces(d)):
            image = m.apply(GF2Vector(m.cols, 1 << j)).support()
            drops = {below[tuple(u for u in s if u != v)] for v in s} if d > 0 else set()
            assert image == tuple(sorted(drops)), (d, s)


@given(small_complexes())
@example(opp(2, 4))
@example(opp(3, 4))
def test_clearing_keeps_the_ranks(k):
    """Ranks read with clearing equal those of the whole maps, and the Betti
    numbers they give sum to the Euler characteristic of the face counts."""
    top = max(k.dimension, 0)
    whole = {d: _boundary(k, d).rank() for d in range(top + 1, -1, -1)}
    assert _ranks(k, -1, top + 1) == whole
    bn = betti_numbers(k)
    assert bn == tuple(len(k.faces(d)) - whole[d] - whole[d + 1] for d in range(top + 1))
    assert sum((-1) ** d * b for d, b in enumerate(bn)) == k.euler_characteristic()


def test_clearing_skips_the_pivots_one_dimension_up(monkeypatch):
    """Opp(C) at q=2 n=4: each map is reduced without the columns that are
    pivots of the map above, so it reads faces(d) - rank boundary[d+1]."""
    k, read = opp(2, 4), []

    def counted(columns):
        read.append(list(columns))
        return gf2.pivot_bits(read[-1])

    monkeypatch.setattr(homology, "pivot_bits", counted)
    ranks = _ranks(k, -1, k.dimension + 1)
    assert [len(c) for c in read] == [len(k.faces(d)) - ranks.get(d + 1, 0) for d in range(k.dimension + 1, -1, -1)]
    assert [len(c) for c in read] == [0, 64, 96 - 63, 32 - 31]


@given(small_complexes())
@example(opp(2, 4))
def test_ranks_stream_the_faces_in_colex_order(k):
    """The ranks read each map with both layers in colex order (sorted by
    reversed tuple): the top map streams every column, and column j is the
    boundary of the j-th top face, bit i the i-th face below."""
    read = []

    def recorded(columns):
        read.append(list(columns))
        return gf2.pivot_bits(read[-1])

    with mock.patch.object(homology, "pivot_bits", recorded):
        _ranks(k, -1, k.dimension)
    top, below = (sorted(k.faces(d), key=lambda f: f[::-1]) for d in (k.dimension, k.dimension - 1))
    index = {f: i for i, f in enumerate(below)}
    want = [sum(1 << index[f] for f in combinations(s, k.dimension)) if k.dimension else 0 for s in top]
    assert read[0] == want


@given(small_complexes())
@example(octahedralize(full_simplex(3)))
@example(opp(2, 4))
def test_cycle_basis_is_the_tagged_kernel_in_face_order(k):
    """The kernel does not depend on the row order: the tagged reduction of
    each map with its rows in face order, row 0 the first face, gives the
    same cycle basis."""
    for d in range(k.dimension + 1):
        m = _boundary(k, d)
        face_order = GF2Matrix(m.rows, m.cols, [reverse(c, m.rows) for c in m.columns])
        assert cycle_basis(k, d) == TaggedReduction(face_order).kernel_basis()


def test_five_cycle_cycle_space():
    basis = cycle_basis(cycle_complex(5), 1)
    assert len(basis) == 1
    assert basis[0].weight() == 5  # the loop uses every edge


def test_cells_are_lexicographic():
    k = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    assert k.faces(2) == ((0, 1, 2), (1, 2, 3))
    assert k.faces(1)[0] == (0, 1)
    # cycle vectors are indexed by faces(d): a square with a pendant edge
    square = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    (cycle,) = cycle_basis(square, 1)
    assert [square.faces(1)[i] for i in cycle.support()] == [(0, 1), (0, 3), (1, 2), (2, 3)]


# -- structural properties -------------------------------------------


@given(small_complexes())
def test_euler_characteristic_identity(k):
    bn = betti_numbers(k)
    alternating = sum((-1) ** d * b for d, b in enumerate(bn))
    assert alternating == k.euler_characteristic()


@given(small_complexes())
def test_cone_kills_all_homology(k):
    bn = betti_numbers(join(k, points_complex(1)))
    assert bn[0] == 1 and all(b == 0 for b in bn[1:])


@given(small_complexes())
def test_cycle_bases_are_cycles(k):
    """Each basis vector's d-faces cover every (d-1)-face an even number
    of times, counted directly from the vertex tuples."""
    assert len(cycle_basis(k, 0)) == len(k.faces(0))
    for d in range(1, k.dimension + 1):
        for v in cycle_basis(k, d):
            covered = Counter(f for i in v.support() for f in combinations(k.faces(d)[i], d))
            assert all(c % 2 == 0 for c in covered.values())


@given(small_complexes())
def test_betti_reads_its_own_window(k):
    full = betti_numbers(k)
    for d in range(-1, k.dimension + 2):
        assert betti(k, d) == (full[d] if 0 <= d < len(full) else 0)


def test_boundary_check_survives_optimize(tmp_path):
    """A boundary map with d o d != 0 is caught with asserts stripped, and
    the CLI reports it with exit code 4.  Each triangle here loses one edge
    from its boundary, so d(0,1,2) = (0,2) + (1,2) and dd(0,1,2) = v0 + v1."""
    f = tmp_path / "triangle.json"
    f.write_text(json.dumps({"facets": [[0, 1, 2]]}))
    script = "\n".join([
        "import sys",
        "assert False, 'asserts are not stripped'",
        "from obstructor import homology",
        "from obstructor.cli import main",
        "from obstructor.complexes import full_simplex",
        "from obstructor.errors import CertificateError",
        "real = homology.combinations",
        "homology.combinations = lambda s, d: list(real(s, d))[d == 2:]",
        "try:",
        "    homology.betti(full_simplex(3), 1)",
        "except CertificateError as exc:",
        "    print('caught:', exc)",
        "    sys.exit(main(['homology', sys.argv[1]]))",
        "sys.exit('no CertificateError')",
    ])
    res = subprocess.run(
        [sys.executable, "-O", "-c", script, str(f)], capture_output=True, text=True, timeout=300
    )
    assert "caught: boundary of boundary is nonzero in dimension 2" in res.stdout, res.stderr
    assert res.returncode == 4
    assert res.stderr == "error: boundary of boundary is nonzero in dimension 2\n"
