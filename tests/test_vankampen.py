"""The mod-2 obstruction pipeline, from cell pairs to verdicts.

The program reads crossing parity off the vertex order on the moment
curve.  An exact ``Fraction`` solve of the incidence system, kept here as
a test-only oracle, is checked against pictures one can draw (segment
crossings, a point inside a triangle) and then against the interlacing
rule on random cells of the moment curve.  Verdict-level cases are the
classics: complete and complete bipartite graphs fail in the plane, cycles
fail on the line, and everything planar or collapsible comes out trivial.
Cocycle and certificate bits are pinned, so a change of the parity rule or
of the seeded parameters cannot pass unnoticed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from obstructor.complexes import (
    SimplicialComplex,
    cycle_complex,
    double_over,
    full_simplex,
    join,
    octahedralize,
    path_complex,
    points_complex,
)
from obstructor.errors import ResourceLimitError
from obstructor.homology import cycle_basis
from test_gf2 import rref_kernel_basis, rref_solve
from obstructor.vankampen import (
    AdosReport,
    CellPair,
    _disjoint_pairs,
    _seeded_values,
    configuration_space,
    is_trivial,
    obstruction_cocycle,
    pair_intersection_parity,
    verify_ados,
)


def k33() -> SimplicialComplex:
    return join(points_complex(3), points_complex(3))


def k5() -> SimplicialComplex:
    return SimplicialComplex(list(combinations(range(5), 2)))


def relabel(k: SimplicialComplex, perm) -> SimplicialComplex:
    return SimplicialComplex(
        [tuple(perm[v] for v in f) for f in k.facets], num_vertices=k.num_vertices
    )


# -- cell pairs and the configuration space --------------------------


def test_cell_pair_canonical_order():
    p = CellPair.make((3, 4), (0, 1))
    assert p == CellPair((0, 1), (3, 4))
    assert p.cell_dim == 2
    with pytest.raises(ValueError):
        CellPair.make((0, 1), (1, 2))


def test_configuration_space_of_two_disjoint_edges():
    k = SimplicialComplex([(0, 1), (2, 3)])
    cfg = configuration_space(k, 1)
    assert {d: len(c) for d, c in cfg.cells.items()} == {0: 6, 1: 4, 2: 1}
    assert cfg.cells[2] == (CellPair((0, 1), (2, 3)),)
    # the single square cell has four boundary edges
    assert cfg.boundary[2].column(0).weight() == 4
    assert (cfg.boundary[1] @ cfg.boundary[2]).is_zero()


def layer_sizes(k: SimplicialComplex, n: int) -> dict[int, int]:
    return {d: len(c) for d, c in configuration_space(k, n).cells.items()}


def test_configuration_space_cell_counts():
    assert layer_sizes(k33(), 1) == {0: 15, 1: 36, 2: 18}
    assert layer_sizes(k33(), 2) == {1: 36, 2: 18, 3: 0}
    assert layer_sizes(cycle_complex(5), 1) == {0: 10, 1: 15, 2: 5}
    assert layer_sizes(k5(), 1) == {0: 10, 1: 30, 2: 15}
    assert layer_sizes(k5(), 2) == {1: 30, 2: 15, 3: 0}


def test_configuration_space_deterministic_and_sorted():
    a = configuration_space(k33(), 1)
    b = configuration_space(k33(), 1)
    assert a.cells == b.cells
    assert a.boundary[2].row_bits == b.boundary[2].row_bits
    for layer in a.cells.values():
        assert list(layer) == sorted(layer)


def test_configuration_space_validation():
    for n in (-1, 0):
        with pytest.raises(ValueError):
            configuration_space(k33(), n)
    with pytest.raises(ResourceLimitError):
        configuration_space(k33(), 2, max_cells=10)


def test_cell_budget_is_enforced_during_enumeration():
    # Layer 0, the lowest layer of the window in R^1, alone holds about
    # two million pairs; none of them may be built past the budget.
    k = points_complex(2000)
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        configuration_space(k, 1, max_cells=10)
    assert time.perf_counter() - started < 1.0


def test_disjoint_pairs_brute_force_oracle():
    k = k33()
    edges = k.faces(1)
    expected = sum(
        1 for e, f in combinations(edges, 2) if not set(e) & set(f)
    )
    assert len(list(_disjoint_pairs(k, 2))) == expected == 18


def brute_force_cells(k: SimplicialComplex) -> dict[int, list[CellPair]]:
    """Every disjoint pair of faces, by cell dimension, in sorted order."""
    faces = list(k.all_faces())
    out: dict[int, list[CellPair]] = {}
    for s, t in combinations(faces, 2):
        if not set(s) & set(t):
            cell = CellPair.make(s, t)
            out.setdefault(cell.cell_dim, []).append(cell)
    return {d: sorted(cells) for d, cells in out.items()}


def is_cell_facet(lower: CellPair, upper: CellPair) -> bool:
    a, b = map(set, lower)
    s, t = map(set, upper)
    return lower.cell_dim + 1 == upper.cell_dim and (a <= s and b <= t or a <= t and b <= s)


@st.composite
def small_complexes(draw):
    v = draw(st.integers(2, 7))
    face = st.lists(st.integers(0, v - 1), min_size=1, max_size=4, unique=True)
    faces = draw(st.lists(face, min_size=1, max_size=10))
    return SimplicialComplex(faces)


@settings(max_examples=60, deadline=None)
@given(small_complexes(), st.integers(1, 4))
def test_window_is_three_layers_of_the_brute_force_enumeration(k, n):
    cfg = configuration_space(k, n)
    brute = brute_force_cells(k)
    assert cfg.n == n and cfg.source is k
    assert {d: list(c) for d, c in cfg.cells.items()} == {d: brute.get(d, []) for d in (n - 1, n, n + 1)}
    assert set(cfg.boundary) == {n, n + 1}
    for d, matrix in cfg.boundary.items():
        assert (matrix.rows, matrix.cols) == (len(cfg.cells[d - 1]), len(cfg.cells[d]))
        for i, lower in enumerate(cfg.cells[d - 1]):
            for j, upper in enumerate(cfg.cells[d]):
                assert matrix.entry(i, j) == is_cell_facet(lower, upper)


# -- the exact oracle for crossing parity -----------------------------


def incidence_rows(cell: CellPair, coords, n: int) -> list[list[F]]:
    """The square affine system for conv(sigma) meet conv(tau).

    Unknowns: barycentric weights on sigma then on tau.  Rows: n coordinate
    balance equations, then one normalization per simplex.
    """
    s, t = cell
    rows = [[F(coords[v][c]) for v in s] + [-F(coords[v][c]) for v in t] for c in range(n)]
    rows.append([F(1)] * len(s) + [F(0)] * len(t))
    rows.append([F(0)] * len(s) + [F(1)] * len(t))
    return rows


def solve_square(rows: list[list[F]], rhs: list[F]) -> list[F]:
    """Exact solution of a square system; raises if singular."""
    m = len(rows)
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(m):
        sel = next((i for i in range(col, m) if work[i][col] != 0), None)
        if sel is None:
            raise AssertionError("singular incidence system")
        work[col], work[sel] = work[sel], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(m):
            if i != col and work[i][col] != 0:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[col])]
    return [work[i][m] for i in range(m)]


def exact_parity(coords, cell: CellPair) -> int:
    """1 iff the simplices cross: every barycentric weight is positive."""
    n = cell.cell_dim
    weights = solve_square(incidence_rows(cell, coords, n), [F(0)] * n + [F(1), F(1)])
    assert all(w != 0 for w in weights), "the points are not in general position"
    return 1 if all(w > 0 for w in weights) else 0


def moment_coords(params, n: int) -> list[tuple[F, ...]]:
    return [tuple(F(t) ** e for e in range(1, n + 1)) for t in params]


def test_crossing_segments():
    coords = [(0, 0), (1, 1), (1, 0), (0, 1)]
    assert exact_parity(coords, CellPair.make((0, 1), (2, 3))) == 1


def test_point_in_and_out_of_segment():
    inside = [(0,), (1,), (2,)]
    assert exact_parity(inside, CellPair.make((1,), (0, 2))) == 1
    outside = [(0,), (5,), (2,)]
    assert exact_parity(outside, CellPair.make((1,), (0, 2))) == 0


def test_point_in_and_out_of_triangle():
    inside = [(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))]
    assert exact_parity(inside, CellPair.make((3,), (0, 1, 2))) == 1
    outside = [(0, 0), (1, 0), (0, 1), (2, 2)]
    assert exact_parity(outside, CellPair.make((3,), (0, 1, 2))) == 0


def test_moment_curve_chords_cross_iff_parameters_interleave():
    params = (0, 1, 3, 7)
    coords = moment_coords(params, 2)
    for sigma, tau, crossing in (((0, 2), (1, 3), 1), ((0, 1), (2, 3), 0), ((0, 3), (1, 2), 0)):
        cell = CellPair.make(sigma, tau)
        assert pair_intersection_parity(params, cell) == exact_parity(coords, cell) == crossing


@st.composite
def complementary_cells(draw):
    n = draw(st.integers(1, 5))
    num_vertices = draw(st.integers(n + 2, n + 5))
    vertices = draw(st.permutations(range(num_vertices)))[: n + 2]
    split = draw(st.integers(1, n + 1))
    cell = CellPair.make(tuple(sorted(vertices[:split])), tuple(sorted(vertices[split:])))
    return num_vertices, cell


@settings(max_examples=200, deadline=None)
@given(complementary_cells(), st.integers(0, 1 << 32))
def test_interlacing_matches_the_exact_solve(drawn, seed):
    num_vertices, cell = drawn
    params = _seeded_values(seed, num_vertices)
    coords = moment_coords(params, cell.cell_dim)
    assert pair_intersection_parity(params, cell) == exact_parity(coords, cell)


# -- cocycles and verdicts -------------------------------------------


def test_k33_cocycle_has_odd_total_parity():
    # every generic drawing of this graph crosses an odd number of times
    cfg = configuration_space(k33(), 2)
    cocycle = obstruction_cocycle(cfg)
    assert cocycle.values.length == 18
    assert cocycle.values.weight() % 2 == 1
    for seed in (1, 2, 17):
        assert obstruction_cocycle(cfg, seed).values.weight() % 2 == 1


def test_map_is_reproducible_per_seed():
    cfg = configuration_space(k33(), 2)
    assert obstruction_cocycle(cfg, seed=7) == obstruction_cocycle(cfg, seed=7)
    assert obstruction_cocycle(cfg, seed=7) != obstruction_cocycle(cfg, seed=8)


def test_map_rejects_dimension_zero():
    with pytest.raises(ValueError):
        is_trivial(cycle_complex(5), 0)


def test_nonplanar_graphs_are_caught():
    v33 = is_trivial(k33(), 2)
    assert v33.nontrivial and v33.certificate_kind == "cycle"
    assert v33.certificate.weight() == 18  # the full deleted-product torus
    assert v33.certificate.dot(v33.cocycle.values) == 1
    v5 = is_trivial(k5(), 2)
    assert v5.nontrivial and v5.certificate.weight() == 15


def test_certificates_verify_by_substitution():
    cfg = configuration_space(k33(), 2)
    v = is_trivial(k33(), 2)
    assert cfg.boundary[2].apply(v.certificate).is_zero()
    t = is_trivial(cycle_complex(5), 2)
    assert t.trivial and t.certificate_kind == "cochain"
    cfg5 = configuration_space(cycle_complex(5), 2)
    image = cfg5.boundary[2].transpose().apply(t.certificate)
    assert image == t.cocycle.values


def octahedral_sphere() -> SimplicialComplex:
    return octahedralize(full_simplex(3))


def doubled_octahedral_sphere() -> SimplicialComplex:
    sphere = octahedral_sphere()
    return double_over(sphere, sphere.facets[0])


# (complex, n, seed, cocycle bits, certificate bits), recorded from the
# exact Fraction solve that the interlacing rule replaced.
PINNED = [
    (k33, 2, 0, 0xBA00, 0x3FFFF),
    (k33, 2, 1, 0x1305, 0x3FFFF),
    (k33, 2, 17, 0xB005, 0x3FFFF),
    (k5, 2, 0, 0x202E, 0x7FFF),
    (k5, 2, 1, 0x2198, 0x7FFF),
    (k5, 2, 17, 0x2198, 0x7FFF),
    (lambda: cycle_complex(5), 2, 0, 0x2, 0x4),
    (lambda: cycle_complex(5), 2, 1, 0x0, 0x0),
    (lambda: cycle_complex(5), 2, 17, 0x0, 0x0),
    (octahedral_sphere, 2, 0, 0x130C0E00000190, 0x6224448F),
    (octahedral_sphere, 2, 1, 0x10042380050130, 0x6224448F),
    (octahedral_sphere, 2, 17, 0x130C0000050130, 0x6224448F),
    (doubled_octahedral_sphere, 4, 0, 0x88004050000044000000FF0000, (1 << 108) - 1),
    (doubled_octahedral_sphere, 4, 1, 0x8009000000000000002130, (1 << 108) - 1),
    (doubled_octahedral_sphere, 4, 17, 0x2000000AA0A000000000021, (1 << 108) - 1),
]


@pytest.mark.parametrize("make, n, seed, cocycle, certificate", PINNED)
def test_cocycle_and_certificate_bits_are_pinned(make, n, seed, cocycle, certificate):
    v = is_trivial(make(), n, seed)
    assert v.cocycle.values.bits == cocycle
    assert v.certificate.bits == certificate


def assert_certificate_matches_the_rref_oracle(k: SimplicialComplex, n: int, seed: int) -> None:
    """The certificate is the first kernel vector of the reduced echelon
    form of the boundary that pairs to 1, else the free-variables-zero
    solution of the coboundary system.  The verdict carries the layer
    its certificate indexes."""
    cfg = configuration_space(k, n)
    cocycle = obstruction_cocycle(cfg, seed).values
    boundary = cfg.boundary[n]
    expected = next((z for z in rref_kernel_basis(boundary) if z.dot(cocycle)), None)
    kind, layer = "cycle", cfg.cells[n]
    if expected is None:
        expected, kind, layer = rref_solve(boundary.transpose(), cocycle), "cochain", cfg.cells[n - 1]
    v = is_trivial(k, n, seed)
    assert (v.certificate_kind, v.certificate) == (kind, expected)
    assert v.cocycle.values == cocycle
    assert v.certificate_cells == layer


@st.composite
def small_graphs(draw):
    v = draw(st.integers(2, 7))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(v), 2))), min_size=1, unique=True))
    return SimplicialComplex(edges, num_vertices=v)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.sampled_from([1, 2]), st.integers(0, 1 << 16))
def test_graph_certificates_match_the_rref_oracle(graph, n, seed):
    assert_certificate_matches_the_rref_oracle(graph, n, seed)


def _octahedral(m: int) -> SimplicialComplex:
    return octahedralize(full_simplex(m))


# Complexes with a known answer in R^4: the first three do not embed.
RP2_6 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5), (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
TORUS_7 = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
KNOWN_R4 = {
    "skeleton_2_of_6_simplex": (lambda: SimplicialComplex(combinations(range(7), 3)), True),
    "K_3_3_3": (lambda: join(join(points_complex(3), points_complex(3)), points_complex(3)), True),
    "doubled_octahedral_2_sphere": (doubled_octahedral_sphere, True),
    "RP2_6": (lambda: SimplicialComplex(RP2_6), False),
    "torus_7": (lambda: SimplicialComplex(TORUS_7), False),
    "octahedral_2_sphere": (octahedral_sphere, False),
    "octahedral_3_sphere": (lambda: _octahedral(4), False),
}


@pytest.mark.parametrize("seed", [0, 1, 17])
@pytest.mark.parametrize("name", KNOWN_R4)
def test_known_r4_certificates_match_the_rref_oracle(name, seed):
    make, nontrivial = KNOWN_R4[name]
    k = make()
    assert is_trivial(k, 4, seed).nontrivial == nontrivial
    assert_certificate_matches_the_rref_oracle(k, 4, seed)


def test_cycles_do_not_embed_in_the_line():
    for m in (3, 4, 6):
        v = is_trivial(cycle_complex(m), 1)
        assert v.nontrivial
        assert v.certificate.weight() == m
    assert is_trivial(path_complex(4), 1).trivial
    assert is_trivial(points_complex(4), 1).trivial


def test_sphere_does_not_embed_in_the_plane():
    assert is_trivial(octahedralize(full_simplex(3)), 2).nontrivial


def test_planar_complexes_are_trivial():
    planar = [
        cycle_complex(5),
        cycle_complex(8),
        path_complex(6),
        full_simplex(3),
        SimplicialComplex([(0, 1), (1, 2), (1, 3), (3, 4)]),  # a tree
        SimplicialComplex([(0, 1, 2), (1, 2, 3)]),  # two triangles glued
    ]
    for k in planar:
        assert is_trivial(k, 2).trivial, k


def test_verdict_is_seed_independent_on_the_corpus():
    for k, n, expect in ((k33(), 2, True), (cycle_complex(5), 2, False)):
        for seed in (0, 1, 2, 17):
            v = is_trivial(k, n, seed)
            assert v.nontrivial == expect
            assert v.seed == seed


@settings(max_examples=20)
@given(st.permutations(list(range(6))))
def test_verdict_is_relabeling_invariant(perm):
    assert is_trivial(relabel(k33(), perm), 2).nontrivial


def test_is_trivial_resource_cap():
    with pytest.raises(ResourceLimitError):
        is_trivial(k33(), 2, max_cells=5)
    # In the plane the window of K33 holds 36 + 18 + 0 = 54 cells; its 15
    # cells of dimension 0 are neither built nor counted.
    assert is_trivial(k33(), 2, max_cells=60).nontrivial
    assert is_trivial(k33(), 2, max_cells=54).nontrivial
    with pytest.raises(ResourceLimitError):
        is_trivial(k33(), 2, max_cells=53)


@pytest.mark.parametrize("cap", [0, -1, -5])
def test_cell_budget_must_be_positive(cap):
    with pytest.raises(ValueError, match=f"max_cells must be positive, got {cap}"):
        is_trivial(k33(), 2, max_cells=cap)
    # refused before anything is enumerated: two million pairs are not built
    started = time.perf_counter()
    with pytest.raises(ValueError):
        configuration_space(points_complex(2000), 1, max_cells=cap)
    assert time.perf_counter() - started < 1.0


def test_configuration_boundary_check_survives_optimize(tmp_path):
    """The configuration space's d o d check is the one homology uses, and
    it holds with asserts stripped: each 3-cell here loses its first facet,
    so d_2 d_3 != 0 in the window of the 4-simplex in R^2, and the CLI
    reports it with exit code 4."""
    f = tmp_path / "simplex.json"
    f.write_text(json.dumps({"facets": [[0, 1, 2, 3, 4]]}))
    script = "\n".join([
        "import sys",
        "assert False, 'asserts are not stripped'",
        "from obstructor import vankampen",
        "from obstructor.cli import main",
        "from obstructor.complexes import full_simplex",
        "from obstructor.errors import CertificateError",
        "real = vankampen._cell_facets",
        "vankampen._cell_facets = lambda c: list(real(c))[c.cell_dim == 3:]",
        "try:",
        "    vankampen.is_trivial(full_simplex(5), 2)",
        "except CertificateError as exc:",
        "    print('caught:', exc)",
        "    sys.exit(main(['vk', sys.argv[1], '2']))",
        "sys.exit('no CertificateError')",
    ])
    res = subprocess.run(
        [sys.executable, "-O", "-c", script, str(f)], capture_output=True, text=True, timeout=300
    )
    assert "caught: boundary of boundary is nonzero in dimension 3" in res.stdout, res.stderr
    assert res.returncode == 4
    assert res.stderr == "error: boundary of boundary is nonzero in dimension 3\n"


# -- doubled-complex criterion ---------------------------------------


def test_ados_on_one_dimensional_complexes():
    looped = verify_ados(cycle_complex(5), (0, 1), 1)
    assert looped == AdosReport(True, True, True, looped.verdict)
    straight = verify_ados(path_complex(4), (2, 3), 1)
    assert (straight.lhs, straight.rhs, straight.agree) == (False, False, True)


def test_ados_on_two_dimensional_complexes():
    octa = octahedralize(full_simplex(3))
    top = verify_ados(octa, octa.facets[0], 2)
    assert (top.lhs, top.rhs, top.agree) == (True, True, True)
    strip = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    flat = verify_ados(strip, (0, 1, 2), 2)
    assert (flat.lhs, flat.rhs, flat.agree) == (False, False, True)


def test_ados_on_a_suspension():
    # suspending a square gives the octahedron with scrambled vertex ids
    susp = join(cycle_complex(4), points_complex(2))
    tri = susp.faces(2)[0]
    report = verify_ados(susp, tri, 2)
    assert (report.lhs, report.rhs, report.agree) == (True, True, True)


def test_ados_validation():
    with pytest.raises(ValueError):
        verify_ados(cycle_complex(3), (0, 1), 1)  # not flag
    with pytest.raises(ValueError):
        verify_ados(cycle_complex(5), (0, 1), 2)  # wrong k
    with pytest.raises(ValueError):
        verify_ados(cycle_complex(5), (0, 2), 1)  # delta is not a face
    with pytest.raises(ValueError):
        verify_ados(cycle_complex(5), (0,), 1)  # delta below top dimension
    with pytest.raises(ValueError):
        verify_ados(cycle_complex(4), (), 1)  # empty delta


def test_why_the_doubling_simplex_must_be_top_dimensional():
    """Doubling a 4-cycle over a vertex stays planar although b1 = 1, so
    the equivalence genuinely needs a top-dimensional doubling simplex;
    over an edge the double is K33 and the obstruction shows up."""
    vertex_double = double_over(cycle_complex(4), (0,))
    assert is_trivial(vertex_double, 2).trivial
    edge_double = double_over(cycle_complex(4), (0, 1))
    assert edge_double.face_counts() == (6, 9)
    assert is_trivial(edge_double, 2).nontrivial


def test_bridge_edges_break_the_doubling_equivalence():
    """Even a top-dimensional doubling simplex is not enough: doubling a
    bridge edge can leave the complex embeddable while b1 >= 1.  A 4-cycle
    plus a disjoint edge, doubled over the disjoint edge, is a 4-cycle
    plus a square: plainly planar.  Same story for a pendant edge hanging
    off the cycle.  Doubling an edge that lies ON the cycle does obstruct.
    These are the smallest counterexamples (6 and 5 vertices; an
    exhaustive sweep finds none on <= 4 vertices), and they are why the
    acceptance sweep over all small graphs reports honest disagreements."""
    split = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)], num_vertices=6)
    far = verify_ados(split, (4, 5), 1)
    assert (far.lhs, far.rhs, far.agree) == (False, True, False)
    assert is_trivial(double_over(split, (4, 5)), 2).trivial
    on_cycle = verify_ados(split, (1, 2), 1)
    assert (on_cycle.lhs, on_cycle.rhs, on_cycle.agree) == (True, True, True)

    pendant = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    dangling = verify_ados(pendant, (0, 4), 1)
    assert (dangling.lhs, dangling.rhs, dangling.agree) == (False, True, False)


def test_cycle_membership_of_the_doubled_edge_is_not_sharp_either():
    """The bridge counterexamples suggest requiring the doubled edge to
    lie on a cycle, but that refinement fails in the other direction:
    hang a pendant edge on a degree-3 side vertex of K23 and double over
    the pendant.  The doubled vertex clone completes a K33, so the
    obstruction is nontrivial although the doubled edge lies on no cycle.
    The sharp law for graphs is planarity of the double itself."""
    graph = SimplicialComplex(
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (0, 5)]
    )
    report = verify_ados(graph, (0, 5), 1)
    assert report.lhs and report.rhs and report.agree
    spot = graph.faces(1).index((0, 5))
    assert all(v[spot] == 0 for v in cycle_basis(graph, 1))


def test_doubled_graph_obstructs_exactly_when_nonplanar():
    """The sharp law for graphs, over the acceptance sweep's 250 doubled
    edges (59 triangle-free classes on 2-6 vertices): the doubled edge
    obstructs iff the double is nonplanar.  This pins the off-cycle edges
    that the doubling laws of acceptance criterion 3 leave open."""
    nx = pytest.importorskip("networkx")
    from test_acceptance import triangle_free_representatives

    checked = 0
    for n in range(2, 7):
        for graph in triangle_free_representatives(n):
            for edge in graph.faces(1):
                double = double_over(graph, edge)
                plane = nx.Graph()
                plane.add_nodes_from(range(double.num_vertices))
                plane.add_edges_from(double.faces(1))
                planar, _ = nx.check_planarity(plane)
                assert verify_ados(graph, edge, 1).lhs == (not planar), (graph.facets, edge)
                checked += 1
    assert checked == 250


def test_plane_verdict_is_planarity_on_the_graph_atlas():
    """Hanani-Tutte: a graph embeds in the plane iff its mod-2 van Kampen
    obstruction vanishes.  Every graph of the atlas (all graphs on at most
    7 vertices, up to isomorphism) with an edge."""
    nx = pytest.importorskip("networkx")
    checked = 0
    for g in nx.graph_atlas_g():
        if g.number_of_edges() == 0:
            continue
        k = SimplicialComplex(g.edges(), num_vertices=g.number_of_nodes())
        assert is_trivial(k, 2).trivial == nx.check_planarity(g)[0], sorted(g.edges())
        checked += 1
    assert checked == 1245
