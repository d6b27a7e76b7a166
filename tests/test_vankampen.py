"""The mod-2 obstruction pipeline, from cell pairs to verdicts.

The program reads crossing parity off the vertex order on the moment
curve, as a bit test on two rank masks per face.  An exact ``Fraction``
solve of the incidence system, kept here as a test-only oracle, is checked
against pictures one can draw (segment crossings, a point inside a
triangle) and then against the interlacing rule on random cells of the
moment curve; the former rule, which merged sorted parameter lists, is kept
here as the reference of the mask rule.  Verdict-level cases are the
classics: complete and complete bipartite graphs fail in the plane, cycles
fail on the line, and everything planar or collapsible comes out trivial.
Cocycle and certificate bits are pinned, so a change of the parity rule or
of the seeded parameters cannot pass unnoticed.  The enumeration of cell
pairs that the int cell keys replaced is kept here as an oracle: decoded
cells and boundary rows must equal what it builds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from itertools import combinations
from math import comb
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from obstructor import vankampen
from obstructor.building import build, opp_complex, standard_flag
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
from obstructor.errors import CertificateError, ResourceLimitError
from obstructor.gf2 import GF2Matrix, GF2Vector
from obstructor.homology import cycle_basis
from obstructor.vankampen import (
    AdosReport,
    CellPair,
    _seeded_values,
    configuration_space,
    is_trivial,
    obstruction_cocycle,
    pair_intersection_parity,
    verify_ados,
)

from gf2_helpers import column, entry, from_entries, transpose
from test_gf2 import rref_kernel_basis, rref_solve


def k33() -> SimplicialComplex:
    return join(points_complex(3), points_complex(3))


def k5() -> SimplicialComplex:
    return SimplicialComplex(list(combinations(range(5), 2)))


def cell_pair(a, b) -> CellPair:
    """The cell of two disjoint simplices, the smaller first."""
    if set(a) & set(b):
        raise ValueError(f"simplices {a} and {b} share vertices")
    return CellPair(a, b) if a < b else CellPair(b, a)


def decoded(cfg, d: int) -> tuple[CellPair, ...]:
    """Layer d of the window as cell pairs, ascending."""
    return tuple(map(cfg.decode, cfg.keys[d]))


def relabel(k: SimplicialComplex, perm) -> SimplicialComplex:
    return SimplicialComplex(
        [tuple(perm[v] for v in f) for f in k.facets], num_vertices=k.num_vertices
    )


# -- cell pairs and the configuration space --------------------------


def cell_dim(cell: CellPair) -> int:
    return len(cell.sigma) + len(cell.tau) - 2


def test_cell_pair_canonical_order():
    p = cell_pair((3, 4), (0, 1))
    assert p == CellPair((0, 1), (3, 4))
    assert cell_dim(p) == 2
    with pytest.raises(ValueError):
        cell_pair((0, 1), (1, 2))


def test_configuration_space_of_two_disjoint_edges():
    k = SimplicialComplex([(0, 1), (2, 3)])
    cfg = configuration_space(k, 1)
    assert {d: len(c) for d, c in cfg.keys.items()} == {0: 6, 1: 4, 2: 1}
    assert decoded(cfg, 2) == (CellPair((0, 1), (2, 3)),)
    # the single square cell has four boundary edges
    assert column(cfg.boundary[2], 0).weight() == 4
    assert (cfg.boundary[1] @ cfg.boundary[2]).is_zero()


def layer_sizes(k: SimplicialComplex, n: int) -> dict[int, int]:
    return {d: len(c) for d, c in configuration_space(k, n).keys.items()}


def test_configuration_space_cell_counts():
    assert layer_sizes(k33(), 1) == {0: 15, 1: 36, 2: 18}
    assert layer_sizes(k33(), 2) == {1: 36, 2: 18, 3: 0}
    assert layer_sizes(cycle_complex(5), 1) == {0: 10, 1: 15, 2: 5}
    assert layer_sizes(k5(), 1) == {0: 10, 1: 30, 2: 15}
    assert layer_sizes(k5(), 2) == {1: 30, 2: 15, 3: 0}


def test_configuration_space_deterministic_and_sorted():
    a = configuration_space(k33(), 1)
    b = configuration_space(k33(), 1)
    assert a.keys == b.keys
    assert a.boundary[2].columns == b.boundary[2].columns
    for d in a.keys:
        assert list(decoded(a, d)) == sorted(decoded(a, d))


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


def test_an_oversized_facet_is_refused_before_any_face_is_built():
    # The 80-vertex simplex alone holds C(80, 4) * 7 = 11,071,060 2-cells,
    # so it is refused before its 2^80 faces are enumerated.
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="exceeds 2000000 cells"):
        is_trivial(full_simplex(80), 2)
    assert time.perf_counter() - started < 1.0


def test_oversized_boundary_columns_are_refused_before_any_is_built(monkeypatch):
    """Dbl(Opp(C)) at q=3 n=4 in R^4 has 588,294 + 297,783 cells, under the
    cell cap, but its dense boundary columns would take 21.9 GB."""

    def no_columns(*args, **kwargs):
        pytest.fail("a boundary column was built")

    b = build(3, 4)
    opp = opp_complex(b, standard_flag(b))
    monkeypatch.setattr(vankampen.ConfigurationSpace, "_boundary", no_columns)
    with pytest.raises(ResourceLimitError, match="boundary columns of 21897994025 bytes exceed 1073741824"):
        configuration_space(double_over(opp, opp.facets[0]), 4)


def test_the_boundary_budget_counts_rows_times_columns(monkeypatch):
    """K5 in R^1: 30 1-cells between 10 0-cells and 15 2-cells, so the two
    maps take 10 x 30 + 30 x 15 bits."""
    monkeypatch.setattr(vankampen, "MAX_BOUNDARY_BYTES", 30 * (10 + 15) // 8)
    assert configuration_space(k5(), 1).boundary[1].cols == 30
    monkeypatch.setattr(vankampen, "MAX_BOUNDARY_BYTES", 30 * (10 + 15) // 8 - 1)
    with pytest.raises(ResourceLimitError, match="boundary columns of 93 bytes exceed 92"):
        configuration_space(k5(), 1)


@pytest.mark.parametrize("m, n", [(3, 1), (5, 2), (6, 2), (6, 3), (7, 4)])
def test_one_facet_holds_the_counted_n_cells(m, n):
    """The facet count the budget is checked against is exact on a simplex,
    so the early refusal refuses nothing the enumeration would accept."""
    cfg = configuration_space(full_simplex(m), n)
    assert len(cfg.keys[n]) == comb(m, n + 2) * (2 ** (n + 1) - 1)


def test_dimension_far_above_the_complex_is_decided_at_once():
    # Only splits a + b = cell_dim with both parts at most dim K are
    # enumerated, so a huge ambient dimension costs nothing.
    started = time.perf_counter()
    result = is_trivial(k33(), 10**6)
    assert time.perf_counter() - started < 1.0
    assert result.trivial and not result.nontrivial


def test_an_empty_window_numbers_no_face():
    """Two disjoint faces of one 30-vertex facet hold at most 30 vertices,
    never the 101 of a 99-cell, so the window is empty and no face of the
    2^30 is built."""
    started = time.perf_counter()
    cfg = configuration_space(full_simplex(30), 100)
    result = is_trivial(full_simplex(30), 100)
    assert time.perf_counter() - started < 1.0
    assert cfg.faces == [] and cfg.keys == {99: [], 100: [], 101: []}
    assert result.trivial and result.stats["cells"] == {99: 0, 100: 0, 101: 0}
    assert (result.stats["boundary_rows"], result.stats["boundary_cols"]) == (0, 0)


def test_one_big_facet_is_decided_by_face_lookup():
    """On the 16-vertex simplex in R^15 nearly every face meets every other,
    so the partners of each face are looked up among the sets of vertices
    outside it, not tested against every face: about 1 s, where testing every
    pair took 47 s.  The window is the 32,767 complementary pairs."""
    started = time.perf_counter()
    result = is_trivial(full_simplex(16), 15)
    assert time.perf_counter() - started < 15.0
    assert result.trivial and result.stats["cells"] == {14: 2**15 - 1, 15: 0, 16: 0}


def test_disjoint_pairs_brute_force_oracle():
    k = k33()
    edges = k.faces(1)
    expected = sum(
        1 for e, f in combinations(edges, 2) if not set(e) & set(f)
    )
    assert len(list(disjoint_pairs(k, 2))) == expected == 18


def disjoint_pairs(k: SimplicialComplex, cell_dim: int) -> Iterator[CellPair]:
    """All disjoint unordered pairs with dim sigma + dim tau = cell_dim, by
    mask tests over each dimension split: the enumeration the program ran
    before cells were int keys."""
    mask = {s: sum(1 << v for v in s) for d in range(min(cell_dim, k.dimension) + 1) for s in k.faces(d)}
    for a in range(max(0, cell_dim - k.dimension), min(cell_dim // 2, k.dimension) + 1):
        b = cell_dim - a
        if a == b:
            for s, t in combinations(k.faces(a), 2):
                if not mask[s] & mask[t]:
                    yield CellPair(s, t)
        else:
            for s in k.faces(a):
                for t in k.faces(b):
                    if not mask[s] & mask[t]:
                        yield CellPair(s, t) if s < t else CellPair(t, s)


def cell_facets(cell: CellPair) -> Iterator[CellPair]:
    """The facets of a cell, built as pairs: drop a vertex of sigma, then of tau."""
    s, t = cell
    if len(s) > 1:
        for drop in range(len(s)):
            f = s[:drop] + s[drop + 1 :]
            yield CellPair(f, t) if f < t else CellPair(t, f)
    if len(t) > 1:
        for drop in range(len(t)):
            yield CellPair(s, t[:drop] + t[drop + 1 :])


def assert_window_matches_the_pair_oracle(k: SimplicialComplex, n: int) -> None:
    """Decoded cells and boundaries equal those of the pair enumeration,
    with each boundary built entry by entry from ``cell_facets``."""
    cfg = configuration_space(k, n)
    for d in (n - 1, n, n + 1):
        assert cfg.keys[d] == sorted(cfg.keys[d])
        assert decoded(cfg, d) == tuple(sorted(disjoint_pairs(k, d)))
    for d in (n, n + 1):
        below = {c: i for i, c in enumerate(decoded(cfg, d - 1))}
        ones = [(below[f], j) for j, c in enumerate(decoded(cfg, d)) for f in cell_facets(c)]
        expected = from_entries(len(cfg.keys[d - 1]), len(cfg.keys[d]), ones)
        assert (cfg.boundary[d].rows, cfg.boundary[d].cols) == (expected.rows, expected.cols)
        assert cfg.boundary[d].columns == expected.columns


def stretch_double(chamber: int = 0) -> SimplicialComplex:
    """Opp(C) of the q=2 n=4 building, doubled over one of its chambers."""
    b = build(2, 4)
    opp = opp_complex(b, standard_flag(b))
    return double_over(opp, opp.facets[chamber])


ORACLE_CASES = {
    "stretch_double_0": (stretch_double, 4),
    "stretch_double_5": (lambda: stretch_double(5), 4),
    "k33_r2": (k33, 2),
    "k33_r4": (k33, 4),
    "k5_r2": (k5, 2),
    "k5_r4": (k5, 4),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_window_matches_the_pair_oracle(name):
    make, n = ORACLE_CASES[name]
    assert_window_matches_the_pair_oracle(make(), n)


def brute_force_cells(k: SimplicialComplex) -> dict[int, list[CellPair]]:
    """Every disjoint pair of faces, by cell dimension, in sorted order."""
    faces = [f for d in range(k.dimension + 1) for f in k.faces(d)]
    out: dict[int, list[CellPair]] = {}
    for s, t in combinations(faces, 2):
        if not set(s) & set(t):
            cell = cell_pair(s, t)
            out.setdefault(cell_dim(cell), []).append(cell)
    return {d: sorted(cells) for d, cells in out.items()}


def is_cell_facet(lower: CellPair, upper: CellPair) -> bool:
    a, b = map(set, lower)
    s, t = map(set, upper)
    return cell_dim(lower) + 1 == cell_dim(upper) and (a <= s and b <= t or a <= t and b <= s)


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
    assert {d: list(decoded(cfg, d)) for d in cfg.keys} == {d: brute.get(d, []) for d in (n - 1, n, n + 1)}
    assert set(cfg.boundary) == {n, n + 1}
    for d, matrix in cfg.boundary.items():
        assert (matrix.rows, matrix.cols) == (len(cfg.keys[d - 1]), len(cfg.keys[d]))
        for i, lower in enumerate(decoded(cfg, d - 1)):
            for j, upper in enumerate(decoded(cfg, d)):
                assert entry(matrix, i, j) == is_cell_facet(lower, upper)


@settings(max_examples=60, deadline=None)
@given(small_complexes(), st.integers(1, 4))
def test_window_matches_the_pair_oracle_on_random_complexes(k, n):
    assert_window_matches_the_pair_oracle(k, n)


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
    n = cell_dim(cell)
    weights = solve_square(incidence_rows(cell, coords, n), [F(0)] * n + [F(1), F(1)])
    assert all(w != 0 for w in weights), "the points are not in general position"
    return 1 if all(w > 0 for w in weights) else 0


def moment_coords(params, n: int) -> list[tuple[F, ...]]:
    return [tuple(F(t) ** e for e in range(1, n + 1)) for t in params]


def test_crossing_segments():
    coords = [(0, 0), (1, 1), (1, 0), (0, 1)]
    assert exact_parity(coords, cell_pair((0, 1), (2, 3))) == 1


def test_point_in_and_out_of_segment():
    inside = [(0,), (1,), (2,)]
    assert exact_parity(inside, cell_pair((1,), (0, 2))) == 1
    outside = [(0,), (5,), (2,)]
    assert exact_parity(outside, cell_pair((1,), (0, 2))) == 0


def test_point_in_and_out_of_triangle():
    inside = [(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))]
    assert exact_parity(inside, cell_pair((3,), (0, 1, 2))) == 1
    outside = [(0, 0), (1, 0), (0, 1), (2, 2)]
    assert exact_parity(outside, cell_pair((3,), (0, 1, 2))) == 0


def test_moment_curve_chords_cross_iff_parameters_interleave():
    params = (0, 1, 3, 7)
    coords = moment_coords(params, 2)
    for sigma, tau, crossing in (((0, 2), (1, 3), 1), ((0, 1), (2, 3), 0), ((0, 3), (1, 2), 0)):
        cell = cell_pair(sigma, tau)
        assert pair_intersection_parity(params, *cell) == exact_parity(coords, cell) == crossing


@st.composite
def complementary_cells(draw):
    n = draw(st.integers(1, 5))
    num_vertices = draw(st.integers(n + 2, n + 5))
    vertices = draw(st.permutations(range(num_vertices)))[: n + 2]
    split = draw(st.integers(1, n + 1))
    cell = cell_pair(tuple(sorted(vertices[:split])), tuple(sorted(vertices[split:])))
    return num_vertices, cell


@settings(max_examples=200, deadline=None)
@given(complementary_cells(), st.integers(0, 1 << 32))
def test_interlacing_matches_the_exact_solve(drawn, seed):
    num_vertices, cell = drawn
    params = _seeded_values(seed, num_vertices)
    coords = moment_coords(params, cell_dim(cell))
    assert pair_intersection_parity(params, *cell) == exact_parity(coords, cell)


def interlace_by_merge(a: list[int], b: list[int]) -> int:
    """The former parity rule, on sorted disjoint parameter lists: 1 iff
    every other entry of their merge, from the first, is all of a or all of b."""
    every_other = sorted(a + b)[::2]
    return 1 if every_other == a or every_other == b else 0


def assert_masks_interlace_as_the_merge(ranks: list[int], sigma: tuple[int, ...], tau: tuple[int, ...]) -> None:
    """The (m, p) mask rule agrees with the merge on sigma and tau, both ways round."""
    masks = vankampen._rank_masks(ranks, (sigma, tau))
    expected = interlace_by_merge(sorted(ranks[v] for v in sigma), sorted(ranks[v] for v in tau))
    assert vankampen._interlace(*masks) == vankampen._interlace(*masks[::-1]) == expected


def test_rank_masks_interlace_as_the_merge_on_every_split():
    """Every pair of disjoint nonempty faces on 7 ranked vertices: sizes 1 to
    6, each face with or without the lowest and the highest rank."""
    for sigma_bits in range(1, 1 << 7):
        rest = [v for v in range(7) if not sigma_bits >> v & 1]
        sigma = tuple(v for v in range(7) if sigma_bits >> v & 1)
        for r in range(1, len(rest) + 1):
            for tau in combinations(rest, r):
                assert_masks_interlace_as_the_merge(list(range(7)), sigma, tau)


@st.composite
def disjoint_faces(draw):
    """Two disjoint faces of sizes 1 to 6 over distinct ranks of up to 40
    vertices, each face sometimes holding the lowest or the highest rank."""
    num_vertices = draw(st.integers(2, 40))
    vertices = draw(st.permutations(range(num_vertices)))
    ranks = draw(st.permutations(range(num_vertices)))
    a = draw(st.integers(1, min(6, num_vertices - 1)))
    b = draw(st.integers(1, min(6, num_vertices - a)))
    return ranks, tuple(sorted(vertices[:a])), tuple(sorted(vertices[a : a + b]))


@settings(max_examples=300, deadline=None)
@given(disjoint_faces())
def test_rank_masks_interlace_as_the_merge(drawn):
    assert_masks_interlace_as_the_merge(*drawn)


# -- cocycles and verdicts -------------------------------------------


def assert_cocycle_reads_the_parity_rule(k: SimplicialComplex, n: int, seed: int) -> None:
    """Each cocycle bit is ``pair_intersection_parity`` of its n-cell's faces."""
    cfg = configuration_space(k, n)
    params = _seeded_values(seed, k.num_vertices)
    values = obstruction_cocycle(cfg, seed).values
    assert values.length == len(cfg.keys[n])
    assert [values[i] for i in range(values.length)] == [pair_intersection_parity(params, *cell) for cell in decoded(cfg, n)]


@pytest.mark.parametrize("chamber", [0, 5])
def test_cocycle_is_the_parity_rule_on_the_stretch_doubles(chamber):
    assert_cocycle_reads_the_parity_rule(stretch_double(chamber), 4, 11)


@settings(max_examples=60, deadline=None)
@given(small_complexes(), st.integers(1, 4), st.integers(0, 2**16))
def test_cocycle_is_the_parity_rule_on_random_complexes(k, n, seed):
    assert_cocycle_reads_the_parity_rule(k, n, seed)


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
    image = transpose(cfg5.boundary[2]).apply(t.certificate)
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


def verdict_stats(cells, rows, cols, rank, cocycle_weight, kind, certificate_weight) -> dict:
    return {
        "cells": cells,
        "boundary_rows": rows,
        "boundary_cols": cols,
        "boundary_rank": rank,
        "cocycle_weight": cocycle_weight,
        "certificate_kind": kind,
        "certificate_weight": certificate_weight,
    }


def test_verdict_stats_are_pinned():
    """Cells per window layer, the shape and rank of the boundary, and the
    cocycle and certificate weights."""
    assert is_trivial(k33(), 2).stats == verdict_stats({1: 36, 2: 18, 3: 0}, 36, 18, 17, 5, "cycle", 18)
    stretch = is_trivial(stretch_double(), 4)
    assert stretch.stats == verdict_stats({3: 9008, 4: 3184, 5: 0}, 9008, 3184, 3183, 317, "cycle", 620)
    assert stretch.stats["cocycle_weight"] == stretch.cocycle.values.weight()
    assert stretch.stats["certificate_weight"] == stretch.certificate.weight()
    trivial = is_trivial(cycle_complex(5), 2)
    assert trivial.stats == verdict_stats({1: 15, 2: 5, 3: 0}, 15, 5, 5, 1, "cochain", 1)
    assert len(trivial.certificate_cells) == trivial.certificate.weight()


def test_a_cycle_certificate_never_back_substitutes(monkeypatch):
    """Only a trivial verdict reads the primitive: with ``row_reduce``
    broken, the stretch still returns its pinned 620-cell cycle, and K4 in
    the plane still reaches ``row_reduce`` for the same one-cell cochain."""
    real = GF2Matrix.row_reduce
    calls = []

    def refuse(self, v):
        raise AssertionError("row_reduce called")

    monkeypatch.setattr(GF2Matrix, "row_reduce", refuse)
    stretch = is_trivial(stretch_double(), 4)
    assert (stretch.certificate_kind, stretch.certificate.length, stretch.certificate.weight()) == ("cycle", 3184, 620)
    # sha256 of the certificate's hex bits, recorded while every verdict still back-substituted
    digest = hashlib.sha256(f"{stretch.certificate.bits:x}".encode()).hexdigest()
    assert digest == "da7a8f7a1fcb74f8bfe9b1a756d92d23889174f51a0de502e906116349513336"
    monkeypatch.setattr(GF2Matrix, "row_reduce", lambda self, v: calls.append(v) or real(self, v))
    k4 = is_trivial(SimplicialComplex(combinations(range(4), 2)), 2)
    assert len(calls) == 1
    assert (k4.certificate_kind, k4.certificate) == ("cochain", GF2Vector(12, 0b10))
    assert k4.certificate_cells == (CellPair((0,), (1, 3)),)


def test_a_verdict_keeps_only_its_certificate_cells():
    """A verdict holds its certificate's cells, not the window: the stretch
    window has 12,192 cells (and a face numbering beside them), but its
    certificate names 620.  Measured as the memory still traced once the
    call has returned and garbage is collected."""
    gc.collect()
    tracemalloc.start()
    try:
        v = is_trivial(stretch_double(), 4)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(v.certificate_cells) == v.certificate.weight() == 620
    assert kept < 200_000, f"a verdict keeps {kept} bytes"


def assert_certificate_matches_the_rref_oracle(k: SimplicialComplex, n: int, seed: int) -> None:
    """The certificate is the first kernel vector of the reduced echelon
    form of the boundary that pairs to 1, else the free-variables-zero
    solution of the coboundary system.  The verdict carries the cells of
    the certificate's support."""
    cfg = configuration_space(k, n)
    cocycle = obstruction_cocycle(cfg, seed).values
    boundary = cfg.boundary[n]
    expected = next((z for z in rref_kernel_basis(boundary) if z.dot(cocycle)), None)
    kind, layer = "cycle", decoded(cfg, n)
    if expected is None:
        expected, kind, layer = rref_solve(transpose(boundary), cocycle), "cochain", decoded(cfg, n - 1)
    v = is_trivial(k, n, seed)
    assert (v.certificate_kind, v.certificate) == (kind, expected)
    assert v.cocycle.values == cocycle
    assert v.certificate_cells == tuple(layer[i] for i in v.certificate.support())


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


@pytest.mark.parametrize("name", KNOWN_R4)
def test_known_r4_windows_match_the_pair_oracle(name):
    assert_window_matches_the_pair_oracle(KNOWN_R4[name][0](), 4)


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


def test_more_vertices_than_moment_curve_parameters_are_refused():
    """Only 2^16 distinct 16-bit parameters exist, so 70,000 points are
    refused rather than searched for forever; 2^16 points still get them."""
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="70000 vertices exceed the 65536"):
        is_trivial(points_complex(70_000), 2)
    assert time.perf_counter() - started < 10.0
    values = _seeded_values(0, 1 << 16)
    assert sorted(values) == list(range(1 << 16))


def test_no_face_is_ranked_when_no_n_cell_reads_the_masks(monkeypatch):
    """One 8-vertex facet in R^7 has no 7-cell, as a 7-cell needs 9 vertices,
    so no face gets rank masks; K33 in the plane ranks every numbered face
    once.  The parameters are still drawn, so a direct call on an empty
    window still refuses more vertices than there are parameters."""
    real, ranked = vankampen._rank_masks, []
    monkeypatch.setattr(vankampen, "_rank_masks", lambda params, faces: ranked.append(len(faces)) or real(params, faces))
    assert is_trivial(full_simplex(8), 7).trivial
    assert ranked == []
    cfg = configuration_space(k33(), 2)
    assert obstruction_cocycle(cfg).values.length == 18
    assert ranked == [len(cfg.faces)]
    empty = configuration_space(points_complex(70_000), 4)
    assert empty.faces == [] and not empty.keys[4]
    with pytest.raises(ResourceLimitError, match="70000 vertices exceed the 65536"):
        obstruction_cocycle(empty)
    assert ranked == [len(cfg.faces)]


def test_too_many_vertices_are_refused_before_the_window_is_built(monkeypatch):
    """The vertex count is checked first: no configuration space is built
    for a complex whose vertices cannot all get distinct parameters."""

    def no_window(*args, **kwargs):
        pytest.fail("configuration_space was called")

    monkeypatch.setattr(vankampen, "configuration_space", no_window)
    with pytest.raises(ResourceLimitError, match="70000 vertices exceed the 65536"):
        is_trivial(points_complex(70_000), 4)


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
    """The configuration space's d o d check holds with asserts stripped:
    each 3-cell here loses one facet, the last row of its column in d_3, so
    d_2 d_3 != 0 in the window of the 4-simplex in R^2, and the CLI reports
    it with exit code 4."""
    f = tmp_path / "simplex.json"
    f.write_text(json.dumps({"facets": [[0, 1, 2, 3, 4]]}))
    script = "\n".join([
        "import sys",
        "assert False, 'asserts are not stripped'",
        "from obstructor import vankampen",
        "from obstructor.cli import main",
        "from obstructor.complexes import full_simplex",
        "from obstructor.errors import CertificateError",
        "from obstructor.gf2 import GF2Matrix",
        "real = vankampen.ConfigurationSpace._boundary",
        "def broken(self, d):",
        "    m = real(self, d)",
        "    return m if d != 3 else GF2Matrix(m.rows, m.cols, [c & (c - 1) for c in m.columns])",
        "vankampen.ConfigurationSpace._boundary = broken",
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


def _flip_bit_0(v: GF2Vector) -> GF2Vector:
    return GF2Vector(v.length, v.bits ^ 1)


def test_a_cycle_certificate_that_fails_substitution_is_refused(monkeypatch):
    """K33 in the plane is nontrivial; a witness cycle with its cell 0
    flipped is no cycle pairing to 1, and the verdict says so by a raise."""
    real = GF2Matrix.kernel_vector
    monkeypatch.setattr(GF2Matrix, "kernel_vector", lambda self, free: _flip_bit_0(real(self, free)))
    with pytest.raises(CertificateError, match="^certificate is not a cycle pairing to 1$"):
        is_trivial(k33(), 2)


def test_a_primitive_that_fails_substitution_is_refused(monkeypatch):
    """K4 in the plane is trivial; a primitive with its cell 0 flipped has
    a coboundary other than the cocycle, and the verdict says so by a raise."""
    real = GF2Matrix.row_reduce

    def broken(self, v):
        residue, y = real(self, v)
        return residue, _flip_bit_0(y)

    monkeypatch.setattr(GF2Matrix, "row_reduce", broken)
    with pytest.raises(CertificateError, match="^primitive substitution failed$"):
        is_trivial(SimplicialComplex(combinations(range(4), 2)), 2)


@pytest.mark.parametrize(
    "facets, patch, message",
    [
        (
            [list(f) for f in k33().facets],
            "real = GF2Matrix.kernel_vector\n"
            "GF2Matrix.kernel_vector = lambda self, free: flip(real(self, free))",
            "certificate is not a cycle pairing to 1",
        ),
        (
            [list(e) for e in combinations(range(4), 2)],
            "real = GF2Matrix.row_reduce\n"
            "GF2Matrix.row_reduce = lambda self, v: (lambda residue, y: (residue, flip(y)))(*real(self, v))",
            "primitive substitution failed",
        ),
    ],
    ids=["cycle", "primitive"],
)
def test_certificate_checks_survive_optimize(tmp_path, facets, patch, message):
    """Both substitution checks of a verdict hold with asserts stripped:
    with the certificate's bit 0 flipped, ``vk`` refuses K33 and K4 in the
    plane with exit code 4."""
    f = tmp_path / "graph.json"
    f.write_text(json.dumps({"facets": facets}))
    script = "\n".join([
        "import sys",
        "assert False, 'asserts are not stripped'",
        "from obstructor.cli import main",
        "from obstructor.gf2 import GF2Matrix, GF2Vector",
        "flip = lambda v: GF2Vector(v.length, v.bits ^ 1)",
        patch,
        "sys.exit(main(['vk', sys.argv[1], '2']))",
    ])
    res = subprocess.run(
        [sys.executable, "-O", "-c", script, str(f)], capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 4, res.stderr
    assert res.stderr == f"error: {message}\n"


# -- doubled-complex criterion ---------------------------------------


def test_ados_on_one_dimensional_complexes():
    looped = verify_ados(cycle_complex(5), (0, 1), 1)
    assert looped == AdosReport(True, True, True, looped.verdict)
    straight = verify_ados(path_complex(4), (2, 3), 1)
    assert (straight.lhs, straight.rhs, straight.agree) == (False, False, True)


def test_ados_reads_a_one_shot_delta_once():
    report = verify_ados(cycle_complex(5), iter((0, 1)), 1)
    assert report == verify_ados(cycle_complex(5), (0, 1), 1)
    assert report.lhs is True


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


def test_ados_refuses_a_non_flag_base_survives_optimize():
    """The hollow triangle's three edges form a clique that is no face, and
    ``verify_ados`` refuses it by a raise, so under ``python -O`` too; the
    flag 5-cycle still passes there."""
    script = "\n".join([
        "assert False, 'asserts are not stripped'",
        "from obstructor.complexes import cycle_complex",
        "from obstructor.vankampen import verify_ados",
        "print(verify_ados(cycle_complex(5), (0, 1), 1).lhs)",
        "verify_ados(cycle_complex(3), (0, 1), 1)",
    ])
    res = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=300)
    assert res.stdout == "True\n", res.stderr
    assert res.stderr.endswith("ValueError: base complex is not flag; the doubling laws assume flagness\n"), res.stderr


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
