"""Acceptance gate: one printed pass/fail line per criterion.

Each criterion function computes its verdict, prints a single
``PASS``/``FAIL`` line straight to the terminal (bypassing capture so the
lines always show up in CI logs), and only then asserts.  Runtime budgets
are enforced where a criterion has one.

Criterion 3 sweeps isomorphism-class representatives (lexicographically
smallest edge mask per orbit) instead of all labeled graphs; the
relabeling-invariance property test in the obstruction test file is what
justifies the quotient.  The per-edge equivalence "the double obstructs
iff top homology is nonzero" is false for bridge edges, so that criterion
asserts the two implications that hold (an edge on a cycle obstructs;
an obstruction forces b1 >= 1), their per-graph consequence, and prints
the off-cycle edges the implications leave open.
"""

from __future__ import annotations

import json
import time
from itertools import combinations, permutations

from obstructor import cli
from obstructor.building import (
    Apartment,
    build,
    opposite_chambers,
    standard_flag,
    verify_dbl_embedding,
)
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
from obstructor.coxeter import coxeter_complex, rightangled, symmetric
from obstructor.homology import betti, betti_numbers, cycle_basis
from obstructor.vankampen import (
    configuration_space,
    is_trivial,
    obstruction_cocycle,
    verify_ados,
)


def report(capsys, number: str, description: str, ok: bool, elapsed: float) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description} [{elapsed:.2f}s]")
    assert ok, f"criterion {number}: {description}"


def k33() -> SimplicialComplex:
    return join(points_complex(3), points_complex(3))


# -- criterion 1: the classical bipartite obstructor through the CLI --


def test_criterion_1_k33_certificate(capsys, tmp_path):
    start = time.perf_counter()
    f = tmp_path / "k33.json"
    assert cli.main(["gen", "join", "3", "3", "-o", str(f)]) == 0
    rc = cli.main(["vk", str(f), "2", "--json", "--certificate"])
    payload = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    expected_cells = {
        (tuple(s), tuple(t))
        for s, t in combinations(k33().faces(1), 2)
        if not set(s) & set(t)
    }
    got_cells = {
        (tuple(a), tuple(b)) if tuple(a) < tuple(b) else (tuple(b), tuple(a))
        for a, b in payload["certificate"]["cells"]
    }
    ok = (
        rc == 0
        and payload["result"]["verdict"] == "nontrivial"
        and payload["certificate"]["kind"] == "cycle"
        and got_cells == expected_cells
        and len(got_cells) == 18
        and elapsed < 1.0
    )
    report(capsys, "1", "K33 nontrivial with the all-18-pairs certificate cycle, < 1 s", ok, elapsed)


# -- criterion 2: joins of three points ------------------------------


def test_criterion_2_point_joins(capsys):
    start = time.perf_counter()
    double = is_trivial(k33(), 2)
    triple = is_trivial(join(k33(), points_complex(3)), 4)
    elapsed = time.perf_counter() - start
    ok = double.nontrivial and triple.nontrivial and elapsed < 30.0
    report(capsys, "2", "double and triple joins of 3 points are obstructors (n=2, n=4), < 30 s", ok, elapsed)


# -- criterion 3: doubling laws, exhaustively for graphs ------------


def triangle_free_representatives(n: int) -> list[SimplicialComplex]:
    """One graph per isomorphism class on exactly n vertices, >= 1 edge,
    triangle-free; the class representative is the smallest edge bitmask."""
    edges = list(combinations(range(n), 2))
    index = {e: i for i, e in enumerate(edges)}
    perms = [
        tuple(index[tuple(sorted((p[a], p[b])))] for a, b in edges)
        for p in permutations(range(n))
    ]
    triangles = [
        (1 << index[(a, b)]) | (1 << index[(a, c)]) | (1 << index[(b, c)])
        for a, b, c in combinations(range(n), 3)
    ]
    seen: set[int] = set()
    reps = []
    for mask in range(1, 1 << len(edges)):
        if mask in seen or any(mask & t == t for t in triangles):
            continue
        orbit = set()
        for pm in perms:
            image, m = 0, mask
            while m:
                low = m & -m
                image |= 1 << pm[low.bit_length() - 1]
                m ^= low
            orbit.add(image)
        seen |= orbit
        reps.append(mask)
    return [
        SimplicialComplex(
            [edges[i] for i in range(len(edges)) if (mask >> i) & 1], num_vertices=n
        )
        for mask in reps
    ]


def test_criterion_3_doubling_equivalence(capsys):
    """Exhaustive check of the doubling laws for every edge of every small
    graph, and of the equivalence they give per graph.

    For a flag graph G, an edge e = uv and lhs = "Dbl(G, e) does not embed
    in R^2 (nonzero obstruction)", rhs = "b1(G) >= 1":

    (a) If e lies in the support of a nonzero mod-2 1-cycle, lhs holds.
        Flagness makes G triangle-free, so a simple cycle C through e has
        m >= 4 edges.  Dbl(C, e) is a subgraph of Dbl(G, e) and a
        subdivision of K33 (exactly K33 for m = 4): {u-, u+, c2} against
        {v-, v+, c_{m-1}}, with the path c2 .. c_{m-1} subdividing one
        edge.  A nonplanar graph has a nonzero obstruction in R^2
        (Hanani-Tutte), and a nonzero obstruction on a subcomplex stays
        nonzero on the whole complex.
    (b) If lhs holds, rhs holds.  If G is a forest, Dbl(G, e) is planar:
        u-, v-, u+, v+ form a 4-cycle; put the other neighbours of u
        inside it, each joined to u- and u+, and the other neighbours of v
        outside it, each joined to v- and v+; the remaining trees hang off
        these vertices.
    (c) Hence b1(G) >= 1 exactly when some doubled edge obstructs.

    The per-edge equivalence lhs <=> rhs is false off the hypothesis of
    (a): bridge edges of a graph with b1 >= 1 can double to a planar graph
    (a 4-cycle plus a pendant edge, doubled over the pendant edge), and one
    can also obstruct (a pendant edge on K23).  Those edges are constrained
    by neither (a) nor (b); the sweep prints each of them and their counts.
    The hypothesis of (a) is decided from a cycle basis, independently of
    the obstruction.  See test_vankampen.py for the pinned counterexamples
    and the sharp law for graphs, planarity of the double itself.
    """
    start = time.perf_counter()
    graphs = checked = on_cycle = in_forest = 0
    violations: list[str] = []
    unconstrained: list[tuple[int, tuple, tuple, bool]] = []
    for n in range(2, 7):
        for graph in triangle_free_representatives(n):
            assert graph.is_flag() and graph.dimension == 1
            graphs += 1
            cycles = cycle_basis(graph, 1)
            obstructs = []
            for spot, edge in enumerate(graph.faces(1)):
                checked += 1
                rep = verify_ados(graph, edge, 1)
                obstructs.append(rep.lhs)
                where = f"n={n} edges={graph.facets} doubled over {edge}"
                if any(v[spot] for v in cycles):
                    on_cycle += 1
                    if not rep.lhs:
                        violations.append(f"(a) {where}: on a cycle but embeds")
                elif not rep.rhs:
                    in_forest += 1
                else:
                    unconstrained.append((n, graph.facets, edge, rep.lhs))
                if rep.lhs and not rep.rhs:
                    violations.append(f"(b) {where}: obstructs although b1 = 0")
            if (betti(graph, 1) >= 1) != any(obstructs):
                violations.append(f"(c) n={n} edges={graph.facets}: b1 >= 1 iff some edge obstructs")
    named = verify_ados(cycle_complex(5), (0, 1), 1)
    straight = verify_ados(path_complex(4), (0, 1), 1)
    octa = octahedralize(full_simplex(3))
    top = verify_ados(octa, octa.facets[0], 2)
    named_ok = (
        named.agree
        and named.lhs
        and straight.agree
        and not straight.lhs
        and top.agree
        and top.lhs
    )
    elapsed = time.perf_counter() - start
    ok = not violations and named_ok and elapsed < 300.0
    embed = sum(1 for *_, lhs in unconstrained if not lhs)
    with capsys.disabled():
        for line in violations:
            print(f"    violates {line}")
        for n, facets, edge, lhs in unconstrained:
            print(
                f"    unconstrained: n={n} edges={facets} doubled over off-cycle edge {edge}: "
                f"{'obstructs' if lhs else 'embeds'}, b1 >= 1"
            )
    report(
        capsys,
        "3",
        f"doubling laws on {graphs} graph classes / {checked} doubled edges: "
        f"{on_cycle} edges on a cycle must obstruct, {in_forest} forest edges must embed, "
        "b1 >= 1 iff some edge obstructs; "
        f"{len(unconstrained)} off-cycle edges with b1 >= 1 unconstrained "
        f"({embed} bridge edges embed, {len(unconstrained) - embed} obstructs); "
        "plus 5-cycle, 4-path, octahedron, < 5 min",
        ok,
        elapsed,
    )


# -- criterion 4: the smallest building obstructs the plane ----------


def test_criterion_4_fano_building(capsys, tmp_path):
    start = time.perf_counter()
    ok = True
    for chamber in range(21):
        rc = cli.main(["opp", "2", "3", str(chamber), "--json"])
        payload = json.loads(capsys.readouterr().out)
        if rc != 0 or payload["result"]["betti"] != [1, 1]:
            ok = False
    f = tmp_path / "building.json"
    ok = ok and cli.main(["gen", "building", "2", "3", "-o", str(f)]) == 0
    rc = cli.main(["vk", str(f), "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    ok = ok and rc == 0 and payload["result"]["verdict"] == "nontrivial"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(
        capsys,
        "4",
        "q=2 n=3 building: b1(Opp)=1 for all 21 chambers and nontrivial plane obstruction, < 10 s",
        ok,
        elapsed,
    )


def test_criterion_4_stretch_rank_three_building(capsys):
    start = time.perf_counter()
    b = build(2, 4)
    from obstructor.building import opp_complex

    opp = opp_complex(b, standard_flag(b))
    b2 = betti(opp, 2)
    rep = verify_ados(opp, opp.facets[0], 2)
    elapsed = time.perf_counter() - start
    ok = b2 >= 1 and rep.agree and rep.lhs and rep.rhs and elapsed < 600.0
    report(
        capsys,
        "4 (stretch)",
        "q=2 n=4 building: b2(Opp) >= 1 and doubled Opp obstructs R^4 both ways, < 10 min",
        ok,
        elapsed,
    )


# -- criterion 5: the bending construction never collides ------------


def test_criterion_5_embedding_sweeps(capsys):
    start = time.perf_counter()
    ok = True
    for q, n, limit in ((2, 3, None), (3, 3, None), (2, 4, 1)):
        b = build(q, n)
        picks = b.chambers if limit is None else b.chambers[:limit]
        for c in picks:
            rep = verify_dbl_embedding(b, c)
            if not (rep.ok and rep.witness is None and rep.pairs_checked > 0):
                ok = False
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "5",
        "doubled opposition complexes embed: all chambers of q=2,3 n=3 and one of q=2 n=4",
        ok,
        elapsed,
    )


# -- criterion 6: Coxeter opposition and bending consistency ---------


def test_criterion_6_coxeter_consistency(capsys):
    start = time.perf_counter()
    ok = True
    for system in [symmetric(3), symmetric(4), rightangled(2), rightangled(3), rightangled(4)]:
        elements = list(system.elements())
        w0 = system.longest_element()
        for u in elements:
            for v in elements:
                algebraic = system.multiply(system.inverse(u), v) == w0
                walls = all(
                    system.reflection_separates(u, t) != system.reflection_separates(v, t)
                    for t in system.reflections()
                )
                if algebraic != walls:
                    ok = False
        gathered: list = []
        for r in range(system.num_generators + 1):
            for subset in combinations(system.generators, r):
                gathered.extend(system.bending_image(frozenset(subset)))
        if sorted(gathered) != sorted(elements):
            ok = False
        if system.in_set(w0) != frozenset(system.generators):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(
        capsys,
        "6",
        "opposition criteria coincide, bending images partition, In(w0)=S "
        "(symmetric 3-4, rightangled 2-4), < 5 s",
        ok,
        elapsed,
    )


# -- criterion 7: the verdict does not depend on the map -------------


def corpus_for_seed_stability() -> list[tuple[SimplicialComplex, int]]:
    return [
        (k33(), 2),
        (cycle_complex(5), 2),
        (path_complex(4), 2),
        (octahedralize(full_simplex(3)), 2),
        (double_over(cycle_complex(5), (0, 1)), 2),
        (build(2, 3).complex, 2),
        (cycle_complex(6), 1),
        (join(k33(), points_complex(3)), 4),
    ]


def test_criterion_7_seed_independence(capsys):
    start = time.perf_counter()
    ok = True
    for k, n in corpus_for_seed_stability():
        cfg = configuration_space(k, n)
        basis = cfg.boundary[n].kernel_basis()
        coboundary = cfg.boundary[n + 1].transpose()
        verdicts = []
        pairings = []
        for seed in (0, 1, 2):
            verdicts.append(is_trivial(k, n, seed).nontrivial)
            values = obstruction_cocycle(cfg, seed).values
            for row in coboundary.rows_iter():
                if row.dot(values) != 0:  # delta(vk) must vanish
                    ok = False
            pairings.append(tuple(c.dot(values) for c in basis))
        if len(set(verdicts)) != 1 or len(set(pairings)) != 1:
            ok = False
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "7",
        "verdicts and cycle pairings agree across seeds 0,1,2; coboundary always zero",
        ok,
        elapsed,
    )


# -- criterion 8: homology oracles -----------------------------------


def test_criterion_8_homology_oracles(capsys):
    start = time.perf_counter()
    ok = True
    constructed: list[SimplicialComplex] = []

    def expect(k: SimplicialComplex, want: tuple[int, ...]) -> None:
        nonlocal ok
        constructed.append(k)
        if betti_numbers(k) != want:
            ok = False

    expect(octahedralize(full_simplex(2)), (1, 1))
    expect(octahedralize(full_simplex(3)), (1, 0, 1))
    expect(octahedralize(full_simplex(4)), (1, 0, 0, 1))
    for m in (1, 2, 3):
        sphere = SimplicialComplex(list(combinations(range(m + 2), m + 1)))
        expect(sphere, tuple(1 if i in (0, m) else 0 for i in range(m + 1)))
    apex = points_complex(1)
    for base in (cycle_complex(6), octahedralize(full_simplex(3)), k33()):
        cone = join(base, apex)
        constructed.append(cone)
        bn = betti_numbers(cone)
        if bn[0] != 1 or any(bn[1:]):
            ok = False
    for system, spot in ((symmetric(3), 1), (symmetric(4), 2)):
        cc = coxeter_complex(system).complex
        constructed.append(cc)
        if betti(cc, spot) != 1:
            ok = False
    for r in (2, 3, 4):
        cc = coxeter_complex(rightangled(r)).complex
        constructed.append(cc)
        if betti(cc, r - 1) != 1:
            ok = False
    for k in constructed:
        alternating = sum((-1) ** d * b for d, b in enumerate(betti_numbers(k)))
        if alternating != k.euler_characteristic():
            ok = False
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "8",
        f"spheres, cones, Coxeter spheres, Euler identity over {len(constructed)} complexes",
        ok,
        elapsed,
    )


# -- criterion 9: counting oracles -----------------------------------


def general_linear_order(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def borel_order(q: int, n: int) -> int:
    return (q - 1) ** n * q ** (n * (n - 1) // 2)


def test_criterion_9_counting_oracles(capsys):
    start = time.perf_counter()
    ok = True
    b23 = build(2, 3)
    for c in b23.chambers:
        if len(opposite_chambers(b23, c)) != 2**3:
            ok = False
    b33 = build(3, 3)
    if len(opposite_chambers(b33, standard_flag(b33))) != 3**3:
        ok = False
    b24 = build(2, 4)
    if len(opposite_chambers(b24, standard_flag(b24))) != 2**6:
        ok = False
    if len(b23.chambers) != 21 or len(b24.chambers) != 315:
        ok = False
    if len(b23.chambers) != general_linear_order(2, 3) // borel_order(2, 3):
        ok = False
    if len(b24.chambers) != general_linear_order(2, 4) // borel_order(2, 4):
        ok = False
    # apartment sanity rides along: 2^n - 2 vertices in the coordinate frame
    from obstructor.building import coordinate_frame

    if len(Apartment(b24, coordinate_frame(2, 4)).vertex_ids()) != 2**4 - 2:
        ok = False
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "9",
        "opposite-chamber counts q^{n(n-1)/2} for (2,3),(3,3),(2,4); flag counts 21 and 315",
        ok,
        elapsed,
    )
