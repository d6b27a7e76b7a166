"""The four workloads: inputs drawn from a seed, the timed call, a staged
replay for the traced run, and the independent check of each answer.

A workload is run in rounds.  ``round(r)`` draws the inputs of round r from
``(workload, seed, r)`` alone, and every round holds the same mix of input
kinds, so runs with different seeds do comparable work and a run always
ends on a whole round.  Input drawing and complex building happen outside
the timed call.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from itertools import combinations, product
from typing import Any, Optional

# run.py puts this checkout's src/ first on sys.path before importing this module.
from obstructor import building as bldg
from obstructor import cli
from obstructor import complexes as cx
from obstructor import homology
from obstructor import vankampen as vk

import oracles
from spans import StageAbsent, Tracer


def _verdict(v: Any) -> dict:
    return {
        "nontrivial": v.nontrivial,
        "kind": v.certificate_kind,
        "cert": v.certificate.bits,
        "cocycle": v.cocycle.values.bits,
    }


def staged_is_trivial(tr: Tracer, k: Any, n: int, seed: int) -> tuple[bool, str]:
    """is_trivial split into the public calls it makes, one span each.

    Stages that are gone (StageAbsent) are skipped where the next stage can
    do without them; otherwise the remaining work runs as one
    ``is_trivial`` call, so the replay always completes.
    """
    with tr.span("vankampen.is_trivial"):
        try:
            cfg = tr.stage("vankampen.configuration_space", vk, "configuration_space", k, n + 1)
            try:
                gp = tr.stage("vankampen.general_position_map", vk, "general_position_map", k, n, seed)
            except StageAbsent:
                gp = None
            extra = {"space": cfg} if gp is None else {"space": cfg, "gp_map": gp}
            coc = tr.stage("vankampen.obstruction_cocycle", vk, "obstruction_cocycle", k, n, seed, **extra)
            boundary = getattr(cfg, "boundary_or_zero", None)
            if boundary is None:
                tr.absent.add("vankampen.boundary_or_zero")
                raise StageAbsent("vankampen.boundary_or_zero")
            bd = boundary(n)
            basis = tr.stage("gf2.kernel_basis", bd, "kernel_basis")
        except StageAbsent:
            with tr.span("vankampen.is_trivial.whole"):
                v = vk.is_trivial(k, n, seed)
            tr.count("gf2.certificate_weight", v.certificate.bits.bit_count())
            return v.nontrivial, v.certificate_kind

        layers = getattr(cfg, "cells", ())
        tr.count("vankampen.cells_total", sum(len(layer) for layer in layers))
        tr.count("vankampen.cells_n", len(layers[n]) if n < len(layers) else 0)
        tr.count("vankampen.perturbations", getattr(gp, "perturbations", 0))
        values = coc.values
        tr.count("vankampen.cocycle_weight", values.bits.bit_count())
        rows = len(layers[n - 1]) if n - 1 < len(layers) else 0
        cols = len(layers[n]) if n < len(layers) else 0
        tr.count("gf2.boundary_rows", rows)
        tr.count("gf2.boundary_cols", cols)
        tr.count("gf2.kernel_dim", len(basis))
        tr.count("gf2.rank", cols - len(basis))
        scanned = 0
        for cycle in basis:
            scanned += 1
            if cycle.dot(values) == 1:
                tr.count("gf2.kernel_scanned", scanned)
                tr.count("gf2.certificate_weight", cycle.bits.bit_count())
                return True, "cycle"
        tr.count("gf2.kernel_scanned", scanned)
        try:
            transposed = tr.stage("gf2.transpose", bd, "transpose")
            primitive = tr.stage("gf2.solve", transposed, "solve", values)
        except StageAbsent:
            with tr.span("vankampen.is_trivial.whole"):
                primitive = vk.is_trivial(k, n, seed).certificate
        tr.count("gf2.certificate_weight", primitive.bits.bit_count())
        return False, "cochain"


class VkStretch:
    """verify_ados on Opp(C) of the q=2 n=4 building, doubled over a facet, in R^4."""

    name = "vk_stretch"
    q, n, k = 2, 4, 2

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.building = bldg.build(self.q, self.n)

    def round(self, r: int) -> list[dict]:
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        chamber = rng.randrange(len(self.building.chambers))
        opp = bldg.opp_complex(self.building, self.building.chambers[chamber])
        delta = opp.facets[rng.randrange(len(opp.facets))]
        return [{"L": opp, "delta": delta, "seed": rng.randrange(1 << 16), "chamber": chamber}]

    def call(self, item: dict) -> dict:
        rep = vk.verify_ados(item["L"], item["delta"], self.k, item["seed"])
        return {"lhs": rep.lhs, "rhs": rep.rhs, "agree": rep.agree, **_verdict(rep.verdict)}

    def staged(self, tr: Tracer, item: dict) -> dict:
        # A fresh copy, so that the replay does not reuse faces the timed call cached.
        L, delta = cx.SimplicialComplex(item["L"].facets, num_vertices=item["L"].num_vertices), item["delta"]
        with tr.span("vankampen.verify_ados"):
            d = tr.stage("complexes.double_over", cx, "double_over", L, delta)
            tr.count("complexes.facets_in", len(L.facets))
            tr.count("complexes.facets_out", len(d.facets))
            lhs, _ = staged_is_trivial(tr, d, 2 * self.k, item["seed"])
            rhs = tr.stage("homology.betti", homology, "betti", L, self.k) >= 1
        return {"lhs": lhs, "rhs": rhs}

    def expected(self, item: dict) -> dict:
        # Opp(C) of a thick A_3 building is a wedge of 2-spheres, and the
        # doubled complex does not embed in R^4: both sides hold.
        return {"lhs": True, "rhs": True, "agree": True, "opp_facets": self.q ** (self.n * (self.n - 1) // 2)}

    def check(self, item: dict, out: dict, want: dict) -> list[str]:
        problems = [f"{key} is {out[key]}, expected {want[key]}" for key in ("lhs", "rhs", "agree") if out[key] != want[key]]
        L = item["L"]
        if len(L.facets) != want["opp_facets"]:
            problems.append(f"Opp(C) has {len(L.facets)} facets, expected {want['opp_facets']}")
        dbl = oracles.doubled_facets(L.facets, L.num_vertices, item["delta"])
        return problems + oracles.check_certificate(dbl, 2 * self.k, out["kind"], out["cert"], out["cocycle"])

    def describe(self, item: dict) -> dict:
        L = item["L"]
        return {"input": f"Dbl(Opp(C{item['chamber']}), {list(item['delta'])})", "V": L.num_vertices + len(item["delta"]),
                "F": sum(2 ** len(set(f) & set(item["delta"])) for f in L.facets), "n": 2 * self.k,
                "expected": "nontrivial", "map_seed": item["seed"]}


# Known answers in R^4.  The doubled octahedral 2-sphere is K_{3,3,3}
# relabelled; it is kept because it reaches the same answer through Dbl.
def _octahedral(m: int) -> list[tuple[int, ...]]:
    return [tuple(2 * i + s for i, s in enumerate(signs)) for signs in product((0, 1), repeat=m)]


_RP2_6 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5), (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
_TORUS_7 = [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)] + [
    tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))) for i in range(7)
]
KNOWN_R4 = {
    "skeleton_2_of_6_simplex": (list(combinations(range(7), 3)), True),
    "K_3_3_3": ([(a, b, c) for a in range(3) for b in range(3, 6) for c in range(6, 9)], True),
    "doubled_octahedral_2_sphere": (sorted(oracles.doubled_facets(_octahedral(3), 6, (0, 2, 4))), True),
    "RP2_6": (_RP2_6, False),
    "torus_7": (_TORUS_7, False),
    "octahedral_2_sphere": (_octahedral(3), False),
    "octahedral_3_sphere": (_octahedral(4), False),
}
GRAPH_SIZES = (7, 8, 9, 10)
GRAPH_DENSITIES = 8
# Graphs per size and edge count in a round.  The known complexes take most
# of a round's time; more graphs per round put more operations into a run,
# which steadies the median operation time.
GRAPH_DRAWS = 2


class VkCorpus:
    """is_trivial on random graphs in R^2 and known-answer complexes in R^4."""

    name = "vk_corpus"

    def setup(self, seed: int) -> None:
        self.seed = seed

    def round(self, r: int) -> list[dict]:
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        items = []
        for v in GRAPH_SIZES:
            # Edge counts from V+2 (planar almost always) to 3V-5 (past the
            # Euler bound 3V-6, never planar), evenly spaced so that operation
            # times form a continuum and the median does not sit in a gap;
            # networkx gives each draw's answer.
            for step in range(GRAPH_DENSITIES):
                m = v + 2 + round(step * (2 * v - 7) / (GRAPH_DENSITIES - 1))
                for _ in range(GRAPH_DRAWS):
                    edges = rng.sample(list(combinations(range(v), 2)), m)
                    items.append(self._item(f"graph_{v}_{m}", edges + [(u,) for u in range(v)], v, 2, None, rng))
        for name, (facets, nontrivial) in KNOWN_R4.items():
            v = 1 + max(max(f) for f in facets)
            perm = list(range(v))
            rng.shuffle(perm)
            relabelled = [tuple(sorted(perm[u] for u in f)) for f in facets]
            items.append(self._item(name, relabelled, v, 4, nontrivial, rng))
        rng.shuffle(items)
        return items

    @staticmethod
    def _item(name: str, facets: list, v: int, n: int, nontrivial: Optional[bool], rng: random.Random) -> dict:
        k = cx.SimplicialComplex(facets, num_vertices=v)
        return {"name": name, "facets": facets, "V": v, "n": n, "K": k, "known": nontrivial, "seed": rng.randrange(1 << 16)}

    def call(self, item: dict) -> dict:
        return _verdict(vk.is_trivial(item["K"], item["n"], item["seed"]))

    def staged(self, tr: Tracer, item: dict) -> dict:
        k = cx.SimplicialComplex(item["facets"], num_vertices=item["V"])  # no faces cached by the timed call
        nontrivial, _ = staged_is_trivial(tr, k, item["n"], item["seed"])
        return {"nontrivial": nontrivial}

    def probe_cli(self, tr: Tracer, item: dict) -> dict:
        """``obstructor vk - n --json --certificate`` in-process, stdin and stdout swapped for strings."""
        argv = ["vk", "-", str(item["n"]), "--json", "--certificate", "--seed", str(item["seed"])]
        captured = io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(json.dumps({"facets": [list(f) for f in item["facets"]]}))
        try:
            with redirect_stdout(captured), tr.span("cli.vk_certificate"):
                code = cli.main(argv)
        finally:
            sys.stdin = stdin
        if code != 0:
            raise RuntimeError(f"cli vk exited {code}")
        payload = json.loads(captured.getvalue())
        return {"nontrivial": payload["result"]["verdict"] == "nontrivial", "kind": payload["certificate"]["kind"]}

    def expected(self, item: dict) -> dict:
        if item["known"] is not None:
            return {"nontrivial": item["known"]}
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(item["V"]))
        g.add_edges_from(f for f in item["facets"] if len(f) == 2)
        planar, _ = nx.check_planarity(g)
        # Hanani-Tutte: the mod-2 obstruction in the plane vanishes iff planar.
        return {"nontrivial": not planar}

    def check(self, item: dict, out: dict, want: dict) -> list[str]:
        if out["nontrivial"] != want["nontrivial"]:
            return [f"{item['name']}: nontrivial is {out['nontrivial']}, expected {want['nontrivial']}"]
        return oracles.check_certificate(item["facets"], item["n"], out["kind"], out["cert"], out["cocycle"])

    def describe(self, item: dict) -> dict:
        return {"input": item["name"], "V": item["V"], "F": len(item["K"].facets), "n": item["n"], "map_seed": item["seed"]}


class EmbedSweep:
    """verify_dbl_embedding on every chamber of q=3 n=3 and a few of q=2 n=4."""

    name = "embed_sweep"
    big_per_round = 3

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.small = bldg.build(3, 3)
        self.big = bldg.build(2, 4)
        self.pairs: dict[tuple[int, int], int] = {}

    def round(self, r: int) -> list[dict]:
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        small = [{"b": self.small, "chamber": c} for c in range(len(self.small.chambers))]
        rng.shuffle(small)
        big = [{"b": self.big, "chamber": c} for c in rng.sample(range(len(self.big.chambers)), self.big_per_round)]
        step = len(small) // self.big_per_round
        items = []
        for i, item in enumerate(big):
            items += small[i * step : (i + 1) * step] + [item]
        return items + small[len(big) * step :]

    def call(self, item: dict) -> dict:
        b = item["b"]
        rep = bldg.verify_dbl_embedding(b, b.chambers[item["chamber"]])
        return {"ok": rep.ok, "witness": rep.witness is not None, "pairs": rep.pairs_checked}

    def staged(self, tr: Tracer, item: dict) -> dict:
        b = item["b"]
        rep = tr.stage("building.verify_dbl_embedding", bldg, "verify_dbl_embedding", b, b.chambers[item["chamber"]])
        tr.count("building.pairs_checked", rep.pairs_checked)
        tr.count("building.chambers", len(b.chambers))
        return {"ok": rep.ok}

    def expected(self, item: dict) -> dict:
        # The paper's claim for these buildings: bending never collides.
        return {"ok": True, "witness": False, "chambers": oracles.q_factorial(item["b"].q, item["b"].n)}

    def check(self, item: dict, out: dict, want: dict) -> list[str]:
        problems = [f"{key} is {out[key]}, expected {want[key]}" for key in ("ok", "witness") if out[key] != want[key]]
        b = item["b"]
        if len(b.chambers) != want["chambers"]:
            problems.append(f"building has {len(b.chambers)} chambers, expected {want['chambers']}")
        # GL_n(F_q) is transitive on chambers, so every chamber of one
        # building checks the same number of pairs.
        first = self.pairs.setdefault((b.q, b.n), out["pairs"])
        if out["pairs"] != first:
            problems.append(f"pairs_checked {out['pairs']} differs from {first} on another chamber")
        return problems

    def describe(self, item: dict) -> dict:
        b = item["b"]
        return {"input": f"q={b.q} n={b.n} chamber {item['chamber']}", "V": len(b.vertices), "F": len(b.chambers),
                "n": b.n, "expected": "ok"}


class Construct:
    """build -> opp_complex -> double_over, and load_complex of long paths and cycles."""

    name = "construct"
    # (2,4), the largest building and the one whose subspace enumeration
    # grows fastest, is built five times a round, each with its own chamber
    # and facet.  The round then holds ten operations whose median falls
    # among the (2,4) builds, and not in the gap between two kinds of
    # operation; with five samples a round, that median is steady.
    buildings = ((3, 3), (5, 3)) + ((2, 4),) * 5
    # Load sizes over 500-2000 edges; the 2000-edge load alone takes about
    # half a round.
    path_sizes = (500, 1000, 2000)

    def setup(self, seed: int) -> None:
        self.seed = seed

    def round(self, r: int) -> list[dict]:
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        items = [{"kind": "build", "q": q, "n": n, "ci": rng.randrange(1 << 30), "fi": rng.randrange(1 << 30)}
                 for q, n in self.buildings]
        for size in self.path_sizes:
            m = size + rng.randrange(size // 50)
            shape = rng.choice(("path", "cycle"))
            v = m + 1 if shape == "path" else m
            perm = list(range(v))
            rng.shuffle(perm)
            edges = [(perm[i], perm[(i + 1) % v]) for i in range(m)]
            rng.shuffle(edges)
            text = json.dumps({"facets": [list(e) for e in edges]})
            items.append({"kind": "load", "shape": shape, "m": m, "V": v, "edges": edges, "text": text})
        rng.shuffle(items)
        return items

    def call(self, item: dict) -> dict:
        if item["kind"] == "load":
            k = cx.load_complex(io.StringIO(item["text"]))
            return {"V": k.num_vertices, "facets": k.facets}
        b = bldg.build(item["q"], item["n"])
        opp = bldg.opp_complex(b, b.chambers[item["ci"] % len(b.chambers)])
        delta = opp.facets[item["fi"] % len(opp.facets)]
        d = cx.double_over(opp, delta)
        return {"chambers": len(b.chambers), "opp": opp.facets, "opp_V": opp.num_vertices, "delta": delta,
                "dbl_F": len(d.facets), "dbl_V": d.num_vertices}

    def staged(self, tr: Tracer, item: dict) -> dict:
        if item["kind"] == "load":
            with tr.span("json.loads"):
                data = json.loads(item["text"])
            k = tr.stage("complexes.init", cx, "SimplicialComplex", data["facets"])
            tr.count("complexes.facets_in", len(data["facets"]))
            tr.count("complexes.facets_out", len(k.facets))
            return {"V": k.num_vertices}
        b = tr.stage("building.build", bldg, "build", item["q"], item["n"])
        tr.count("building.chambers", len(b.chambers))
        opp = tr.stage("building.opp_complex", bldg, "opp_complex", b, b.chambers[item["ci"] % len(b.chambers)])
        delta = opp.facets[item["fi"] % len(opp.facets)]
        d = tr.stage("complexes.double_over", cx, "double_over", opp, delta)
        tr.count("complexes.facets_in", len(opp.facets))
        tr.count("complexes.facets_out", len(d.facets))
        return {"chambers": len(b.chambers)}

    def expected(self, item: dict) -> dict:
        if item["kind"] == "load":
            return {"V": item["V"], "facets": sorted(tuple(sorted(e)) for e in item["edges"])}
        q, n = item["q"], item["n"]
        return {"chambers": oracles.q_factorial(q, n), "opp_F": q ** (n * (n - 1) // 2)}

    def check(self, item: dict, out: dict, want: dict) -> list[str]:
        if item["kind"] == "load":
            problems = []
            if out["V"] != want["V"]:
                problems.append(f"{item['shape']} has {out['V']} vertices, expected {want['V']}")
            if list(out["facets"]) != want["facets"]:
                problems.append(f"{item['shape']} facets differ from the {item['m']} input edges")
            return problems
        problems = []
        if out["chambers"] != want["chambers"]:
            problems.append(f"build({item['q']},{item['n']}) has {out['chambers']} chambers, expected {want['chambers']}")
        if len(out["opp"]) != want["opp_F"]:
            problems.append(f"Opp(C) has {len(out['opp'])} facets, expected {want['opp_F']}")
        # Each facet sigma doubles into one facet per subset of sigma & delta.
        dbl_f = sum(2 ** len(set(f) & set(out["delta"])) for f in out["opp"])
        dbl_v = out["opp_V"] + len(out["delta"])
        if (out["dbl_F"], out["dbl_V"]) != (dbl_f, dbl_v):
            problems.append(f"Dbl has {out['dbl_F']} facets on {out['dbl_V']} vertices, expected {dbl_f} on {dbl_v}")
        return problems

    def describe(self, item: dict) -> dict:
        if item["kind"] == "load":
            return {"input": f"{item['shape']} of {item['m']} edges", "V": item["V"], "F": item["m"], "n": 1,
                    "expected": f"{item['m']} facets"}
        q, n = item["q"], item["n"]
        return {"input": f"build({q},{n}) + Opp + Dbl", "V": oracles.subspace_count(q, n), "F": oracles.q_factorial(q, n), "n": n,
                "expected": f"{q ** (n * (n - 1) // 2)} Opp facets"}


WORKLOADS = {w.name: w for w in (VkStretch, VkCorpus, EmbedSweep, Construct)}
