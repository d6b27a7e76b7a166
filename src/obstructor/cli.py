"""Command-line front end.

Commands: ``gen`` (write example complexes as JSON), ``homology`` (Betti
numbers of a complex file), ``opp`` (opposition complex of a building
chamber), ``vk`` (obstruction verdict for a complex file), and ``verify``
(built-in consistency suites).  Exit codes: 0 success, 1 a verification
suite failed, 2 usage or parse error, 3 resource limit exceeded, 4 a
run-time self-check failed (a program fault, not an input one).

Reports are plain lines by default or a single JSON object with ``--json``;
for fixed inputs and seed the result fields are byte-identical across runs
(timing is reported separately and excluded from that guarantee); ``vk
--json`` adds the verdict's deterministic ``stats`` counters.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import combinations
from typing import Iterator, Optional, Sequence, TextIO

from . import building as bldg
from . import complexes as cx
from . import coxeter as cox
from . import homology
from . import vankampen as vk
from .errors import CertificateError, ResourceLimitError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_CERTIFICATE = 4


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except json.JSONDecodeError as exc:
        print(f"error: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obstructor",
        description="Exact van Kampen obstructions, buildings, and doubled complexes.",
    )
    sub = parser.add_subparsers(required=True)

    gen = sub.add_parser("gen", help="generate a complex and write it as JSON")
    gen.add_argument(
        "kind",
        choices=["cycle", "join", "octahedron", "building", "coxeter"],
    )
    gen.add_argument("params", nargs="*", help="kind-specific parameters")
    gen.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    gen.set_defaults(func=cmd_gen)

    hom = sub.add_parser("homology", help="Betti numbers of a complex file")
    hom.add_argument("file", help="complex JSON path, or - for stdin")
    hom.add_argument("--json", action="store_true")
    hom.set_defaults(func=cmd_homology)

    opp = sub.add_parser("opp", help="opposition complex of a building chamber")
    opp.add_argument("q", type=int)
    opp.add_argument("n", type=int)
    opp.add_argument("chamber", type=int, help="chamber index")
    opp.add_argument("-o", "--output", help="write the opposition complex JSON here")
    opp.add_argument("--json", action="store_true")
    opp.set_defaults(func=cmd_opp)

    vkp = sub.add_parser("vk", help="decide the obstruction for a complex file")
    vkp.add_argument("file", help="complex JSON path, or - for stdin")
    vkp.add_argument("n", type=int, help="target dimension")
    vkp.add_argument("--seed", type=int, default=0)
    vkp.add_argument("--certificate", action="store_true", help="include the certificate")
    vkp.add_argument("--max-cells", type=int, default=None)
    vkp.add_argument("--json", action="store_true")
    vkp.set_defaults(func=cmd_vk)

    ver = sub.add_parser("verify", help="run a built-in verification suite")
    ver.add_argument("suite", choices=["ados", "maincor", "embed", "coxeter"])
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=cmd_verify)

    return parser


# -- helpers ---------------------------------------------------------


def _read_complex(path: str) -> cx.SimplicialComplex:
    if path == "-":
        return cx.load_complex(sys.stdin)
    with open(path, "r", encoding="utf-8") as fp:
        return cx.load_complex(fp)


def _write_complex(k: cx.SimplicialComplex, path: str) -> None:
    if path == "-":
        cx.dump_complex(k, sys.stdout)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            cx.dump_complex(k, fp)


def _dump_json(obj: object, fp: TextIO) -> None:
    json.dump(obj, fp, indent=2, sort_keys=True)
    fp.write("\n")


def _report(args: argparse.Namespace, payload: dict, lines: Sequence[str]) -> int:
    if getattr(args, "json", False):
        payload = dict(payload)
        payload["timing_ms"] = round((time.perf_counter() - args.started) * 1000, 3)
        _dump_json(payload, sys.stdout)
    else:
        for line in lines:
            print(line)
    return EXIT_OK


# -- commands --------------------------------------------------------


def _int_params(raw: Sequence[str], count: int, usage: str) -> list[int]:
    if len(raw) != count:
        raise ValueError(f"expected {usage}")
    try:
        return [int(x) for x in raw]
    except ValueError as exc:
        raise ValueError(f"expected {usage}") from exc


def cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "cycle":
        (n,) = _int_params(args.params, 1, "gen cycle N")
        out = cx.cycle_complex(n)
    elif kind == "join":
        if len(args.params) < 2:
            raise ValueError("expected gen join K M [more part sizes]")
        sizes = _int_params(args.params, len(args.params), "gen join K M ...")
        out = cx.points_complex(sizes[0])
        for s in sizes[1:]:
            out = cx.join(out, cx.points_complex(s))
    elif kind == "octahedron":
        (m,) = _int_params(args.params, 1, "gen octahedron M")
        if m < 1:
            raise ValueError("octahedron needs at least 1 vertex pair")
        out = cx.octahedralize(cx.full_simplex(m))
    elif kind == "building":
        q, n = _int_params(args.params, 2, "gen building Q N")
        out = bldg.build(q, n).complex
    else:  # coxeter
        if len(args.params) != 2 or args.params[0] not in ("symmetric", "rightangled"):
            raise ValueError("expected gen coxeter {symmetric|rightangled} N")
        rank = _int_params(args.params[1:], 1, "gen coxeter {symmetric|rightangled} N")[0]
        family = cox.symmetric if args.params[0] == "symmetric" else cox.rightangled
        out = cox.coxeter_complex(family(rank)).complex
    _write_complex(out, args.output)
    return EXIT_OK


def cmd_homology(args: argparse.Namespace) -> int:
    k = _read_complex(args.file)
    bettis = homology.betti_numbers(k)
    payload = {
        "command": "homology",
        "input": {"file": args.file, "vertices": k.num_vertices, "facets": len(k.facets)},
        "result": {"betti": list(bettis), "euler_characteristic": k.euler_characteristic()},
    }
    lines = [
        f"complex: {k.num_vertices} vertices, {len(k.facets)} facets, dimension {k.dimension}",
        "betti: " + " ".join(f"b{i}={b}" for i, b in enumerate(bettis)),
    ]
    return _report(args, payload, lines)


def cmd_opp(args: argparse.Namespace) -> int:
    b = bldg.build(args.q, args.n)
    opp = bldg.opp_complex(b, b.chamber(args.chamber))
    bettis = homology.betti_numbers(opp)
    n_chambers = len(opp.facets)
    payload = {
        "command": "opp",
        "input": {"q": args.q, "n": args.n, "chamber": args.chamber},
        "result": {
            "opposite_chambers": n_chambers,
            "vertices": opp.num_vertices,
            "betti": list(bettis),
            "complex": cx.to_json_dict(opp),
        },
    }
    lines = [
        f"building q={args.q} n={args.n}: {bldg._flag_count(args.q, args.n)} chambers",
        f"opposition complex of chamber {args.chamber}: {n_chambers} chambers, "
        f"{opp.num_vertices} vertices",
        "betti: " + " ".join(f"b{i}={v}" for i, v in enumerate(bettis)),
    ]
    if args.output:
        _write_complex(opp, args.output)
    return _report(args, payload, lines)


def cmd_vk(args: argparse.Namespace) -> int:
    k = _read_complex(args.file)
    verdict = vk.is_trivial(k, args.n, args.seed, max_cells=args.max_cells)
    result = {
        "n": args.n,
        "verdict": "nontrivial" if verdict.nontrivial else "trivial",
        "embeddable_excluded": verdict.nontrivial,
    }
    payload = {
        "command": "vk",
        "input": {"file": args.file, "vertices": k.num_vertices, "facets": len(k.facets)},
        "seed": args.seed,
        "result": result,
        "stats": verdict.stats,
    }
    lines = [
        f"obstruction in dimension {args.n}: "
        + ("NONTRIVIAL (complex does not embed)" if verdict.nontrivial else "trivial"),
        f"seed: {args.seed}",
    ]
    if args.certificate:
        named = [[list(cell.sigma), list(cell.tau)] for cell in verdict.certificate_cells]
        payload["certificate"] = {"kind": verdict.certificate_kind, "cells": named}
        lines.append(f"certificate ({verdict.certificate_kind}): {len(named)} cells")
        for pair in named:
            lines.append(f"  {tuple(pair[0])} | {tuple(pair[1])}")
    return _report(args, payload, lines)


# -- verification suites ---------------------------------------------


def _triangle_free_graphs(n: int) -> Iterator[cx.SimplicialComplex]:
    """All labeled graphs on n vertices with >= 1 edge and no triangle."""
    possible = list(combinations(range(n), 2))
    for mask in range(1, 1 << len(possible)):
        edges = [possible[i] for i in range(len(possible)) if (mask >> i) & 1]
        graph = cx.SimplicialComplex(edges + [(v,) for v in range(n)], num_vertices=n)
        if graph.is_flag():  # a graph is flag iff it has no triangle
            yield graph


def _suite_ados(seed: int) -> Iterator[tuple[str, bool]]:
    five = cx.cycle_complex(5)
    rep = vk.verify_ados(five, five.faces(1)[0], 1, seed)
    yield ("5-cycle doubled over an edge: obstruction and homology agree (both true)", rep.agree and rep.lhs)
    path = cx.path_complex(4)
    rep = vk.verify_ados(path, path.faces(1)[0], 1, seed)
    yield ("4-edge path doubled over an edge: both routes false", rep.agree and not rep.lhs)
    sphere = cx.octahedralize(cx.full_simplex(3))
    rep = vk.verify_ados(sphere, sphere.facets[0], 2, seed)
    yield ("octahedral 2-sphere doubled over a triangle: both routes true", rep.agree and rep.lhs)
    # Per edge, obstruction and b1 >= 1 need not agree (a bridge can double
    # to a planar graph); what holds is: (a) an edge on a cycle obstructs,
    # (b) an obstruction forces b1 >= 1.
    for n in (2, 3, 4):
        ok = True
        for graph in _triangle_free_graphs(n):
            cycles = homology.cycle_basis(graph, 1)
            for spot, edge in enumerate(graph.faces(1)):
                rep = vk.verify_ados(graph, edge, 1, seed)
                if any(v[spot] for v in cycles) and not rep.lhs:
                    ok = False
                if rep.lhs and not rep.rhs:
                    ok = False
        yield (
            f"all triangle-free graphs on {n} vertices, every edge doubled: "
            "edges on a cycle obstruct, obstruction implies b1 >= 1",
            ok,
        )


def _suite_maincor(seed: int) -> Iterator[tuple[str, bool]]:
    b = bldg.build(2, 3)
    ok = all(
        homology.betti(bldg.opp_complex(b, c), 1) == 1 for c in b.chambers
    )
    yield ("building q=2 n=3: opposition complex of every chamber has b1 = 1", ok)
    verdict = vk.is_trivial(b.complex, 2, seed)
    yield ("building q=2 n=3: obstruction nontrivial in the plane", verdict.nontrivial)


def _suite_embed(seed: int) -> Iterator[tuple[str, bool]]:
    for q, n, chambers in ((2, 3, None), (3, 3, None), (2, 4, 1), (5, 3, 1), (2, 5, 1)):
        b = bldg.build(q, n)
        picks = b.chambers if chambers is None else b.chambers[:chambers]
        ok = all(bldg.verify_dbl_embedding(b, c).ok for c in picks)
        scope = "all chambers" if chambers is None else f"{chambers} chamber(s)"
        yield (f"doubled opposition complexes stay disjoint under bending: q={q} n={n}, {scope}", ok)


def _suite_coxeter(seed: int) -> Iterator[tuple[str, bool]]:
    systems = [cox.symmetric(3), cox.symmetric(4)] + [cox.rightangled(r) for r in (2, 3, 4)]
    for system in systems:
        name = f"{system.family}({system.n})"
        elements = list(system.elements())
        w0 = system.longest_element()
        # opposite_in_apartment raises CertificateError (exit 4) when its
        # algebraic and wall criteria disagree on a pair.
        unique = all(sum(system.opposite_in_apartment(u, v) for v in elements) == 1 for u in elements)
        yield (
            f"{name}: algebraic and wall opposition criteria agree on all pairs; "
            "each element has exactly one opposite",
            unique,
        )
        partition = sorted(w for image in system.bending_images().values() for w in image) == sorted(elements)
        yield (f"{name}: bending images over all target sets partition the group", partition)
        yield (f"{name}: the longest element descends at every generator", system.in_set(w0) == frozenset(system.generators))


_SUITES = {
    "ados": _suite_ados,
    "maincor": _suite_maincor,
    "embed": _suite_embed,
    "coxeter": _suite_coxeter,
}


def cmd_verify(args: argparse.Namespace) -> int:
    results = list(_SUITES[args.suite](args.seed))
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in results]
    all_ok = all(ok for _, ok in results)
    lines.append(f"suite {args.suite}: {'all passed' if all_ok else 'FAILURES PRESENT'}")
    payload = {
        "command": "verify",
        "input": {"suite": args.suite},
        "seed": args.seed,
        "result": {
            "cases": [{"name": n, "ok": ok} for n, ok in results],
            "ok": all_ok,
        },
    }
    code = _report(args, payload, lines)
    return code if all_ok else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
