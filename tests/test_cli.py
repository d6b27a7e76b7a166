"""End-to-end command-line checks through real subprocesses.

Each invocation goes through ``python -m obstructor`` so argument parsing,
exit codes, stdout/stderr split, and file handling are all exercised the
way a shell user would hit them.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import pytest


def run(*args: str, stdin_text: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "obstructor", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        timeout=300,
    )


# -- gen -------------------------------------------------------------


def test_gen_cycle():
    res = run("gen", "cycle", "5")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert len(data["facets"]) == 5
    assert all(len(f) == 2 for f in data["facets"])


def test_gen_is_deterministic():
    a = run("gen", "building", "2", "3")
    b = run("gen", "building", "2", "3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_gen_join():
    res = run("gen", "join", "3", "3")
    data = json.loads(res.stdout)
    assert len(data["facets"]) == 9


def test_gen_triple_join():
    res = run("gen", "join", "3", "3", "3")
    data = json.loads(res.stdout)
    assert len(data["facets"]) == 27
    assert all(len(f) == 3 for f in data["facets"])


def test_gen_octahedron():
    res = run("gen", "octahedron", "3")
    data = json.loads(res.stdout)
    assert len(data["facets"]) == 8
    assert data["labels"][:2] == ["0-", "0+"]


def test_gen_building_labels():
    res = run("gen", "building", "2", "3")
    data = json.loads(res.stdout)
    assert len(data["facets"]) == 21
    assert len(data["labels"]) == 14
    assert data["labels"][0].startswith("1-subspace:")


def test_gen_coxeter():
    sym = json.loads(run("gen", "coxeter", "symmetric", "3").stdout)
    assert len(sym["facets"]) == 6
    ra = json.loads(run("gen", "coxeter", "rightangled", "2").stdout)
    assert len(ra["facets"]) == 4


def test_gen_output_file(tmp_path):
    out = tmp_path / "c5.json"
    res = run("gen", "cycle", "5", "-o", str(out))
    assert res.returncode == 0 and res.stdout == ""
    assert len(json.loads(out.read_text())["facets"]) == 5


def test_gen_usage_errors():
    assert run("gen", "cycle").returncode == 2
    assert run("gen", "cycle", "x").returncode == 2
    assert run("gen", "join", "3").returncode == 2
    assert run("gen", "coxeter", "borel", "3").returncode == 2


def test_gen_resource_error():
    res = run("gen", "building", "2", "21")
    assert res.returncode == 3
    assert "error:" in res.stderr


@pytest.mark.parametrize(
    "params", [("octahedron", "40"), ("coxeter", "rightangled", "40"), ("coxeter", "symmetric", "12")]
)
def test_gen_refuses_too_many_facets_at_once(params):
    """2^40 signed facets and 12! chambers are counted, not enumerated."""
    started = time.perf_counter()
    res = run("gen", *params)
    assert time.perf_counter() - started < 1.0
    assert res.returncode == 3 and "error:" in res.stderr


@pytest.mark.parametrize(
    "params", [("cycle", "5000000"), ("join", "3000", "3000"), ("octahedron", "100000000")]
)
def test_gen_refuses_too_many_vertices_or_joined_facets_at_once(params):
    """5,000,000 cycle vertices, 9,000,000 joined edges and a 100,000,000-vertex
    simplex to octahedralize are refused before any simplex is built."""
    started = time.perf_counter()
    res = run("gen", *params)
    assert time.perf_counter() - started < 1.0
    assert res.returncode == 3 and "error:" in res.stderr


# -- homology --------------------------------------------------------


def test_homology_plain(tmp_path):
    f = tmp_path / "c5.json"
    run("gen", "cycle", "5", "-o", str(f))
    res = run("homology", str(f))
    assert res.returncode == 0
    assert "b0=1 b1=1" in res.stdout


def test_homology_json_and_stdin():
    gen = run("gen", "octahedron", "3")
    res = run("homology", "-", "--json", stdin_text=gen.stdout)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["result"]["betti"] == [1, 0, 1]
    assert payload["result"]["euler_characteristic"] == 2
    assert "timing_ms" in payload


def test_homology_parse_error(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{"facets": [[0, 1]')
    res = run("homology", str(f))
    assert res.returncode == 2
    assert "parse error at line" in res.stderr


def test_homology_schema_error(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"facets": "zero"}')
    res = run("homology", str(f))
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_homology_missing_file():
    res = run("homology", "/nonexistent/path.json")
    assert res.returncode == 2


# -- vk --------------------------------------------------------------


@pytest.fixture()
def k33_file(tmp_path):
    f = tmp_path / "k33.json"
    run("gen", "join", "3", "3", "-o", str(f))
    return str(f)


def test_vk_nontrivial(k33_file):
    res = run("vk", k33_file, "2")
    assert res.returncode == 0
    assert "NONTRIVIAL" in res.stdout
    assert "seed: 0" in res.stdout


def test_vk_trivial(tmp_path):
    f = tmp_path / "c5.json"
    run("gen", "cycle", "5", "-o", str(f))
    res = run("vk", str(f), "2")
    assert res.returncode == 0
    assert "trivial" in res.stdout and "NONTRIVIAL" not in res.stdout


def test_vk_json_fields(k33_file):
    res = run("vk", k33_file, "2", "--json", "--seed", "5")
    payload = json.loads(res.stdout)
    assert payload["result"]["verdict"] == "nontrivial"
    assert payload["result"]["embeddable_excluded"] is True
    assert payload["seed"] == 5


def test_vk_certificate(k33_file):
    res = run("vk", k33_file, "2", "--certificate", "--json")
    payload = json.loads(res.stdout)
    cert = payload["certificate"]
    assert cert["kind"] == "cycle"
    assert len(cert["cells"]) == 18
    sigma, tau = cert["cells"][0]
    assert len(sigma) == 2 and len(tau) == 2
    plain = run("vk", k33_file, "2", "--certificate")
    assert "certificate (cycle): 18 cells" in plain.stdout


def test_vk_json_reports_deterministic_stats(k33_file):
    stats = json.loads(run("vk", k33_file, "2", "--json").stdout)["stats"]
    assert stats == {
        "cells": {"1": 36, "2": 18, "3": 0},
        "boundary_rows": 36,
        "boundary_cols": 18,
        "boundary_rank": 17,
        "cocycle_weight": 5,
        "certificate_kind": "cycle",
        "certificate_weight": 18,
    }


def test_vk_reports_are_reproducible(k33_file):
    a = run("vk", k33_file, "2")
    b = run("vk", k33_file, "2")
    assert a.stdout == b.stdout  # plain output carries no timing
    ja = json.loads(run("vk", k33_file, "2", "--json").stdout)
    jb = json.loads(run("vk", k33_file, "2", "--json").stdout)
    ja.pop("timing_ms")
    jb.pop("timing_ms")
    assert ja == jb


def test_vk_resource_cap(k33_file):
    res = run("vk", k33_file, "2", "--max-cells", "3")
    assert res.returncode == 3
    assert "error:" in res.stderr


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_vk_refuses_a_nonpositive_cell_budget(k33_file, cap):
    res = run("vk", k33_file, "2", "--max-cells", cap)
    assert res.returncode == 2
    assert res.stderr == f"error: max_cells must be positive, got {cap}\n"


def large_facets(kind: str) -> list[list[int]]:
    """A 20,000-edge path, or 20,000 random triangles on 3,000 vertices."""
    if kind == "path":
        return [[i, i + 1] for i in range(20_000)]
    rng = random.Random(0)
    return [rng.sample(range(3_000), 3) for _ in range(20_000)]


@pytest.mark.parametrize("kind", ["path", "triangles"])
def test_vk_refuses_a_large_input_quickly(tmp_path, kind):
    """Loading 20,000 facets and refusing a small cell budget takes seconds,
    not the minutes of a quadratic facet scan."""
    f = tmp_path / "large.json"
    f.write_text(json.dumps({"facets": large_facets(kind)}))
    started = time.perf_counter()
    res = run("vk", str(f), "2", "--max-cells", "1000")
    assert time.perf_counter() - started < 10.0
    assert res.returncode == 3, res.stderr
    assert "exceeds 1000 cells" in res.stderr


def test_vk_refuses_more_vertices_than_parameters(tmp_path):
    """70,000 isolated points have an empty window in the plane, but no
    70,000 distinct 16-bit moment-curve parameters exist."""
    f = tmp_path / "points.json"
    f.write_text(json.dumps({"facets": [[i] for i in range(70_000)]}))
    res = run("vk", str(f), "2")
    assert res.returncode == 3, res.stderr
    assert "70000 vertices exceed the 65536" in res.stderr


def test_vk_is_unchanged_under_optimize(k33_file):
    plain = json.loads(run("vk", k33_file, "2", "--json", "--certificate").stdout)
    optimized = subprocess.run(
        [sys.executable, "-O", "-m", "obstructor", "vk", k33_file, "2", "--json", "--certificate"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert optimized.returncode == 0, optimized.stderr
    optimized_payload = json.loads(optimized.stdout)
    plain.pop("timing_ms")
    optimized_payload.pop("timing_ms")
    assert optimized_payload == plain


def test_cocycle_check_survives_optimize(tmp_path):
    """A wrong parity rule is caught with asserts stripped, and the CLI
    reports it with exit code 4.  On the full simplex on 5 vertices,
    ``full_simplex(5)``, each 3-cell made of an edge and a disjoint
    triangle has 5 facets, so the constant cochain 1 is not a cocycle."""
    f = tmp_path / "simplex.json"
    f.write_text(json.dumps({"facets": [[0, 1, 2, 3, 4]]}))
    script = "\n".join([
        "import sys",
        "assert False, 'asserts are not stripped'",
        "from obstructor import vankampen as vk",
        "from obstructor.cli import main",
        "from obstructor.complexes import full_simplex",
        "from obstructor.errors import CertificateError",
        "vk.pair_intersection_parity = lambda params, cell: 1",
        "try:",
        "    vk.is_trivial(full_simplex(5), 2)",
        "except CertificateError as exc:",
        "    print('caught:', exc)",
        "    sys.exit(main(['vk', sys.argv[1], '2']))",
        "sys.exit('no CertificateError')",
    ])
    res = subprocess.run(
        [sys.executable, "-O", "-c", script, str(f)], capture_output=True, text=True, timeout=300
    )
    assert "caught: obstruction failed the cocycle condition" in res.stdout, res.stderr
    assert res.returncode == 4
    assert res.stderr == "error: obstruction failed the cocycle condition\n"


# -- opp -------------------------------------------------------------


def test_opp_plain():
    res = run("opp", "2", "3", "0")
    assert res.returncode == 0
    assert "building q=2 n=3: 21 chambers" in res.stdout
    assert "8 chambers, 8 vertices" in res.stdout
    assert "b0=1 b1=1" in res.stdout


def test_opp_json_and_output(tmp_path):
    out = tmp_path / "opp.json"
    res = run("opp", "2", "3", "4", "--json", "-o", str(out))
    payload = json.loads(res.stdout)
    assert payload["result"]["opposite_chambers"] == 8
    assert payload["result"]["betti"] == [1, 1]
    written = json.loads(out.read_text())
    assert len(written["labels"]) == 8
    assert written["facets"] == payload["result"]["complex"]["facets"]


def test_opp_chamber_range_error():
    res = run("opp", "2", "3", "99")
    assert res.returncode == 2
    assert "out of range 0..20" in res.stderr


def test_opp_refuses_a_huge_dimension_at_once():
    """F_3^10000000 is refused by its dimension; 3^10000000 is neither
    computed nor printed."""
    started = time.perf_counter()
    res = run("opp", "3", "10000000", "0")
    assert time.perf_counter() - started < 1.0
    assert res.returncode == 3
    assert "desk-scale cap of 1000000 vectors" in res.stderr and len(res.stderr) < 200


def test_opp_rejects_non_prime():
    res = run("opp", "4", "3", "0")
    assert res.returncode == 2
    assert "prime" in res.stderr


# -- verify ----------------------------------------------------------


def test_verify_coxeter_suite():
    res = run("verify", "coxeter")
    assert res.returncode == 0
    assert "suite coxeter: all passed" in res.stdout
    assert "FAIL" not in res.stdout


def test_verify_maincor_suite_json():
    res = run("verify", "maincor", "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["result"]["ok"] is True
    assert all(case["ok"] for case in payload["result"]["cases"])
    assert len(payload["result"]["cases"]) == 2


def test_verify_unknown_suite():
    assert run("verify", "unknown").returncode == 2


def test_no_arguments_is_usage_error():
    assert run().returncode == 2
