"""End-to-end command-line checks through real subprocesses.

Each invocation goes through ``python -m obstructor`` so argument parsing,
exit codes, stdout/stderr split, and file handling are all exercised the
way a shell user would hit them.  Only the pinned certificate digests call
``main`` in process, as 24 subprocesses would cost seconds.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest

from obstructor import complexes as cx
from obstructor.cli import main


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


def _doubled_octahedral_sphere() -> cx.SimplicialComplex:
    sphere = cx.octahedralize(cx.full_simplex(3))
    return cx.double_over(sphere, sphere.facets[0])


CERTIFICATE_CASES = {
    "k33": (lambda: cx.join(cx.points_complex(3), cx.points_complex(3)), 2),
    "k5": (lambda: cx.SimplicialComplex(combinations(range(5), 2)), 2),
    "k4": (lambda: cx.SimplicialComplex(combinations(range(4), 2)), 2),
    "doubled_octahedral_2_sphere": (_doubled_octahedral_sphere, 4),
}

# sha256 of `vk - N --seed S --certificate --json` (its timing_ms line
# dropped) and of the plain `--certificate` output, per case and seed.
CERTIFICATE_DIGESTS = {
    ("k33", 0): ("284a078d84bc3bf8a441fae50e88216b2eb35f1a018ac71267e931408d815bfa", "514089415c9592ad3a090f857ca98c37f1ade52f3a142a3f422fab7f92d9af58"),
    ("k33", 1): ("4c0d7d4d80cf664c71823aaefbb515c833ef2cf54187b7d1e3d5b8e027ba837d", "25d31288307cb4e257a678d6bc9a4fbab81095487a5631d3c9c591f284ccdea3"),
    ("k33", 17): ("a16d2966d4890c1fcfbe8acb5ceb0e37517a0de8202813c5ff3436975f337030", "2ffddc5393a36ae6f1dddeb37a3db3264c3219eb188a4f0a2d4f3f25b7d05890"),
    ("k5", 0): ("68ba3bed62a788911ddd8525d0c9a01bdf952ef9cf5084af9d8f9bbe4032d753", "8c89c4e1b69f2115f8c353e4acbd701bd2547c65d0a5f2f831b9af114621dd38"),
    ("k5", 1): ("29919282d4c5f54e297086026b50f97b520431b8ab3f8545c27610912f9b8899", "5198a0c073de013eec2a96ada94902c9283f0f9e865f244b345c84fefdbc995f"),
    ("k5", 17): ("494512cdb1d4cb2491c5d1c735c345f169c8ef3d0623d005a3afe5c382b12054", "a17dd2db63fa78f9bcd3e425f9b187358a7334596caf6a96586aadccd9c5049b"),
    ("k4", 0): ("8c770751904af65067bf054cd011efda50b16720110d1aa7947627dd5766bd31", "60207d73ec4110da08bfe2446e3b8b7115ef40512f1d87ddb55b8ded69ce1369"),
    ("k4", 1): ("e724c3b20f1ee04cae1763f765b00b05f3011f4721cd11e32153ff9a8247fb56", "ef5453d625d4eae56c03c33fb7f40af40f8cd98162fce8c435937387b183d26b"),
    ("k4", 17): ("bdd439f1fd6941cdde04f6b21540a40a621b4ba273ac12142d719f9c605ec644", "ab6e0fe7ddee9a1aa3621508281b87be71de934a80a8d6445606670269ddd82c"),
    ("doubled_octahedral_2_sphere", 0): ("8a0f650f0a5eecfbb935ffc1254ef811faa364d0d3d86a58e39d3fc21fdaffd0", "a218ae298d057e76cd305cf3f73b2e6787acc4b2dc80c7876e1aa149337632e3"),
    ("doubled_octahedral_2_sphere", 1): ("e1839ec0df19d0138859f72014a906ff78bca02f533b635f332b75f7787e4d0b", "e0aef121a06e7ced90cdf0fc461bc79e50375f68e0b7b40c2bec27b1bc87f4ab"),
    ("doubled_octahedral_2_sphere", 17): ("b1ce2dc809798986069b48a67684aef247009209617955ac435c8afe111b7bb0", "cd31b124b49aa269cc28851dfcdf41b7d5b08094bbf33ea17a782a2dd14719ae"),
}


@pytest.mark.parametrize("name, seed", CERTIFICATE_DIGESTS)
def test_vk_certificate_output_is_pinned(monkeypatch, capsys, name, seed):
    """The reported certificate cells, byte for byte, in both formats.  The
    complex comes on stdin, so ``input.file`` reads ``-`` on every run."""
    make, n = CERTIFICATE_CASES[name]
    text = json.dumps({"facets": [list(f) for f in make().facets]})
    digests = []
    for extra in (["--json"], []):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(["vk", "-", str(n), "--seed", str(seed), "--certificate", *extra]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        kept = "".join(line for line in lines if not line.startswith('  "timing_ms":'))
        digests.append(hashlib.sha256(kept.encode()).hexdigest())
    assert tuple(digests) == CERTIFICATE_DIGESTS[name, seed]


# sha256 of each `gen coxeter` output and of `verify coxeter`, plain and as
# `--json` with its timing_ms line dropped, recorded while length and
# descents still had a rule per family.
COXETER_DIGESTS = {
    ("gen", "coxeter", "symmetric", "2"): "d046234ab6bc0722b8688d129ff13c1da07c1df76d474e7998f1b8c2c1e8ace0",
    ("gen", "coxeter", "symmetric", "3"): "af01f686118006021ae28f90acc7ff9429fc94f3e84dee9f78deec47b500a759",
    ("gen", "coxeter", "symmetric", "4"): "3e42fcefe8520c1d830dd4ebfd227e2b8d163e31141824b226f1c11b9ca63343",
    ("gen", "coxeter", "symmetric", "5"): "b172df120a8204a871c69d291f7fcb45278efa9cbbfa31c280450b2be83d8205",
    ("gen", "coxeter", "symmetric", "6"): "3055a8f726433d78d21c2f5a1690afc19ed46fb14ac21016249f9271583dbcb0",
    ("gen", "coxeter", "rightangled", "1"): "ccde5abee1014e3ab3bd2babd5ee4f8993416b9f07c387bd0bfd62e3c26991eb",
    ("gen", "coxeter", "rightangled", "2"): "a351e8e17fb455fc56a12d3157e198b9291681b5061d510fddc2aeab455c2787",
    ("gen", "coxeter", "rightangled", "3"): "6aed664ee938b115257861f82ace458b67e52f62ee0ad57d04a82caf0e9b4ada",
    ("gen", "coxeter", "rightangled", "4"): "da8dd02b499a409ede0dcf5ef452213ade39a410bea9f79a164c50c2332243de",
    ("verify", "coxeter"): "cd176061bd3654ce1571315ddced9375439eefa1f8d366556282083b5da0266d",
    ("verify", "coxeter", "--json"): "bae17d2222729e2176099f95e9b9b8d597978bdcb3552971e8659466a434d179",
}


@pytest.mark.parametrize("args", COXETER_DIGESTS, ids=" ".join)
def test_coxeter_output_is_pinned(capsys, args):
    assert main(list(args)) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith('  "timing_ms":'))
    assert hashlib.sha256(kept.encode()).hexdigest() == COXETER_DIGESTS[args]


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
    """A wrong parity rule, patched into the interlacing test that the
    cocycle reads, is caught with asserts stripped, and the CLI reports it
    with exit code 4.  On the full simplex on 5 vertices,
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
        "vk._interlace = lambda a, b: 1",
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
