"""The README's examples run as written.

The Library block is executed, and the Command-line transcript is replayed
in a temporary directory with ``obstructor`` run as ``python -m
obstructor``; every command must print exactly the lines shown under it.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import obstructor

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(section: str, lang: str) -> str:
    """The first ```lang block under the ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1]
    match = re.search(rf"```{lang}\n(.*?)```", body, re.S)
    assert match, f"no {lang} block under {section}"
    return match.group(1)


def transcript() -> list[tuple[str, list[str]]]:
    """(command, expected stdout lines) for each ``$ `` line."""
    steps: list[tuple[str, list[str]]] = []
    for line in fenced_block("Command line", "text").splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        elif line:
            steps[-1][1].append(line)
    return steps


def test_library_example_runs():
    exec(compile(fenced_block("Library", "python"), str(README), "exec"), {})


def test_command_line_transcript_matches(tmp_path):
    src = str(Path(obstructor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run_as = f"{shlex.quote(sys.executable)} -m obstructor "
    steps = transcript()
    assert len(steps) >= 4
    for command, expected in steps:
        res = subprocess.run(
            command.replace("obstructor ", run_as),
            shell=True,
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert res.returncode == 0, (command, res.stderr)
        assert res.stdout.splitlines() == expected, command
