"""Shared exception types and resource limits.

Contract violations (bad vertex ids, non-faces, malformed files) raise plain
``ValueError`` at the offending call site.  The two classes below cover the
remaining failure modes that callers are expected to catch and report: a
budget that an enumeration would exceed, and a run-time self-check that
failed, which means the program, not the input, is wrong.
"""

from __future__ import annotations

import os

__all__ = [
    "ResourceLimitError",
    "CertificateError",
    "DEFAULT_MAX_VERTICES",
    "default_max_cells",
]

#: Refuse to octahedralize / pair up complexes beyond this many vertices.
DEFAULT_MAX_VERTICES = 200

#: Fallback cap on the number of cells a configuration space may contain.
_DEFAULT_MAX_CELLS = 2_000_000


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured cell or vertex budget."""


class CertificateError(RuntimeError):
    """A run-time self-check failed.

    Raised when the boundary of a boundary is nonzero, the obstruction
    fails the cocycle condition, a certificate does not substitute, or two
    independent computations in a building or Coxeter complex disagree.
    These are explicit checks, so they also run under ``python -O``.
    """


def default_max_cells() -> int:
    """Cell budget for configuration spaces.

    Reads ``OBSTRUCTOR_MAX_CELLS`` from the environment so batch runs can
    raise or lower the ceiling without touching call sites.
    """
    raw = os.environ.get("OBSTRUCTOR_MAX_CELLS")
    if raw is None:
        return _DEFAULT_MAX_CELLS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"OBSTRUCTOR_MAX_CELLS must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"OBSTRUCTOR_MAX_CELLS must be positive, got {value}")
    return value
