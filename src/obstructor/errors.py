"""Shared exception types and resource limits.

Contract violations (bad vertex ids, non-faces, malformed files, a
non-positive budget) raise plain ``ValueError`` at the offending call
site.  The two classes below cover the remaining failure modes that
callers are expected to catch and report: a budget that an enumeration
would exceed, and a run-time self-check that failed, which means the
program, not the input, is wrong.
"""

from __future__ import annotations

__all__ = [
    "ResourceLimitError",
    "CertificateError",
    "DEFAULT_MAX_CELLS",
    "MAX_BOUNDARY_BYTES",
]

#: Cap on the cells of the configuration-space window a decision reads,
#: unless the caller passes ``max_cells=`` (``--max-cells`` on the CLI).
#: It also caps the signed facets of an octahedralization or a double,
#: counted before any is built.
DEFAULT_MAX_CELLS = 2_000_000

#: Cap on that window's dense boundary columns, r x c bits a map of c cells.
MAX_BOUNDARY_BYTES = 1 << 30


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured cell budget."""


class CertificateError(RuntimeError):
    """A run-time self-check failed.

    Raised when the boundary of a boundary is nonzero, the obstruction
    fails the cocycle condition, a certificate does not substitute, or two
    independent computations in a building or Coxeter complex disagree.
    These are explicit checks, so they also run under ``python -O``.
    """
