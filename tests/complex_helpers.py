"""Complex constructions that only the tests use.

``full_subcomplex`` is the induced subcomplex by restriction of every
facet.  The package builds Opp(C) from the chambers opposite C and
``double_over`` from the signings of each facet, so this stays here as
the oracle of both.
"""

from __future__ import annotations

from typing import Iterable

from obstructor.complexes import SimplicialComplex


def full_subcomplex(k: SimplicialComplex, vertices: Iterable[int]) -> SimplicialComplex:
    """Induced subcomplex of ``k`` on ``vertices``, relabeled to 0..m-1.

    New vertex ``i`` is the i-th element of ``sorted(vertices)``; labels
    are inherited so the correspondence stays legible.
    """
    w = sorted(set(vertices))
    for v in w:
        if not 0 <= v < k.num_vertices:
            raise ValueError(f"vertex {v} not in complex with {k.num_vertices} vertices")
    keep = set(w)
    rename = {v: i for i, v in enumerate(w)}
    restricted = {tuple(rename[v] for v in f if v in keep) for f in k.facets}
    restricted.discard(())
    labels = None
    if k.labels is not None:
        labels = tuple(k.labels[v] for v in w)
    return SimplicialComplex(restricted, labels=labels, num_vertices=len(w))
