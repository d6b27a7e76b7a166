"""Complex constructions that only the tests use.

``full_subcomplex`` is the induced subcomplex by restriction of every
facet.  The package builds Opp(C) from the chambers opposite C and
``double_over`` from the signings of each facet, so this stays here as
the oracle of both.  ``signed_complex_by_signings`` lists every facet's
signed copies with ``signings`` and renames them through a sorted id
list; the package signs a facet with one ``product`` of the ids its
vertices may take, so this stays here as the oracle of that.
"""

from __future__ import annotations

from typing import Collection, Iterable

from obstructor.complexes import SimplicialComplex, signed_label, signings


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


def signed_complex_by_signings(k: SimplicialComplex, doubled: Collection[int]) -> SimplicialComplex:
    """The signings of every facet of ``k``, signed ids renumbered in sorted
    order: vertex ``v`` as ``2v``, and also as ``2v + 1`` if doubled."""
    ids = sorted([2 * v for v in range(k.num_vertices)] + [2 * v + 1 for v in doubled])
    rename = {sv: i for i, sv in enumerate(ids)}
    facets = [tuple(rename[sv] for sv in c) for f in k.facets for c in signings(f, doubled)]
    labels = tuple(signed_label(k.vertex_label(sv // 2), sv) for sv in ids)
    return SimplicialComplex(facets, labels=labels, num_vertices=len(ids))
