"""Complex constructions that only the tests use.

``full_subcomplex`` is the induced subcomplex by restriction of every
facet.  The package builds Opp(C) from the chambers opposite C and
``double_over`` from the signings of each facet, so this stays here as
the oracle of both.  ``signed_complex_by_signings`` lists every facet's
signed copies with ``signings`` and renames them through a sorted id
list; the package signs a facet with one ``product`` of the ids its
vertices may take, so this stays here as the oracle of that.
``complex_by_facet_walk`` is the constructor that checked and sorted
each facet by its own ``_canonical_simplex`` call; the package sorts
every facet in one pass and checks them in bulk, so this stays here as
the oracle of its facets, vertex count, labels and errors.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional, Sequence

from obstructor.complexes import SimplicialComplex, _canonical_simplex, _require_vertex_budget, signed_label, signings


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


def complex_by_facet_walk(
    facets: Iterable[Iterable[int]],
    labels: Optional[Sequence[str]] = None,
    num_vertices: Optional[int] = None,
) -> tuple[tuple[tuple[int, ...], ...], int, Optional[tuple[str, ...]]]:
    """``(facets, num_vertices, labels)`` of ``SimplicialComplex(facets,
    labels, num_vertices)``, each input facet checked in turn."""
    cleaned = dict.fromkeys(map(_canonical_simplex, facets))
    cleaned.pop((), None)
    maximal = list(cleaned)
    if len(set(map(len, maximal))) > 1:
        by_length: dict[int, list[tuple[int, ...]]] = {}
        for f in maximal:
            by_length.setdefault(len(f), []).append(f)
        lengths = sorted(by_length, reverse=True)
        under: dict[int, list[frozenset[int]]] = {}
        maximal = []
        for i, length in enumerate(lengths):
            kept = by_length[length]
            if under:
                kept = [f for f in kept if not any(g.issuperset(f) for g in min((under.get(v, ()) for v in f), key=len))]
            maximal += kept
            if i + 1 < len(lengths):
                for f in kept:
                    for v in f:
                        under.setdefault(v, []).append(frozenset(f))
    maximal.sort()
    seen = set().union(*maximal)
    top = max(seen) + 1 if seen else 0
    if num_vertices is None:
        num_vertices = top
    if num_vertices < top:
        raise ValueError(f"num_vertices {num_vertices} below max vertex id {top - 1}")
    _require_vertex_budget(num_vertices)
    missing = set(range(num_vertices)) - seen
    if missing:
        maximal = sorted(maximal + [(v,) for v in missing])
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != num_vertices:
            raise ValueError(f"{len(labels)} labels for {num_vertices} vertices")
    return tuple(maximal), num_vertices, labels
