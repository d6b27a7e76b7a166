"""Finite abstract simplicial complexes on integer vertices.

A complex is stored by its facets (inclusion-maximal simplices).  Vertices
are exactly ``0 .. num_vertices-1`` with no gaps; a simplex is a strictly
increasing tuple of vertex ids.  Constructors canonicalize: faces nested in
other input faces are dropped, duplicates removed, facets sorted
lexicographically.  Optional human-readable labels ride along and survive
subcomplex operations.

Signed vertices (for octahedralization) are encoded arithmetically:
vertex ``v`` of the base complex yields ``2*v`` (minus copy) and
``2*v + 1`` (plus copy).
"""

from __future__ import annotations

import json
from itertools import combinations, product
from typing import IO, Iterable, Iterator, Optional, Sequence

from .errors import DEFAULT_MAX_VERTICES, ResourceLimitError

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "signed_label",
    "octahedralize",
    "double_over",
    "join",
    "cycle_complex",
    "path_complex",
    "points_complex",
    "full_simplex",
    "load_complex",
    "dump_complex",
]

Simplex = tuple[int, ...]


def _canonical_simplex(vertices: Iterable[int]) -> Simplex:
    vs = tuple(sorted(vertices))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"simplex {vs} repeats vertex {a}")
    if vs and vs[0] < 0:
        raise ValueError(f"negative vertex id in {vs}")
    return vs


class SimplicialComplex:
    """Immutable simplicial complex given by its facets."""

    __slots__ = ("num_vertices", "facets", "labels", "_faces_cache", "_facet_sets")

    def __init__(
        self,
        facets: Iterable[Iterable[int]],
        labels: Optional[Sequence[str]] = None,
        num_vertices: Optional[int] = None,
    ) -> None:
        cleaned = sorted({_canonical_simplex(f) for f in facets if tuple(f) != ()})
        # Drop faces nested inside other input faces.  Every superset of a
        # face contains its least-shared vertex, so only the longer faces
        # listed under that vertex are tested.
        under: dict[int, list[frozenset[int]]] = {}
        for g in map(frozenset, cleaned):
            for v in g:
                under.setdefault(v, []).append(g)
        maximal = []
        for f in cleaned:
            rarest = min(f, key=lambda v: len(under[v]))
            if not any(len(g) > len(f) and g.issuperset(f) for g in under[rarest]):
                maximal.append(f)
        seen = {v for f in maximal for v in f}
        top = max(seen) + 1 if seen else 0
        if num_vertices is None:
            num_vertices = top
        if num_vertices < top:
            raise ValueError(f"num_vertices {num_vertices} below max vertex id {top - 1}")
        if num_vertices > 1_000_000:
            raise ResourceLimitError(f"{num_vertices} vertices is beyond any supported scale")
        missing = set(range(num_vertices)) - seen
        if missing:
            # Isolated vertices are legitimate; store them as singleton facets.
            maximal = sorted(maximal + [(v,) for v in missing])
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != num_vertices:
                raise ValueError(f"{len(labels)} labels for {num_vertices} vertices")
        self.num_vertices = num_vertices
        self.facets: tuple[Simplex, ...] = tuple(maximal)
        self.labels: Optional[tuple[str, ...]] = labels
        self._faces_cache: dict[int, tuple[Simplex, ...]] = {}
        self._facet_sets: Optional[tuple[frozenset[int], ...]] = None

    # -- introspection ------------------------------------------------

    @property
    def dimension(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    def vertex_label(self, v: int) -> str:
        if not 0 <= v < self.num_vertices:
            raise ValueError(f"vertex {v} out of range")
        return self.labels[v] if self.labels is not None else str(v)

    def faces(self, d: int) -> tuple[Simplex, ...]:
        """All d-dimensional faces, sorted lexicographically."""
        if d < 0:
            return ()
        cached = self._faces_cache.get(d)
        if cached is None:
            out = {c for f in self.facets for c in combinations(f, d + 1)}
            cached = tuple(sorted(out))
            self._faces_cache[d] = cached
        return cached

    def all_faces(self) -> Iterator[Simplex]:
        for d in range(self.dimension + 1):
            yield from self.faces(d)

    def face_counts(self) -> tuple[int, ...]:
        return tuple(len(self.faces(d)) for d in range(self.dimension + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.face_counts()))

    def has_face(self, simplex: Iterable[int]) -> bool:
        s = set(simplex)
        if not s:
            return True
        if self._facet_sets is None:
            self._facet_sets = tuple(frozenset(f) for f in self.facets)
        return any(s <= fs for fs in self._facet_sets)

    def edges(self) -> tuple[Simplex, ...]:
        return self.faces(1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.facets))

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(vertices={self.num_vertices}, "
            f"facets={len(self.facets)}, dim={self.dimension})"
        )

    # -- flagness -----------------------------------------------------

    def is_flag(self) -> bool:
        """True iff every maximal clique of the 1-skeleton is a face."""
        adj: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for a, b in self.faces(1):
            adj[a].add(b)
            adj[b].add(a)
        for clique in _maximal_cliques(adj):
            if not self.has_face(clique):
                return False
        return True

    # -- constructions ------------------------------------------------

    def full_subcomplex(self, vertices: Iterable[int]) -> "SimplicialComplex":
        """Induced subcomplex on ``vertices``, relabeled to 0..m-1.

        New vertex ``i`` is the i-th element of ``sorted(vertices)``; labels
        are inherited so the correspondence stays legible.
        """
        w = sorted(set(vertices))
        for v in w:
            if not 0 <= v < self.num_vertices:
                raise ValueError(f"vertex {v} not in complex with {self.num_vertices} vertices")
        keep = set(w)
        rename = {v: i for i, v in enumerate(w)}
        restricted = {tuple(rename[v] for v in f if v in keep) for f in self.facets}
        restricted.discard(())
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[v] for v in w)
        return SimplicialComplex(restricted, labels=labels, num_vertices=len(w))


def _maximal_cliques(adj: Sequence[set[int]]) -> Iterator[tuple[int, ...]]:
    """Bron-Kerbosch with pivoting; yields each maximal clique once."""

    def expand(r: set[int], p: set[int], x: set[int]) -> Iterator[tuple[int, ...]]:
        if not p and not x:
            yield tuple(sorted(r))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            yield from expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    yield from expand(set(), set(range(len(adj))), set())


# -- signed vertex encoding ------------------------------------------


def signed_label(base: str, sv: int) -> str:
    return base + ("+" if sv & 1 else "-")


def octahedralize(k: SimplicialComplex, max_vertices: int = DEFAULT_MAX_VERTICES) -> SimplicialComplex:
    """Replace every vertex by a minus/plus pair.

    A signed set is a face iff its base vertices are distinct and span a
    face of ``k``; facets of the result are all sign patterns over facets of
    ``k``.  Vertex ``v`` becomes ``2v`` (minus) and ``2v+1`` (plus).
    """
    if k.num_vertices > max_vertices:
        raise ResourceLimitError(
            f"octahedralize: {k.num_vertices} vertices exceeds cap {max_vertices}"
        )
    facets = []
    for f in k.facets:
        for signs in product((0, 1), repeat=len(f)):
            facets.append(tuple(2 * v + s for v, s in zip(f, signs)))
    labels = tuple(
        signed_label(k.vertex_label(sv // 2), sv) for sv in range(2 * k.num_vertices)
    )
    return SimplicialComplex(facets, labels=labels, num_vertices=2 * k.num_vertices)


def double_over(k: SimplicialComplex, delta: Iterable[int]) -> SimplicialComplex:
    """Octahedralize, then keep all minus vertices but only plus vertices of ``delta``.

    ``delta`` must be a face of ``k``.  The result is the induced subcomplex
    of the octahedralization on that vertex set.
    """
    d = _canonical_simplex(delta)
    if not k.has_face(d):
        raise ValueError(f"delta {d} is not a face of the complex")
    octa = octahedralize(k)
    keep = [2 * v for v in range(k.num_vertices)] + [2 * v + 1 for v in d]
    return octa.full_subcomplex(keep)


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; vertices of ``b`` are shifted past those of ``a``."""
    off = a.num_vertices
    facets = [fa + tuple(v + off for v in fb) for fa in a.facets for fb in b.facets]
    if not a.facets:
        facets = [tuple(v + off for v in fb) for fb in b.facets]
    if not b.facets:
        facets = list(a.facets)
    labels = None
    if a.labels is not None or b.labels is not None:
        labels = tuple(
            [a.vertex_label(v) for v in range(a.num_vertices)]
            + [b.vertex_label(v) for v in range(b.num_vertices)]
        )
    return SimplicialComplex(facets, labels=labels, num_vertices=off + b.num_vertices)


# -- generators ------------------------------------------------------


def cycle_complex(n: int) -> SimplicialComplex:
    """The n-gon: vertices 0..n-1, edges between cyclic neighbours (n >= 3)."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return SimplicialComplex([(i, (i + 1) % n) for i in range(n)])


def path_complex(n: int) -> SimplicialComplex:
    """A path with n edges (n+1 vertices)."""
    if n < 1:
        raise ValueError(f"path needs at least 1 edge, got {n}")
    return SimplicialComplex([(i, i + 1) for i in range(n)])


def points_complex(n: int) -> SimplicialComplex:
    """n isolated vertices."""
    if n < 1:
        raise ValueError(f"need at least 1 point, got {n}")
    return SimplicialComplex([(i,) for i in range(n)])


def full_simplex(n: int) -> SimplicialComplex:
    """The solid simplex on n vertices (dimension n-1)."""
    if n < 1:
        raise ValueError(f"need at least 1 vertex, got {n}")
    return SimplicialComplex([tuple(range(n))])


# -- JSON interchange ------------------------------------------------


def to_json_dict(k: SimplicialComplex) -> dict:
    out: dict = {"facets": [list(f) for f in k.facets]}
    if k.labels is not None:
        out["labels"] = list(k.labels)
    return out


def from_json_dict(data: object) -> SimplicialComplex:
    if not isinstance(data, dict):
        raise ValueError(f"complex file must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {"facets", "labels"}
    if unknown:
        raise ValueError(f"unknown keys in complex file: {sorted(unknown)}")
    if "facets" not in data:
        raise ValueError("complex file is missing 'facets'")
    facets = data["facets"]
    if not isinstance(facets, list):
        raise ValueError("'facets' must be a list of vertex lists")
    for i, f in enumerate(facets):
        if not isinstance(f, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in f):
            raise ValueError(f"facet #{i} must be a list of integers, got {f!r}")
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ValueError("'labels' must be a list of strings")
        return SimplicialComplex(facets, labels=labels, num_vertices=len(labels))
    return SimplicialComplex(facets)


def dump_complex(k: SimplicialComplex, fp: IO[str]) -> None:
    json.dump(to_json_dict(k), fp, indent=2)
    fp.write("\n")


def load_complex(fp: IO[str]) -> SimplicialComplex:
    return from_json_dict(json.load(fp))
