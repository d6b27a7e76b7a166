"""Finite abstract simplicial complexes on integer vertices.

A complex is stored by its facets (inclusion-maximal simplices).  Vertices
are exactly ``0 .. num_vertices-1`` with no gaps; a simplex is a strictly
increasing tuple of vertex ids.  Constructors canonicalize: faces nested in
other input faces are dropped, duplicates removed, facets sorted
lexicographically.  Optional human-readable labels, strings, ride along and
survive subcomplex operations.

Signed vertices (for octahedralization and doubling) are encoded
arithmetically: vertex ``v`` of the base complex yields ``2*v`` (minus
copy) and ``2*v + 1`` (plus copy).  Both refuse more than ``DEFAULT_MAX_CELLS``
signed facets, then sign each facet by one ``product`` of its vertices' copies.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import chain, combinations, groupby, product, repeat
from operator import and_, lt
from typing import IO, Container, Iterable, Iterator, Optional, Sequence

from .errors import DEFAULT_MAX_CELLS, ResourceLimitError

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "signed_label",
    "signings",
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


def _require_vertex_budget(count: int) -> None:
    if count > 1_000_000:
        raise ResourceLimitError(f"{count} vertices is beyond any supported scale")


def _canonical_simplex(vertices: Iterable[int]) -> Simplex:
    vs = tuple(sorted(vertices))
    if not all(map(lt, vs, vs[1:])):
        repeated = next((a for a, b in zip(vs, vs[1:]) if a == b), None)
        if repeated is None:
            raise ValueError(f"simplex {vs} has vertices that are not totally ordered")
        raise ValueError(f"simplex {vs} repeats vertex {repeated}")
    if vs and vs[0] < 0:
        raise ValueError(f"negative vertex id in {vs}")
    if not all(map(isinstance, vs, repeat(int))):
        raise ValueError(f"simplex {vs} has a vertex that is not an int")
    return vs


class SimplicialComplex:
    """Immutable simplicial complex given by its facets."""

    __slots__ = ("num_vertices", "facets", "labels", "_faces_cache")

    def __init__(
        self,
        facets: Iterable[Iterable[int]],
        labels: Optional[Sequence[str]] = None,
        num_vertices: Optional[int] = None,
    ) -> None:
        # One try sorts every facet, checks every vertex to be an int before
        # duplicates go, as (1.0, 2) == (1, 2), drops duplicates in input order
        # (a dict, not a set, so input that is already sorted sorts in one
        # pass later), groups the nonempty faces by length, and checks each
        # class a column at a time by the comparisons of ``_canonical_simplex``:
        # each vertex below the next, the first not below 0.  Columns are
        # sliced from one flat list, as ``zip(*faces)`` would hold an iterator
        # a face, and that many live objects set off the cyclic GC; each is as
        # long as the class, so both are dropped once checked.  On any failure
        # the facets sorted so far are walked in input order by
        # ``_canonical_simplex``, which names the first bad one; if none is,
        # the input or a facet did not iterate or sort, and that error stands.
        faces: list[Simplex] = []
        try:
            faces.extend(map(tuple, map(sorted, facets)))
            if not all(map(isinstance, chain.from_iterable(faces), repeat(int))):
                raise ValueError("a facet has a vertex that is not an int")
            distinct = dict.fromkeys(faces)
            distinct.pop((), None)
            classes = {length: list(group) for length, group in groupby(sorted(distinct, key=len), len)}
            del distinct
            for length in classes:
                flat = list(chain.from_iterable(classes[length]))
                columns = [flat[j::length] for j in range(length)]
                if any(map(lt, columns[0], repeat(0))) or not all(map(all, map(map, repeat(lt), columns, columns[1:]))):
                    raise ValueError("a facet has a repeated or negative vertex")
                del flat, columns
        except Exception:
            for f in faces:
                _canonical_simplex(f)
            raise
        # Drop faces nested inside other input faces.  Faces go longest first,
        # and a length class is indexed by vertex only once all of it is
        # tested, so a face meets only strictly longer maximal faces (a face
        # inside a non-maximal one is inside a maximal one too).  Every
        # superset of a face contains its least-shared vertex, so only the
        # faces listed under that vertex are tested.  A pure complex has one
        # class and so no test at all, and is not even bucketed.
        lengths = sorted(classes, reverse=True)
        under: dict[int, list[frozenset[int]]] = {}
        maximal: list[Simplex] = []
        for length in lengths:
            kept = classes[length]
            if under:
                kept = [f for f in kept if not any(map(frozenset.issuperset, min(map(under.get, f, repeat(())), key=len), repeat(f)))]
            maximal += kept
            if length != lengths[-1]:
                for f in kept:
                    face = frozenset(f)
                    for v in f:
                        under.setdefault(v, []).append(face)
        maximal.sort()
        seen = set().union(*maximal)
        top = max(seen) + 1 if seen else 0
        if num_vertices is None:
            num_vertices = top
        if num_vertices < top:
            raise ValueError(f"num_vertices {num_vertices} below max vertex id {top - 1}")
        _require_vertex_budget(num_vertices)
        if not seen.issuperset(range(num_vertices)):
            # Isolated vertices are legitimate; store them as singleton facets.
            maximal = sorted(maximal + [(v,) for v in set(range(num_vertices)) - seen])
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != num_vertices:
                raise ValueError(f"{len(labels)} labels for {num_vertices} vertices")
            if not all(map(isinstance, labels, repeat(str))):
                v = next(v for v, s in enumerate(labels) if not isinstance(s, str))
                raise ValueError(f"label {labels[v]!r} of vertex {v} is not a string")
        self.num_vertices = num_vertices
        self.facets: tuple[Simplex, ...] = tuple(maximal)
        self.labels: Optional[tuple[str, ...]] = labels
        self._faces_cache: dict[int, tuple[Simplex, ...]] = {}

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

    def face_counts(self) -> tuple[int, ...]:
        return tuple(len(self.faces(d)) for d in range(self.dimension + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.face_counts()))

    def has_face(self, simplex: Iterable[int]) -> bool:
        s = set(simplex)
        return not s or any(s.issubset(f) for f in self.facets)

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
        """True iff every clique of the 1-skeleton is a face, tested as: for
        every face s of dimension >= 1, the common neighbours of its vertices
        are exactly the vertices v with s + v a face.  If so, every clique is
        a face, by induction on its size: vertices and edges are faces, and a
        clique s + v with s a face of dimension >= 1 has v a common neighbour
        of s.  Conversely, in a flag complex s + v is a clique, so a face."""
        adj = [0] * self.num_vertices
        for a, b in self.faces(1):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        for d in range(1, self.dimension + 1):
            up = dict.fromkeys(self.faces(d), 0)
            for f in self.faces(d + 1):
                for i, v in enumerate(f):
                    up[f[:i] + f[i + 1 :]] |= 1 << v
            if any(reduce(and_, map(adj.__getitem__, s)) != bits for s, bits in up.items()):
                return False
        return True


# -- signed vertex encoding ------------------------------------------


def signed_label(base: str, sv: int) -> str:
    return base + ("+" if sv & 1 else "-")


def signings(facet: Simplex, doubled: Container[int]) -> Iterator[Simplex]:
    """The signed copies of ``facet``, each sorted: vertex ``v`` as ``2v``, or
    as ``2v+1`` when ``v`` is in ``doubled``.  They come by number of plus
    vertices, then in ``combinations`` order of the doubled vertices."""
    shared = [v for v in facet if v in doubled]
    for r in range(len(shared) + 1):
        for plus in combinations(shared, r):
            yield tuple(2 * v + (v in plus) for v in facet)


def _signed_complex(k: SimplicialComplex, doubled: Container[int]) -> SimplicialComplex:
    """The signings of every facet of ``k``, with the signed ids numbered in
    increasing order: ``v``'s minus copy, then its plus copy if doubled."""
    total = sum(1 << sum(v in doubled for v in f) for f in k.facets)
    if total > DEFAULT_MAX_CELLS:
        raise ResourceLimitError(f"{total} signed facets exceeds cap {DEFAULT_MAX_CELLS}")
    choices: list[range] = []  # the new ids of v's signed copies
    labels: list[str] = []
    for v, base in enumerate(k.labels if k.labels is not None else map(str, range(k.num_vertices))):
        signed = (2 * v, 2 * v + 1) if v in doubled else (2 * v,)
        choices.append(range(len(labels), len(labels) + len(signed)))
        labels += [signed_label(base, sv) for sv in signed]
    facets = [c for f in k.facets for c in product(*[choices[v] for v in f])]
    return SimplicialComplex(facets, labels=labels, num_vertices=len(labels))


def octahedralize(k: SimplicialComplex) -> SimplicialComplex:
    """Replace every vertex by a minus/plus pair.

    A signed set is a face iff its base vertices are distinct and span a
    face of ``k``; facets of the result are all sign patterns over facets of
    ``k``.  Vertex ``v`` becomes ``2v`` (minus) and ``2v+1`` (plus).
    """
    return _signed_complex(k, range(k.num_vertices))


def double_over(k: SimplicialComplex, delta: Iterable[int]) -> SimplicialComplex:
    """Clone the vertices of the face ``delta``: the signings of the facets of
    ``k`` with plus copies on ``delta`` only.  This is the induced subcomplex
    of the octahedralization on all minus vertices and the plus vertices of
    ``delta``, with the kept signed ids numbered in increasing order."""
    d = _canonical_simplex(delta)
    if not k.has_face(d):
        raise ValueError(f"delta {d} is not a face of the complex")
    return _signed_complex(k, frozenset(d))


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; vertices of ``b`` are shifted past those of ``a``.
    More than ``DEFAULT_MAX_CELLS`` joined facets are refused before any is built."""
    if len(a.facets) * len(b.facets) > DEFAULT_MAX_CELLS:
        raise ResourceLimitError(f"{len(a.facets)} x {len(b.facets)} joined facets exceeds cap {DEFAULT_MAX_CELLS}")
    off = a.num_vertices
    facets = [fa + tuple(v + off for v in fb) for fa in a.facets or [()] for fb in b.facets or [()]]
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
    _require_vertex_budget(n)
    return SimplicialComplex([(i, (i + 1) % n) for i in range(n)])


def path_complex(n: int) -> SimplicialComplex:
    """A path with n edges (n+1 vertices)."""
    if n < 1:
        raise ValueError(f"path needs at least 1 edge, got {n}")
    _require_vertex_budget(n + 1)
    return SimplicialComplex([(i, i + 1) for i in range(n)])


def points_complex(n: int) -> SimplicialComplex:
    """n isolated vertices."""
    if n < 1:
        raise ValueError(f"need at least 1 point, got {n}")
    _require_vertex_budget(n)
    return SimplicialComplex([(i,) for i in range(n)])


def full_simplex(n: int) -> SimplicialComplex:
    """The solid simplex on n vertices (dimension n-1)."""
    if n < 1:
        raise ValueError(f"need at least 1 vertex, got {n}")
    _require_vertex_budget(n)
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
    # Facets that are all lists of plain ints pass in two passes over types;
    # any other input is walked, so the first facet that fails is named.
    if set(map(type, facets)) - {list} or set(map(type, chain.from_iterable(facets))) - {int}:
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
    """``to_json_dict(k)`` byte for byte as ``json.dump(..., indent=2)`` writes
    it, with one join per facet, not the pure-Python encoder ``indent`` picks."""
    fp.write('{\n  "facets": ' + _indented(["[\n      " + ",\n      ".join(map(str, f)) + "\n    ]" for f in k.facets]))
    if k.labels is not None:
        fp.write(',\n  "labels": ' + _indented([json.dumps(s) for s in k.labels]))
    fp.write("\n}\n")


def _indented(items: list[str]) -> str:
    """Encoded values as the list that a top-level key holds under ``indent=2``."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def load_complex(fp: IO[str]) -> SimplicialComplex:
    return from_json_dict(json.load(fp))
