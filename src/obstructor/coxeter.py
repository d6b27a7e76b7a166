"""Finite Coxeter systems: symmetric groups and right-angled (involutive) ones.

* ``symmetric(n)`` -- the symmetric group on ``{0..n-1}`` with the adjacent
  transpositions as generators.  Elements are one-line tuples ``w`` with
  ``w[i]`` the image of ``i``; products compose as functions,
  ``(u*v)(i) = u(v(i))``.  Reflections are value transpositions ``(a, b)``.
* ``rightangled(r)`` -- the elementary abelian group ``(Z/2)^r`` with all
  generators commuting.  Elements are bitmasks; reflection ``t`` is bit t.

Only the group (``elements``, ``multiply``, ``inverse``, ``longest_element``)
and its walls (``reflections``, ``reflection_separates``) differ per family.
The rest is read off the walls for both: ``length(w)`` counts the walls
separating w from the identity, ``in_set_inverse(w)`` is the generators
whose simple wall separates w, and ``in_set(w)`` is that of w^{-1}; each
call inverts w at most once.  ``bending_images()`` partitions the group by
``in_set_inverse`` in one pass over the elements.

Chamber complexes: the symmetric system yields the barycentric subdivision
of the boundary of a simplex, whose vertices are the proper nonempty subsets
of ``{0..n-1}``, the chamber of w being named by ``prefix_masks(w)``; the
right-angled system yields the octahedron doubling every vertex of a solid
simplex.  ``opposite_in_apartment`` decides opposition both algebraically
and by walls and cross-checks the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, combinations, count, pairwise, permutations
from math import factorial
from operator import or_
from typing import Iterator, Sequence, Union

from .complexes import Simplex, SimplicialComplex, _ids_in, full_simplex, octahedralize
from .errors import DEFAULT_MAX_CELLS, CertificateError, ResourceLimitError

__all__ = ["CoxeterSystem", "CoxeterComplex", "Element", "Reflection",
           "symmetric", "rightangled", "coxeter_complex", "prefix_masks"]

#: A permutation one-line tuple, or a bitmask for right-angled systems.
Element = Union[tuple[int, ...], int]

#: A value transposition ``(a, b)`` with a < b, or a generator index.
Reflection = Union[tuple[int, int], int]


def prefix_masks(w: Sequence[int]) -> tuple[int, ...]:
    """The proper nonempty prefixes w[:1], ..., w[:n-1] of a permutation of
    0..n-1 as bitmasks (bit i for letter i): the vertices of its chamber,
    the flag whose level k holds the first k letters in w's order."""
    return tuple(accumulate([1 << i for i in w[: len(w) - 1]], or_))


@dataclass(frozen=True)
class CoxeterSystem:
    """One of the two supported families, with its generating set."""

    family: str  # "symmetric" | "rightangled"
    n: int  # symmetric: number of letters; rightangled: number of generators

    def __post_init__(self) -> None:
        if self.family not in ("symmetric", "rightangled"):
            raise ValueError(f"unknown family {self.family!r}")
        least = 2 if self.family == "symmetric" else 1
        if type(self.n) is not int or self.n < least:
            raise ValueError(f"{self.family} system size must be an int >= {least}, got {self.n!r}")

    @property
    def num_generators(self) -> int:
        return self.n - 1 if self.family == "symmetric" else self.n

    @property
    def generators(self) -> tuple[int, ...]:
        return tuple(range(self.num_generators))

    # -- per family: the group and its walls ----------------------------

    def order(self) -> int:
        return factorial(self.n) if self.family == "symmetric" else 1 << self.n

    def elements(self) -> Iterator[Element]:
        """All group elements in a fixed deterministic order, the identity first."""
        return permutations(range(self.n)) if self.family == "symmetric" else iter(range(1 << self.n))

    def _check(self, w: Element) -> None:
        if self.family == "symmetric":
            if not (isinstance(w, tuple) and len(w) == self.n and _ids_in(w, self.n) and len(set(w)) == self.n):
                raise ValueError(f"{w!r} is not a permutation of 0..{self.n - 1}")
        elif not _ids_in((w,), 1 << self.n):
            raise ValueError(f"{w!r} is not a {self.n}-bit mask")

    def multiply(self, u: Element, v: Element) -> Element:
        """Product composing as functions: (u*v)(i) = u(v(i))."""
        self._check(u)
        self._check(v)
        if self.family == "symmetric":
            return tuple(u[v[i]] for i in range(self.n))  # type: ignore[index]
        return u ^ v  # type: ignore[operator]

    def inverse(self, w: Element) -> Element:
        self._check(w)
        if self.family == "rightangled":
            return w
        out = [0] * self.n
        for i, wi in enumerate(w):  # type: ignore[arg-type]
            out[wi] = i
        return tuple(out)

    def longest_element(self) -> Element:
        return tuple(reversed(range(self.n))) if self.family == "symmetric" else (1 << self.n) - 1

    def reflections(self) -> tuple[Reflection, ...]:
        return _walls(self.family, self.n)[0]

    def _separating(self, inv: Element, walls: Sequence[Reflection]) -> set[int]:
        """The indices of the walls separating from the identity chamber the w
        whose inverse is ``inv``: values a, b out of order in w, or bit t of w."""
        if self.family == "symmetric":
            return {i for i, (a, b) in enumerate(walls) if inv[a] > inv[b]}  # type: ignore[index,misc]
        return {i for i, t in enumerate(walls) if inv >> t & 1}  # type: ignore[operator]

    def reflection_separates(self, w: Element, t: Reflection) -> bool:
        """True iff the wall of t separates chamber w from the identity chamber,
        that is, length(t*w) < length(w).  A t not in ``reflections()`` is refused."""
        ok = _ids_in((t,), self.n) if self.family == "rightangled" else isinstance(t, tuple) and len(t) == 2 and _ids_in(t, self.n) and t[0] < t[1]
        if not ok:
            raise ValueError(f"{t!r} is not a reflection of {self.family}({self.n})")
        return bool(self._separating(self.inverse(w), (t,)))

    # -- read off the walls ---------------------------------------------

    def identity(self) -> Element:
        return next(self.elements())

    def length(self, w: Element) -> int:
        """The number of walls separating w, or equally w^{-1}, from the identity."""
        self._check(w)
        return len(self._separating(w, self.reflections()))

    def in_set(self, w: Element) -> frozenset[int]:
        """Right descents: generators s with length(w*s) < length(w)."""
        self._check(w)
        return frozenset(self._separating(w, _walls(self.family, self.n)[1]))

    def in_set_inverse(self, w: Element) -> frozenset[int]:
        """Right descents of the inverse (= left descents of w)."""
        return frozenset(self._separating(self.inverse(w), _walls(self.family, self.n)[1]))

    def opposite_in_apartment(self, u: Element, v: Element) -> bool:
        """Chambers at maximal distance: u^{-1} v is the longest element.  Computed
        algebraically and by walls (each separates the two), and cross-checked."""
        algebraic = self.multiply(self.inverse(u), v) == self.longest_element()
        walls = self.reflections()
        by_walls = len(self._separating(self.inverse(u), walls) ^ self._separating(self.inverse(v), walls)) == len(walls)
        if algebraic != by_walls:
            raise CertificateError(f"opposition criteria disagree on {u!r}, {v!r}")
        return algebraic

    def bending_images(self) -> dict[frozenset[int], list[Element]]:
        """Every subset of generators, in ``combinations`` order by size, with
        its bending image: the w whose inverse has exactly that right-descent
        set, in ``elements`` order.  One pass files each w; the images
        partition the group.  An order over ``DEFAULT_MAX_CELLS`` is
        refused before anything is built, and past n = the cap's bit length
        before the order is computed: both n! and 2^n are >= 2^(n-1)."""
        if self.n > DEFAULT_MAX_CELLS.bit_length() or self.order() > DEFAULT_MAX_CELLS:
            raise ResourceLimitError(f"{self.family}({self.n}) has more than {DEFAULT_MAX_CELLS} elements")
        gens = self.generators
        images: dict[frozenset[int], list[Element]] = {frozenset(t): [] for r in range(len(gens) + 1) for t in combinations(gens, r)}
        for w in self.elements():
            images[self.in_set_inverse(w)].append(w)
        return images


@lru_cache(maxsize=16)
def _walls(family: str, n: int) -> tuple[tuple[Reflection, ...], tuple[Reflection, ...]]:
    """A system's reflections, and each generator's: (s, s + 1), or bit s."""
    if family == "symmetric":
        return tuple(combinations(range(n), 2)), tuple(pairwise(range(n)))
    return tuple(range(n)), tuple(range(n))


def symmetric(n: int) -> CoxeterSystem:
    return CoxeterSystem("symmetric", n)


def rightangled(r: int) -> CoxeterSystem:
    return CoxeterSystem("rightangled", r)


# -- chamber complexes -----------------------------------------------


@dataclass(frozen=True)
class CoxeterComplex:
    """The chamber complex of a finite system.  ``chamber_of`` maps each group
    element to the facet it labels, a bijection onto the facets of ``complex``."""

    system: CoxeterSystem
    complex: SimplicialComplex
    chamber_of: dict[Element, Simplex] = field(repr=False)


#: The most letters whose n! chambers fit in ``DEFAULT_MAX_CELLS``.
_MAX_LETTERS = next(n for n in count(1) if factorial(n + 1) > DEFAULT_MAX_CELLS)


def coxeter_complex(system: CoxeterSystem) -> CoxeterComplex:
    return (_symmetric_complex if system.family == "symmetric" else _rightangled_complex)(system)


def _symmetric_complex(system: CoxeterSystem) -> CoxeterComplex:
    """Vertices are the proper nonempty subsets by size, then lexicographically,
    keyed by mask; prefix masks grow in size, so chambers' vertex ids ascend."""
    n = system.n
    if n > _MAX_LETTERS:
        raise ResourceLimitError(f"S_{n} has more than {DEFAULT_MAX_CELLS} chambers")
    subsets = [c for size in range(1, n) for c in combinations(range(n), size)]
    vid = {sum(1 << i for i in c): v for v, c in enumerate(subsets)}
    labels = ["{" + ",".join(map(str, c)) + "}" for c in subsets]
    chamber_of: dict[Element, Simplex] = {w: tuple(map(vid.__getitem__, prefix_masks(w))) for w in system.elements()}  # type: ignore[arg-type]
    cx = SimplicialComplex(chamber_of.values(), labels=labels, num_vertices=len(subsets))
    if len(cx.facets) != system.order():
        raise CertificateError("chambers are not in bijection with the group")
    return CoxeterComplex(system, cx, chamber_of)


def _rightangled_complex(system: CoxeterSystem) -> CoxeterComplex:
    r = system.n
    cx = octahedralize(full_simplex(r))
    chamber_of: dict[Element, Simplex] = {w: tuple(2 * i + (w >> i & 1) for i in range(r)) for w in system.elements()}  # type: ignore[operator]
    if set(chamber_of.values()) != set(cx.facets):
        raise CertificateError("chambers are not the facets of the octahedral sphere")
    return CoxeterComplex(system, cx, chamber_of)
