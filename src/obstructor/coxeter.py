"""Finite Coxeter systems: symmetric groups and right-angled (involutive) ones.

Two families are enough for everything downstream:

* ``symmetric(n)`` -- the symmetric group on ``{0..n-1}`` with the adjacent
  transpositions as generators.  Elements are one-line tuples ``w`` with
  ``w[i]`` the image of ``i``; products compose as functions,
  ``(u*v)(i) = u(v(i))``.  Length = inversion count.
* ``rightangled(r)`` -- the elementary abelian group ``(Z/2)^r`` with all
  generators commuting.  Elements are bitmasks; length = popcount.

The associated chamber complexes: the symmetric system yields the
barycentric subdivision of the boundary of a simplex (vertices are proper
nonempty subsets of ``{0..n-1}``, a chamber is the chain of prefix sets of a
permutation); the right-angled system yields the octahedron obtained by
doubling every vertex of a solid simplex.  A chamber complex carries only
the map from group elements to chambers.  Walls enter through
``reflection_separates``, and ``opposite_in_apartment`` decides
opposition both algebraically and by walls and cross-checks the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Iterator, Union

from .complexes import Simplex, SimplicialComplex, full_simplex, octahedralize
from .errors import DEFAULT_MAX_CELLS, CertificateError, ResourceLimitError

__all__ = [
    "CoxeterSystem",
    "CoxeterComplex",
    "Element",
    "Reflection",
    "symmetric",
    "rightangled",
    "coxeter_complex",
]

#: A permutation one-line tuple, or a bitmask for right-angled systems.
Element = Union[tuple[int, ...], int]

#: A value transposition ``(a, b)`` with a < b, or a generator index.
Reflection = Union[tuple[int, int], int]


@dataclass(frozen=True)
class CoxeterSystem:
    """One of the two supported families, with its generating set."""

    family: str  # "symmetric" | "rightangled"
    n: int  # symmetric: number of letters; rightangled: number of generators

    def __post_init__(self) -> None:
        if self.family not in ("symmetric", "rightangled"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "symmetric" and self.n < 2:
            raise ValueError(f"symmetric system needs at least 2 letters, got {self.n}")
        if self.family == "rightangled" and self.n < 1:
            raise ValueError(f"rightangled system needs at least 1 generator, got {self.n}")

    # -- generators ---------------------------------------------------

    @property
    def num_generators(self) -> int:
        return self.n - 1 if self.family == "symmetric" else self.n

    @property
    def generators(self) -> tuple[int, ...]:
        return tuple(range(self.num_generators))

    # -- elements -----------------------------------------------------

    def identity(self) -> Element:
        if self.family == "symmetric":
            return tuple(range(self.n))
        return 0

    def order(self) -> int:
        if self.family == "symmetric":
            out = 1
            for i in range(2, self.n + 1):
                out *= i
            return out
        return 1 << self.n

    def elements(self) -> Iterator[Element]:
        """All group elements in a fixed deterministic order."""
        if self.family == "symmetric":
            yield from permutations(range(self.n))
        else:
            yield from range(1 << self.n)

    def _check(self, w: Element) -> None:
        if self.family == "symmetric":
            if not (isinstance(w, tuple) and sorted(w) == list(range(self.n))):
                raise ValueError(f"{w!r} is not a permutation of 0..{self.n - 1}")
        else:
            if not (isinstance(w, int) and 0 <= w < (1 << self.n)):
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
        if self.family == "symmetric":
            out = [0] * self.n
            for i, wi in enumerate(w):  # type: ignore[arg-type]
                out[wi] = i
            return tuple(out)
        return w

    def _check_generator(self, s: int) -> None:
        if not (isinstance(s, int) and 0 <= s < self.num_generators):
            raise ValueError(f"{s!r} is not a generator index (0..{self.num_generators - 1})")

    # -- length and descents ------------------------------------------

    def length(self, w: Element) -> int:
        self._check(w)
        if self.family == "symmetric":
            return sum(
                1
                for i in range(self.n)
                for j in range(i + 1, self.n)
                if w[i] > w[j]  # type: ignore[index]
            )
        return w.bit_count()  # type: ignore[union-attr]

    def longest_element(self) -> Element:
        if self.family == "symmetric":
            return tuple(reversed(range(self.n)))
        return (1 << self.n) - 1

    def in_set(self, w: Element) -> frozenset[int]:
        """Right descents: generators s with length(w*s) < length(w)."""
        self._check(w)
        if self.family == "symmetric":
            return frozenset(
                s for s in range(self.n - 1) if w[s] > w[s + 1]  # type: ignore[index]
            )
        return frozenset(s for s in range(self.n) if (w >> s) & 1)  # type: ignore[operator]

    def in_set_inverse(self, w: Element) -> frozenset[int]:
        """Right descents of the inverse (= left descents of w)."""
        return self.in_set(self.inverse(w))

    # -- reflections and walls ----------------------------------------

    def reflections(self) -> tuple[Reflection, ...]:
        if self.family == "symmetric":
            return tuple(
                (a, b) for a in range(self.n) for b in range(a + 1, self.n)
            )
        return tuple(range(self.n))

    def reflection_separates(self, w: Element, t: Reflection) -> bool:
        """True iff the wall of t separates chamber w from the identity chamber.

        Equivalently length(t*w) < length(w).
        """
        self._check(w)
        if self.family == "symmetric":
            a, b = t  # type: ignore[misc]
            inv = self.inverse(w)
            return inv[a] > inv[b]  # type: ignore[index]
        return bool((w >> t) & 1)  # type: ignore[operator]

    def opposite_in_apartment(self, u: Element, v: Element) -> bool:
        """Chambers at maximal distance: u^{-1} v is the longest element.

        Computed two ways -- algebraically, and by checking that every
        reflection wall separates the two chambers -- and cross-checked.
        """
        algebraic = self.multiply(self.inverse(u), v) == self.longest_element()
        by_walls = all(
            self.reflection_separates(u, t) != self.reflection_separates(v, t)
            for t in self.reflections()
        )
        if algebraic != by_walls:
            raise CertificateError(f"opposition criteria disagree on {u!r}, {v!r}")
        return algebraic

    def bending_image(self, targets: frozenset[int] | set[int]) -> list[Element]:
        """All w whose inverse has right-descent set exactly ``targets``.

        These index the chambers a bending construction sends to a given
        stratum; over all subsets of generators the images partition the
        group.
        """
        targets = frozenset(targets)
        for s in targets:
            self._check_generator(s)
        return [w for w in self.elements() if self.in_set_inverse(w) == targets]


def symmetric(n: int) -> CoxeterSystem:
    return CoxeterSystem("symmetric", n)


def rightangled(r: int) -> CoxeterSystem:
    return CoxeterSystem("rightangled", r)


# -- chamber complexes -----------------------------------------------


@dataclass(frozen=True)
class CoxeterComplex:
    """The chamber complex of a finite system.

    ``chamber_of`` maps each group element to the facet it labels, a
    bijection onto the facets of ``complex``.
    """

    system: CoxeterSystem
    complex: SimplicialComplex
    chamber_of: dict[Element, Simplex] = field(repr=False)


def coxeter_complex(system: CoxeterSystem) -> CoxeterComplex:
    if system.family == "symmetric":
        return _symmetric_complex(system)
    return _rightangled_complex(system)


def _subset_label(t: frozenset[int]) -> str:
    return "{" + ",".join(str(x) for x in sorted(t)) + "}"


def _symmetric_complex(system: CoxeterSystem) -> CoxeterComplex:
    n = system.n
    chambers = 1
    for i in range(2, n + 1):
        chambers *= i
        if chambers > DEFAULT_MAX_CELLS:
            raise ResourceLimitError(f"S_{n} has more than {DEFAULT_MAX_CELLS} chambers")
    subsets = [frozenset(c) for size in range(1, n) for c in combinations(range(n), size)]
    vid = {t: i for i, t in enumerate(subsets)}
    labels = [_subset_label(t) for t in subsets]

    chamber_of: dict[Element, Simplex] = {}
    for w in system.elements():
        prefix: set[int] = set()
        verts = []
        for i in range(n - 1):
            prefix.add(w[i])  # type: ignore[index]
            verts.append(vid[frozenset(prefix)])
        chamber_of[w] = tuple(sorted(verts))
    cx = SimplicialComplex(chamber_of.values(), labels=labels, num_vertices=len(subsets))
    if len(cx.facets) != system.order():
        raise CertificateError("chambers are not in bijection with the group")
    return CoxeterComplex(system, cx, chamber_of)


def _rightangled_complex(system: CoxeterSystem) -> CoxeterComplex:
    r = system.n
    cx = octahedralize(full_simplex(r))
    chamber_of: dict[Element, Simplex] = {}
    for w in system.elements():
        chamber_of[w] = tuple(2 * i + ((w >> i) & 1) for i in range(r))  # type: ignore[operator]
    if set(chamber_of.values()) != set(cx.facets):
        raise CertificateError("chambers are not the facets of the octahedral sphere")
    return CoxeterComplex(system, cx, chamber_of)
