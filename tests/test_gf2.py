"""GF(2) linear algebra: frozen examples plus randomized cross-checks.

The independent rank oracle enumerates the whole row space (2^rank
elements) instead of eliminating, so it shares no code path with the
implementation under test.  Two more oracles are eliminations the package
once ran: the reduced row echelon form, back-substitution included, and
the forward row elimination with tagged pivot rows that the column
reduction replaced.  Rank, kernel basis, and the first cycle pairing to 1
with a vector or else its primitive, must equal what each reads off, bit
for bit.  The column reduction with each tag packed into its column's int
is the oracle of every answer, and it decides a vector in three reads:
the residue, then a kernel vector or a back-substitution.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import example, given, strategies as st

from obstructor.building import build, opp_complex, standard_flag
from obstructor.complexes import double_over
from obstructor.gf2 import GF2Matrix, GF2Vector
from obstructor.vankampen import configuration_space, obstruction_cocycle

from gf2_helpers import (
    TaggedReduction,
    by_rows,
    columns_of,
    entry,
    from_entries,
    from_rows,
    from_support,
    identity,
    row_bits,
    support_by_top_bits,
    to_list,
    transpose,
    zero,
)


# -- the reduced row echelon oracle ----------------------------------


def rref(m: GF2Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form: (nonzero rows, their pivot columns).

    Pivot columns come out strictly increasing; each row's pivot is its
    lowest set bit and the only set bit in its column.
    """
    pivot_rows: dict[int, int] = {}  # pivot column -> current row value
    for r in row_bits(m):
        while r:
            low = (r & -r).bit_length() - 1
            existing = pivot_rows.get(low)
            if existing is None:
                pivot_rows[low] = r
                break
            r ^= existing
    # Back-substitution: clear pivot columns from all other rows.
    for col in sorted(pivot_rows, reverse=True):
        r = pivot_rows[col]
        for other_col, other in pivot_rows.items():
            if other_col != col and (other >> col) & 1:
                pivot_rows[other_col] = other ^ r
    pivots = tuple(sorted(pivot_rows))
    return tuple(pivot_rows[c] for c in pivots), pivots


def rref_kernel_basis(m: GF2Matrix) -> list[GF2Vector]:
    """One kernel vector per free column, ascending, read off the RREF."""
    rows, pivots = rref(m)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        bits = 1 << free
        for r, p in zip(rows, pivots):
            if (r >> free) & 1:
                bits |= 1 << p
        basis.append(GF2Vector(m.cols, bits))
    return basis


def rref_solve(m: GF2Matrix, b: GF2Vector):
    """The solution of Mx = b that is 0 on every free column, or None."""
    aug = m.cols
    augmented = GF2Matrix(m.rows, m.cols + 1, m.columns + as_column(b).columns)
    rows, pivots = rref(augmented)
    if aug in pivots:
        return None  # a row reduced to 0 = 1
    bits = 0
    for r, p in zip(rows, pivots):
        if (r >> aug) & 1:
            bits |= 1 << p
    return GF2Vector(m.cols, bits)


def first_cycle_or(rank: int, kernel: list[GF2Vector], v: GF2Vector, primitive) -> tuple[int, GF2Vector, bool]:
    """What ``cycle_or_primitive(v)`` must return, given an oracle's rank and
    kernel basis: the first kernel vector with v . x = 1, else ``primitive()``."""
    cycle = next((z for z in kernel if z.dot(v)), None)
    return (rank, cycle, True) if cycle is not None else (rank, primitive(), False)


def rref_answer(m: GF2Matrix, v: GF2Vector) -> tuple[int, GF2Vector, bool]:
    return first_cycle_or(len(rref(m)[1]), rref_kernel_basis(m), v, lambda: rref_solve(transpose(m), v))


class ForwardElimination:
    """The forward row elimination: each row is reduced at its lowest set
    bit until it vanishes or founds a pivot row.  A pivot row carries its
    tag above bit ``cols``; tag bit k stands for row ``basis[k]``."""

    def __init__(self, m: GF2Matrix) -> None:
        self.m = m
        self.width = (1 << m.cols) - 1
        self.pivot_rows: dict[int, int] = {}
        self.basis: list[int] = []
        for i, r in enumerate(row_bits(m)):
            r |= 1 << (m.cols + len(self.basis))
            while r & self.width:
                low = (r & -r).bit_length() - 1
                pivot = self.pivot_rows.get(low)
                if pivot is None:
                    self.pivot_rows[low] = r
                    self.basis.append(i)
                    break
                r ^= pivot

    def rank(self) -> int:
        return len(self.basis)

    def kernel_basis(self) -> list[GF2Vector]:
        """Per free column, a triangular back-solve: set the pivot
        coordinates, highest first, so that every pivot row has row . x = 0."""
        basis = []
        for free in range(self.m.cols):
            if free in self.pivot_rows:
                continue
            x = 1 << free
            for col in sorted(self.pivot_rows, reverse=True):
                if (self.pivot_rows[col] & x).bit_count() & 1:
                    x |= 1 << col
            basis.append(GF2Vector(self.m.cols, x))
        return basis

    def row_reduce(self, v: GF2Vector) -> tuple[GF2Vector, GF2Vector]:
        """Reduce v against the pivot rows in ascending order; the tags
        left over name the basis rows that were summed."""
        rest, residue = v.bits, 0
        while rest & self.width:
            low = rest & -rest
            pivot = self.pivot_rows.get(low.bit_length() - 1)
            if pivot is None:
                residue |= low
                pivot = low
            rest ^= pivot
        y = sum(((rest >> (self.m.cols + k)) & 1) << i for k, i in enumerate(self.basis))
        return GF2Vector(self.m.cols, residue), GF2Vector(self.m.rows, y)


def assert_matches_forward_elimination(m: GF2Matrix, vectors: list[GF2Vector]) -> None:
    oracle = ForwardElimination(m)
    kernel = oracle.kernel_basis()
    assert m.rank() == oracle.rank()
    assert m.kernel_basis() == kernel
    for v in vectors:
        assert m.cycle_or_primitive(v) == first_cycle_or(oracle.rank(), kernel, v, lambda: oracle.row_reduce(v)[1])


def rank_by_rowspace(m: GF2Matrix) -> int:
    """|{XOR-combinations of rows}| = 2^rank."""
    space = {0}
    for r in row_bits(m):
        space |= {x ^ r for x in space}
    size = len(space)
    rank = size.bit_length() - 1
    assert 1 << rank == size
    return rank


def cycle_boundary(n: int) -> GF2Matrix:
    """Vertex-by-edge boundary matrix of the n-cycle."""
    ones = []
    for e in range(n):
        ones.append((e, e))
        ones.append(((e + 1) % n, e))
    return from_entries(n, n, ones)


# -- frozen cases ----------------------------------------------------


def test_zero_and_identity_ranks():
    assert zero(0, 0).rank() == 0
    assert zero(4, 7).rank() == 0
    assert identity(3).rank() == 3


def test_five_cycle_boundary_rank_and_kernel():
    m = cycle_boundary(5)
    assert rank_by_rowspace(m) == 4
    assert m.rank() == 4
    kernel = m.kernel_basis()
    assert len(kernel) == 1
    assert kernel[0].bits == 0b11111  # the full cycle is the only 1-cycle
    assert m.apply(kernel[0]).is_zero()


def test_kernel_of_single_parity_row():
    m = from_rows([[1, 1]])
    basis = m.kernel_basis()
    assert [to_list(v) for v in basis] == [[1, 1]]


def test_matmul_and_transpose_shapes():
    a = from_rows([[1, 1, 0], [0, 1, 1]])
    b = from_rows([[1, 0], [1, 1], [0, 1]])
    p = a @ b
    assert (p.rows, p.cols) == (2, 2)
    assert entry(p, 0, 0) == 0 and entry(p, 0, 1) == 1
    t = transpose(a)
    assert (t.rows, t.cols) == (3, 2)
    assert columns_of(transpose(t)) == columns_of(a)


@given(st.integers(0, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
@example((0, 0))
def test_support_lists_the_set_coordinates_ascending(drawn):
    length, bits = drawn
    v = GF2Vector(length, bits)
    assert v.support() == tuple(i for i in range(length) if v[i])
    assert from_support(length, v.support()) == v


@given(
    st.integers(0, 5000).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1), max_size=60) if n else st.just(set()))
    )
)
@example((0, set()))
@example((3184, set()))
def test_support_matches_the_top_bit_walk(drawn):
    """The numeral scan against the walk that clears one top bit at a time,
    on long sparse vectors (the zero vector and a length-0 vector included)."""
    length, ones = drawn
    v = GF2Vector(length, sum(1 << i for i in ones))
    assert v.support() == support_by_top_bits(v) == tuple(sorted(ones))


def test_support_is_linear_in_the_length():
    """Two million bits of weight 20,000: the top-bit walk rewrites the whole
    int per set bit and takes about 0.2 s; one numeral scan takes 0.02 s."""
    v = GF2Vector(2_000_000, int(("0" * 99 + "1") * 20_000, 2))
    started = time.perf_counter()
    support = v.support()
    assert time.perf_counter() - started < 0.1
    assert support == tuple(range(0, 2_000_000, 100))


@given(st.lists(st.integers(0, 7), max_size=80))
@example([])
def test_from_list_packs_each_entry_mod_2(entries):
    """The one-pass packing against ORing one shifted bit per entry."""
    bits = 0
    for i, e in enumerate(entries):
        bits |= (e & 1) << i
    assert GF2Vector.from_list(entries) == GF2Vector(len(entries), bits)


def test_vector_validation():
    with pytest.raises(ValueError):
        GF2Vector(2, 0b100)
    with pytest.raises(ValueError):
        from_support(3, [3])
    with pytest.raises(ValueError):
        GF2Vector(3, 1).dot(GF2Vector(4, 1))


def test_matrix_validation():
    with pytest.raises(ValueError):
        GF2Matrix(1, 2, [0b100])
    with pytest.raises(ValueError):
        GF2Matrix(2, 1, [0b100])
    with pytest.raises(ValueError):
        from_rows([[1, 0], [1]])
    with pytest.raises(ValueError):
        from_entries(2, 2, [(2, 0)])


@pytest.mark.parametrize("columns, bad", [([0b11, -1, 0b100], "0x-1"), ([0b1, 0b100, -1], "0x4"), ([0, 0b1000, -2], "0x8")])
def test_matrix_names_the_first_column_that_does_not_fit(columns, bad):
    """The bulk range check finds a bad column; the walk names the first."""
    with pytest.raises(ValueError, match=f"^column {bad} does not fit in 2 rows$"):
        GF2Matrix(2, len(columns), columns)


GF2_REFUSALS = {
    "float length": (lambda: GF2Vector(2.0, 1), "length and bits must be ints, got 2.0 and 1"),
    "float bits": (lambda: GF2Vector(3, 1.0), "length and bits must be ints, got 3 and 1.0"),
    "bool bits": (lambda: GF2Vector(3, True), "length and bits must be ints, got 3 and True"),
    "bool length": (lambda: GF2Vector(True, 0), "length and bits must be ints, got True and 0"),
    "float rows": (lambda: GF2Matrix(2.0, 1, [1]), r"shape \(2.0, 1\) is not two ints >= 0"),
    "bool cols": (lambda: GF2Matrix(2, True, [1]), r"shape \(2, True\) is not two ints >= 0"),
    "negative rows": (lambda: GF2Matrix(-1, 0, []), r"shape \(-1, 0\) is not two ints >= 0"),
    "float column": (lambda: GF2Matrix(2, 1, [1.0]), "column 1.0 is not an int"),
    "bool column": (lambda: GF2Matrix(2, 1, [True]), "column True is not an int"),
    "str column": (lambda: GF2Matrix(2, 3, [1, 2, "3"]), "column '3' is not an int"),
    "float before a wide column": (lambda: GF2Matrix(2, 3, [1, 2.0, 8]), "column 2.0 is not an int"),
    "wide before a float column": (lambda: GF2Matrix(2, 3, [1, 8, 2.0]), "column 0x8 does not fit in 2 rows"),
}


@pytest.mark.parametrize("name", GF2_REFUSALS)
def test_gf2_refuses_what_is_not_an_exact_int(name):
    """A length, shape, ``bits`` or column is read as an exact int, as every
    id is: a float, a bool or a str is refused with ``ValueError``, as is a
    negative shape, and the walk names the first bad column, whatever is
    wrong with it."""
    make, message = GF2_REFUSALS[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


# -- randomized properties -------------------------------------------


@st.composite
def matrices(draw, max_dim: int = 6):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return by_rows(rows, cols, bits)


def product_by_entries(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """(AB)_ij = sum over k of A_ik B_kj mod 2, one entry at a time."""
    ones = [
        (i, j)
        for i in range(a.rows)
        for j in range(b.cols)
        if sum(entry(a, i, k) & entry(b, k, j) for k in range(a.cols)) & 1
    ]
    return from_entries(a.rows, b.cols, ones)


def as_column(v: GF2Vector) -> GF2Matrix:
    return from_entries(v.length, 1, [(i, 0) for i in v.support()])


@st.composite
def products(draw, max_dim: int = 5):
    """A, B with A @ B defined, x for A x and y for y^T A; any dimension may be 0."""
    rows, inner, cols = (draw(st.integers(0, max_dim)) for _ in range(3))

    def matrix(r: int, c: int) -> GF2Matrix:
        return GF2Matrix(r, c, draw(st.lists(st.integers(0, (1 << r) - 1), min_size=c, max_size=c)))

    x = GF2Vector(inner, draw(st.integers(0, (1 << inner) - 1)))
    y = GF2Vector(rows, draw(st.integers(0, (1 << rows) - 1)))
    return matrix(rows, inner), matrix(inner, cols), x, y


@given(products())
@example((zero(0, 3), from_rows([[1, 0], [1, 1], [0, 1]]), GF2Vector(3, 0b101), GF2Vector(0, 0)))
@example((zero(3, 0), zero(0, 2), GF2Vector(0, 0), GF2Vector(3, 0b110)))
@example((from_rows([[1, 1, 0], [0, 1, 1]]), zero(3, 0), GF2Vector(3, 0b111), GF2Vector(2, 0b11)))
def test_products_match_the_entry_by_entry_oracle(drawn):
    a, b, x, y = drawn
    assert columns_of(a @ b) == columns_of(product_by_entries(a, b))
    assert columns_of(as_column(a.apply(x))) == columns_of(product_by_entries(a, as_column(x)))
    assert columns_of(as_column(a.apply_transpose(y))) == columns_of(product_by_entries(transpose(a), as_column(y)))


@given(matrices())
def test_rank_matches_rowspace_oracle(m):
    assert m.rank() == rank_by_rowspace(m)


@given(matrices())
def test_rank_nullity(m):
    assert m.rank() + len(m.kernel_basis()) == m.cols


@given(matrices())
def test_kernel_vectors_annihilate(m):
    for v in m.kernel_basis():
        assert m.apply(v).is_zero()


@given(matrices())
def test_rank_invariant_under_transpose(m):
    assert m.rank() == transpose(m).rank()


@given(matrices())
def test_rank_and_kernel_match_the_rref_oracle(m):
    assert m.rank() == len(rref(m)[1])
    assert m.kernel_basis() == rref_kernel_basis(m)


def assert_certifies(m: GF2Matrix, v: GF2Vector, answer: tuple[int, GF2Vector, bool]) -> None:
    """A cycle is a kernel vector pairing with v to 1, which exists iff v
    lies outside the row space; a primitive y has y^T M = v."""
    _, certificate, is_cycle = answer
    assert is_cycle == (rref_solve(transpose(m), v) is None)
    if is_cycle:
        assert m.apply(certificate).is_zero() and certificate.dot(v) == 1
    else:
        assert m.apply_transpose(certificate) == v


@given(matrices(max_dim=8), st.integers(0, (1 << 8) - 1))
def test_cycle_or_primitive_matches_the_rref_oracle(m, vbits):
    """The cycle is the first kernel vector of the reduced echelon form
    with v . x = 1; when there is none, y is the oracle's solution of
    M^T y = v.  The rank is the oracle's either way."""
    v = GF2Vector(m.cols, vbits & ((1 << m.cols) - 1))
    answer = m.cycle_or_primitive(v)
    assert answer == rref_answer(m, v)
    assert_certifies(m, v, answer)


@given(matrices(max_dim=8), st.lists(st.integers(0, (1 << 8) - 1), max_size=4))
def test_column_reduction_matches_forward_elimination(m, vbits):
    assert_matches_forward_elimination(m, [GF2Vector(m.cols, b & ((1 << m.cols) - 1)) for b in vbits])


EDGE_SHAPES = {
    "no rows": zero(0, 3),
    "no columns": zero(3, 0),
    "empty": zero(0, 0),
    "rank 0": zero(2, 3),
    "full rank": identity(4),
    "full column rank": from_rows([[1, 1], [0, 1], [1, 0]]),
    "full row rank": from_rows([[1, 1, 0], [0, 1, 1]]),
    "repeated rows": from_rows([[0, 1, 1], [0, 1, 1], [1, 1, 0]]),
}


@pytest.mark.parametrize("name", EDGE_SHAPES)
def test_edge_shapes_match_the_rref_oracle(name):
    m = EDGE_SHAPES[name]
    assert m.rank() == len(rref(m)[1])
    assert m.kernel_basis() == rref_kernel_basis(m)
    assert len(m.kernel_basis()) == m.cols - m.rank()
    for vbits in range(1 << m.cols):
        v = GF2Vector(m.cols, vbits)
        answer = m.cycle_or_primitive(v)
        assert answer == rref_answer(m, v)
        assert_certifies(m, v, answer)


@pytest.mark.parametrize("name", EDGE_SHAPES)
def test_edge_shapes_match_forward_elimination(name):
    m = EDGE_SHAPES[name]
    assert_matches_forward_elimination(m, [GF2Vector(m.cols, vbits) for vbits in range(1 << m.cols)])


def test_stretch_boundary_matches_forward_elimination():
    """The top boundary of the doubled opposition complex of the q=2 n=4
    building: 9,008 x 3,184 of rank 3,183."""
    b = build(2, 4)
    opp = opp_complex(b, standard_flag(b))
    cfg = configuration_space(double_over(opp, opp.facets[0]), 4)
    m = cfg.boundary[4]
    assert (m.rows, m.cols, m.rank()) == (9008, 3184, 3183)
    cocycle = obstruction_cocycle(cfg, 3).values
    rows = row_bits(m)
    assert_matches_forward_elimination(m, [cocycle, GF2Vector(m.cols, rows[0] ^ rows[-1])])


def test_edge_shape_answers():
    assert EDGE_SHAPES["no rows"].kernel_basis() == [GF2Vector(3, 1 << i) for i in range(3)]
    # no rows: only 0 lies in the row space, so the first unit vector v meets is the cycle
    assert EDGE_SHAPES["no rows"].cycle_or_primitive(GF2Vector(3, 0b101)) == (0, GF2Vector(3, 0b001), True)
    assert EDGE_SHAPES["no columns"].cycle_or_primitive(GF2Vector(0, 0)) == (0, GF2Vector(3, 0), False)
    assert EDGE_SHAPES["empty"].cycle_or_primitive(GF2Vector(0, 0)) == (0, GF2Vector(0, 0), False)
    assert EDGE_SHAPES["full rank"].kernel_basis() == []
    assert EDGE_SHAPES["full rank"].cycle_or_primitive(GF2Vector(4, 0b1011)) == (4, GF2Vector(4, 0b1011), False)
    # rows 0 and 1 are equal, so row 1 is no basis row and never named
    repeated = EDGE_SHAPES["repeated rows"]
    assert repeated.cycle_or_primitive(GF2Vector(3, 0b110)) == (2, GF2Vector(3, 0b001), False)
    assert repeated.cycle_or_primitive(GF2Vector(3, 0b101)) == (2, GF2Vector(3, 0b101), False)
    # 001 is outside the row space: it pairs to 1 with 111, the cycle of the free column 2
    assert repeated.cycle_or_primitive(GF2Vector(3, 0b001)) == (2, GF2Vector(3, 0b111), True)


def test_cycle_or_primitive_refuses_a_vector_of_another_length():
    m = cycle_boundary(5)
    assert m.cycle_or_primitive(GF2Vector(5, 0b00001)) == (4, GF2Vector(5, 0b11111), True)
    for length in (0, 4, 6):
        with pytest.raises(ValueError, match=f"^vector length {length} != cols 5$"):
            m.cycle_or_primitive(GF2Vector(length, 0))


# -- the tagged column reduction -------------------------------------


@st.composite
def oracle_cases(draw, max_dim: int = 9):
    """A random, empty, zero or full-rank matrix, and vectors to reduce."""
    kind = draw(st.sampled_from(("random", "empty", "zero", "full rank")))
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    if kind == "empty":
        rows, cols = draw(st.sampled_from(((0, cols), (rows, 0), (0, 0))))
    if kind == "full rank":
        # Unitriangular columns, shuffled: row j is the lowest of column j.
        rows = cols
        above = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=cols, max_size=cols))
        columns = [r >> cols - j << cols - j | 1 << cols - 1 - j for j, r in enumerate(above)]
        m = GF2Matrix(rows, cols, draw(st.permutations(columns)))
    else:
        top = 0 if kind == "zero" else (1 << rows) - 1
        m = GF2Matrix(rows, cols, draw(st.lists(st.integers(0, top), min_size=cols, max_size=cols)))
    vectors = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=4))
    return kind, m, [GF2Vector(cols, v) for v in vectors]


def assert_matches_the_tagged_oracle(m: GF2Matrix, vectors: list[GF2Vector]) -> None:
    """Every answer equals the tagged reduction's.  The unit vector at a
    free column pairs to 1 with no earlier free column's tag, so it reads
    back the kernel vector of that column, its tag."""
    oracle = TaggedReduction(m)
    assert m.rank() == oracle.rank()
    assert m.kernel_basis() == oracle.kernel_basis()
    for f in oracle.free:
        assert m.cycle_or_primitive(GF2Vector(m.cols, 1 << f)) == (oracle.rank(), oracle.kernel_vector(f), True)
    for v in vectors:
        assert m.cycle_or_primitive(v) == oracle.cycle_or_primitive(v)


@given(oracle_cases())
@example(("empty", zero(0, 0), [GF2Vector(0, 0)]))
@example(("empty", zero(0, 3), [GF2Vector(3, 0b101)]))
@example(("empty", zero(3, 0), [GF2Vector(0, 0)]))
@example(("zero", zero(2, 3), [GF2Vector(3, 0b110)]))
@example(("full rank", identity(4), [GF2Vector(4, 0b1011)]))
def test_reduction_matches_the_tagged_oracle(case):
    kind, m, vectors = case
    assert kind != "full rank" or TaggedReduction(m).rank() == m.cols
    assert_matches_the_tagged_oracle(m, vectors)


def test_stretch_boundary_matches_the_tagged_oracle():
    """The 9,008 x 3,184 top boundary of the doubled stretch, its one free
    column and the cocycle at seed 3."""
    b = build(2, 4)
    opp = opp_complex(b, standard_flag(b))
    cfg = configuration_space(double_over(opp, opp.facets[0]), 4)
    m = cfg.boundary[4]
    oracle = TaggedReduction(m)
    (free,) = oracle.free
    cocycle = obstruction_cocycle(cfg, 3).values
    assert m.cycle_or_primitive(GF2Vector(m.cols, 1 << free)) == (3183, oracle.kernel_vector(free), True)
    assert m.cycle_or_primitive(cocycle) == oracle.cycle_or_primitive(cocycle)
    row = GF2Vector(m.cols, row_bits(m)[0])
    assert m.cycle_or_primitive(row) == oracle.cycle_or_primitive(row) == (3183, GF2Vector(m.rows, 1), False)
    assert m.rank() == oracle.rank() == 3183
