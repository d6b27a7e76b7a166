"""GF(2) linear algebra: frozen examples plus randomized cross-checks.

The independent rank oracle enumerates the whole row space (2^rank
elements) instead of eliminating, so it shares no code path with the
implementation under test.  A second oracle is the reduced row echelon
form, back-substitution included, which the package eliminated with until
it went forward-only: rank, kernel basis and row reduction must equal what
it reads off, bit for bit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from obstructor.gf2 import GF2Matrix, GF2Vector


# -- the reduced row echelon oracle ----------------------------------


def rref(m: GF2Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form: (nonzero rows, their pivot columns).

    Pivot columns come out strictly increasing; each row's pivot is its
    lowest set bit and the only set bit in its column.
    """
    pivot_rows: dict[int, int] = {}  # pivot column -> current row value
    for r in m.row_bits:
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
    augmented = GF2Matrix(
        m.rows, m.cols + 1, [r | (((b.bits >> i) & 1) << aug) for i, r in enumerate(m.row_bits)]
    )
    rows, pivots = rref(augmented)
    if aug in pivots:
        return None  # a row reduced to 0 = 1
    bits = 0
    for r, p in zip(rows, pivots):
        if (r >> aug) & 1:
            bits |= 1 << p
    return GF2Vector(m.cols, bits)


def rank_by_rowspace(m: GF2Matrix) -> int:
    """|{XOR-combinations of rows}| = 2^rank."""
    space = {0}
    for r in m.row_bits:
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
    return GF2Matrix.from_entries(n, n, ones)


# -- frozen cases ----------------------------------------------------


def test_zero_and_identity_ranks():
    assert GF2Matrix.zero(0, 0).rank() == 0
    assert GF2Matrix.zero(4, 7).rank() == 0
    assert GF2Matrix.identity(3).rank() == 3


def test_five_cycle_boundary_rank_and_kernel():
    m = cycle_boundary(5)
    assert rank_by_rowspace(m) == 4
    assert m.rank() == 4
    kernel = m.kernel_basis()
    assert len(kernel) == 1
    assert kernel[0].bits == 0b11111  # the full cycle is the only 1-cycle
    assert m.apply(kernel[0]).is_zero()


def test_kernel_of_single_parity_row():
    m = GF2Matrix.from_rows([[1, 1]])
    basis = m.kernel_basis()
    assert [v.to_list() for v in basis] == [[1, 1]]


def test_matmul_and_transpose_shapes():
    a = GF2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
    b = GF2Matrix.from_rows([[1, 0], [1, 1], [0, 1]])
    p = a @ b
    assert (p.rows, p.cols) == (2, 2)
    assert p.entry(0, 0) == 0 and p.entry(0, 1) == 1
    t = a.transpose()
    assert (t.rows, t.cols) == (3, 2)
    assert t.transpose() == a


def test_vector_validation():
    with pytest.raises(ValueError):
        GF2Vector(2, 0b100)
    with pytest.raises(ValueError):
        GF2Vector.from_support(3, [3])
    with pytest.raises(ValueError):
        GF2Vector(3, 1) ^ GF2Vector(4, 1)


def test_matrix_validation():
    with pytest.raises(ValueError):
        GF2Matrix(1, 2, [0b100])
    with pytest.raises(ValueError):
        GF2Matrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError):
        GF2Matrix.from_entries(2, 2, [(2, 0)])


# -- randomized properties -------------------------------------------


@st.composite
def matrices(draw, max_dim: int = 6):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return GF2Matrix(rows, cols, bits)


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
    assert m.rank() == m.transpose().rank()


@given(matrices())
def test_rank_and_kernel_match_the_rref_oracle(m):
    assert m.rank() == len(rref(m)[1])
    assert m.kernel_basis() == rref_kernel_basis(m)


@given(matrices(max_dim=8), st.integers(0, (1 << 8) - 1))
def test_row_reduce_splits_off_the_row_space(m, vbits):
    """v = residue + y^T M, the residue is 0 on the pivot columns, every
    kernel vector pairs with v as with the residue, and a zero residue
    comes with the oracle's solution of M^T y = v."""
    v = GF2Vector(m.cols, vbits & ((1 << m.cols) - 1))
    residue, y = m.row_reduce(v)
    assert residue ^ m.apply_transpose(y) == v
    assert all(residue[p] == 0 for p in rref(m)[1])
    assert all(z.dot(v) == z.dot(residue) for z in rref_kernel_basis(m))
    assert (residue.is_zero()) == (rref_solve(m.transpose(), v) is not None)
    if residue.is_zero():
        assert y == rref_solve(m.transpose(), v)


EDGE_SHAPES = {
    "no rows": GF2Matrix.zero(0, 3),
    "no columns": GF2Matrix.zero(3, 0),
    "empty": GF2Matrix.zero(0, 0),
    "rank 0": GF2Matrix.zero(2, 3),
    "full rank": GF2Matrix.identity(4),
    "full column rank": GF2Matrix.from_rows([[1, 1], [0, 1], [1, 0]]),
    "full row rank": GF2Matrix.from_rows([[1, 1, 0], [0, 1, 1]]),
    "repeated rows": GF2Matrix.from_rows([[0, 1, 1], [0, 1, 1], [1, 1, 0]]),
}


@pytest.mark.parametrize("name", EDGE_SHAPES)
def test_edge_shapes_match_the_rref_oracle(name):
    m = EDGE_SHAPES[name]
    assert m.rank() == len(rref(m)[1])
    assert m.kernel_basis() == rref_kernel_basis(m)
    assert len(m.kernel_basis()) == m.cols - m.rank()
    for vbits in range(1 << m.cols):
        v = GF2Vector(m.cols, vbits)
        residue, y = m.row_reduce(v)
        assert residue ^ m.apply_transpose(y) == v
        expected = rref_solve(m.transpose(), v)
        assert residue.is_zero() == (expected is not None)
        if expected is not None:
            assert y == expected


def test_edge_shape_answers():
    assert EDGE_SHAPES["no rows"].kernel_basis() == [GF2Vector(3, 1 << i) for i in range(3)]
    # no rows: only 0 lies in the row space, so every vector is its own residue
    assert EDGE_SHAPES["no rows"].row_reduce(GF2Vector(3, 0b101)) == (GF2Vector(3, 0b101), GF2Vector(0, 0))
    assert EDGE_SHAPES["no columns"].row_reduce(GF2Vector(0, 0)) == (GF2Vector(0, 0), GF2Vector(3, 0))
    assert EDGE_SHAPES["full rank"].kernel_basis() == []
    assert EDGE_SHAPES["full rank"].row_reduce(GF2Vector(4, 0b1011)) == (GF2Vector(4, 0), GF2Vector(4, 0b1011))
    # rows 0 and 1 are equal, so row 1 is no basis row and never named
    repeated = EDGE_SHAPES["repeated rows"]
    assert repeated.row_reduce(GF2Vector(3, 0b110)) == (GF2Vector(3, 0), GF2Vector(3, 0b001))
    assert repeated.row_reduce(GF2Vector(3, 0b101)) == (GF2Vector(3, 0), GF2Vector(3, 0b101))
    # 001 = 011 + 110 + 100: the residue sits on the free column 2
    assert repeated.row_reduce(GF2Vector(3, 0b001)) == (GF2Vector(3, 0b100), GF2Vector(3, 0b101))


def test_kernel_vector_refuses_pivot_columns():
    m = cycle_boundary(5)
    assert m.kernel_vector(4).bits == 0b11111
    for col in (0, 3, 5, -1):
        with pytest.raises(ValueError):
            m.kernel_vector(col)
