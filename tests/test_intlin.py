from fractions import Fraction

from hypothesis import given, strategies as st

from mckay_lab.intlin import (
    cross3,
    det3,
    dot3,
    hnf_rows,
    hnf_rows_rational,
    mat3_inverse,
    primitive,
    primitive_signed,
    smith_diagonal,
    xgcd,
)

from oracles import rank_of

ints = st.integers(min_value=-40, max_value=40)


@given(ints, ints)
def test_xgcd_identity(a, b):
    x, y, g = xgcd(a, b)
    assert x * a + y * b == g
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


def test_primitive():
    assert primitive((4, -6, 8)) == (2, -3, 4)
    assert primitive_signed((-2, 4, 0)) == (1, -2, 0)
    assert primitive((0, 0, 0)) == (0, 0, 0)


@given(st.tuples(ints, ints, ints), st.tuples(ints, ints, ints))
def test_cross_perpendicular(u, v):
    w = cross3(u, v)
    assert dot3(w, u) == 0 and dot3(w, v) == 0


def test_hnf_lattice_basis():
    rows = hnf_rows([(2, 0, 0), (0, 3, 0), (1, 1, 1), (0, 0, 5)])
    assert len(rows) == 3
    d = det3(rows)
    assert abs(d) == 1  # those four rows generate all of Z^3


def test_hnf_rational_scaling():
    rows = hnf_rows_rational(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (Fraction(1, 3),) * 3]
    )
    assert abs(det3(rows)) == Fraction(1, 3)


def test_mat3_inverse():
    m = ((2, 1, 0), (0, 1, 0), (1, 0, 1))
    inv = mat3_inverse(m)
    for i in range(3):
        for j in range(3):
            acc = sum(m[i][k] * inv[k][j] for k in range(3))
            assert acc == (1 if i == j else 0)


def test_smith_diagonal_examples():
    assert smith_diagonal([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == [1, 1, 1]
    assert smith_diagonal([(2, 0, 0), (0, 2, 0), (0, 0, 1)]) == [1, 2, 2]
    # invariant factors cross-checked via gcds of k x k minors: 2, 4/2, 624/4
    diag = smith_diagonal([(2, 4, 4), (-6, 6, 12), (10, 4, 16)])
    assert diag == [2, 2, 156]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


@given(st.lists(st.tuples(ints, ints, ints), min_size=3, max_size=3))
def test_smith_diagonal_divisibility_and_determinant(rows):
    diag = smith_diagonal(rows)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    d = det3(rows)
    if d:
        prod = 1
        for v in diag:
            prod *= v
        assert prod == abs(d)


def test_rank_of():
    assert rank_of([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3
    assert rank_of([(1, 1, 0), (2, 2, 0)]) == 1
    assert rank_of([(1, 1, 0), (0, 1, 1)]) == 2
    assert rank_of([(0, 0, 0)]) == 0
