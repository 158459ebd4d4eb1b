from hypothesis import given, strategies as st

from mckay_lab.intlin import (
    cross3,
    det3,
    dot3,
    hnf_rows,
    xgcd,
)

from oracles import primitive, primitive_signed, rank_of

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


def test_rank_of():
    assert rank_of([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3
    assert rank_of([(1, 1, 0), (2, 2, 0)]) == 1
    assert rank_of([(1, 1, 0), (0, 1, 1)]) == 2
    assert rank_of([(0, 0, 0)]) == 0
