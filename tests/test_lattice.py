from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mckay_lab import WeightVector, group_from_generators, parse_group_spec
from mckay_lab.errors import DegenerateCone, NotInLattice
from mckay_lab.groups import CORNERS as CORNER_COORDS

from conftest import REDUNDANT_PRESENTATIONS, RECTANGULAR_PRODUCTS, SQUARE_PRODUCTS, small_groups
from oracles import (
    cone_is_unimodular,
    junior_table_by_fractions,
    cyclic_junior_count,
    cyclic_juniors,
    in_lattice_by_pairing,
    is_invariant,
    junior_point,
    primitive,
    valuation,
)


def wv(*coords):
    return WeightVector(tuple(Fraction(c) for c in coords))


CORNERS = [wv(1, 0, 0), wv(0, 1, 0), wv(0, 0, 1)]


def test_junior_points_picture_group():
    g = parse_group_spec("13:1,5,7")
    pts = g.junior_points
    interior = {p.coords for p in pts if not p.is_corner}
    expected = {
        tuple(Fraction(v, 13) for v in triple)
        for triple in [(1, 5, 7), (2, 10, 1), (3, 2, 8), (4, 7, 2), (6, 4, 3), (8, 1, 4)]
    }
    assert interior == expected
    assert {p.coords for p in pts if p.is_corner} == {c.coords for c in CORNERS}
    assert list(pts) == sorted(pts)  # deterministic lex order


def test_junior_points_trivial_group():
    g = parse_group_spec("1:0,0,0")
    assert [p.coords for p in g.junior_points] == sorted(c.coords for c in CORNERS)


def test_junior_points_4_1_1_2():
    g = parse_group_spec("4:1,1,2")
    pts = {p.coords for p in g.junior_points if not p.is_corner}
    assert pts == {
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
    }


def test_valuation_examples():
    e = wv(Fraction(1, 13), Fraction(5, 13), Fraction(7, 13))
    assert valuation(e, (1, 0, 0)) == Fraction(1, 13)
    assert valuation(e, (1, 1, 1)) == 1
    p = wv(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert valuation(p, (1, -1, 0)) == 0  # the Laurent monomial x/y


def test_unimodularity_examples():
    g3 = parse_group_spec("3:1,1,1")
    center = wv(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert cone_is_unimodular(g3, (center, CORNERS[1], CORNERS[2]))
    assert not cone_is_unimodular(g3, tuple(CORNERS))
    triv = parse_group_spec("1:0,0,0")
    assert cone_is_unimodular(triv, tuple(CORNERS))
    with pytest.raises(DegenerateCone):
        cone_is_unimodular(g3, (CORNERS[0], CORNERS[0], CORNERS[1]))


def sl3_weights():
    return st.tuples(
        st.integers(min_value=2, max_value=14),
        st.integers(min_value=0, max_value=13),
        st.integers(min_value=0, max_value=13),
    ).map(lambda t: (t[0], (t[1] % t[0], t[2] % t[0], (-t[1] - t[2]) % t[0])))


@settings(max_examples=60)
@given(sl3_weights())
def test_junior_counts_match_formula(gen):
    r, weights = gen
    g = group_from_generators([gen])
    pts = g.junior_points
    if g.order == r:  # formula as stated applies to a faithful single generator
        assert len(pts) == cyclic_junior_count(r, weights)
    assert {p.coords for p in pts if not p.is_corner} == cyclic_juniors(r, weights)


@settings(max_examples=40)
@given(sl3_weights(), st.tuples(*[st.integers(0, 5)] * 3))
def test_interior_valuations_of_invariants_are_positive_integers(gen, mono):
    g = group_from_generators([gen])
    if not is_invariant(g, mono) or mono == (0, 0, 0):
        return
    for p in g.junior_points:
        if not p.is_boundary:
            v = valuation(p, mono)
            assert v.denominator == 1 and v >= 1


nonnegative_rays = st.tuples(*[st.integers(0, 40)] * 3).filter(any).map(primitive)


@settings(max_examples=200, deadline=None)
@given(small_groups, nonnegative_rays)
def test_junior_lookup_matches_invariant_pairing(group, ray):
    """The junior lookup finds r/sum(r) exactly when it pairs integrally with
    the invariant basis, and then finds that point."""
    point = junior_point(group, ray)
    assert (point is not None) == in_lattice_by_pairing(group, ray)
    if point is not None:
        assert point.coords == tuple(Fraction(v, sum(ray)) for v in ray)


@settings(max_examples=30, deadline=None)
@given(small_groups)
def test_junior_lookup_finds_every_junior_point(group):
    for point in group.junior_points:
        ray = primitive(point.scaled(group.order))
        assert in_lattice_by_pairing(group, ray)
        assert junior_point(group, ray) is point


def test_junior_table_is_built_once_per_group():
    """The constructor builds the junior points, scaled and as views; the
    divisor table is built on first read and then kept."""
    g = parse_group_spec("13:1,5,7")
    assert list(g.juniors) == [p.scaled(13) for p in g.junior_points]
    assert g.divisor_rows is g.divisor_rows


def test_divisor_table_is_frozen():
    """The table is a tuple of tuples, so no reader can write into the one
    group every fan of it shares."""
    rows = parse_group_spec("13:1,5,7").divisor_rows
    with pytest.raises(TypeError):
        rows[1][1] += 1
    with pytest.raises(TypeError):
        rows[1] = rows[0]


def test_scaled_raises_off_the_lattice():
    """n*l in integers for l in (1/n)Z^3, and NotInLattice, an input error,
    for any other scale; nothing is kept on the point."""
    p = wv(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert p.scaled(4) == (1, 1, 2)
    assert p.scaled(8) == (2, 2, 4)
    for n in (1, 2, 3, 6):
        with pytest.raises(NotInLattice, match="not a point of the lattice"):
            p.scaled(n)
    assert not hasattr(p, "__dict__")


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        small_groups,
        st.sampled_from(
            SQUARE_PRODUCTS + RECTANGULAR_PRODUCTS + list(REDUNDANT_PRESENTATIONS)
        ).map(parse_group_spec),
    )
)
@example(parse_group_spec("4:0,2,2"))  # N = 4, |G| = 2
@example(parse_group_spec("6:2,2,2"))  # N = 6, |G| = 3
def test_integer_junior_table_matches_the_fraction_sort(group):
    """The table read off the integer element walk equals the one built by
    sorting Fraction points, key for key and coordinate for coordinate; its
    points hold the group's own coordinate tuples and scale to their keys."""
    table = dict(zip(group.juniors, group.junior_points))
    reference = junior_table_by_fractions(group)
    assert list(table) == list(reference)
    assert [p.coords for p in table.values()] == [p.coords for p in reference.values()]
    own = {id(coords) for coords in group.elements + CORNER_COORDS}
    assert all(id(p.coords) in own for p in table.values())
    assert all(p.scaled(group.order) == key for key, p in table.items())
