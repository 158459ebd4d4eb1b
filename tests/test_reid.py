from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay_lab import (
    build_fan,
    carving_ratio,
    classify_fan_vertex,
    parse_group_spec,
    regular_triangle_defect,
    tautological_degree,
    vertex_marking,
)
from mckay_lab.errors import BoundaryEdge, NotInLattice, UnknownCone, UnmarkedVertex
from mckay_lab.ghilb import tautological_degrees
from mckay_lab.groups import WeightVector
from mckay_lab.intlin import dot3
from mckay_lab.reid import product_defect
from mckay_lab.verify import _oriented_carving_pair

from conftest import SQUARE_PRODUCTS, pipeline, small_groups
from oracles import brute_carving_vector

f = Fraction


def test_carving_ratio_examples(p3, p4, p6):
    r3 = carving_ratio(p3.fan, p3.edge((f(1, 3),) * 3, (0, 0, 1)))
    assert (r3.m1, r3.m2) == ((1, 0, 0), (0, 1, 0))  # x : y
    r6 = carving_ratio(
        p6.fan, p6.edge((f(1, 6), f(1, 3), f(1, 2)), (f(1, 3), f(2, 3), 0))
    )
    assert (r6.m1, r6.m2) == ((2, 0, 0), (0, 1, 0))  # x^2 : y
    r4 = carving_ratio(p4.fan, p4.edge((f(1, 4), f(1, 4), f(1, 2)), (1, 0, 0)))
    assert (r4.m1, r4.m2) == ((0, 2, 0), (0, 0, 1))  # y^2 : z


def test_carving_against_brute_force(p13):
    """The perpendicular primitive invariant agrees with a box search."""
    fan = p13.fan
    for edge in fan.interior_edges:
        ratio = carving_ratio(fan, edge)
        vec = tuple(a - b for a, b in zip(ratio.m1, ratio.m2))
        i, j = edge
        brute = brute_carving_vector(
            p13.group, fan.rays[i].coords, fan.rays[j].coords, bound=13
        )
        assert brute in (vec, tuple(-v for v in vec))
        assert sum(map(abs, brute)) == sum(map(abs, vec))  # both primitive


def test_edge_characters(p3, p4):
    for edge in p3.fan.interior_edges:
        assert carving_ratio(p3.fan, edge).character == p3.chi(1)
    assert carving_ratio(
        p4.fan, p4.edge((f(1, 4), f(1, 4), f(1, 2)), (f(1, 2), f(1, 2), 0))
    ).character == p4.chi(1)
    assert carving_ratio(
        p4.fan, p4.edge((f(1, 4), f(1, 4), f(1, 2)), (1, 0, 0))
    ).character == p4.chi(2)


def test_boundary_edge_rejected(p4):
    boundary = p4.edge((f(1, 2), f(1, 2), 0), (1, 0, 0))
    with pytest.raises(BoundaryEdge):
        carving_ratio(p4.fan, boundary)


def test_classification_examples(p3, p4, trivial_group):
    center = p3.fan.rays[p3.ray((f(1, 3),) * 3)]
    case3 = classify_fan_vertex(p3.fan, center)
    assert case3.tag == "case1" and case3.valency == 3

    p = p4.fan.rays[p4.ray((f(1, 4), f(1, 4), f(1, 2)))]
    case4 = classify_fan_vertex(p4.fan, p)
    assert case4.tag == "case2" and case4.valency == 4

    q = p4.fan.rays[p4.ray((f(1, 2), f(1, 2), 0))]
    assert classify_fan_vertex(p4.fan, q).tag == "boundary"

    corner = p4.fan.rays[p4.ray((1, 0, 0))]
    with pytest.raises(UnmarkedVertex):
        classify_fan_vertex(p4.fan, corner)


def test_classification_off_the_group_lattice(p3):
    """A point off the group's lattice keeps the corner and boundary tests:
    on the boundary it is a boundary vertex, inside it is an input error."""
    assert classify_fan_vertex(p3.fan, WeightVector((f(1, 2), f(1, 2), f(0)))).tag == "boundary"
    with pytest.raises(NotInLattice, match="lattice"):
        classify_fan_vertex(p3.fan, WeightVector((f(1, 2), f(1, 4), f(1, 4))))


@pytest.mark.parametrize(
    "coords", [(0, 0, 0), (2, 0, 0), (0, f(3, 2), f(-1, 2)), (0, f(1, 2), f(1, 4))]
)
def test_a_point_off_the_junior_simplex_is_no_vertex(p3, coords):
    """A point with a negative coordinate, or whose coordinates do not sum
    to 1, is neither a boundary vertex nor a marked one."""
    point = WeightVector(tuple(f(c) for c in coords))
    with pytest.raises(UnknownCone, match="junior simplex"):
        classify_fan_vertex(p3.fan, point)
    with pytest.raises(UnknownCone, match="junior simplex"):
        vertex_marking(p3.fan, point)


@pytest.mark.parametrize(
    "spec,coords,error",
    [
        ("3:1,1,1", (f(1, 2), f(1, 4), f(1, 4)), NotInLattice),  # n*e is not integral
        ("5:1,1,3", (f(1, 5), f(2, 5), f(2, 5)), UnknownCone),  # n*e integral, e not in L
        ("3:1,1,1", (f(2, 3), f(2, 3), f(2, 3)), UnknownCone),  # in L, off the junior simplex
    ],
)
def test_a_point_that_is_no_ray_is_an_input_error(spec, coords, error):
    """Every lookup from a point goes through GroupData.ray_index, which
    refuses a point that is no ray of the fan with an input error, never a
    KeyError or an AssertionError."""
    fan = pipeline(spec).fan
    point = WeightVector(coords)
    cone = (point, *(fan.rays[ri] for ri in fan.cone_rays[0][1:]))
    lookups = (
        lambda: fan.group.ray_index(point),
        lambda: fan.cone_index(cone),
        lambda: classify_fan_vertex(fan, point),
        lambda: vertex_marking(fan, point),
    )
    for lookup in lookups:
        with pytest.raises(error):
            lookup()


@pytest.mark.parametrize("spec", ["13:1,5,7", "3:1,2,0+3:0,1,2"])
def test_a_pair_that_is_no_interior_edge_is_an_input_error(spec):
    """Every lookup from a ray-index pair goes through GHilbFan.edge_between,
    which refuses a pair that spans no edge with UnknownCone; the readers of
    an interior edge refuse a boundary one with BoundaryEdge, which
    edge_between returns.  Never a KeyError."""
    fan = pipeline(spec).fan
    chi = fan.group.characters[1]
    readers = (
        lambda pair: carving_ratio(fan, pair),
        lambda pair: tautological_degree(fan, chi, pair),
        lambda pair: tautological_degrees(fan, pair),
        lambda pair: _oriented_carving_pair(fan, pair),
    )
    n = len(fan.rays)
    no_edge = next(p for p in combinations(range(n), 2) if p not in fan.edges)
    for i, j in (no_edge, no_edge[::-1], (0, 0), (0, n)):
        with pytest.raises(UnknownCone):
            fan.edge_between(i, j)
        for reader in readers:
            with pytest.raises(UnknownCone):
                reader((i, j))
    boundary = next(e for e, cones in fan.edges.items() if len(cones) == 1)
    for pair in (boundary, boundary[::-1]):
        assert fan.edge_between(*pair) == boundary
        for reader in readers:
            with pytest.raises(BoundaryEdge):
                reader(pair)


def test_vertex_markings(p3, p4, p6, p13):
    center = p3.fan.rays[p3.ray((f(1, 3),) * 3)]
    assert vertex_marking(p3.fan, center) == (p3.chi(2),)

    p = p4.fan.rays[p4.ray((f(1, 4), f(1, 4), f(1, 2)))]
    assert vertex_marking(p4.fan, p) == (p4.chi(3),)

    interior6 = p6.fan.rays[p6.ray((f(1, 6), f(1, 3), f(1, 2)))]
    assert vertex_marking(p6.fan, interior6) == (p6.chi(5),)

    # age-2-free group: six case-2 vertices, markings pair up with edges
    marks = {
        p13.marked.vertex_cases[ri].markings[0].residues[0]
        for ri in p13.group.exceptional_ray_indices
    }
    assert marks == {3, 6, 8, 9, 11, 12}


def test_case3_marking(p33):
    center = p33.ray((f(1, 3),) * 3)
    case = p33.marked.vertex_cases[center]
    assert case.tag == "case3" and case.valency == 6
    assert {chi.residues for chi in case.markings} == {(1, 1), (2, 2)}


def test_marking_classes(p3, p4):
    assert p3.marked.marking_class(p3.chi(0)) == "nothing"
    assert p3.marked.marking_class(p3.chi(1)) == "curves"
    assert p3.marked.marking_class(p3.chi(2)) == "divisor"
    assert p4.marked.marking_class(p4.chi(1)) == "curves"
    assert p4.marked.marking_class(p4.chi(2)) == "curves"
    assert p4.marked.marking_class(p4.chi(3)) == "divisor"


def test_single_curve_marking(p2, p22):
    assert p2.marked.marking_class(p2.chi(1)) == "curve"
    for chi in p22.group.characters:
        if not chi.is_trivial:
            assert p22.marked.marking_class(chi) == "curve"


def test_product_defect_telescoping():
    # x:y, y:z, z:x multiply to (xyz)^0 under the right signs
    vectors = [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]
    assert product_defect(vectors) == 0


def test_regular_triangle_defect_on_interior_cones():
    pipe_spec = "7:1,2,4"
    from conftest import pipeline

    pipe = pipeline(pipe_spec)
    fan = pipe.fan
    defects = []
    for ci, triple in enumerate(fan.cone_rays):
        edges = [
            fan.edge_between(triple[a], triple[b])
            for a in range(3)
            for b in range(a + 1, 3)
        ]
        if any(len(fan.edges[e]) == 1 for e in edges):
            continue
        defects.append(regular_triangle_defect(fan, ci))
    # 1/7(1,2,4) has four all-interior triangles, each basic: defect 1
    assert defects == [1, 1, 1, 1]


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_groups, st.sampled_from(SQUARE_PRODUCTS).map(parse_group_spec)))
def test_each_edge_has_one_oriented_carving_vector(group):
    """Each interior edge's carving vector vanishes on its two rays, is
    positive on the far ray of its first cone and negative on that of its
    second, and its lexicographically positive sign is the ratio's m1 - m2;
    the triangle defect does not depend on the sign of any one vector."""
    fan = build_fan(group)
    scaled = fan.group.juniors
    for edge in fan.interior_edges:
        w = fan.carving_vectors[edge]
        assert [dot3(scaled[ri], w) for ri in edge] == [0, 0]
        (near,), (far,) = (
            [ri for ri in fan.cone_rays[ci] if ri not in edge] for ci in fan.edges[edge]
        )
        assert dot3(scaled[near], w) > 0 > dot3(scaled[far], w)
        ratio = carving_ratio(fan, edge)
        lex = w if next(v for v in w if v) > 0 else tuple(-v for v in w)
        assert tuple(a - b for a, b in zip(ratio.m1, ratio.m2)) == lex
    for a, b, c in fan.cone_rays:
        edges = [fan.edge_between(i, j) for i, j in ((a, b), (a, c), (b, c))]
        if any(len(fan.edges[e]) == 1 for e in edges):
            continue
        vectors = [fan.carving_vectors[e] for e in edges]
        defect = product_defect(vectors)
        for k in range(3):
            flipped = list(vectors)
            flipped[k] = tuple(-v for v in vectors[k])
            assert product_defect(flipped) == defect
