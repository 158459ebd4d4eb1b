from fractions import Fraction

import pytest

from mckay_lab import (
    QuiverAnalysis,
    build_fan,
    parse_group_spec,
    quiver_counts,
    torus_positions,
)
from mckay_lab.errors import InvalidSpokePattern, MultiplicityOutOfRange
from mckay_lab.quiver import SINK03, SINK30, SOURCE33, VertexClass, _classify_pattern

from oracles import arrow_order

f = Fraction


def test_quiver_counts_picture_group(p13):
    assert quiver_counts(p13.group) == {
        "vertices": 13,
        "arrows": 39,
        "triangles": 26,
    }


def test_trivial_group_has_both_triangles(trivial_group):
    """The one vertex carries the two 3-cycles xyz and xzy, which are
    distinct as paths although they use the same three loops."""
    assert quiver_counts(trivial_group)["triangles"] == 2


def test_arrow_vanishing_orders(p3, p4):
    center = p3.ray((f(1, 3),) * 3)
    assert arrow_order(p3.qa, center, p3.chi(2), "x") == 1
    assert arrow_order(p3.qa, center, p3.chi(0), "x") == 0
    p = p4.ray((f(1, 4), f(1, 4), f(1, 2)))
    assert arrow_order(p4.qa, p, p4.chi(2), "z") == 1


def test_multiplicities_read_the_divisor_table(monkeypatch):
    """The arrow orders come from the group's divisor table alone: one
    corrupted entry, in a copy put in its place, breaks them."""
    fan = build_fan(parse_group_spec("13:1,5,7"))
    group = fan.group
    ri = group.exceptional_ray_indices[0]
    rows = [list(row) for row in group.divisor_rows]
    rows[ri][1] += 1
    monkeypatch.setitem(group.__dict__, "divisor_rows", tuple(map(tuple, rows)))
    with pytest.raises(MultiplicityOutOfRange):
        QuiverAnalysis(fan).masks(ri)


def test_vanishing_counts(p3, p4):
    assert p3.qa.vanishing_counts(p3.ray((f(1, 3),) * 3)) == (1, 1, 1)
    assert p4.qa.vanishing_counts(p4.ray((f(1, 4), f(1, 4), f(1, 2)))) == (1, 1, 2)
    assert p4.qa.vanishing_counts(p4.ray((f(1, 2), f(1, 2), 0))) == (2, 2, 0)


def test_triangle_identity(p13):
    for ri in p13.group.exceptional_ray_indices:
        assert p13.qa.triangles_consistent(ri)


def test_the_64_spoke_patterns_give_the_18_classes():
    """Two sinks, seven sources, six charges and three tiles; the other 46
    (out, in) patterns of vanishing spokes are invalid."""
    labels, invalid = set(), 0
    for outs in range(8):
        for ins in range(8):
            try:
                labels.add(_classify_pattern(outs, ins).label())
            except InvalidSpokePattern:
                invalid += 1
    assert invalid == 46
    assert labels == {"(3,0)-sink", "(0,3)-sink", "(3,3)-source"} | {
        f"{o}-{kind}"
        for o in "xyz"
        for kind in ("(2,1)-source", "(1,2)-source", "(1,0)-charge", "(0,1)-charge", "(0,0)-tile")
    }
    # bit k of a pattern is the k-th orientation
    assert _classify_pattern(0b001, 0) == VertexClass("source", (2, 1), "x")
    assert _classify_pattern(0, 0b100) == VertexClass("source", (1, 2), "z")
    assert _classify_pattern(0b101, 0) == VertexClass("charge", (1, 0), "y")
    assert _classify_pattern(0, 0b110) == VertexClass("charge", (0, 1), "x")
    assert _classify_pattern(0b010, 0b010) == VertexClass("tile", (0, 0), "y")
    assert _classify_pattern(0b111, 0) == SINK30 and _classify_pattern(0, 0b111) == SINK03


def test_vertex_classes_at_center(p3):
    center = p3.ray((f(1, 3),) * 3)
    classes = p3.qa.classes(center)
    assert classes[p3.pos(2)] == SINK30
    assert classes[p3.pos(0)] == SINK03
    assert classes[p3.pos(1)] == SOURCE33


def test_shape_a(p3):
    ss = p3.qa.sink_source_graph(p3.ray((f(1, 3),) * 3))
    assert ss.shape == "A"
    assert ss.lengths == {"a": 1, "b": 1, "c": 1}
    assert ss.sink30_count == 1
    # six unit lines from the source, three forward to chi_2, three back to chi_0
    assert len(ss.lines) == 6
    assert {(l.source, l.sink) for l in ss.lines} == {
        (p3.pos(1), p3.pos(2)),
        (p3.pos(1), p3.pos(0)),
    }


def test_shape_b_at_p(p4):
    p = p4.ray((f(1, 4), f(1, 4), f(1, 2)))
    ss = p4.qa.sink_source_graph(p)
    assert ss.shape == "B" and ss.shape_axis == "z"
    lengths = ss.lengths
    assert (lengths["a"], lengths["b"], lengths["c"]) == (1, 1, 1)
    assert (lengths["a1"], lengths["b1"]) == (1, 1)
    # the (1,2)-source is chi_1 (its z in-spoke dies), the (2,1) is chi_2
    classes = ss.classes
    assert classes[p4.pos(1)].kind == "source"
    assert classes[p4.pos(1)].bidegree == (1, 2)
    assert classes[p4.pos(2)].bidegree == (2, 1)
    assert classes[p4.pos(3)] == SINK30
    # x and y lines run chi_0 -> chi_1; the z line runs chi_0 -> chi_2
    back = {l.orientation: l for l in ss.lines if l.chirality == (0, 1)}
    assert back["x"].vertices == (p4.pos(1), p4.pos(0))
    assert back["y"].vertices == (p4.pos(1), p4.pos(0))
    assert back["z"].vertices == (p4.pos(2), p4.pos(0))


def test_boundary_divisor_all_charges(p4):
    q = p4.ray((f(1, 2), f(1, 2), 0))
    ss = p4.qa.sink_source_graph(q)
    assert ss.shape is None
    for k in (p4.pos(1), p4.pos(3)):
        cls = ss.classes[k]
        assert cls.kind == "charge" and cls.orientation == "z"
    assert not ss.sink03_vertices()


def test_boundary_divisor_gets_classes_only(p4):
    """On the boundary divisor Q no charge line is walked and no shape is
    sought: the graph carries the vertex classes alone."""
    q = p4.ray((f(1, 2), f(1, 2), 0))
    ss = p4.qa.sink_source_graph(q)
    assert ss.classes == p4.qa.classes(q)
    assert len(ss.classes) == p4.group.order
    assert ss.lines == []
    assert ss.shape is None and ss.lengths is None


def test_shape_c(p33):
    center = p33.ray((f(1, 3),) * 3)
    ss = p33.qa.sink_source_graph(center)
    assert ss.shape == "C"
    # backward lines of length 2, all six forward chords of length 1:
    # the coordinate formula gives (2*1 + 1*2 - 1*1)/9 = 1/3 per coordinate
    assert [ss.lengths[k] for k in "abc"] == [2, 2, 2]
    assert set(ss.lengths["fwd"].values()) == {1}
    assert len(ss.sources) == 3
    kinds = {ss.classes[s].bidegree for s in ss.sources}
    assert len(kinds) == 1  # all three sources share a chirality
    assert ss.sink30_count == 2
    # the two (3,0)-sinks carry exactly the two vertex-marking characters
    sinks = {
        p33.group.characters[k].residues for k, cls in enumerate(ss.classes) if cls == SINK30
    }
    marks = {c.residues for c in p33.marked.vertex_cases[center].markings}
    assert sinks == marks


def test_torus_positions_deterministic(p13):
    pos1 = torus_positions(p13.group)
    pos2 = torus_positions(p13.group)
    assert pos1 == pos2
    assert pos1[p13.pos(0)] == (0, 0)
    assert len(set(pos1)) == 13
