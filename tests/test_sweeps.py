"""The verifier's per-ray and per-edge sweeps against per-character
references, and a count of the indexes a verification builds."""

import re
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mckay_lab.ghilb
import mckay_lab.reid
import mckay_lab.verify
from mckay_lab import (
    GroupVerification,
    QuiverAnalysis,
    build_fan,
    marked_triangulation,
    parse_group_spec,
    support_h0,
    support_h1,
    support_h2,
    tautological_degree,
)
from mckay_lab.errors import MultiplicityOutOfRange
from mckay_lab.ghilb import tautological_degrees
from mckay_lab.intlin import cross3
from mckay_lab.reid import MarkedTriangulation
from mckay_lab.transforms import _is_connected
from mckay_lab.verify import _divisor_positions, ratio_is_primitive

from conftest import REPORT_GROUPS, SQUARE_PRODUCTS, small_groups
from oracles import (
    is_connected_pairwise,
    multi_curve_divisors_scan,
    ratio_is_primitive_pairwise,
    support_h0_scan,
    support_h1_scan,
    table_degrees,
    tautological_degree_single,
)

monomials = st.tuples(*[st.integers(0, 4)] * 3)


@settings(max_examples=30, deadline=None)
@given(small_groups)
def test_h0_supports_from_masks_match_the_scan(group):
    assume(group.order > 1)
    fan = build_fan(group)
    qa = QuiverAnalysis(group)
    for chi in group.characters:
        assert support_h0(fan, qa, chi) == support_h0_scan(fan, qa, chi)


@settings(max_examples=30, deadline=None)
@given(small_groups)
def test_h1_loci_match_the_per_ray_class_scan(group):
    assume(group.order > 1)
    fan = build_fan(group)
    qa = QuiverAnalysis(group)
    for chi in group.characters:
        assert support_h1(fan, qa, chi) == support_h1_scan(fan, qa, chi)
        assert [("divisor", ri) for ri in qa.h1_loci[group.index[chi]]] == support_h1_scan(
            fan, qa, chi
        )


@settings(max_examples=30, deadline=None)
@given(small_groups)
def test_multi_curve_divisors_from_curve_ends_match_the_ray_scan(group):
    """For every character, on its marked curves and on all interior edges
    at once, whose ends include the corner rays."""
    assume(group.order > 1)
    verification = GroupVerification(build_fan(group))
    for chi in group.characters:
        curves = verification.marked.marked_edges(chi)
        assert verification._multi_curve_divisors(curves) == multi_curve_divisors_scan(
            group, curves
        )
    edges = verification.fan.interior_edges
    assert verification._multi_curve_divisors(edges) == multi_curve_divisors_scan(group, edges)


@settings(max_examples=20, deadline=None)
@given(small_groups)
@example(parse_group_spec("72:1,1,70"))
def test_connectivity_through_the_cones_matches_the_cone_scan(group):
    """On every support, and on every pair of divisor and curve cells; by
    example on 1/72(1,1,70), whose trivial character is supported on all 36
    exceptional divisors."""
    assume(group.order > 1)
    fan = build_fan(group)
    qa = QuiverAnalysis(group)
    for chi in group.characters:
        for support in (f(fan, qa, chi) for f in (support_h0, support_h1, support_h2)):
            assert _is_connected(fan, support) == is_connected_pairwise(fan, support)
    cells = [("divisor", ri) for ri in fan.group.exceptional_ray_indices]
    cells += [("curve", e) for e in fan.interior_edges]
    for a, c1 in enumerate(cells):
        for c2 in cells[a + 1:]:
            assert _is_connected(fan, [c1, c2]) == is_connected_pairwise(fan, [c1, c2])


@settings(max_examples=30, deadline=None)
@given(small_groups, monomials, monomials)
def test_primitivity_by_character_matches_the_pair_loop(group, m1, m2):
    """On every carving ratio of the fan, and on an arbitrary pair."""
    assert ratio_is_primitive(group, m1, m2) == ratio_is_primitive_pairwise(group, m1, m2)
    if group.order > 1:
        for ratio in marked_triangulation(build_fan(group)).edge_ratios.values():
            assert ratio_is_primitive(group, ratio.m1, ratio.m2)
            assert ratio_is_primitive_pairwise(group, ratio.m1, ratio.m2)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SQUARE_PRODUCTS + ["2:1,1,0+4:0,1,3"]), monomials, monomials)
def test_primitivity_walk_matches_the_pair_loop_on_products(spec, m1, m2):
    group = parse_group_spec(spec)
    assert ratio_is_primitive(group, m1, m2) == ratio_is_primitive_pairwise(group, m1, m2)
    for ratio in marked_triangulation(build_fan(group)).edge_ratios.values():
        assert ratio_is_primitive(group, ratio.m1, ratio.m2)
        assert ratio_is_primitive_pairwise(group, ratio.m1, ratio.m2)


WRAPPING = ["4:0,2,2", "6:2,2,2", "12:0,1,11", "8:1,7,0+8:0,1,7"]
UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _wrap_bound(group):
    """Twice the largest character order of a variable: the walk along a
    variable comes back to a position it has passed once its exponent
    reaches that order (1 for x in 4:0,2,2 and 12:0,1,11)."""
    return 2 * max(group.character_order(group.kappa(m)) for m in UNITS)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WRAPPING), st.data())
def test_primitivity_walk_wraps_where_a_variable_has_small_order(spec, data):
    group = parse_group_spec(spec)
    m1, m2 = (data.draw(st.tuples(*[st.integers(0, _wrap_bound(group))] * 3)) for _ in range(2))
    assert ratio_is_primitive(group, m1, m2) == ratio_is_primitive_pairwise(group, m1, m2)


@pytest.mark.parametrize("spec", WRAPPING)
def test_primitivity_walk_positions_past_the_wrap(spec):
    """Every divisor of the cube of side twice the largest variable order
    gets its character's position, and every pair of pure powers up to that
    exponent gets the pair loop's answer (1 against z^4 in 6:2,2,2 is not
    primitive only because the z-walk comes back to 0 at z^3)."""
    group = parse_group_spec(spec)
    bound = _wrap_bound(group)
    for d, k in _divisor_positions(group.head_rows, (bound,) * 3):
        assert group.characters[k] == group.kappa(d)
    powers = [tuple(e * v for v in unit) for unit in UNITS for e in range(bound + 1)]
    for m1 in powers:
        for m2 in powers:
            assert ratio_is_primitive(group, m1, m2) == ratio_is_primitive_pairwise(group, m1, m2)


@pytest.mark.parametrize("pair", [((0, 0, 8), (40, 40, 40)), ((40, 40, 40), (0, 0, 8))])
def test_primitivity_tables_the_side_with_fewer_divisors(pair, monkeypatch):
    """A collision that shows at once costs the small side's divisors and no
    more, on either side: on 8:1,7,0+8:0,1,7, z^8 meets 1 at the big side's
    first divisor, where tabling the big side draws all 41^3 of them."""
    group = parse_group_spec("8:1,7,0+8:0,1,7")
    drawn = []

    def counted(heads, m):
        for item in _divisor_positions(heads, m):
            drawn.append(item)
            yield item

    monkeypatch.setattr(mckay_lab.verify, "_divisor_positions", counted)
    assert not ratio_is_primitive(group, *pair)
    assert len(drawn) <= 50
    assert not ratio_is_primitive_pairwise(group, *pair)


@pytest.mark.parametrize("spec", ["13:1,5,7", "12:1,1,10", "3:1,2,0+3:0,1,2"])
def test_each_carving_ratio_is_built_once_per_fan(spec, monkeypatch):
    """The markings, the vertex cases and the triangle defects of a
    verification share one ratio per interior edge, built into its one table
    edge_ratios, and a second verification of the same fan builds its own."""
    built = []
    build = mckay_lab.reid.carving_ratio

    def count(fan, rays):
        built.append(rays)
        return build(fan, rays)

    monkeypatch.setattr(mckay_lab.reid, "carving_ratio", count)
    fan = build_fan(parse_group_spec(spec))
    for _ in range(2):
        built.clear()
        verification = GroupVerification(fan)
        assert verification.passed
        assert sorted(built) == list(fan.interior_edges)
        for edge in fan.interior_edges:
            assert build(fan, edge) == verification.marked.edge_ratios[edge]


@settings(max_examples=30, deadline=None)
@given(small_groups)
def test_per_edge_degrees_match_the_per_character_reading(group):
    assume(group.order > 1)
    fan = build_fan(group)
    for edge in fan.interior_edges:
        degrees = tautological_degrees(fan, edge)
        assert len(degrees) == group.order
        for k, chi in enumerate(group.characters):
            expected = tautological_degree_single(fan, chi, edge)
            assert degrees[k] == tautological_degree(fan, chi, edge) == expected


def test_degrees_match_the_table_formula_on_the_report_groups():
    """On every interior edge (e, f) of each report group, with third rays
    g and g2 and wall relation g + g2 = a*e + b*f, the chart degrees are
    (a*R[e] + b*R[f] - R[g] - R[g2]) / n for the divisor table R."""
    for spec in REPORT_GROUPS:
        fan = build_fan(parse_group_spec(spec))
        for edge in fan.interior_edges:
            assert tautological_degrees(fan, edge) == table_degrees(fan, edge), (spec, edge)


@settings(max_examples=30, deadline=None)
@given(small_groups)
def test_degrees_match_the_table_formula(group):
    fan = build_fan(group)
    for edge in fan.interior_edges:
        assert tautological_degrees(fan, edge) == table_degrees(fan, edge), edge


@pytest.mark.parametrize("spec", ["13:1,5,7", "12:1,1,10", "3:1,2,0+3:0,1,2"])
def test_degrees_skip_only_the_positions_a_wall_keeps(spec):
    """Degree 0 where a position keeps its generator across the wall gives
    the per-character degrees on every interior edge.  A position moved off
    the multiples of the carving vector, or by a negative multiple, on the
    far side of a wall still raises, whether it changed there or not."""
    fan = build_fan(parse_group_spec(spec))
    for edge in fan.interior_edges:
        expected = [tautological_degree_single(fan, chi, edge) for chi in fan.group.characters]
        assert tautological_degrees(fan, edge) == expected
    edge = fan.interior_edges[0]
    ci, cj = fan.edges[edge]
    row, row2 = fan.ggraphs[ci].row, fan.ggraphs[cj].row
    w = fan.carving_vector(edge)
    off = next(d for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if any(cross3(d, w)))
    ratio = f"generator ratio across {edge} is not a power of the carving ratio"
    negative = f"negative tautological degree -1 across {edge}"
    changed = next(p for p, (r, r2) in enumerate(zip(row, row2)) if r != r2)
    kept = next(p for p, (r, r2) in enumerate(zip(row, row2)) if r == r2)
    for p, moved, message in (
        (changed, tuple(a + b for a, b in zip(row2[changed], off)), ratio),
        (kept, tuple(a + b for a, b in zip(row2[kept], off)), ratio),
        (changed, tuple(a - b for a, b in zip(row[changed], w)), negative),
    ):
        graphs = list(fan.ggraphs)
        graphs[cj] = SimpleNamespace(row=row2[:p] + (moved,) + row2[p + 1:])
        fan.ggraphs = tuple(graphs)
        with pytest.raises(MultiplicityOutOfRange, match=re.escape(message)):
            tautological_degrees(fan, edge)


@pytest.mark.parametrize("spec", ["13:1,5,7", "3:1,2,0+3:0,1,2"])
def test_build_and_verify_derive_each_index_once(spec, monkeypatch):
    """The degrees once per interior edge, and each character's marking
    class and transform profile once per verification."""
    seen = {"degrees": [], "classes": [], "profiles": []}
    degrees = mckay_lab.verify.tautological_degrees
    profile = mckay_lab.verify.transform_profile
    marking_class = MarkedTriangulation.marking_class

    def count_degrees(fan, edge):
        seen["degrees"].append(edge)
        return degrees(fan, edge)

    def count_profiles(fan, qa, chi):
        seen["profiles"].append(chi)
        return profile(fan, qa, chi)

    def count_classes(marked, chi):
        seen["classes"].append(chi)
        return marking_class(marked, chi)

    monkeypatch.setattr(mckay_lab.verify, "tautological_degrees", count_degrees)
    monkeypatch.setattr(mckay_lab.verify, "transform_profile", count_profiles)
    monkeypatch.setattr(MarkedTriangulation, "marking_class", count_classes)
    group = parse_group_spec(spec)
    fan = build_fan(group)
    verification = GroupVerification(fan)
    assert verification.passed
    assert sorted(seen["degrees"]) == list(fan.interior_edges)
    assert seen["profiles"] == seen["classes"] == list(group.characters)
