"""The verifier's per-ray and per-edge sweeps against per-character
references, and a count of the indexes a verification builds."""

import pytest
from hypothesis import assume, given, settings, strategies as st

import mckay_lab.ghilb
import mckay_lab.quiver
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
from mckay_lab.ghilb import tautological_degrees
from mckay_lab.reid import MarkedTriangulation
from mckay_lab.transforms import _is_connected
from mckay_lab.verify import ratio_is_primitive

from conftest import SQUARE_PRODUCTS, small_groups
from oracles import (
    is_connected_pairwise,
    multi_curve_divisors_scan,
    ratio_is_primitive_pairwise,
    support_h0_scan,
    support_h1_scan,
    tautological_degree_single,
)

monomials = st.tuples(*[st.integers(0, 4)] * 3)


@settings(max_examples=30, deadline=None)
@given(small_groups)
def test_h0_supports_from_masks_match_the_scan(group):
    assume(group.order > 1)
    fan = build_fan(group)
    qa = QuiverAnalysis(fan)
    for chi in group.characters:
        assert support_h0(fan, qa, chi) == support_h0_scan(fan, qa, chi)


@settings(max_examples=30, deadline=None)
@given(small_groups)
def test_h1_loci_match_the_per_ray_class_scan(group):
    assume(group.order > 1)
    fan = build_fan(group)
    qa = QuiverAnalysis(fan)
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
def test_connectivity_by_faces_matches_the_cone_scan(group):
    """On every support, and on every pair of divisor and curve cells."""
    assume(group.order > 1)
    fan = build_fan(group)
    qa = QuiverAnalysis(fan)
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
def test_primitivity_by_residues_matches_the_pair_loop_on_products(spec, m1, m2):
    group = parse_group_spec(spec)
    assert ratio_is_primitive(group, m1, m2) == ratio_is_primitive_pairwise(group, m1, m2)
    for ratio in marked_triangulation(build_fan(group)).edge_ratios.values():
        assert ratio_is_primitive(group, ratio.m1, ratio.m2)
        assert ratio_is_primitive_pairwise(group, ratio.m1, ratio.m2)


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


@pytest.mark.parametrize("spec", ["13:1,5,7", "3:1,2,0+3:0,1,2"])
def test_build_and_verify_derive_each_index_once(spec, monkeypatch):
    """No list of quiver triangles (the triangle identity is two identities
    of the arrow masks), the degrees once per interior edge, and each
    character's marking class and transform profile once per verification."""
    seen = {"triangles": 0, "degrees": [], "classes": [], "profiles": []}
    triangles = mckay_lab.quiver.quiver_triangles
    degrees = mckay_lab.verify.tautological_degrees
    profile = mckay_lab.verify.transform_profile
    marking_class = MarkedTriangulation.marking_class

    def count_triangles(group):
        seen["triangles"] += 1
        return triangles(group)

    def count_degrees(fan, edge):
        seen["degrees"].append(edge)
        return degrees(fan, edge)

    def count_profiles(fan, qa, chi):
        seen["profiles"].append(chi)
        return profile(fan, qa, chi)

    def count_classes(marked, chi):
        seen["classes"].append(chi)
        return marking_class(marked, chi)

    monkeypatch.setattr(mckay_lab.quiver, "quiver_triangles", count_triangles)
    monkeypatch.setattr(mckay_lab.verify, "tautological_degrees", count_degrees)
    monkeypatch.setattr(mckay_lab.verify, "transform_profile", count_profiles)
    monkeypatch.setattr(MarkedTriangulation, "marking_class", count_classes)
    group = parse_group_spec(spec)
    fan = build_fan(group)
    verification = GroupVerification(fan)
    assert verification.passed
    assert seen["triangles"] == 0
    assert sorted(seen["degrees"]) == list(fan.interior_edges)
    assert seen["profiles"] == seen["classes"] == list(group.characters)
