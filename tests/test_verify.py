import hashlib
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import mckay_lab.verify
from mckay_lab import (
    GroupVerification,
    QuiverAnalysis,
    build_fan,
    parse_group_spec,
    shape_lengths,
    verify_group,
)
from mckay_lab.cli import main
from mckay_lab.errors import MultiplicityOutOfRange, ShapeUnrecognized
from mckay_lab.ghilb import GGraph
from mckay_lab.reid import MarkedTriangulation
from mckay_lab.serialize import report_json
from mckay_lab.verify import _oriented_carving_pair

from conftest import REPORT_GROUPS, SQUARE_PRODUCTS, small_groups
from golden import check as golden
from oracles import box_least, cone_oracle_scan, cone_oracle_slack_loop

f = Fraction


def divisor_entry(verification, ray_idx):
    return next(e for e in verification.per_divisor if e["ray"] == ray_idx)


def test_verify_group_passes_fixtures(p3, p4):
    for pipe, chars in ((p3, 3), (p4, 4)):
        report = verify_group(pipe.group)
        assert report["pass"] is True
        assert len(report["per_character"]) == chars
        assert all(e["pass"] for e in report["per_character"])


def test_verify_trivial_group_is_vacuous(trivial_group):
    report = verify_group(trivial_group)
    assert report["pass"] is True
    assert report["per_character"] == [] and report["per_divisor"] == []


def test_reids_recipe_theorem_per_character(p4):
    verification = GroupVerification(p4.fan)
    assert all(e["pass"] for e in verification.per_character)
    classes = {
        e["character"]: e["marking_class"] for e in verification.per_character
    }
    assert classes == {
        "chi_0": "nothing",
        "chi_1": "curves",
        "chi_2": "curves",
        "chi_3": "divisor",
    }


def test_shape_correspondence_entry(p4):
    p_ray = p4.ray((f(1, 4), f(1, 4), f(1, 2)))
    entry = divisor_entry(GroupVerification(p4.fan), p_ray)
    assert entry["pass"] is True
    assert entry["shape"] == "B" and entry["case"] == "case2"
    assert entry["checks"]["valency_matches_divisibility"]


def test_shape_lengths_accessor(p3, p4):
    ss = p3.qa.sink_source_graph(p3.ray((f(1, 3),) * 3))
    assert shape_lengths(ss) == {"a": 1, "b": 1, "c": 1}
    q_ray = p4.ray((f(1, 2), f(1, 2), 0))
    with pytest.raises(ShapeUnrecognized):
        shape_lengths(p4.qa.sink_source_graph(q_ray))


def test_shape_lengths_cannot_write_into_the_memoized_graph(p4, p33):
    """The record's nested `fwd` (shape C) and `orientations` (shape B) are
    copies: writing into them leaves the memoized graph's record as it was."""
    from copy import deepcopy

    for pipe, coords, key in (
        (p33, (f(1, 3),) * 3, "fwd"),
        (p4, (f(1, 4), f(1, 4), f(1, 2)), "orientations"),
    ):
        ri = pipe.ray(coords)
        before = deepcopy(pipe.qa.sink_source_graph(ri).lengths)
        record = shape_lengths(pipe.qa.sink_source_graph(ri))
        record[key].clear()
        record["a"] = -1
        assert pipe.qa.sink_source_graph(ri).lengths == before
        assert before[key]


def test_case3_shape_lengths_reported(p33):
    center = p33.ray((f(1, 3),) * 3)
    entry = divisor_entry(GroupVerification(p33.fan), center)
    assert entry["pass"] is True
    assert entry["shape"] == "C"
    lengths = entry["lengths"]
    assert lengths["a"] == lengths["b"] == lengths["c"] == 2


def test_report_summary_block():
    report = verify_group(parse_group_spec("6:1,2,3"))
    summary = report["summary"]
    assert summary["pass"] is True
    assert summary["characters"] == 6
    assert summary["shape_histogram"] == {"B": 1}
    assert summary["marking_histogram"] == {
        "curve": 2,
        "curves": 2,
        "divisor": 1,
        "nothing": 1,
    }


def test_redundant_generator_presentations_verify():
    # the extra factors already lie in the subgroup generated by the first
    g = parse_group_spec("4:1,1,2+2:1,1,0")
    assert g.order == 4
    assert verify_group(g)["pass"] is True
    g2 = parse_group_spec("3:1,2,0+3:0,1,2+3:1,1,1")
    assert g2.order == 9
    assert verify_group(g2)["pass"] is True


def test_transversal_sl2_type_group():
    """1/5(0,1,4) fixes the x-axis; its junior points all sit on one side of
    the simplex and the classical one-curve-per-character picture appears:
    each nontrivial character marks exactly one compact fiber curve."""
    from mckay_lab import build_fan

    group = parse_group_spec("5:0,1,4")
    report = verify_group(group)
    assert report["pass"] is True
    assert report["interior_divisors"] == 0
    fan = build_fan(group)
    corner_x = next(ri for ri, r in enumerate(fan.rays) if r.coords == (1, 0, 0))
    for entry in report["per_character"]:
        if entry["character"] == "chi_0":
            assert entry["degree"] == -2 and len(entry["components"]) == 4
        else:
            assert entry["marking_class"] == "curve" and entry["degree"] == 0
            ((kind, pair),) = entry["components"]
            assert kind == "curve" and corner_x in pair


def test_rotated_shape_b_coordinates():
    """1/7(1,2,4) has shape-B divisors with axis x and axis y; the coordinate
    formula applies through the rotation's permutation."""
    from mckay_lab import QuiverAnalysis, build_fan

    group = parse_group_spec("7:1,2,4")
    fan = build_fan(group)
    qa = QuiverAnalysis(group)
    axes = {}
    for ri in fan.group.exceptional_ray_indices:
        ss = qa.sink_source_graph(ri)
        axes[ss.lengths["orientations"][2]] = (ri, ss.lengths)
    assert set(axes) == {"x", "y", "z"}
    ri, lengths = axes["x"]
    a, b, c = lengths["a"], lengths["b"], lengths["c"]
    o1, o2, axis = lengths["orientations"]
    assert (o1, o2, axis) == ("y", "z", "x")
    assert fan.rays[ri].scaled(7) == (7 - b * c - a * c, b * c, a * c)
    assert divisor_entry(GroupVerification(fan), ri)["pass"]


@pytest.mark.parametrize(
    "spec,ray,pair",
    [
        ("12:1,3,8", 6, ("z->y", "x->y")),
        ("15:1,5,9", 8, ("x->z", "y->z")),
        ("15:1,4,10", 6, ("y->x", "z->x")),
    ],
)
def test_shape_c_reads_each_chord_from_its_own_source(spec, ray, pair):
    """Each shape-C chord length enters the coordinate and ratio identities
    from the source that emits it: swapping two unequal chords into one
    orientation breaks both, so no other labelling is tried."""
    verification = GroupVerification(build_fan(parse_group_spec(spec)))
    entry = divisor_entry(verification, ray)
    assert entry["shape"] == "C" and entry["pass"]
    fwd = verification.qa.sink_source_graph(ray).lengths["fwd"]
    p, q = pair
    assert fwd[p] != fwd[q]
    fwd[p], fwd[q] = fwd[q], fwd[p]
    checks = verification._shape_entry(ray)["checks"]
    assert checks["coordinates"] is False and checks["ratios"] is False


def test_verification_reads_the_given_fan(p4, monkeypatch):
    def rebuild(group):
        raise AssertionError("GroupVerification rebuilt the fan")

    monkeypatch.setattr(mckay_lab.verify, "build_fan", rebuild)
    verification = GroupVerification(p4.fan)
    assert verification.fan is p4.fan
    assert verification.passed


def test_failed_character_and_divisor_checks_name_their_witness(monkeypatch):
    """A profile seeded disconnected fails its character's entry, and a
    coordinates check seeded False every divisor's, each with its own line."""
    group = parse_group_spec("13:1,5,7")
    chi = group.characters[1]
    profile_of = mckay_lab.verify.transform_profile

    def disconnected(fan, qa, character):
        profile = profile_of(fan, qa, character)
        return profile._replace(connected=False) if character == chi else profile

    monkeypatch.setattr(mckay_lab.verify, "transform_profile", disconnected)
    monkeypatch.setattr(GroupVerification, "_coords_check", lambda self, ri, expected: False)
    verification = GroupVerification(build_fan(group))
    entry = verification.per_character[1]
    assert [e["pass"] for e in verification.per_character].count(False) == 1
    assert not entry["pass"] and entry["connected"] is False
    assert not any(e["pass"] for e in verification.per_divisor)
    assert verification.failures == [
        f"character {chi.label()}: {entry['marking_class']} vs degree {entry['degree']}",
        *(f"divisor at ray {ri}: shape/case mismatch" for ri in group.interior_ray_indices),
    ]
    assert not verification.passed


def test_chart_consistency_catches_a_corrupted_coefficient(monkeypatch):
    fan = build_fan(parse_group_spec("13:1,5,7"))
    group = fan.group
    verification = GroupVerification(fan)
    assert verification._prop_chart_consistency()
    chi = group.characters[1]
    ri = group.exceptional_ray_indices[0]
    rows = [list(row) for row in group.divisor_rows]
    rows[ri][group.index[chi]] += 1
    monkeypatch.setitem(group.__dict__, "divisor_rows", tuple(map(tuple, rows)))
    del verification._chart_mismatches  # memoised from the clean table
    assert not verification._prop_chart_consistency()


def test_counts_compare_clusters_by_row(monkeypatch):
    """A fan whose second cluster is a fresh GGraph with the first one's row
    holds n objects but n - 1 clusters: the counts property fails."""
    fan = build_fan(parse_group_spec("13:1,5,7"))
    verification = GroupVerification(fan)
    assert verification._prop_counts()
    first = fan.ggraphs[0]
    monkeypatch.setattr(fan, "ggraphs", (first, GGraph(fan.group, first.row), *fan.ggraphs[2:]))
    assert not verification._prop_counts()


class _UnhashableRow(tuple):
    def __hash__(self):
        raise AssertionError("a chart row was hashed")


def test_counts_hash_no_row_on_a_valid_fan(monkeypatch):
    """On a valid fan the clusters' sums S are distinct, one per cone of the
    hull, so the counts property decides without hashing a chart row."""
    for spec in ("13:1,5,7", "72:1,1,70", "3:1,2,0+3:0,1,2"):
        fan = build_fan(parse_group_spec(spec))
        for graph in fan.ggraphs:
            monkeypatch.setattr(graph, "row", _UnhashableRow(graph.row))
        assert GroupVerification(fan)._prop_counts()


def test_corner_in_arrows_all_vanishing_break_strict_transforms():
    """A character whose three in-arrows all vanish along a corner ray, with
    no character losing all three out-arrows there, fails the property."""
    fan = build_fan(parse_group_spec("13:1,5,7"))
    verification = GroupVerification(fan)
    qa = verification.qa
    assert verification._prop_corner_support()
    corner = next(ri for ri, ray in enumerate(fan.rays) if ray.is_corner)
    outs, ins = qa.masks(corner)
    assert not outs[0] & outs[1] & outs[2]
    qa._masks[corner] = (outs, tuple(mask | 1 << 5 for mask in ins))
    assert not verification._prop_corner_support()


@settings(max_examples=30, deadline=None)
@given(small_groups)
@example(parse_group_spec("2:1,1,0+2:0,1,1"))
@example(parse_group_spec("3:1,2,0+3:0,1,2"))
@example(parse_group_spec("4:1,3,0+4:0,1,3"))
@example(parse_group_spec("5:1,4,0+5:0,1,4"))
@example(parse_group_spec("6:1,5,0+6:0,1,5"))
@example(parse_group_spec("72:1,1,70"))  # zero-weight arrows on the boundary rays
def test_cone_oracle_matches_the_junior_scan(group):
    """The three-ray oracle and the scan of every junior point against every
    border normal agree on built fans: both hold."""
    if group.order > 1:
        fan = build_fan(group)
        assert GroupVerification(fan)._prop_cone_oracle() is cone_oracle_scan(fan) is True


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_groups, st.sampled_from(SQUARE_PRODUCTS).map(parse_group_spec)), st.data())
def test_cone_oracles_reject_swapped_clusters(group, data):
    """Two clusters traded between their cones fail both oracles."""
    if group.order > 1:
        fan = build_fan(group)
        verification = GroupVerification(fan)
        i, j = data.draw(st.lists(st.integers(0, group.order - 1), min_size=2, max_size=2, unique=True))
        graphs = list(fan.ggraphs)
        graphs[i], graphs[j] = graphs[j], graphs[i]
        fan.ggraphs = tuple(graphs)
        del verification._chart_mismatches  # memoised from the unswapped clusters
        assert verification._prop_cone_oracle() is cone_oracle_scan(fan) is False


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_groups, st.sampled_from(SQUARE_PRODUCTS).map(parse_group_spec)), st.data())
def test_masked_cone_oracle_matches_the_slack_loop(group, data):
    """The zero-slack masks, computed once per ray and chart values, decide
    as one slack list per cluster and ray does: on the built fan, and with
    two clusters traded between their cones."""
    if group.order > 1:
        fan = build_fan(group)
        verification = GroupVerification(fan)
        assert verification._prop_cone_oracle() is cone_oracle_slack_loop(fan) is True
        i, j = data.draw(st.lists(st.integers(0, group.order - 1), min_size=2, max_size=2, unique=True))
        graphs = list(fan.ggraphs)
        graphs[i], graphs[j] = graphs[j], graphs[i]
        fan.ggraphs = tuple(graphs)
        del verification._chart_mismatches
        assert verification._prop_cone_oracle() is cone_oracle_slack_loop(fan)


def _one_cluster_oracle(fan, ci, rays):
    """The three-ray oracle on the ci-th cluster alone, at the given
    scaled rays in place of its triangle's.  The group has no table rows, so
    every chart value list is kept and its slacks are computed."""
    alone = SimpleNamespace(ggraphs=(fan.ggraphs[ci],), cone_rays=((0, 1, 2),))
    group = SimpleNamespace(juniors=rays, head_rows=fan.group.head_rows, divisor_rows=(None,) * 3)
    verification = SimpleNamespace(fan=alone, group=group)
    verification._chart_mismatches = GroupVerification._chart_mismatches.func(verification)
    return GroupVerification._prop_cone_oracle(verification)


@pytest.mark.parametrize("spec", ["3:1,1,1", "13:1,5,7", "3:1,2,0+3:0,1,2", "12:1,1,10"])
def test_cone_oracle_checks_both_inclusions(spec):
    """At a cluster's own rays the oracle holds.  It fails when one ray is
    moved to the sum of the three, inside the cone, so the cone is larger
    than the triangle; and when a ray facing a boundary edge is reflected
    through the origin, which keeps every interior edge's tight arrow but
    leaves the ray outside the cone."""
    fan = build_fan(parse_group_spec(spec))
    reflected = 0
    for ci, triple in enumerate(fan.cone_rays):
        rays = [fan.group.juniors[ri] for ri in triple]
        assert _one_cluster_oracle(fan, ci, tuple(rays))
        inner = tuple(map(sum, zip(*rays)))
        for p in range(3):
            moved = list(rays)
            moved[p] = inner
            assert not _one_cluster_oracle(fan, ci, tuple(moved))
            q, r = (rays[k] for k in range(3) if k != p)
            if any(not q[k] and not r[k] for k in range(3)):
                moved[p] = tuple(-v for v in rays[p])
                assert not _one_cluster_oracle(fan, ci, tuple(moved))
                reflected += 1
    assert reflected


@settings(max_examples=30, deadline=None)
@given(small_groups, st.tuples(*[st.integers(0, 12)] * 3))
def test_least_valuations_match_box_minima(group, weight):
    """Shortest paths in the McKay quiver give the least weight over each
    character's monomials, as a scan of the whole box does."""
    best = box_least(group, weight)
    assert group.least_valuations(weight) == [best[chi][0] for chi in group.characters]


@pytest.mark.parametrize("spec", sorted(REPORT_GROUPS))
def test_report_bytes_are_pinned(spec):
    text = report_json(verify_group(parse_group_spec(spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == golden.load()["digests"][spec]["verify"]["stdout"]


@pytest.mark.parametrize("spec", sorted(REPORT_GROUPS))
def test_a_passing_verification_keeps_no_chart_values(spec):
    """Every chart agrees with the divisor table at its three rays, so the
    chart check keeps nothing."""
    verification = GroupVerification(build_fan(parse_group_spec(spec)))
    assert verification.passed
    assert verification._chart_mismatches == {}


@pytest.mark.parametrize("spec", sorted(REPORT_GROUPS))
def test_swapped_clusters_fill_the_chart_record(spec):
    """The first and last clusters traded between their cones: the chart
    check keeps their value lists, and it and the cone oracle fail."""
    fan = build_fan(parse_group_spec(spec))
    verification = GroupVerification(fan)
    graphs = list(fan.ggraphs)
    graphs[0], graphs[-1] = graphs[-1], graphs[0]
    fan.ggraphs = tuple(graphs)
    del verification._chart_mismatches
    assert verification._chart_mismatches
    assert {ci for ci, _ in verification._chart_mismatches} <= {0, len(graphs) - 1}
    assert verification._prop_chart_consistency() is False
    assert verification._prop_cone_oracle() is False


# -- seeded faults that reach each failure branch -------------------------------


def test_a_nontrivial_character_marking_nothing_fails_verify(capsys, monkeypatch):
    """chi_3 of 13:1,5,7 marks divisor 6 alone; with that marking dropped it
    marks nothing, which only the trivial character may do: its entry
    fails, the trichotomy fails, and `mckay-lab verify` exits 1."""
    marked_divisors = MarkedTriangulation.marked_divisors

    def dropped(self, chi):
        return [] if chi.label() == "chi_3" else marked_divisors(self, chi)

    monkeypatch.setattr(MarkedTriangulation, "marked_divisors", dropped)
    code = main(["verify", "--group", "13:1,5,7"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["failures"] == [
        "character chi_3: nothing vs degree 0",
        "property marking_trichotomy",
    ]
    assert "FAIL chi_3 nothing degree 0\n" in err
    assert err.endswith("FAIL 13:1,5,7\n")


def test_generator_division_is_forced_by_the_tautological_degrees():
    """The carving vector of the edge (0, 2) of 13:1,5,7 negated: the carving
    pair is read as y : x^5 against generators x^5 and y, so the division
    and the marking generators both fail.  No report can carry the division
    failure: r' - r = k(m' - m) with k >= 0 is what tautological_degrees
    checks, and k >= 1 makes m | r and m' | r', so across this edge the
    degrees raise, and the verification with them."""
    fan = build_fan(parse_group_spec("13:1,5,7"))
    verification = GroupVerification(fan)
    edge = fan.interior_edges[0]
    assert edge == (0, 2) and _oriented_carving_pair(fan, edge) == ((5, 0, 0), (0, 1, 0))
    fan.carving_vectors[edge] = tuple(-v for v in fan.carving_vectors[edge])
    assert verification._prop_edge_division() is False
    assert verification._prop_edge_marking_generators() is False
    with pytest.raises(MultiplicityOutOfRange, match=r"^negative tautological degree -1 across \(0, 2\)$"):
        GroupVerification(fan)


def test_an_invariant_factor_on_a_generator_fails_the_marking_generators(monkeypatch):
    """chi_4's generator times the invariant xyz in every cluster of 13:1,5,7:
    each wall keeps its carving pair and degrees, but the generators of the
    curve chi_4 marks are no longer the pair; the chart check and the cone
    oracle see the changed rows too."""
    fan = build_fan(parse_group_spec("13:1,5,7"))
    k = 4
    assert fan.group.characters[k].label() == "chi_4"
    for graph in fan.ggraphs:
        row = list(graph.row)
        row[k] = tuple(v + 1 for v in row[k])
        monkeypatch.setattr(graph, "row", tuple(row))
    assert GroupVerification(fan).failures == [
        "property chart_consistency",
        "property marking_generators_across_edges",
        "property cone_membership_oracle",
    ]


@pytest.mark.parametrize(
    "kind, seed",
    [
        ("B", lambda masks: masks._replace(sink03=masks.sink03 | 0b10)),  # chi_1 a second one
        ("A", lambda masks: masks._replace(sink30=0)),  # no (3,0)-sink
        (None, lambda masks: masks._replace(sink03=0b1)),  # one off the compact divisors
    ],
)
def test_a_misplaced_sink_fails_the_unique_trivial_sink(monkeypatch, kind, seed):
    """On 8:1,2,5 (divisors of shapes A and B, and a boundary divisor), one
    ray's sink masks seeded wrong fail the unique-sink property alone."""
    group = parse_group_spec("8:1,2,5")
    fan = build_fan(group)
    ri = next(
        ri for ri in group.exceptional_ray_indices
        if QuiverAnalysis(group).sink_source_graph(ri).shape == kind
    )

    class Seeded(QuiverAnalysis):
        def _build_graph(self, ray_idx):
            ss = super()._build_graph(ray_idx)
            return ss._replace(masks=seed(ss.masks)) if ray_idx == ri else ss

    monkeypatch.setattr(mckay_lab.verify, "QuiverAnalysis", Seeded)
    assert GroupVerification(fan).failures == ["property unique_trivial_sink"]


@pytest.mark.parametrize(
    "components, failures",
    [
        ((), ["property degree_sums_on_curve_supports", "property transform_degree_exclusive"]),
        ((("curve", (0, 2)),), ["property degree_sums_on_curve_supports"]),
    ],
)
def test_a_curve_support_off_its_curve_fails_the_degree_sums(monkeypatch, components, failures):
    """chi_4 of 13:1,5,7 marks the curve (4, 5) alone.  Its degree-0
    transform seeded with no curve in its support, or on the curve (0, 2)
    marked by chi_5, fails its entry and the degree sums; an empty support
    fails the exclusive degree too."""
    group = parse_group_spec("13:1,5,7")
    profile_of = mckay_lab.verify.transform_profile

    def seeded(fan, qa, chi):
        profile = profile_of(fan, qa, chi)
        if chi.label() != "chi_4":
            return profile
        assert profile.components == (("curve", (4, 5)),)
        return profile._replace(components=components)

    monkeypatch.setattr(mckay_lab.verify, "transform_profile", seeded)
    verification = GroupVerification(build_fan(group))
    assert verification.failures == ["character chi_4: curve vs degree 0", *failures]
