"""Acceptance suite: each criterion runs at its stated tolerance (exact
equality throughout) over the full corpus and prints one PASS/FAIL line."""

import sys
from fractions import Fraction
from multiprocessing import Pool, cpu_count

import pytest

from mckay_lab import parse_group_spec, quiver_counts
from mckay_lab.corpus import CorpusSpec, _verify_spec, corpus_specs

from conftest import pipeline
from oracles import quiver_triangles

f = Fraction

# Z/2 x Z/2 and Z/3 x Z/3, then Z/m x Z/m for m = 4, 5, 6
PRODUCT_FIXTURES = [
    "2:1,1,0+2:0,1,1",
    "3:1,2,0+3:0,1,2",
    "4:1,3,0+4:0,1,3",
    "5:1,4,0+5:0,1,4",
    "6:1,5,0+6:0,1,5",
]
CORPUS = corpus_specs(CorpusSpec(max_order=30, groups=PRODUCT_FIXTURES))


@pytest.fixture(scope="module")
def reports():
    import time

    start = time.time()
    jobs = min(cpu_count() or 1, 8)
    if jobs > 1:
        with Pool(jobs) as pool:
            reps = pool.map(_verify_spec, CORPUS)
    else:
        reps = [_verify_spec(s) for s in CORPUS]
    elapsed = time.time() - start
    print(
        f"ACCEPTANCE corpus: {len(CORPUS)} groups verified in {elapsed:.1f}s "
        f"({jobs} workers)",
        file=sys.stderr,
    )
    return dict(zip(CORPUS, reps))


def _announce(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_marking_transform_correspondence(reports):
    """Every character of every corpus group: marking class matches the
    transform degree and exact support set."""
    bad = []
    characters = 0
    for spec, report in reports.items():
        for entry in report["per_character"]:
            characters += 1
            if not entry["pass"]:
                bad.append((spec, entry["character"]))
    _announce(
        "1 (marking vs transform, all characters)",
        not bad,
        f"{len(reports)} groups, {characters} characters" + (f", bad: {bad[:5]}" if bad else ""),
    )


def test_criterion_2_shape_case_correspondence(reports):
    """Interior divisors: shape matches case, coordinates and predicted
    carving ratios match exactly."""
    bad = []
    divisors = 0
    shapes = set()
    for spec, report in reports.items():
        for entry in report["per_divisor"]:
            divisors += 1
            shapes.add(entry["shape"])
            if not entry["pass"]:
                bad.append((spec, entry["ray"], entry["checks"]))
    ok = not bad and shapes == {"A", "B", "C"}
    _announce(
        "2 (shape/case + coordinate + ratio formulas)",
        ok,
        f"{divisors} interior divisors, shapes seen: {sorted(map(str, shapes))}",
    )


def test_criterion_3_vanishing_counts(reports):
    """|G| * e equals the orientation-wise vanishing arrow counts."""
    bad = [
        spec
        for spec, report in reports.items()
        if not report["properties"]["vanishing_counts_match_coordinates"]
    ]
    _announce("3 (arrow counts give divisor coordinates)", not bad, f"bad: {bad}" if bad else "")


def _triangles_are_the_3_cycles(group) -> bool:
    """Each triangle is a closed path: every arrow starts at the head of the
    one before and the third arrow's head is the first arrow's tail.  Each
    uses every orientation once, and the 2|G| of them are distinct."""
    heads = group.head_rows
    triangles = quiver_triangles(group)
    for (t1, o1), (t2, o2), (t3, o3) in triangles:
        if (heads[t1][o1], heads[t2][o2], heads[t3][o3]) != (t2, t3, t1):
            return False
        if sorted((o1, o2, o3)) != [0, 1, 2]:
            return False
    return len(set(triangles)) == len(triangles) == 2 * group.order


def test_criterion_4_structural_counts(reports):
    ok = all(
        report["properties"]["counts"] and report["cones"] == report["order"]
        for report in reports.values()
    )
    ok = ok and all(_triangles_are_the_3_cycles(parse_group_spec(spec)) for spec in CORPUS)
    # the quiver picture group, in its own presentation (its corpus class
    # representative is 13:1,2,10)
    pic = parse_group_spec("13:1,5,7")
    counts = quiver_counts(pic)
    pic_report = _verify_spec("13:1,5,7")
    ok = ok and counts == {"vertices": 13, "arrows": 39, "triangles": 26}
    ok = ok and pic_report["rays"] == 9 and pic_report["cones"] == 13
    ok = ok and pic_report["pass"]
    _announce("4 (structural counts incl. 13:1,5,7)", ok)


def test_criterion_5_hand_fixtures():
    """The fully hand-derived groups reproduce exactly."""
    p3 = pipeline("3:1,1,1")
    center = p3.ray((f(1, 3),) * 3)
    ok = p3.marked.marked_edges(p3.chi(1)) == [tuple(sorted(e)) for e in p3.fan.interior_edges]
    ok = ok and p3.marked.marked_divisors(p3.chi(2)) == [center]
    from mckay_lab import transform_profile

    degrees3 = {
        chi.residues[0]: transform_profile(p3.fan, p3.qa, chi).degree
        for chi in p3.group.characters
    }
    ok = ok and degrees3 == {0: -2, 1: -1, 2: 0}

    p4 = pipeline("4:1,1,2")
    p_ray = p4.ray((f(1, 4), f(1, 4), f(1, 2)))
    case = p4.marked.vertex_cases[p_ray]
    ok = ok and case.tag == "case2" and case.valency == 4
    ok = ok and p4.qa.sink_source_graph(p_ray).shape == "B"
    ok = ok and p4.marked.marked_divisors(p4.chi(3)) == [p_ray]
    prof = {
        k: transform_profile(p4.fan, p4.qa, p4.chi(k)) for k in (1, 2, 3)
    }
    ok = ok and prof[3].degree == 0 and prof[3].components == (("divisor", p_ray),)
    ok = ok and all(
        prof[k].degree == -1 and prof[k].components == (("divisor", p_ray),)
        for k in (1, 2)
    )
    _announce("5 (hand fixtures 3:1,1,1 and 4:1,1,2)", ok)


PROPERTY_KEYS = [
    "one_vanishing_arrow_per_triangle",
    "chart_consistency",
    "generator_division_across_edges",
    "marking_generators_across_edges",
    "carving_ratios_primitive",
    "tautological_degrees",
    "unique_trivial_sink",
    "marking_trichotomy",
    "regular_triangle_defects",
    "degree_sums_on_curve_supports",
    "transform_degree_exclusive",
    "multi_curve_divisors_match_sources",
    "h0_divisors_match_sinks",
    "principal_divisor_sums",
    "no_support_on_strict_transforms",
]


def test_criterion_6_property_suites(reports):
    bad = []
    for spec, report in reports.items():
        for key in PROPERTY_KEYS:
            if not report["properties"][key]:
                bad.append((spec, key))
    _announce(
        "6 (property suites on every corpus group)",
        not bad,
        f"bad: {bad[:5]}" if bad else f"{len(PROPERTY_KEYS)} properties x {len(reports)} groups",
    )


def test_criterion_7_cone_membership_oracle(reports):
    bad = [
        spec
        for spec, report in reports.items()
        if not report["properties"]["cone_membership_oracle"]
    ]
    _announce("7 (cone differential oracle)", not bad, f"bad: {bad}" if bad else "")
