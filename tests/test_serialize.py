import gc
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay_lab import build_fan, parse_group_spec
from mckay_lab.diagrams import (
    FORMAT_TAG,
    _fixed,
    _place,
    _svg_xy,
    _tikz_xy,
    all_sink_source_dot,
    marked_simplex_svg,
    marked_simplex_tikz,
    quiver_dot,
)
from mckay_lab.quiver import torus_positions
from mckay_lab.serialize import dumps_canonical, fan_json, report_json
from mckay_lab.verify import verify_group

from conftest import small_groups
from golden import check as golden
from oracles import (
    canonical_json,
    fan_payload,
    fixed_point,
    fraction_str,
    parse_fraction,
    reemit,
    simplex_point,
    svg_point,
    tikz_point,
    torus_place,
)

MANIFEST = golden.load()["groups"]


def test_fraction_strings():
    assert fraction_str(Fraction(1, 3)) == "1/3"
    assert fraction_str(0) == "0/1"
    assert fraction_str(Fraction(-3, 6)) == "-1/2"
    assert parse_fraction("7/13") == Fraction(7, 13)


# strings json must escape, next to plain and non-ASCII ones
_TEXT = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\n\t\x7f", "é", "\u2028", "\U0001f600", ""]
)
_SCALARS = (
    _TEXT
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.sampled_from([0, 1, True, False, None])
    | st.floats()
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None)
@given(_PAYLOADS)
def test_dumps_canonical_writes_json_s_bytes(payload):
    assert dumps_canonical(payload) == canonical_json(payload)


@pytest.mark.parametrize(
    "payload",
    [{1: "a"}, {"a": [{None: 1}]}, {(1, 2): 3}, {"a": object()}, [Fraction(1, 2)], {1, 2}],
    ids=["int-key", "nested-none-key", "tuple-key", "object", "fraction", "set"],
)
def test_dumps_canonical_refuses_non_str_keys_and_non_json_values(payload):
    with pytest.raises(TypeError):
        dumps_canonical(payload)


def test_the_writers_leave_no_reference_cycles(p13):
    """Every object the writers make is freed by reference counting, so a
    process writing many outputs never waits on the cycle collector."""
    report = verify_group(p13.group)
    gc.collect()
    gc.disable()
    try:
        dumps_canonical(report)
        fan_json(p13.fan)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _fan_json_is_the_oracle_s(group):
    fan = build_fan(group)
    assert fan_json(fan) == canonical_json(fan_payload(fan))


@pytest.mark.parametrize("spec", MANIFEST)
def test_fan_json_matches_the_payload_oracle(spec):
    _fan_json_is_the_oracle_s(parse_group_spec(spec))


@settings(max_examples=40, deadline=None)
@given(small_groups)
def test_fan_json_matches_the_payload_oracle_on_small_groups(group):
    _fan_json_is_the_oracle_s(group)


@pytest.mark.parametrize(
    "spec, resorted",
    [("1:0,0,0", False), ("2:1,1,0+12:0,1,11", True), ("11:1,2,8", True)],
)
def test_fan_json_sorts_the_labels_as_json_does(spec, resorted):
    """A label order other than residue order (chi_(0,10) before chi_(0,2),
    chi_10 before chi_2) is json's key order."""
    group = parse_group_spec(spec)
    labels = [chi.label() for chi in group.characters]
    assert (labels != sorted(labels)) is resorted
    _fan_json_is_the_oracle_s(group)


def test_fan_json_roundtrip_is_byte_identical(p13):
    text = fan_json(p13.fan)
    assert reemit(text) == text
    payload = json.loads(text)
    assert payload["order"] == 13
    assert len(payload["cones"]) == 13
    assert len(payload["rays"]) == 9
    assert all("/" in c for r in payload["rays"] for c in r["coords"])


def test_fan_payload_contents(p4):
    payload = json.loads(fan_json(p4.fan))
    coords = [tuple(map(parse_fraction, r["coords"])) for r in payload["rays"]]
    assert coords == [ray.coords for ray in p4.group.junior_points]
    graphs = {frozenset(c["ggraph"].values()) for c in payload["cones"]}
    assert frozenset({"1", "x", "z", "xz"}) in graphs
    interior = [e for e in payload["edges"] if not e["boundary"]]
    assert all(len(e["adjacent_cones"]) == 2 for e in interior)


def test_report_json_deterministic(p4):
    r1 = report_json(verify_group(p4.group))
    r2 = report_json(verify_group(p4.group))
    assert r1 == r2


def test_quiver_dot_counts(p13):
    dot = quiver_dot(p13.group)
    assert dot.startswith(f"// {FORMAT_TAG}")
    assert dot.count("[label=\"chi_") == 13
    assert dot.count("->") == 39


def test_quiver_dot_deterministic(p13):
    assert quiver_dot(p13.group) == quiver_dot(p13.group)


def test_sink_source_dot(p4):
    text = all_sink_source_dot(p4.qa)
    assert text.count("digraph") == 2  # one graph per exceptional divisor
    assert "penwidth=2" in text and "color=grey" in text
    assert text == all_sink_source_dot(p4.qa)


def test_sink_source_dot_places_the_quiver_once(monkeypatch):
    """The torus positions are shared by every divisor's graph."""
    from mckay_lab import QuiverAnalysis, diagrams, parse_group_spec

    qa = QuiverAnalysis(parse_group_spec("31:1,5,25"))
    calls = []
    original = diagrams.torus_positions

    def counted(group):
        calls.append(group)
        return original(group)

    monkeypatch.setattr(diagrams, "torus_positions", counted)
    text = all_sink_source_dot(qa)
    assert len(calls) == 1
    assert text.count("digraph") == len(qa.group.exceptional_ray_indices) == 15


def test_trivial_group_svg(trivial_group):
    from mckay_lab import build_fan, marked_triangulation

    fan = build_fan(trivial_group)
    svg = marked_simplex_svg(fan, marked_triangulation(fan))
    assert svg.count("<line") == 3  # a single triangle
    assert svg.count("<circle") == 3


def test_marked_simplex_tikz(p4):
    tikz = marked_simplex_tikz(p4.fan, p4.marked)
    assert tikz.startswith(f"% {FORMAT_TAG}")
    # two of the four interior edges carry the chi_1 marking
    assert tikz.count("[chi_1]") == 2
    assert tikz.count("[chi_2]") == 2
    assert tikz == marked_simplex_tikz(p4.fan, p4.marked)


def test_svg_deterministic(p13):
    svg1 = marked_simplex_svg(p13.fan, p13.marked)
    svg2 = marked_simplex_svg(p13.fan, p13.marked)
    assert svg1 == svg2
    assert f"{FORMAT_TAG}" in svg1


def test_integer_coordinates_match_the_fraction_oracle():
    """The SVG and TikZ points of every junior point and the SVG midpoint of
    every edge of the fan, and the place of every torus position, on every
    manifest group."""
    for spec in MANIFEST:
        group = parse_group_spec(spec)
        n, juniors = group.order, group.juniors
        pts = [simplex_point(ray) for ray in group.junior_points]
        for s, (x, y) in zip(juniors, pts):
            assert _svg_xy(n, s) == svg_point(x, y)
            assert _tikz_xy(n, s) == tikz_point(x, y)
        for i, j in build_fan(group).edges:
            (xi, yi), (xj, yj) = pts[i], pts[j]
            assert _svg_xy(n, juniors[i], juniors[j]) == svg_point((xi + xj) / 2, (yi + yj) / 2)
        for u, v in torus_positions(group):
            assert _place(u, v) == torus_place(u, v)


def test_fixed_rounds_down_below_zero_as_the_oracle_does():
    assert _fixed(-1, 2000) == "-0.001"
    assert _fixed(-1, 2) == "-0.500"
    for den in (1, 2, 3, 7, 1000, 2000, 10**6):
        for num in range(-2 * den - 3, 2 * den + 4, max(1, den // 97)):
            assert _fixed(num, den) == fixed_point(Fraction(num, den))
    for u in range(-7, 8):
        for v in range(-7, 8):
            assert _place(u, v) == torus_place(u, v)
