import json
from fractions import Fraction

from mckay_lab.diagrams import (
    FORMAT_TAG,
    all_sink_source_dot,
    marked_simplex_svg,
    marked_simplex_tikz,
    quiver_dot,
)
from mckay_lab.serialize import fan_json, fan_payload, fraction_str, report_json
from mckay_lab.verify import verify_group

from oracles import parse_fraction, reemit


def test_fraction_strings():
    assert fraction_str(Fraction(1, 3)) == "1/3"
    assert fraction_str(0) == "0/1"
    assert fraction_str(Fraction(-3, 6)) == "-1/2"
    assert parse_fraction("7/13") == Fraction(7, 13)


def test_fan_json_roundtrip_is_byte_identical(p13):
    text = fan_json(p13.fan)
    assert reemit(text) == text
    payload = json.loads(text)
    assert payload["order"] == 13
    assert len(payload["cones"]) == 13
    assert len(payload["rays"]) == 9
    assert all("/" in c for r in payload["rays"] for c in r["coords"])


def test_fan_payload_contents(p4):
    payload = fan_payload(p4.fan)
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
    text = all_sink_source_dot(p4.fan, p4.qa)
    assert text.count("digraph") == 2  # one graph per exceptional divisor
    assert "penwidth=2" in text and "color=grey" in text
    assert text == all_sink_source_dot(p4.fan, p4.qa)


def test_sink_source_dot_places_the_quiver_once(monkeypatch):
    """The torus positions are shared by every divisor's graph."""
    from mckay_lab import QuiverAnalysis, build_fan, diagrams, parse_group_spec

    fan = build_fan(parse_group_spec("31:1,5,25"))
    qa = QuiverAnalysis(fan)
    calls = []
    original = diagrams.torus_positions

    def counted(group):
        calls.append(group)
        return original(group)

    monkeypatch.setattr(diagrams, "torus_positions", counted)
    text = all_sink_source_dot(fan, qa)
    assert len(calls) == 1
    assert text.count("digraph") == len(fan.group.exceptional_ray_indices) == 15


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
