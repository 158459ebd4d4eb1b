"""Canonical JSON forms for fans and verification reports.

Rationals are serialized as "num/den" strings so no consumer ever touches a
float; emission is canonical (sorted keys, two-space indent), which makes
parse + re-emit the identity on bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .ghilb import GHilbFan
from .groups import mono_str

FAN_FORMAT = "ghilb-fan/1"


def fraction_str(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def fan_payload(fan: GHilbFan) -> dict:
    """The fan as plain JSON-ready data."""
    n = fan.group.order
    return {
        "format": FAN_FORMAT,
        "group": fan.group.spec_string(),
        "order": fan.group.order,
        "rays": [
            {
                "coords": [fraction_str(v) for v in ray.coords],
                "corner": n in s,
                "boundary": 0 in s,
            }
            for ray, s in zip(fan.rays, fan.scaled_rays)
        ],
        "cones": [
            {
                "ray_indices": list(fan.cone_rays[ci]),
                "ggraph": {
                    chi.label(): mono_str(m)
                    for chi, m in zip(fan.group.characters, graph.row)
                },
            }
            for ci, graph in enumerate(fan.ggraphs)
        ],
        "edges": [
            {
                "ray_indices": list(edge.rays),
                "adjacent_cones": list(edge.cones),
                "boundary": edge.is_boundary,
            }
            for edge in fan.edges
        ],
    }


def dumps_canonical(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def fan_json(fan: GHilbFan) -> str:
    return dumps_canonical(fan_payload(fan))


def report_json(report: dict) -> str:
    return dumps_canonical(report)
