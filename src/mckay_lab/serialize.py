"""Canonical JSON forms for fans and verification reports.

Rationals are serialized as "num/den" strings so no consumer ever touches a
float; emission is canonical (sorted keys, two-space indent), which makes
parse + re-emit the identity on bytes.  The bytes are those of
`json.dumps(payload, indent=2, sort_keys=True) + "\n"`, the tests' oracle,
written directly: `dumps_canonical` quotes with json's C string encoder
(json turns its C encoder off under `indent`), and `fan_json` writes from
the fan's integers without building a payload.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .ghilb import GHilbFan
from .groups import mono_str

FAN_FORMAT = "ghilb-fan/1"
_LITERALS = {None: "null", True: "true", False: "false"}


def _emit(value, out: list, pad: str) -> None:
    """Append the canonical JSON of value to out; pad is the newline and
    indent of the line value starts on.  A module function, not a closure,
    so no call leaves a reference cycle behind."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append(_LITERALS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if not all(isinstance(key, str) for key in value):
            raise TypeError("canonical JSON keys must be str")
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(f"{sep}{_quote(key)}: ")
            _emit(value[key], out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    else:  # floats keep json's bytes, and non-JSON values raise as in json
        out.append(json.dumps(value))


def dumps_canonical(payload) -> str:
    out: list[str] = []
    _emit(payload, out, "\n")
    out.append("\n")
    return "".join(out)


# the line breaks before a top-level key and before a field of an array item
_KEY = "\n  "
_FIELD = "\n      "


def _array(items, pad: str) -> str:
    """A JSON array of already written items, one per line below pad; no
    array of a fan is empty."""
    inner = pad + "  "
    return f"[{inner}{(',' + inner).join(items)}{pad}]"


def fan_json(fan: GHilbFan) -> str:
    """The fan's canonical JSON: rays with their "num/den" coordinates, cones
    with their G-graphs keyed by character label, and edges."""
    group = fan.group
    n = group.order
    # the G-graph entries in sort_keys order of the labels, each position's
    # line prefix built once, and each monomial quoted once
    labels = [chi.label() for chi in group.characters]
    order = sorted(range(n), key=labels.__getitem__)
    prefixes = [f"{_FIELD}  {_quote(labels[k])}: " for k in order]
    quoted: dict = {}
    # each cone's text with the separator before it, so the output is one
    # join over the cones, never a second copy of them
    cones = []
    sep = "\n    "
    for rays, graph in zip(fan.cone_rays, fan.ggraphs):
        row = graph.row
        entries = []
        for prefix, k in zip(prefixes, order):
            m = row[k]
            text = quoted.get(m)
            if text is None:
                text = quoted[m] = _quote(mono_str(m))
            entries.append(prefix + text)
        cones.append(
            f'{sep}{{{_FIELD}"ggraph": {{{",".join(entries)}{_FIELD}}},'
            f'{_FIELD}"ray_indices": {_array(list(map(str, rays)), _FIELD)}\n    }}'
        )
        sep = ",\n    "
    edges = [
        f'{{{_FIELD}"adjacent_cones": {_array(list(map(str, adjacent)), _FIELD)},'
        f'{_FIELD}"boundary": {_LITERALS[len(adjacent) == 1]},'
        f'{_FIELD}"ray_indices": {_array(list(map(str, rays)), _FIELD)}\n    }}'
        for rays, adjacent in fan.edges.items()
    ]
    # the coordinates a/n of each junior point n*e = (a, b, c), in lowest terms
    points = []
    for s in group.juniors:
        coords = [f'"{a // gcd(a, n)}/{n // gcd(a, n)}"' for a in s]
        points.append(
            f'{{{_FIELD}"boundary": {_LITERALS[0 in s]},'
            f'{_FIELD}"coords": {_array(coords, _FIELD)},'
            f'{_FIELD}"corner": {_LITERALS[n in s]}\n    }}'
        )
    tail = (
        f'{_KEY}],{_KEY}"edges": {_array(edges, _KEY)},'
        f'{_KEY}"format": {_quote(FAN_FORMAT)},'
        f'{_KEY}"group": {_quote(group.spec_string())},'
        f'{_KEY}"order": {n},'
        f'{_KEY}"rays": {_array(points, _KEY)}\n}}\n'
    )
    return "".join([f'{{{_KEY}"cones": [', *cones, tail])


def report_json(report: dict) -> str:
    return dumps_canonical(report)
