"""Deterministic DOT, SVG and TikZ pictures of the computed structures.

All coordinates are derived from exact integers, so output bytes depend only
on the input group and the format version tag.
"""

from __future__ import annotations

from fractions import Fraction

from .ghilb import GHilbFan
from .groups import GroupData, VARIABLES
from .quiver import QuiverAnalysis, torus_positions
from .reid import MarkedTriangulation

FORMAT_TAG = "mckay-lab-diagrams/1"

# sqrt(3)/2 to six exact decimal digits, as a rational
_ROOT3_HALF = Fraction(866025, 1_000_000)


def _fixed(value: Fraction, digits: int = 3) -> str:
    """Deterministic fixed-point rendering of an exact rational."""
    scale = 10 ** digits
    scaled = Fraction(value) * scale
    whole = scaled.numerator // scaled.denominator  # floor
    sign = "-" if whole < 0 else ""
    whole = abs(whole)
    return f"{sign}{whole // scale}.{whole % scale:0{digits}d}"


def _place(u: int, v: int) -> str:
    """The formatted cartesian point of a torus position in skew
    coordinates, whose unit steps are at 0 and 120 degrees."""
    return f"{_fixed(Fraction(2 * u - v, 2))},{_fixed(v * _ROOT3_HALF)}"


def quiver_dot(group: GroupData) -> str:
    """The McKay quiver with its unrolled torus positions."""
    lines = [f"// {FORMAT_TAG} quiver group={group.spec_string()}", "digraph mckay_quiver {"]
    lines.append('  layout=neato; node [shape=circle, fontsize=10];')
    # vertex k is the k-th character, sorted by residues
    for k, (chi, (u, v)) in enumerate(zip(group.characters, torus_positions(group))):
        lines.append(f'  v{k} [label="{chi.label()}", pos="{_place(u, v)}!"];')
    for k, heads in enumerate(group.head_rows):
        for o, h in zip(VARIABLES, heads):
            lines.append(f'  v{k} -> v{h} [label="{o}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def sink_source_dot(fan: GHilbFan, qa: QuiverAnalysis, ray_idx: int, places) -> str:
    """One divisor's quiver with vanishing arrows black and alive arrows grey,
    the k-th character placed at places[k], its formatted torus position."""
    group = fan.group
    outs = qa.masks(ray_idx)[0]
    classes = qa.classes(ray_idx)
    ray = group.junior_points[ray_idx]
    lines = [
        f"// {FORMAT_TAG} sink-source group={group.spec_string()} ray={ray_idx} at {ray}",
        f"digraph divisor_{ray_idx} {{",
        '  layout=neato; node [shape=circle, fontsize=9];',
    ]
    # vertex k is the k-th character, sorted by residues: bit k of a mask
    for k, chi in enumerate(group.characters):
        label = f"{chi.label()}\\n{classes[k].label()}"
        lines.append(f'  v{k} [label="{label}", pos="{places[k]}!"];')
    for k, heads in enumerate(group.head_rows):
        for o, h, vanishing in zip(VARIABLES, heads, outs):
            style = "color=black, penwidth=2" if vanishing >> k & 1 else "color=grey"
            lines.append(f'  v{k} -> v{h} [label="{o}", {style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def all_sink_source_dot(fan: GHilbFan, qa: QuiverAnalysis) -> str:
    """One DOT graph per exceptional divisor, concatenated; the characters'
    positions are formatted once for all of them."""
    places = [_place(u, v) for u, v in torus_positions(fan.group)]
    return "".join(
        sink_source_dot(fan, qa, ri, places) for ri in fan.group.exceptional_ray_indices
    )


def _simplex_points(fan: GHilbFan):
    """Cartesian positions of the junior points inside a fixed triangle."""
    corners = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(1, 2), _ROOT3_HALF),
    ]
    out = {}
    for ri, ray in enumerate(fan.group.junior_points):
        x = sum(c * w for (c, _), w in zip(corners, ray.coords))
        y = sum(c * w for (_, c), w in zip(corners, ray.coords))
        out[ri] = (x, y)
    return out


def _marking_text(marked: MarkedTriangulation, ri: int) -> str:
    case = marked.vertex_cases.get(ri)
    if case is None or case.tag == "boundary":
        return ""
    return ",".join(chi.label() for chi in case.markings)


def marked_simplex_svg(fan: GHilbFan, marked: MarkedTriangulation) -> str:
    """The triangulated junior simplex with edge and vertex markings."""
    size = 640
    pad = 60
    pts = _simplex_points(fan)
    # each ray's position, formatted once for its edges and its circle
    xy = [
        (_fixed(pad + x * (size - 2 * pad)), _fixed(pad + (_ROOT3_HALF - y) * (size - 2 * pad)))
        for x, y in pts.values()
    ]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
        f"<!-- {FORMAT_TAG} marked-simplex group={fan.group.spec_string()} -->",
    ]
    for (i, j), cones in fan.edges.items():
        (x1, y1), (x2, y2) = xy[i], xy[j]
        boundary = len(cones) == 1
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{"#999" if boundary else "#333"}" stroke-width="1"/>'
        )
        if not boundary:
            ratio = marked.edge_ratios[i, j]
            mx = _fixed((pts[i][0] + pts[j][0]) / 2 * (size - 2 * pad) + pad)
            my = _fixed((_ROOT3_HALF - (pts[i][1] + pts[j][1]) / 2) * (size - 2 * pad) + pad)
            lines.append(
                f'<text x="{mx}" y="{my}" font-size="10" fill="#0044aa">'
                f"{ratio.text()} [{ratio.character.label()}]</text>"
            )
    for ri, ray in enumerate(fan.group.junior_points):
        x, y = xy[ri]
        lines.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#000"/>')
        mark = _marking_text(marked, ri)
        label = f"{ray}" + (f" [{mark}]" if mark else "")
        lines.append(
            f'<text x="{x}" y="{y}" dx="4" dy="-4" font-size="10">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def marked_simplex_tikz(fan: GHilbFan, marked: MarkedTriangulation) -> str:
    """TikZ source for the marked junior simplex."""
    pts = _simplex_points(fan)
    scale = 8
    lines = [
        f"% {FORMAT_TAG} marked-simplex group={fan.group.spec_string()}",
        "\\begin{tikzpicture}[scale=1]",
    ]
    for (i, j), cones in fan.edges.items():
        (x1, y1), (x2, y2) = pts[i], pts[j]
        boundary = len(cones) == 1
        style = "gray" if boundary else "black"
        seg = (
            f"\\draw[{style}] ({_fixed(x1 * scale)},{_fixed(y1 * scale)})"
            f" -- ({_fixed(x2 * scale)},{_fixed(y2 * scale)})"
        )
        if not boundary:
            ratio = marked.edge_ratios[i, j]
            seg += (
                " node[midway, font=\\tiny, sloped, above]"
                f" {{{ratio.text()} [{ratio.character.label()}]}}"
            )
        lines.append(seg + ";")
    for ri, ray in enumerate(fan.group.junior_points):
        x, y = pts[ri]
        mark = _marking_text(marked, ri)
        label = f"{ray}" + (f" [{mark}]" if mark else "")
        lines.append(
            f"\\node[circle, fill, inner sep=1pt, "
            f"label={{[font=\\tiny]above:{{{label}}}}}] at "
            f"({_fixed(x * scale)},{_fixed(y * scale)}) {{}};"
        )
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
