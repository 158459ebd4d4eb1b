"""Deterministic DOT, SVG and TikZ pictures of the computed structures.

All coordinates are derived from exact integers, so output bytes depend only
on the input group and the format version tag.
"""

from __future__ import annotations

from .ghilb import GHilbFan
from .groups import GroupData, VARIABLES
from .quiver import QuiverAnalysis, torus_positions
from .reid import MarkedTriangulation

FORMAT_TAG = "mckay-lab-diagrams/1"

# sqrt(3)/2 to six exact decimal digits, as ROOT3_NUM / ROOT3_DEN
_ROOT3_NUM, _ROOT3_DEN = 866025, 1_000_000


def _fixed(num: int, den: int) -> str:
    """num/den (den > 0) in fixed point to three decimals, rounded down."""
    whole, frac = divmod(abs(num * 1000 // den), 1000)
    return f"{'-' if num < 0 else ''}{whole}.{frac:03d}"


def _place(u: int, v: int) -> str:
    """The formatted cartesian point of a torus position in skew
    coordinates, whose unit steps are at 0 and 120 degrees."""
    return f"{_fixed(2 * u - v, 2)},{_fixed(v * _ROOT3_NUM, _ROOT3_DEN)}"


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


def all_sink_source_dot(qa: QuiverAnalysis) -> str:
    """One DOT graph per exceptional divisor of qa's group, read without a fan:
    each divisor's quiver, vanishing arrows black and alive ones grey.  The
    fixed part of every node and arrow line is built once for all of them."""
    group = qa.group
    spec = group.spec_string()
    # vertex k is the k-th character, sorted by residues: bit k of a mask;
    # a node line is its head, the vertex class along the divisor, its tail
    nodes = [
        (f'  v{k} [label="{chi.label()}\\n', f'", pos="{_place(u, v)}!"];')
        for k, (chi, (u, v)) in enumerate(zip(group.characters, torus_positions(group)))
    ]
    arrows = [
        (f'  v{k} -> v{h} [label="{o}", ', oi, 1 << k)
        for k, heads in enumerate(group.head_rows)
        for oi, (o, h) in enumerate(zip(VARIABLES, heads))
    ]
    graphs = []
    for ri in group.exceptional_ray_indices:
        outs = qa.masks(ri)[0]
        lines = [
            f"// {FORMAT_TAG} sink-source group={spec} ray={ri} at {group.junior_points[ri]}",
            f"digraph divisor_{ri} {{",
            '  layout=neato; node [shape=circle, fontsize=9];',
        ]
        lines += [
            f"{head}{cls.label()}{tail}" for (head, tail), cls in zip(nodes, qa.classes(ri))
        ]
        lines += [
            prefix + ("color=black, penwidth=2];" if outs[oi] & bit else "color=grey];")
            for prefix, oi, bit in arrows
        ]
        lines.append("}\n")
        graphs.append("\n".join(lines))
    return "".join(graphs)


# The simplex is drawn in the triangle with corners (0,0), (1,0) and
# (1/2, sqrt(3)/2): the junior point n*e = (a, b, c) sits at x = (2b + c)/(2n),
# y = (sqrt(3)/2)(c/n).  Each coordinate below is one floor division over a
# common denominator: 2kn for x and 10^6*kn for y at the mean of k points.
# The SVG canvas is _SIZE square, with a margin of _PAD around the simplex.
_SIZE, _PAD = 640, 60
_SPAN = _SIZE - 2 * _PAD
_TIKZ_SCALE = 8


def _svg_xy(n: int, *points) -> tuple[str, str]:
    """The SVG point of the mean of the given junior points n*e; the y axis
    points down."""
    k = len(points)
    x = sum(2 * b + c for _, b, c in points)
    c = sum(c for _, _, c in points)
    return (
        _fixed(2 * k * n * _PAD + _SPAN * x, 2 * k * n),
        _fixed(
            _ROOT3_DEN * k * n * _PAD + _SPAN * _ROOT3_NUM * (k * n - c), _ROOT3_DEN * k * n
        ),
    )


def _tikz_xy(n: int, point) -> str:
    """The TikZ point of the junior point n*e = (a, b, c)."""
    _, b, c = point
    return (
        f"({_fixed(_TIKZ_SCALE * (2 * b + c), 2 * n)},"
        f"{_fixed(_TIKZ_SCALE * _ROOT3_NUM * c, _ROOT3_DEN * n)})"
    )


def _marking_text(marked: MarkedTriangulation, ri: int) -> str:
    case = marked.vertex_cases.get(ri)
    if case is None or case.tag == "boundary":
        return ""
    return ",".join(chi.label() for chi in case.markings)


def marked_simplex_svg(fan: GHilbFan, marked: MarkedTriangulation) -> str:
    """The triangulated junior simplex with edge and vertex markings."""
    n, juniors = fan.group.order, fan.group.juniors
    # each ray's position, formatted once for its edges and its circle
    xy = [_svg_xy(n, s) for s in juniors]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}">',
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
            mx, my = _svg_xy(n, juniors[i], juniors[j])
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
    n = fan.group.order
    xy = [_tikz_xy(n, s) for s in fan.group.juniors]
    lines = [
        f"% {FORMAT_TAG} marked-simplex group={fan.group.spec_string()}",
        "\\begin{tikzpicture}[scale=1]",
    ]
    for (i, j), cones in fan.edges.items():
        boundary = len(cones) == 1
        style = "gray" if boundary else "black"
        seg = f"\\draw[{style}] {xy[i]} -- {xy[j]}"
        if not boundary:
            ratio = marked.edge_ratios[i, j]
            seg += (
                " node[midway, font=\\tiny, sloped, above]"
                f" {{{ratio.text()} [{ratio.character.label()}]}}"
            )
        lines.append(seg + ";")
    for ri, ray in enumerate(fan.group.junior_points):
        mark = _marking_text(marked, ri)
        label = f"{ray}" + (f" [{mark}]" if mark else "")
        lines.append(
            f"\\node[circle, fill, inner sep=1pt, "
            f"label={{[font=\\tiny]above:{{{label}}}}}] at "
            f"{xy[ri]} {{}};"
        )
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
