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


def _quiver_parts(group: GroupData) -> tuple[list[tuple[str, str]], list[tuple[str, int, int]]]:
    """The quiver's node lines, split where a sink-source graph puts the
    vertex class, and each arrow line's head with its orientation index and
    the bit of its tail; vertex k is the k-th character, sorted by residues."""
    nodes = [
        (f'  v{k} [label="{chi.label()}', f'", pos="{_place(u, v)}!"];')
        for k, (chi, (u, v)) in enumerate(zip(group.characters, torus_positions(group)))
    ]
    arrows = [
        (f'  v{k} -> v{h} [label="{o}"', oi, 1 << k)
        for k, heads in enumerate(group.head_rows)
        for oi, (o, h) in enumerate(zip(VARIABLES, heads))
    ]
    return nodes, arrows


def quiver_dot(group: GroupData) -> str:
    """The McKay quiver with its unrolled torus positions."""
    nodes, arrows = _quiver_parts(group)
    lines = [f"// {FORMAT_TAG} quiver group={group.spec_string()}", "digraph mckay_quiver {"]
    lines.append('  layout=neato; node [shape=circle, fontsize=10];')
    lines += [head + tail for head, tail in nodes]
    lines += [head + "];" for head, _, _ in arrows] + ["}"]
    return "\n".join(lines) + "\n"


def all_sink_source_dot(qa: QuiverAnalysis) -> str:
    """One DOT graph per exceptional divisor of qa's group, read without a fan:
    each divisor's quiver, vanishing arrows black and alive ones grey, with
    each node's vertex class along the divisor."""
    group = qa.group
    spec = group.spec_string()
    nodes, arrows = _quiver_parts(group)
    graphs = []
    for ri in group.exceptional_ray_indices:
        outs = qa.masks(ri)[0]
        lines = [
            f"// {FORMAT_TAG} sink-source group={spec} ray={ri} at {group.junior_points[ri]}",
            f"digraph divisor_{ri} {{",
            '  layout=neato; node [shape=circle, fontsize=9];',
        ]
        lines += [
            f"{head}\\n{cls.label()}{tail}" for (head, tail), cls in zip(nodes, qa.classes(ri))
        ]
        lines += [
            head + (", color=black, penwidth=2];" if outs[oi] & bit else ", color=grey];")
            for head, oi, bit in arrows
        ]
        graphs.append("\n".join(lines) + "\n}\n")
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


def _simplex_parts(fan: GHilbFan, marked: MarkedTriangulation):
    """Each edge (i, j) of the fan with its ratio label (None on the
    boundary), and each ray's label with its markings."""
    ratios = marked.edge_ratios
    edges = [
        (i, j, None if len(cones) == 1 else
         f"{ratios[i, j].text()} [{ratios[i, j].character.label()}]")
        for (i, j), cones in fan.edges.items()
    ]
    labels = []
    for ri, ray in enumerate(fan.group.junior_points):
        case = marked.vertex_cases.get(ri)
        marks = () if case is None or case.tag == "boundary" else case.markings
        labels.append(f"{ray} [{','.join(chi.label() for chi in marks)}]" if marks else f"{ray}")
    return edges, labels


def marked_simplex_svg(fan: GHilbFan, marked: MarkedTriangulation) -> str:
    """The triangulated junior simplex with edge and vertex markings."""
    n, juniors = fan.group.order, fan.group.juniors
    edges, labels = _simplex_parts(fan, marked)
    # each ray's position, formatted once for its edges and its circle
    xy = [_svg_xy(n, s) for s in juniors]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}">',
        f"<!-- {FORMAT_TAG} marked-simplex group={fan.group.spec_string()} -->",
    ]
    for i, j, ratio in edges:
        (x1, y1), (x2, y2) = xy[i], xy[j]
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{"#999" if ratio is None else "#333"}" stroke-width="1"/>'
        )
        if ratio is not None:
            mx, my = _svg_xy(n, juniors[i], juniors[j])
            lines.append(f'<text x="{mx}" y="{my}" font-size="10" fill="#0044aa">{ratio}</text>')
    for (x, y), label in zip(xy, labels):
        lines.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#000"/>')
        lines.append(f'<text x="{x}" y="{y}" dx="4" dy="-4" font-size="10">{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def marked_simplex_tikz(fan: GHilbFan, marked: MarkedTriangulation) -> str:
    """TikZ source for the marked junior simplex."""
    edges, labels = _simplex_parts(fan, marked)
    xy = [_tikz_xy(fan.group.order, s) for s in fan.group.juniors]
    lines = [
        f"% {FORMAT_TAG} marked-simplex group={fan.group.spec_string()}",
        "\\begin{tikzpicture}[scale=1]",
    ]
    for i, j, ratio in edges:
        node = "" if ratio is None else f" node[midway, font=\\tiny, sloped, above] {{{ratio}}}"
        lines.append(f"\\draw[{'gray' if ratio is None else 'black'}] {xy[i]} -- {xy[j]}{node};")
    lines += [
        f"\\node[circle, fill, inner sep=1pt, label={{[font=\\tiny]above:{{{label}}}}}]"
        f" at {p} {{}};"
        for p, label in zip(xy, labels)
    ]
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
