"""Edge carving ratios and vertex markings of the triangulation.

Each interior edge is perpendicular to a rank-1 sublattice of invariant
monomials; its primitive generator splits into two coprime regular monomials
m1:m2 whose common character marks the edge.  Non-corner vertices then fall
into three local patterns (a meeting point of three corner lines, an interior
point of exactly one corner line, or a crossing of three non-corner lines)
and receive one or two characters accordingly.

An edge is its ray-index pair.  Each interior edge's ratio is read off its
carving vector once per marked triangulation, into its one table
`edge_ratios`; collinearity at a vertex is read off the scaled junior
points n*e.  The recipe runs on ray indices; a point becomes one only
through `GroupData.ray_index`.  A triangle's defect is the one inward sum of
its three carving vectors, each signed into the triangle by the fan's edge
orientation: the cone's dual basis, which sums to (1, 1, 1).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .errors import (
    NoOrientationWorks,
    RecipeInconsistency,
    UnclassifiableVertex,
    UnknownCone,
    UnmarkedVertex,
)
from .ghilb import GHilbFan
from .groups import Character, Monomial, WeightVector, mono_str
from .intlin import cross3, dot3


def ratio_key(m1: Monomial, m2: Monomial) -> tuple[Monomial, Monomial]:
    """The key of a ratio's line, whatever its orientation: its sides, sorted."""
    return (m1, m2) if m1 < m2 else (m2, m1)


class CarvingRatio(NamedTuple):
    """The coprime monomial pair m1:m2 generating the lattice line of an edge."""

    m1: Monomial
    m2: Monomial
    character: Character

    @property
    def pair(self) -> tuple[Monomial, Monomial]:
        return ratio_key(self.m1, self.m2)

    @property
    def is_corner_line(self) -> bool:
        """True when the ratio omits one variable (pure power against pure power),
        i.e. the line through the edge passes through a corner of the simplex."""
        support1 = [i for i in range(3) if self.m1[i]]
        support2 = [i for i in range(3) if self.m2[i]]
        return len(support1) == 1 and len(support2) == 1

    def text(self) -> str:
        return f"{mono_str(self.m1)}:{mono_str(self.m2)}"

    def __repr__(self) -> str:
        return self.text()


class VertexCase(NamedTuple):
    """Local pattern of a non-corner vertex, with its Reid marking."""

    tag: str  # "case1" | "case2" | "case3" | "boundary"
    valency: int
    markings: tuple[Character, ...]  # one character (cases 1-2), two (case 3)


BOUNDARY = VertexCase(tag="boundary", valency=0, markings=())


def carving_ratio(fan: GHilbFan, rays) -> CarvingRatio:
    """The ratio carving the interior edge on a ray-index pair, sides ordered
    deterministically: UnknownCone for no edge, BoundaryEdge for a boundary one.

    m1 is the side containing the lexicographically smallest variable that
    appears in the ratio; the marking character does not depend on the side.
    """
    u = fan.carving_vector(rays)
    s = 1 if next(v for v in u if v) > 0 else -1  # lexicographic: m1 has the first variable
    m1 = tuple(max(s * v, 0) for v in u)
    m2 = tuple(max(-s * v, 0) for v in u)
    group = fan.group
    chi = group.kappa(m1)
    if chi != group.kappa(m2):
        raise RecipeInconsistency(f"ratio sides of {rays} disagree in character")
    return CarvingRatio(m1=m1, m2=m2, character=chi)


def classify_fan_vertex(fan: GHilbFan, vertex: WeightVector) -> VertexCase:
    """Classify a non-corner point of the simplex and compute its marking:
    a boundary point is not marked, and an interior one must be a ray of the
    fan (NotInLattice or UnknownCone from `GroupData.ray_index` otherwise).
    A point off the junior simplex raises UnknownCone."""
    if any(v < 0 for v in vertex.coords) or sum(vertex.coords) != 1:
        raise UnknownCone(f"{vertex} is not a point of the junior simplex")
    if vertex.is_corner:
        raise UnmarkedVertex(f"{vertex} is a corner of the simplex")
    if vertex.is_boundary:
        return BOUNDARY
    ri = fan.group.ray_index(vertex)
    return _classify_ray(fan, ri, {e: carving_ratio(fan, e) for e in fan.edges_at_ray[ri]})


def _classify_ray(fan: GHilbFan, ray_idx: int, edge_ratios) -> VertexCase:
    """Classify an interior ray of the fan by its edges' ratios, read from
    edge_ratios by ray pair."""
    vertex = fan.group.junior_points[ray_idx]
    edges = fan.edges_at_ray[ray_idx]  # all interior: the vertex is interior
    ratios = [edge_ratios[e] for e in edges]
    groups: dict[tuple, list[int]] = {}
    for k, ratio in enumerate(ratios):
        groups.setdefault(ratio.pair, []).append(k)
    for pair, members in groups.items():
        if len(members) > 2:
            raise UnclassifiableVertex(
                f"{len(members)} edges at {vertex} share the ratio {pair}"
            )
        if len(members) == 2:
            _assert_geometric_collinearity(fan, ray_idx, edges, members)

    lines = [members for members in groups.values() if len(members) == 2]
    corner_lines = [ms for ms in lines if ratios[ms[0]].is_corner_line]
    valency = len(edges)

    if valency == 3 and not lines and all(r.is_corner_line for r in ratios):
        return _case1(vertex, ratios)
    # non-corner straight lines can pass through a case-2 vertex (the two side
    # edges of the valency-6 picture may share their ratio)
    if len(corner_lines) == 1 and valency in (4, 5, 6):
        return _case2(vertex, ratios, corner_lines[0])
    if len(lines) == 3 and not corner_lines and valency == 6:
        return _case3(fan.group, vertex, ratios)
    raise UnclassifiableVertex(
        f"vertex {vertex} matches no case: valency {valency}, "
        f"ratios {[r.text() for r in ratios]}"
    )


def vertex_marking(fan: GHilbFan, vertex: WeightVector) -> tuple[Character, ...]:
    case = classify_fan_vertex(fan, vertex)
    if case.tag == "boundary":
        raise UnmarkedVertex(f"{vertex} lies on the boundary and is not marked")
    return case.markings


def _case1(vertex, ratios) -> VertexCase:
    # three corner lines end here; their shared character is squared
    supports = sorted(
        tuple(i for i in range(3) if ratio.m1[i] or ratio.m2[i]) for ratio in ratios
    )
    if supports != [(0, 1), (0, 2), (1, 2)]:
        raise UnclassifiableVertex(f"vertex {vertex} has non-cyclic pure ratios")
    chars = {r.character for r in ratios}
    if len(chars) != 1:
        raise RecipeInconsistency(f"case-1 vertex {vertex} has edges marked {chars}")
    chi = chars.pop()
    return VertexCase(tag="case1", valency=3, markings=(chi * chi,))


def _case2(vertex, ratios, line_members) -> VertexCase:
    line_char = ratios[line_members[0]].character
    counts = Counter(r.character for k, r in enumerate(ratios) if k not in line_members)
    doubled = [c for c, k in counts.items() if k == 2]
    if len(doubled) != 1 or any(k > 2 for k in counts.values()):
        raise RecipeInconsistency(
            f"case-2 vertex {vertex} lacks a character marking exactly two side edges"
        )
    return VertexCase(tag="case2", valency=len(ratios), markings=(line_char * doubled[0],))


def _case3(group, vertex, ratios) -> VertexCase:
    # label the three lines by the variable isolated on one side
    by_var: dict[int, CarvingRatio] = {}
    for pair_ratio in {r.pair: r for r in ratios}.values():
        sides = sorted(
            (pair_ratio.m1, pair_ratio.m2),
            key=lambda m: sum(1 for v in m if v),
        )
        pure, mixed = sides
        pure_support = [i for i in range(3) if pure[i]]
        if len(pure_support) != 1 or len([i for i in range(3) if mixed[i]]) != 2:
            raise RecipeInconsistency(
                f"case-3 vertex {vertex} has a line {pair_ratio.text()} "
                "that is not pure against mixed"
            )
        by_var[pure_support[0]] = CarvingRatio(pure, mixed, pair_ratio.character)
    if sorted(by_var) != [0, 1, 2]:
        raise RecipeInconsistency(f"case-3 vertex {vertex} lines do not cover x, y, z")

    # line ratios x^i : y^m z^n, y^j : x^p z^q, z^k : x^r y^s
    i = by_var[0].m1[0]
    m, n = by_var[0].m2[1], by_var[0].m2[2]
    j = by_var[1].m1[1]
    p, q = by_var[1].m2[0], by_var[1].m2[2]
    k = by_var[2].m1[2]
    r, s = by_var[2].m2[0], by_var[2].m2[1]

    first = {group.kappa((i, 0, q)), group.kappa((r, j, 0)), group.kappa((0, m, k))}
    second = {group.kappa((i, s, 0)), group.kappa((p, 0, k)), group.kappa((0, j, n))}
    if len(first) != 1 or len(second) != 1:
        raise RecipeInconsistency(
            f"case-3 vertex {vertex}: cross-product characters disagree"
        )
    chi, chi2 = first.pop(), second.pop()
    marks = (chi, chi2) if chi.residues <= chi2.residues else (chi2, chi)
    return VertexCase(tag="case3", valency=6, markings=marks)


def _assert_geometric_collinearity(fan, ray_idx, edges, members) -> None:
    """Two edges with equal ratios must be geometrically opposite at the
    vertex: their directions n*f - n*e on the scaled rays are antiparallel."""
    scaled = fan.group.juniors
    dirs = []
    for k in members:
        other = [ri for ri in edges[k] if ri != ray_idx][0]
        dirs.append(tuple(a - b for a, b in zip(scaled[other], scaled[ray_idx])))
    cross = cross3(dirs[0], dirs[1])
    if any(cross) or dot3(dirs[0], dirs[1]) >= 0:
        raise RecipeInconsistency(
            f"edges at {fan.group.junior_points[ray_idx]} share a ratio but are not collinear"
        )


def regular_triangle_defect(fan: GHilbFan, cone_index: int) -> int:
    """The exponent r' with the three edge ratios multiplying to (xyz)^r',
    for a maximal cone all of whose edges are interior.

    Each carving vector, +t on the edge's first cone and -t on its second,
    points into the cone: it is the dual basis vector u of the cone's rays
    n*e with u.(n*e) = n on the third ray.  Every n*e sums to n, so the
    three sum to (1, 1, 1) and r' = 1 on a valid fan; a sum with unequal
    coordinates raises NoOrientationWorks, an index off the cones UnknownCone.
    """
    if not 0 <= cone_index < len(fan.cone_rays):
        raise UnknownCone(f"cone {cone_index} is not a maximal cone of the fan")
    a, b, c = fan.cone_rays[cone_index]
    inward = [
        (fan.carving_vector(e), 1 if fan.edges[e][0] == cone_index else -1)
        for e in ((a, b), (a, c), (b, c))
    ]
    total = tuple(sum(s * t[i] for t, s in inward) for i in range(3))
    if not total[0] == total[1] == total[2]:
        raise NoOrientationWorks(
            f"the inward carving vectors of cone {cone_index} {(a, b, c)} sum to {total}"
        )
    return total[0]


class MarkedTriangulation:
    """All edge and vertex markings of a fan, plus per-character tallies."""

    def __init__(self, fan: GHilbFan, edge_ratios: dict, vertex_cases: dict[int, VertexCase]):
        self.fan = fan
        self.edge_ratios = edge_ratios  # the one CarvingRatio of each interior edge, by ray pair
        self.vertex_cases = vertex_cases

    @cached_property
    def _marks(self) -> tuple[list, list]:
        """Per character position, its marked edges and divisors, sorted."""
        index = self.fan.group.index
        edges, divisors = [[] for _ in index], [[] for _ in index]
        for key, ratio in sorted(self.edge_ratios.items()):
            edges[index[ratio.character]].append(key)
        for ri, case in sorted(self.vertex_cases.items()):
            for k in {index[chi] for chi in case.markings}:
                divisors[k].append(ri)
        return edges, divisors

    def marked_edges(self, chi: Character) -> list[tuple[int, int]]:
        return list(self._marks[0][self.fan.group.index[chi]])

    def marked_divisors(self, chi: Character) -> list[int]:
        return list(self._marks[1][self.fan.group.index[chi]])

    def marking_class(self, chi: Character) -> str:
        """One of 'divisor', 'curve', 'curves', 'nothing'."""
        divisors = self.marked_divisors(chi)
        curves = self.marked_edges(chi)
        if divisors:
            return "divisor"
        if len(curves) == 1:
            return "curve"
        if len(curves) >= 2:
            return "curves"
        return "nothing"


def marked_triangulation(fan: GHilbFan) -> MarkedTriangulation:
    """Compute every carving ratio, once per interior edge, and every vertex
    marking of the fan."""
    ratios = {e: carving_ratio(fan, e) for e in fan.interior_edges}
    group = fan.group
    interior = set(group.interior_ray_indices)
    cases = {
        ri: _classify_ray(fan, ri, ratios) if ri in interior else BOUNDARY
        for ri in group.exceptional_ray_indices
    }
    return MarkedTriangulation(fan, ratios, cases)
