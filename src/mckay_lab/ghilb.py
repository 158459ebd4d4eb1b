"""G-Hilb fan construction from torus-fixed clusters.

A cluster is a monomial set that is divisibility-closed, contains one
monomial per character, and avoids multiples of xyz.  It is stored as a row,
one monomial per position of group.characters, and checked by the tail
table: each m/x_i must be the representative at the tail of the x_i-arrow
into m's position, which by induction on degree gives both closure and every
representative's character without computing one.

The divisor table comes first: per junior point e, n*q(chi, e) is the least
(n*e).m over the monomials m of chi, one Dijkstra over the McKay quiver per
point, and the row's sum is the height H(e).  A cluster's cone is read off
the table (Nakamura; Craw-Reid): with S the sum of the cluster's monomials,
(n*e).S >= H(e) at every junior point, term by term, with equality exactly
when every representative is least on e, that is when e lies in the cone.
So one integer scan over the junior table finds the cone's rays as table
indices, in lex order; it runs once per cluster and is kept on it.  All
clusters are found by seeding from a generic weight and crossing each
interior wall (a ray-index pair) that no second found cone has closed yet:
one flip per new cluster, whose carving vector the fan reuses.  The fan is
then validated as a unimodular triangulation, each chart is checked against
the table at its three rays by the same height identity, and the fan
derives its integer facts once.  The whole path runs on integers: the
`WeightVector`s and `Cone`s are output views, and no `Fraction` is compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush

from .errors import (
    BoundaryEdge,
    DegenerateCone,
    FanValidationFailed,
    InconsistentCharts,
    LowerDimensionalCone,
    MultiplicityOutOfRange,
    SearchExhausted,
    UnknownCone,
)
from .groups import Character, GroupData, Monomial, MONO_ONE, mono_str
from .intlin import cross3, det3, dot3, primitive_signed
from .lattice import Cone, WeightVector, junior_table


class GGraph:
    """One monomial per character, divisibility-closed and xyz-free, stored
    as a row: row[k] represents the k-th character of group.characters.  The
    row fixes the monomial set (built on demand), so it keys the cluster."""

    def __init__(self, group: GroupData, row):
        self.group = group
        self.row: tuple[Monomial, ...] = tuple(row)
        # the sum S of the monomials: (n*e).S is the chart's height at e
        self.total = tuple(map(sum, zip(*self.row)))
        self._cone: Cone | None = None  # cone_of_ggraph: the cone and its ray indices
        self._cone_rays: tuple[int, int, int] | None = None
        self._validate()

    @cached_property
    def monomials(self) -> frozenset:
        return frozenset(self.row)

    def representative(self, chi: Character) -> Monomial:
        return self.row[self.group.index[chi]]

    def __eq__(self, other) -> bool:
        return isinstance(other, GGraph) and self.row == other.row

    def __hash__(self) -> int:
        return hash(self.row)

    def __repr__(self) -> str:
        return "{" + ", ".join(mono_str(m) for m in sorted(self.row)) + "}"

    def _validate(self) -> None:
        """Each m - e_i (m_i > 0) must be the representative at the tail of
        the i-arrow into m's position.  By induction on degree from 1, that
        holds exactly when every representative has its own character and
        the cluster is divisibility-closed."""
        group = self.group
        n = group.order
        row = self.row
        if len(row) != n or len(set(row)) != n:
            raise SearchExhausted(f"cluster needs exactly {n} distinct monomials")
        if row[group.index[group.trivial_character]] != MONO_ONE:
            raise SearchExhausted("the trivial character must be represented by 1")
        for m, tails in zip(row, group.tail_rows):
            a, b, c = m
            tx, ty, tz = tails
            if a < 0 or b < 0 or c < 0 or (a and b and c):
                raise SearchExhausted(f"representative {m} is not an xyz-free monomial")
            if a >= n or b >= n or c >= n:
                raise SearchExhausted(f"representative {m} has an exponent >= {n}")
            if (
                (a and row[tx] != (a - 1, b, c))
                or (b and row[ty] != (a, b - 1, c))
                or (c and row[tz] != (a, b, c - 1))
            ):
                lowers = ((a - 1, b, c), (a, b - 1, c), (a, b, c - 1))
                i = next(i for i in range(3) if m[i] and row[tails[i]] != lowers[i])
                raise SearchExhausted(
                    f"divisor {lowers[i]} of {m} is not the representative "
                    f"{row[tails[i]]} of its character"
                )


@dataclass(frozen=True)
class FanEdge:
    """A 2-cone of the fan: a pair of ray indices plus the cones gluing along it."""

    rays: tuple[int, int]
    cones: tuple[int, ...]

    @property
    def is_boundary(self) -> bool:
        return len(self.cones) == 1


class DivisorCoefficients:
    """The integer divisor table: rows[ray][k] = n*q(chi, ray) = (n*e).r_chi
    for the k-th character chi of group.characters, n = |G|, the group's
    Dijkstra rows (divisor_table).

    Every chart must reproduce the row at each of its three rays.  Each term
    (n*e).r_chi is at least n*q(chi, e), so the chart does exactly when its
    height (n*e).S, S the sum of its cluster, is the row's sum H(e): one
    product per ray, and a mismatch names the first character that differs."""

    def __init__(self, fan: "GHilbFan"):
        rows, planes = divisor_table(fan.group)
        for graph, triple in zip(fan.ggraphs, fan.cone_rays):
            sx, sy, sz = graph.total
            for ri in triple:
                a, b, c, height, _ = planes[ri]
                if a * sx + b * sy + c * sz != height:
                    e, row = fan.scaled_rays[ri], rows[ri]
                    k = next(k for k, m in enumerate(graph.row) if dot3(e, m) != row[k])
                    raise InconsistentCharts(
                        f"the chart of {graph} at ray {fan.rays[ri]} gives n*q "
                        f"{dot3(e, graph.row[k])} for {fan.group.characters[k]}, "
                        f"not {row[k]}"
                    )
        self.rows: list[list[int]] = rows


class GHilbFan:
    """The validated triangulation of the junior simplex with its cluster charts.

    Besides the charts it holds the integer facts every later layer reads:
    the scaled rays n*e, the divisor table n*q (one row per ray, indexed
    like group.characters) and one carving vector per interior edge, by ray
    pair, positive on the far ray of the edge's first cone.  Each cone comes
    as its ascending ray indices, which the checks read, and as a `Cone` view."""

    def __init__(self, group: GroupData, ggraphs: list[GGraph], cone_rays, cones: list[Cone]):
        self.group = group
        n = group.order
        juniors = junior_table(group)
        self.rays: tuple[WeightVector, ...] = tuple(juniors.values())
        self.scaled_rays = tuple(juniors)
        self._ray_index = {s: i for i, s in enumerate(self.scaled_rays)}
        self.ggraphs = tuple(ggraphs)
        self.cones = tuple(cones)
        self.cone_rays: tuple[tuple[int, int, int], ...] = tuple(cone_rays)
        self._cones_at_ray: dict[int, list[int]] = {i: [] for i in range(len(self.rays))}
        for ci, triple in enumerate(self.cone_rays):
            for ri in triple:
                self._cones_at_ray[ri].append(ci)
        self.edges = self._collect_edges()
        self._edge_index = {e.rays: k for k, e in enumerate(self.edges)}
        self._cone_index = {rays: ci for ci, rays in enumerate(self.cone_rays)}
        self._interior_edges = tuple(e for e in self.edges if not e.is_boundary)
        # a corner has a coordinate n, an interior point no coordinate 0
        self._exceptional = tuple(i for i, s in enumerate(self.scaled_rays) if n not in s)
        self._interior_rays = tuple(i for i, s in enumerate(self.scaled_rays) if 0 not in s)
        self._validate()
        self.q = DivisorCoefficients(self)
        scaled = self.scaled_rays
        self.carving_vectors: dict[tuple[int, int], tuple[int, int, int]] = {}
        for edge in self._interior_edges:
            i, j = edge.rays
            w = invariant_perpendicular(group, scaled[i], scaled[j])
            (far,) = set(self.cone_rays[edge.cones[0]]) - {i, j}  # w is not 0 there: unimodular
            self.carving_vectors[i, j] = w if dot3(scaled[far], w) > 0 else tuple(-v for v in w)
        self._carving_ratios: dict = {}  # reid.carving_ratio, by edge.rays

    # -- lookups ------------------------------------------------------------

    def ray_index(self, ray: WeightVector) -> int:
        """The one lookup from a point to a ray index: NotInLattice off the
        lattice (1/n)Z^3, UnknownCone for any other point but the fan's rays."""
        ri = self._ray_index.get(ray.scaled(self.group.order))
        if ri is None:
            raise UnknownCone(f"{ray} is not a ray of the fan")
        return ri

    def cones_at_ray(self, ray_idx: int) -> list[int]:
        return self._cones_at_ray[ray_idx]

    def edge_between(self, i: int, j: int) -> FanEdge:
        key = (min(i, j), max(i, j))
        if key not in self._edge_index:
            raise UnknownCone(f"rays {key} do not span an edge of the fan")
        return self.edges[self._edge_index[key]]

    def cone_index(self, cone: Cone) -> int:
        triple = tuple(sorted(self.ray_index(r) for r in cone.rays))
        if triple not in self._cone_index:
            raise UnknownCone(f"{cone} is not a maximal cone of the fan")
        return self._cone_index[triple]

    def is_face(self, rays) -> bool:
        """Whether a set of ray indices spans a ray, an edge or a cone of the fan."""
        key = tuple(sorted(rays))
        return len(key) == 1 or key in self._edge_index or key in self._cone_index

    def interior_edges(self) -> tuple[FanEdge, ...]:
        return self._interior_edges

    def edges_at_ray(self, ray_idx: int) -> tuple[FanEdge, ...]:
        """The edges at a ray, in the order of self.edges."""
        return self._edges_at_ray[ray_idx]

    def exceptional_ray_indices(self) -> tuple[int, ...]:
        """Rays of exceptional divisors: the non-corner junior points."""
        return self._exceptional

    def interior_ray_indices(self) -> tuple[int, ...]:
        """Rays of compact exceptional divisors: the junior points off the boundary."""
        return self._interior_rays

    # -- construction helpers -----------------------------------------------

    def _collect_edges(self) -> tuple[FanEdge, ...]:
        """The edges in ray-pair order, indexed by ray once into _edges_at_ray."""
        pairs: dict[tuple[int, int], list[int]] = {}
        for ci, triple in enumerate(self.cone_rays):
            for k in range(3):
                for l in range(k + 1, 3):
                    pairs.setdefault((triple[k], triple[l]), []).append(ci)
        edges = tuple(
            FanEdge(rays=key, cones=tuple(sorted(cs))) for key, cs in sorted(pairs.items())
        )
        at_ray: dict[int, list[FanEdge]] = {i: [] for i in range(len(self.rays))}
        for edge in edges:
            for ri in edge.rays:
                at_ray[ri].append(edge)
        self._edges_at_ray = {ri: tuple(es) for ri, es in at_ray.items()}
        return edges

    def _validate(self) -> None:
        n = self.group.order
        if len(self.cones) != n:
            raise FanValidationFailed(f"{len(self.cones)} cones for a group of order {n}")
        if len(self._cone_index) != n:
            raise FanValidationFailed("duplicate maximal cones")
        used_rays = {ri for triple in self.cone_rays for ri in triple}
        if used_rays != set(range(len(self.rays))):
            raise FanValidationFailed("fan rays do not match the junior points")
        # unimodular: the rays are a basis of L, |det(n*e1, n*e2, n*e3)| = n^2
        scaled = self.scaled_rays
        for ci, (a, b, c) in enumerate(self.cone_rays):
            d = det3((scaled[a], scaled[b], scaled[c]))
            if d == 0:
                raise DegenerateCone("cone rays are linearly dependent")
            if abs(d) != n * n:
                raise FanValidationFailed(f"non-unimodular cone {self.cones[ci]}")
        for edge in self.edges:
            i, j = edge.rays
            if len(edge.cones) != (2 if spans_interior_edge(scaled[i], scaled[j]) else 1):
                raise FanValidationFailed(
                    f"edge {edge.rays} is glued by {len(edge.cones)} cones"
                )
        interior = set(self._interior_rays)
        for ri in range(len(self.rays)):
            self._validate_link(ri, ri not in interior)

    def _validate_link(self, ray_idx: int, on_boundary: bool) -> None:
        """The triangles around a vertex must close into a disc (or half-disc)."""
        cones_here = self.cones_at_ray(ray_idx)
        degree: dict[int, int] = {}
        for ci in cones_here:
            for other in self.cone_rays[ci]:
                if other != ray_idx:
                    degree[other] = degree.get(other, 0) + 1
        odd = [v for v, d in degree.items() if d == 1]
        bad = [v for v, d in degree.items() if d > 2]
        if bad or (len(odd) != 0 if not on_boundary else len(odd) != 2):
            raise FanValidationFailed(f"bad vertex link at ray {self.rays[ray_idx]}")
        # single component: walk the link graph
        adjacency: dict[int, list[int]] = {v: [] for v in degree}
        for ci in cones_here:
            a, b = [v for v in self.cone_rays[ci] if v != ray_idx]
            adjacency[a].append(b)
            adjacency[b].append(a)
        seen = set()
        stack = [next(iter(adjacency))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adjacency[v])
        if seen != set(adjacency):
            raise FanValidationFailed(f"disconnected link at ray {self.rays[ray_idx]}")


# ---------------------------------------------------------------------------
# seed cluster and cluster enumeration


def seed_ggraph(group: GroupData) -> GGraph:
    """The cluster of the chart containing a fixed generic interior weight.

    With v = (1, n, n^2), n the group order, every character has a unique
    valuation-minimizing monomial (distinct bounded exponent vectors cannot
    pair to the same base-n value), and the minimizers form a cluster: a
    divisor of a minimizer is the minimizer of its own character.  Since xyz
    is invariant, x and y generate the characters, so each minimizer is z-free
    (x^i y^j with i, j < n weighs less than n^2) and is the first x^i y^j of
    its character in (j, i) order, stepped to along x and y by the arrow table;
    each row's walk along x stops where it closes, at the order of x.
    """
    n = group.order
    heads = group.head_rows
    row: list[Monomial | None] = [None] * n
    filled = 0
    k = group.index[group.trivial_character]
    for j in range(n):
        start = k  # the position of y^j, where the walk along x closes
        for i in range(n):
            if row[k] is None:
                row[k] = (i, j, 0)
                filled += 1
            k = heads[k][0]
            if k == start:
                break
        if filled == n:
            break
        k = heads[k][1]
    return GGraph(group, row)


def invariant_perpendicular(group: GroupData, e, f) -> tuple[int, int, int]:
    """Primitive invariant-lattice vector perpendicular to two scaled junior
    points n*e and n*f, kept on the group by the pair: the flip across a
    wall and the fan's carving vector of that edge share one.

    Sign is lexicographic; callers orient as needed.
    """
    memo = group._perpendiculars
    t = memo.get((e, f))
    if t is None:
        u = primitive_signed(cross3(e, f))
        order = group.character_order(group.kappa(u))
        t = memo[e, f] = tuple(w * order for w in u)
    return t


def flip_ggraph(group: GroupData, graph: GGraph, e, f, g) -> GGraph:
    """The cluster of the chart across the wall (e, f) of a cluster's cone,
    g its third ray, all three as scaled junior points n*e.

    Every representative r moves by the largest power k of the wall's
    carving direction t (positive on g) that keeps it a regular monomial,
    k = min r_i // -t_i over the one or two t_i < 0: smaller shifts fail to
    generate on the far chart because t has negative valuation there.
    """
    t = invariant_perpendicular(group, e, f)
    side = dot3(g, t)
    if side < 0:
        t = tuple(-v for v in t)
    elif side == 0:
        raise LowerDimensionalCone(f"wall {(e, f)} is not a facet of a cone with third ray {g}")
    negative = [(i, -v) for i, v in enumerate(t) if v < 0]
    if not negative:
        raise SearchExhausted(f"unbounded shift across facet {(e, f)}")
    # t vanishes on two nonnegative rays, so one or two t_i < 0 (one: both
    # pairs below are the same)
    (i, v), (j, w) = negative[0], negative[-1]
    t0, t1, t2 = t
    row = []
    for r in graph.row:
        a, b = r[i] // v, r[j] // w
        k = a if a < b else b
        row.append((r[0] + k * t0, r[1] + k * t1, r[2] + k * t2))
    return GGraph(group, row)


def enumerate_ggraphs(group: GroupData) -> list[GGraph]:
    """All torus-fixed clusters, by wall-crossing closure, in the order found.

    Each cluster's cone is extracted when the cluster is found.  An interior
    wall (an edge off the octant's boundary, a ray-index pair) is open from
    the first found cone that has it until the second; a cluster flips only
    across its walls still open, so |G| clusters take |G| - 1 flips, and the
    dual graph is connected, so no wall stays open.  A flip that reaches a
    cluster already found (by row), or one whose cone does not have the wall
    it crossed, raises InconsistentCharts naming the wall.
    """
    n = group.order
    scaled = list(junior_table(group))
    found: dict[tuple, GGraph] = {}
    open_walls: set[tuple[int, int]] = set()

    def add(graph: GGraph) -> Cone:
        cone = cone_of_ggraph(group, graph)
        found[graph.row] = graph
        if len(found) > n:
            raise SearchExhausted(f"more than {n} clusters reached by wall crossing")
        open_walls.symmetric_difference_update(
            wall for wall, _ in _interior_walls(graph._cone_rays, scaled)
        )
        return cone

    seed = seed_ggraph(group)
    add(seed)
    queue = [seed]
    while queue:
        graph = queue.pop()
        for wall, g in _interior_walls(graph._cone_rays, scaled):
            if wall not in open_walls:
                continue  # closed by a cone found since
            neighbor = flip_ggraph(group, graph, scaled[wall[0]], scaled[wall[1]], scaled[g])
            if neighbor.row in found:
                raise InconsistentCharts(
                    f"the flip across wall {wall} reaches {neighbor}, already found"
                )
            far = add(neighbor)
            if wall in open_walls:
                raise InconsistentCharts(
                    f"the flip across wall {wall} reaches {neighbor}, whose cone "
                    f"{far} does not have the wall"
                )
            queue.append(neighbor)
    if len(found) != n:
        raise SearchExhausted(f"found {len(found)} clusters, expected {n}")
    return list(found.values())


def _interior_walls(triple, scaled):
    """The cone's edges off the octant's boundary, each as its ray-index
    pair and the index of the third ray."""
    a, b, c = triple
    for i, j, g in ((a, b, c), (a, c, b), (b, c, a)):
        if spans_interior_edge(scaled[i], scaled[j]):
            yield (i, j), g


def spans_interior_edge(e, f) -> bool:
    """Whether two scaled junior points n*e, n*f span an edge off the
    octant's boundary: no coordinate vanishes on both."""
    return bool((e[0] or f[0]) and (e[1] or f[1]) and (e[2] or f[2]))


# ---------------------------------------------------------------------------
# the divisor table, and the cones of clusters read off it


def least_valuations(group: GroupData, weight) -> list[int]:
    """The least weight.m over the monomials m of each character, in the
    order of group.characters.

    A monomial is a path from the trivial character in the McKay quiver, so
    this is Dijkstra over positions with an o-arrow costing weight[o] (all
    nonnegative); each position's distance is unique, whatever the order
    ties pop in.
    """
    heads = group.head_rows
    least: list[int | None] = [None] * group.order
    heap = [(0, group.index[group.trivial_character])]
    while heap:
        d, k = heappop(heap)
        if least[k] is not None:
            continue
        least[k] = d
        for w, h in zip(weight, heads[k]):
            if least[h] is None:
                heappush(heap, (d + w, h))
    return least


def divisor_table(group: GroupData) -> tuple[list[list[int]], list[tuple]]:
    """(rows, planes) over the group's junior points, in junior-table order;
    built once per group and kept on it.

    rows[ri] is least_valuations(n*e): n*q(chi, e) for every character chi.
    planes[ri] is (a, b, c, H, e) for n*e = (a, b, c), with the height H the
    row's sum and e the junior point itself."""
    table = group._divisor_table
    if table is None:
        rows, planes = [], []
        for scaled, point in junior_table(group).items():
            row = least_valuations(group, scaled)
            rows.append(row)
            planes.append((*scaled, sum(row), point))
        table = group._divisor_table = (rows, planes)
    return table


def cone_of_ggraph(group: GroupData, graph: GGraph) -> Cone:
    """The maximal cone whose chart carries the given cluster.

    With S the sum of the cluster's monomials, (n*e).S >= H(e) at every
    junior point e, with equality exactly on the cone (see divisor_table):
    the rays are the junior points on that height plane, which must be three
    linearly independent ones.  Extracted once per cluster and kept on it,
    with the rays' indices, found in table order, which is lex order.
    """
    if graph._cone is None:
        triple = _height_rays(group, graph.total)
        planes = divisor_table(group)[1]
        if len(triple) != 3 or not det3([planes[ri][:3] for ri in triple]):
            rays = [planes[ri][4] for ri in triple]
            raise LowerDimensionalCone(f"cluster {graph} has the height plane of {rays}")
        graph._cone_rays = tuple(triple)
        graph._cone = Cone.from_sorted(tuple(planes[ri][4] for ri in triple))
    return graph._cone


def _height_rays(group: GroupData, total) -> list[int]:
    """The indices of the junior points e with (n*e).total equal to H(e)."""
    sx, sy, sz = total
    planes = divisor_table(group)[1]
    return [
        ri
        for ri, (a, b, c, height, _) in enumerate(planes)
        if a * sx + b * sy + c * sz == height
    ]


def build_fan(group: GroupData) -> GHilbFan:
    """Enumerate all clusters, take their cones, and assemble the validated
    fan, its cones in the lex order of their ray-index triples."""
    ggraphs = enumerate_ggraphs(group)
    cones = [cone_of_ggraph(group, g) for g in ggraphs]
    order = sorted(range(len(cones)), key=lambda k: ggraphs[k]._cone_rays)
    return GHilbFan(
        group,
        [ggraphs[k] for k in order],
        [ggraphs[k]._cone_rays for k in order],
        [cones[k] for k in order],
    )


# ---------------------------------------------------------------------------
# chart data


def chart_generator(fan: GHilbFan, cone: Cone, chi: Character) -> Monomial:
    """The monomial generating the chi-eigensheaf on the chart of the cone."""
    return fan.ggraphs[fan.cone_index(cone)].representative(chi)


def tautological_degree(fan: GHilbFan, chi: Character, edge: FanEdge) -> int:
    """Degree of the chi tautological bundle on the compact curve of an edge."""
    return tautological_degrees(fan, edge)[fan.group.index[chi]]


def tautological_degrees(fan: GHilbFan, edge: FanEdge) -> list[int]:
    """Degree of every character's tautological bundle on the compact curve
    of an edge, in the order of group.characters.

    With r, r' the chart generators on the two sides, r'/r = (m'/m)^k for the
    edge's carving vector m' - m, positive on the far ray of the first chart;
    the degree is that k, and it is never negative.
    """
    if edge.is_boundary:
        raise BoundaryEdge(f"edge {edge.rays} has a single chart")
    row, row2 = (fan.ggraphs[ci].row for ci in edge.cones)
    w = fan.carving_vectors[edge.rays]
    i = next(i for i, v in enumerate(w) if v)
    degrees = []
    for r, r2 in zip(row, row2):
        k = (r2[i] - r[i]) // w[i]
        # r' - r must be an integer multiple of w
        if (r2[0] - r[0], r2[1] - r[1], r2[2] - r[2]) != (k * w[0], k * w[1], k * w[2]):
            raise MultiplicityOutOfRange(
                f"generator ratio across {edge.rays} is not a power of the carving ratio"
            )
        if k < 0:
            raise MultiplicityOutOfRange(f"negative tautological degree {k} across {edge.rays}")
        degrees.append(k)
    return degrees

