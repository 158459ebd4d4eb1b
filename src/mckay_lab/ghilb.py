"""G-Hilb fan construction from torus-fixed clusters.

A cluster is a monomial set that is divisibility-closed, contains one
monomial per character, and avoids multiples of xyz.  It is stored as a row,
one monomial per position of group.characters, and checked by the tail
table: each m/x_i must be the representative at the tail of the x_i-arrow
into m's position, which by induction on degree gives both closure and every
representative's character without computing one.

The junior points and the divisor table belong to the group: per junior
point e, n*q(chi, e) is the least (n*e).m over the monomials m of chi, and
the row's sum is the height H(e) (GroupData.divisor_rows and heights).  A
cluster's cone is read off the table (Nakamura; Craw-Reid): with S the sum
of the cluster's monomials, (n*e).S >= H(e) at every junior point, term by
term, with equality exactly when every representative is least on e, that is
when e lies in the cone.  So one integer scan over the junior points finds
the cone's rays as their indices, in lex order; it runs once per cluster and
is kept on it.  All clusters are found from the seed, the group's lifts
x^i y^j (the cluster of a generic weight), by crossing each interior wall (a
ray-index pair) that no second found cone has closed yet: one flip per new
cluster.  A flip moves only some of the representatives; it carries the sum
S forward by the moved amount instead of re-summing the row, and the tail
table is checked only at the moved positions and their heads, where alone a
comparison can change (the seed is checked at every position).  A wall's
carving vector is the dual basis vector of its cone (dual_vector), one cross
product divided exactly by n: the flip and the fan each take it so, and no
monomial's character is looked up.
The fan is then validated as a unimodular triangulation, each chart is
checked against the table at its three rays by the same height identity, and
the fan derives its integer facts once.  The whole path runs on integers: a
cone is its ascending ray-index triple, the `WeightVector`s are output
views, and no `Fraction` is compared.
"""

from __future__ import annotations

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
from .groups import Character, GroupData, Monomial, MONO_ONE, WeightVector, mono_str
from .intlin import cross3, det3, dot3


class GGraph:
    """One monomial per character, divisibility-closed and xyz-free, stored
    as a row: row[k] represents the k-th character of group.characters.  The
    row fixes the monomial set, so it keys the cluster.  A flip passes the
    sum S of its row, carried from the cluster it left, and the positions
    it moved; a fresh row is summed here and checked at every position."""

    def __init__(self, group: GroupData, row, total=None, changed=None):
        self.group = group
        self.row: tuple[Monomial, ...] = tuple(row)
        # the sum S of the monomials: (n*e).S is the chart's height at e
        self.total = tuple(map(sum, zip(*self.row))) if total is None else total
        self._cone_rays: tuple[int, int, int] | None = None  # cone_of_ggraph
        if changed is None:
            self._validate(range(len(self.row)))
        else:
            heads = group.head_rows
            self._validate(set(changed).union(*(heads[k] for k in changed)))

    def representative(self, chi: Character) -> Monomial:
        return self.row[self.group.index[chi]]

    def __eq__(self, other) -> bool:
        return isinstance(other, GGraph) and self.row == other.row

    def __hash__(self) -> int:
        return hash(self.row)

    def __repr__(self) -> str:
        return "{" + ", ".join(mono_str(m) for m in sorted(self.row)) + "}"

    def _validate(self, positions) -> None:
        """At each of the given positions, the representative m must be 1
        exactly at position 0, xyz-free with exponents below n, and each
        m - e_i (m_i > 0) the representative at the tail of the i-arrow into
        m's position.  Over every position, by induction on degree from 1,
        that holds exactly when every representative has its own character
        and the cluster is divisibility-closed; distinct characters then make
        the monomials distinct.  The check at a position reads only it and
        its tails, so after a flip the moved positions and their heads are
        enough."""
        group = self.group
        n = group.order
        row = self.row
        if len(row) != n:
            raise SearchExhausted(f"cluster needs exactly {n} monomials")
        tail_rows = group.tail_rows
        for k in positions:
            m = row[k]
            if (m == MONO_ONE) != (k == 0):
                raise SearchExhausted(
                    f"1 must represent the trivial character alone: "
                    f"{mono_str(m)} represents {group.characters[k]}"
                )
            a, b, c = m
            if a < 0 or b < 0 or c < 0 or (a and b and c):
                raise SearchExhausted(f"representative {m} is not an xyz-free monomial")
            if a >= n or b >= n or c >= n:
                raise SearchExhausted(f"representative {m} has an exponent >= {n}")
            tx, ty, tz = tails = tail_rows[k]
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


class DivisorCoefficients:
    """The fan's check of its charts against group.divisor_rows, run once
    from the fan's constructor; it keeps nothing, and it is a class only so
    that its constructor can be timed.

    Each term (n*e).r_chi of a chart is at least n*q(chi, e), so the chart
    reproduces the row at each of its three rays e exactly when its height
    (n*e).S, S the sum of its cluster, is the row's sum H(e): one product
    per ray, and a mismatch names the first character that differs."""

    def __init__(self, fan: "GHilbFan"):
        group = fan.group
        rows, heights, scaled = group.divisor_rows, group.heights, group.juniors
        for graph, triple in zip(fan.ggraphs, fan.cone_rays):
            for ri in triple:
                e = scaled[ri]
                if dot3(e, graph.total) != heights[ri]:
                    row = rows[ri]
                    k = next(k for k, m in enumerate(graph.row) if dot3(e, m) != row[k])
                    raise InconsistentCharts(
                        f"the chart of {graph} at ray {group.junior_points[ri]} gives n*q "
                        f"{dot3(e, graph.row[k])} for {group.characters[k]}, "
                        f"not {row[k]}"
                    )


class GHilbFan:
    """The validated triangulation of the junior simplex with its cluster charts.

    Its rays are the group's junior points, whose every fact is the group's;
    `rays` is group.junior_points itself, kept only while the benchmark
    reads it off a built fan.  The fan holds what the triangulation adds,
    plain tables never written after: the charts, checked against the
    group's divisor table; the cones, each its ascending ray-index triple,
    cone_rays[k] that of the chart ggraphs[k]; the edges, each its ascending
    ray-index pair, a key of `edges` in ray-pair order whose value is the
    sorted indices of the cones next to it (one on the boundary, two
    inside); and one carving vector per interior edge, positive on the far
    ray of the edge's first cone."""

    def __init__(self, group: GroupData, ggraphs: list[GGraph], cone_rays):
        self.group = group
        self.rays: tuple[WeightVector, ...] = group.junior_points
        scaled = group.juniors
        self.ggraphs = tuple(ggraphs)
        self.cone_rays: tuple[tuple[int, int, int], ...] = tuple(cone_rays)
        self._cone_index = {rays: ci for ci, rays in enumerate(self.cone_rays)}
        pairs: dict[tuple[int, int], list[int]] = {}
        cones_at: list[list[int]] = [[] for _ in scaled]
        for ci, (a, b, c) in enumerate(self.cone_rays):
            for key in ((a, b), (a, c), (b, c)):
                pairs.setdefault(key, []).append(ci)
            for ri in (a, b, c):
                cones_at[ri].append(ci)
        self.edges: dict[tuple[int, int], tuple[int, ...]] = {
            key: tuple(cs) for key, cs in sorted(pairs.items())
        }
        edges_at: list[list[tuple[int, int]]] = [[] for _ in scaled]
        for key in self.edges:
            for ri in key:
                edges_at[ri].append(key)
        self.cones_at_ray = tuple(map(tuple, cones_at))
        self.edges_at_ray = tuple(map(tuple, edges_at))  # each in the order of edges
        self.interior_edges = tuple(key for key, cs in self.edges.items() if len(cs) != 1)
        self._validate()
        DivisorCoefficients(self)
        self.carving_vectors: dict[tuple[int, int], tuple[int, int, int]] = {}
        n = group.order
        for i, j in self.interior_edges:
            a, b, c = self.cone_rays[self.edges[i, j][0]]
            far = a + b + c - i - j  # the first cone's third ray
            self.carving_vectors[i, j] = dual_vector(n, scaled[i], scaled[j], scaled[far])

    # -- lookups ------------------------------------------------------------

    def edge_between(self, i: int, j: int) -> tuple[int, int]:
        """The one lookup from two ray indices to an edge, its ascending
        pair: UnknownCone if they span no edge of the fan."""
        key = (i, j) if i < j else (j, i)
        if key not in self.edges:
            raise UnknownCone(f"rays {key} do not span an edge of the fan")
        return key

    def carving_vector(self, rays) -> tuple[int, int, int]:
        """The carving vector of the edge on a ray-index pair, given in any
        order: UnknownCone for no edge, BoundaryEdge for a boundary one."""
        key = self.edge_between(*rays)
        if key not in self.carving_vectors:
            raise BoundaryEdge(f"edge {key} lies in the boundary of the simplex")
        return self.carving_vectors[key]

    def cone_index(self, rays) -> int:
        """The index of the maximal cone on three rays, given in any order."""
        triple = tuple(sorted(map(self.group.ray_index, rays)))
        if triple not in self._cone_index:
            raise UnknownCone(f"rays {triple} do not span a maximal cone of the fan")
        return self._cone_index[triple]

    # -- validation -----------------------------------------------------------

    def _validate(self) -> None:
        group = self.group
        n = group.order
        scaled = group.juniors
        if len(self.cone_rays) != n:
            raise FanValidationFailed(f"{len(self.cone_rays)} cones for a group of order {n}")
        if len(self._cone_index) != n:
            raise FanValidationFailed("duplicate maximal cones")
        used_rays = {ri for triple in self.cone_rays for ri in triple}
        if used_rays != set(range(len(scaled))):
            raise FanValidationFailed("fan rays do not match the junior points")
        # unimodular: the rays are a basis of L, |det(n*e1, n*e2, n*e3)| = n^2
        for a, b, c in self.cone_rays:
            d = det3((scaled[a], scaled[b], scaled[c]))
            if d == 0:
                raise DegenerateCone(f"the rays of cone {(a, b, c)} are linearly dependent")
            if abs(d) != n * n:
                raise FanValidationFailed(f"non-unimodular cone {(a, b, c)}")
        for (i, j), cones in self.edges.items():
            if len(cones) != (2 if spans_interior_edge(scaled[i], scaled[j]) else 1):
                raise FanValidationFailed(f"edge {(i, j)} is glued by {len(cones)} cones")
        interior = set(group.interior_ray_indices)
        for ri in range(len(scaled)):
            self._validate_link(ri, ri not in interior)

    def _validate_link(self, ray_idx: int, on_boundary: bool) -> None:
        """The triangles around a vertex must close into a disc (or half-disc)."""
        # the link graph: a vertex's degree is the number of cones that hold it
        adjacency: dict[int, list[int]] = {}
        for ci in self.cones_at_ray[ray_idx]:
            a, b, c = self.cone_rays[ci]
            if a == ray_idx:
                a = c
            elif b == ray_idx:
                b = c
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        degrees = [len(nbrs) for nbrs in adjacency.values()]
        if max(degrees) > 2 or degrees.count(1) != (2 if on_boundary else 0):
            raise FanValidationFailed(f"bad vertex link at ray {self.group.junior_points[ray_idx]}")
        # single component: walk the link graph
        seen = set()
        stack = [next(iter(adjacency))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adjacency[v])
        if len(seen) != len(adjacency):
            raise FanValidationFailed(f"disconnected link at {self.group.junior_points[ray_idx]}")


# ---------------------------------------------------------------------------
# seed cluster and cluster enumeration


def seed_ggraph(group: GroupData) -> GGraph:
    """The cluster of the chart containing the generic weight (1, n, n^2), n
    the group order: each character's least monomial there is its lift
    x^i y^j (GroupData.lifts), and a divisor of one is the least of its own
    character.  It is checked at every position."""
    return GGraph(group, group.lifts)


def dual_vector(n: int, e, f, g) -> tuple[int, int, int]:
    """The carving vector t of the wall (e, f) of the cone (e, f, g), all
    three scaled junior points n*e: zero on e and f, and t.g = n.

    The rays of a unimodular cone are a basis of L, so d = det(e, f, g) is
    +-n^2, and t is the dual basis vector n*(e x f)/d: an integer vector of
    M, the cross product divided exactly by n with the sign of d, and
    primitive, since it pairs to 1 with the point g/n of L.
    """
    c0, c1, c2 = cross3(e, f)
    d = c0 * g[0] + c1 * g[1] + c2 * g[2]
    if d == 0:
        raise LowerDimensionalCone(f"wall {(e, f)} is not a facet of a cone with third ray {g}")
    if d != n * n and d != -n * n:
        raise FanValidationFailed(f"non-unimodular cone {(e, f, g)}")
    q = n if d > 0 else -n
    return (c0 // q, c1 // q, c2 // q)


def flip_ggraph(group: GroupData, graph: GGraph, e, f, g) -> GGraph:
    """The cluster of the chart across the wall (e, f) of a cluster's cone,
    g its third ray, all three as scaled junior points n*e.

    Every representative r moves by the largest power k of the wall's
    carving vector t (dual_vector, positive on g) that keeps it a regular
    monomial, k = min r_i // -t_i over the one or two t_i < 0: smaller
    shifts fail to generate on the far chart because t has negative
    valuation there.  The new cluster gets its sum S as the old one plus
    (sum of the k) * t, and is checked only at the positions with k != 0
    and their heads.
    """
    t = dual_vector(group.order, e, f, g)
    negative = [(i, -v) for i, v in enumerate(t) if v < 0]
    if not negative:
        raise SearchExhausted(f"unbounded shift across facet {(e, f)}")
    # t vanishes on two nonnegative rays, so one or two t_i < 0 (one: both
    # pairs below are the same)
    (i, v), (j, w) = negative[0], negative[-1]
    t0, t1, t2 = t
    row = list(graph.row)
    changed = []
    steps = 0  # the sum of the shifts: the new S is the old one plus steps * t
    for p, r in enumerate(row):
        a, b = r[i] // v, r[j] // w
        k = a if a < b else b
        if k:
            row[p] = (r[0] + k * t0, r[1] + k * t1, r[2] + k * t2)
            changed.append(p)
            steps += k
    s0, s1, s2 = graph.total
    return GGraph(group, row, (s0 + steps * t0, s1 + steps * t1, s2 + steps * t2), changed)


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
    scaled = group.juniors
    found: dict[tuple, GGraph] = {}
    open_walls: set[tuple[int, int]] = set()

    def add(graph: GGraph):
        """Keep a found cluster; return its cone and the cone's interior walls."""
        cone = cone_of_ggraph(group, graph)
        found[graph.row] = graph
        if len(found) > n:
            raise SearchExhausted(f"more than {n} clusters reached by wall crossing")
        walls = list(_interior_walls(cone, scaled))
        open_walls.symmetric_difference_update(wall for wall, _ in walls)
        return cone, walls

    seed = seed_ggraph(group)
    queue = [(seed, add(seed)[1])]
    while queue:
        graph, walls = queue.pop()
        for wall, g in walls:
            if wall not in open_walls:
                continue  # closed by a cone found since
            neighbor = flip_ggraph(group, graph, scaled[wall[0]], scaled[wall[1]], scaled[g])
            if neighbor.row in found:
                raise InconsistentCharts(
                    f"the flip across wall {wall} reaches {neighbor}, already found"
                )
            far, far_walls = add(neighbor)
            if wall in open_walls:
                raise InconsistentCharts(
                    f"the flip across wall {wall} reaches {neighbor}, whose cone "
                    f"{far} does not have the wall"
                )
            queue.append((neighbor, far_walls))
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
# the cones of clusters, read off the group's divisor table


def cone_of_ggraph(group: GroupData, graph: GGraph) -> tuple[int, int, int]:
    """The maximal cone whose chart carries the given cluster, as the
    ascending indices of its rays in group.juniors.

    With S the sum of the cluster's monomials, (n*e).S >= H(e) at every
    junior point e, with equality exactly on the cone (see the module
    docstring): the rays are the junior points on that height plane, which
    must be three linearly independent ones.  Extracted once per cluster and
    kept on it, found in the order of group.juniors, which is lex order.
    """
    if graph._cone_rays is None:
        triple = _height_rays(group, graph.total)
        juniors = group.juniors
        if len(triple) != 3 or not det3([juniors[ri] for ri in triple]):
            rays = [group.junior_points[ri] for ri in triple]
            raise LowerDimensionalCone(f"cluster {graph} has the height plane of {rays}")
        graph._cone_rays = tuple(triple)
    return graph._cone_rays


def _height_rays(group: GroupData, total) -> list[int]:
    """The indices of the junior points e with (n*e).total equal to H(e)."""
    sx, sy, sz = total
    return [
        ri
        for ri, ((a, b, c), height) in enumerate(zip(group.juniors, group.heights))
        if a * sx + b * sy + c * sz == height
    ]


def build_fan(group: GroupData) -> GHilbFan:
    """Enumerate all clusters, take their cones, and assemble the validated
    fan, its cones in the lex order of their ray-index triples."""
    ggraphs = enumerate_ggraphs(group)
    cone_rays = [cone_of_ggraph(group, g) for g in ggraphs]
    order = sorted(range(len(ggraphs)), key=cone_rays.__getitem__)
    return GHilbFan(group, [ggraphs[k] for k in order], [cone_rays[k] for k in order])


# ---------------------------------------------------------------------------
# chart data


def chart_generator(fan: GHilbFan, rays, chi: Character) -> Monomial:
    """The monomial generating the chi-eigensheaf on the chart of the cone
    spanned by three rays, given in any order."""
    return fan.ggraphs[fan.cone_index(rays)].representative(chi)


def tautological_degree(fan: GHilbFan, chi: Character, rays) -> int:
    """Degree of the chi tautological bundle on the compact curve of the edge
    on a ray-index pair."""
    return tautological_degrees(fan, rays)[fan.group.index[chi]]


def tautological_degrees(fan: GHilbFan, rays) -> list[int]:
    """Degree of every character's tautological bundle on the compact curve
    of the edge on a ray-index pair, in the order of group.characters:
    UnknownCone for no edge, BoundaryEdge for a boundary one.

    With r, r' the chart generators on the two sides, r'/r = (m'/m)^k for the
    edge's carving vector m' - m, positive on the far ray of the first chart;
    the degree is that k, and it is never negative.
    """
    rays = fan.edge_between(*rays)
    w = fan.carving_vector(rays)
    row, row2 = (fan.ggraphs[ci].row for ci in fan.edges[rays])
    i = next(i for i, v in enumerate(w) if v)
    degrees = []
    for r, r2 in zip(row, row2):
        if r == r2:  # r' - r = 0*w
            degrees.append(0)
            continue
        k = (r2[i] - r[i]) // w[i]
        # r' - r must be an integer multiple of w
        if (r2[0] - r[0], r2[1] - r[1], r2[2] - r[2]) != (k * w[0], k * w[1], k * w[2]):
            raise MultiplicityOutOfRange(
                f"generator ratio across {rays} is not a power of the carving ratio"
            )
        if k < 0:
            raise MultiplicityOutOfRange(f"negative tautological degree {k} across {rays}")
        degrees.append(k)
    return degrees
