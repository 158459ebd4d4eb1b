"""G-Hilb fan construction from the group's divisor table.

A cluster is a monomial set that is divisibility-closed, contains one
monomial per character, and avoids multiples of xyz.  It is stored as a row,
one monomial per position of group.characters, and checked by the tail
table: each m/x_i must be the representative at the tail of the x_i-arrow
into m's position, which by induction on degree gives both closure and every
representative's character without computing one.

The divisor table belongs to the group: per junior point e, n*q(chi, e) is
the least (n*e).m over the monomials m of chi, and the row's sum is the
height H(e) (GroupData.divisor_rows and heights).  With S the sum of a
cluster's monomials, (n*e).S >= H(e) term by term, with equality exactly on
the cluster's cone (Nakamura; Craw-Reid, math/9909085): the fan is the
regular triangulation cut by the heights, each cone a face of the upper hull
of the lifted junior points (e, H(e)).  The seed, the group's lifts x^i y^j,
finds its cone by one scan of the junior points for the plane of its S.
Every other cluster is reached, with its cone, by a hull step (cross_wall)
across an interior wall (a ray-index pair) that no second found cone has
closed yet: the far ray is read off the heights along one lattice line, and
each representative moves by the multiple of the wall's carving vector
(dual_vector, the cone's dual basis vector) that the table's row there
fixes.  The step carries S forward by the moved amount, and the tail table
is checked only at the moved positions and their heads, where alone a
comparison can change.  The glue counts and the +-n pairings of carving
vectors then certify the triangulation, each chart is checked against the
table at its three rays, and the fan derives its integer facts once.  The
whole path runs on integers: a cone is its ascending ray-index triple, the
`WeightVector`s are output views, no `Fraction` is compared and no
monomial's character is looked up.
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
    as a row: row[k] represents the k-th character of group.characters.  A
    hull step passes the sum S of its row, carried from the cluster it left,
    and the positions it moved; a fresh row is summed and fully checked."""

    def __init__(self, group: GroupData, row, total=None, changed=None):
        self.group = group
        self.row: tuple[Monomial, ...] = tuple(row)
        # the sum S of the monomials: (n*e).S is the chart's height at e
        self.total = tuple(map(sum, zip(*self.row))) if total is None else total
        self._cone_rays: tuple[int, int, int] | None = None  # kept by cone_of_ggraph
        if changed is None:
            self._validate(range(len(self.row)))
        else:
            heads = group.head_rows
            self._validate(set(changed).union(*(heads[k] for k in changed)))

    def representative(self, chi: Character) -> Monomial:
        return self.row[self.group.index[chi]]

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
        its tails, so after a hull step the moved positions and their heads are
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
    per ray, and a mismatch names the first character that differs, or,
    where every term is the row's, the height that is not the row's sum."""

    def __init__(self, fan: "GHilbFan"):
        group = fan.group
        rows, heights, scaled = group.divisor_rows, group.heights, group.juniors
        for graph, triple in zip(fan.ggraphs, fan.cone_rays):
            for ri in triple:
                e = scaled[ri]
                if dot3(e, graph.total) != heights[ri]:
                    point, row = group.junior_points[ri], rows[ri]
                    for k, m in enumerate(graph.row):
                        if dot3(e, m) != row[k]:
                            raise InconsistentCharts(
                                f"the chart of {graph} at ray {point} gives n*q "
                                f"{dot3(e, m)} for {group.characters[k]}, not {row[k]}"
                            )
                    raise InconsistentCharts(
                        f"the height {heights[ri]} at ray {point} is not its row's sum {sum(row)}"
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
    inside); and one carving vector per interior edge, n on the far ray of
    the edge's first cone and -n, checked, on the second's."""

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
        self.carving_vectors: dict[tuple[int, int], tuple[int, int, int]] = {}
        self._validate()
        DivisorCoefficients(self)

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
        """The cones tile the simplex: n distinct unimodular ones on every ray,
        one on each boundary edge, two on opposite sides of each interior one
        (carving_vectors, filled here), so the count over a point is constant,
        and n cones of |det| n^2 fill the simplex's n^3 once."""
        n, scaled = self.group.order, self.group.juniors
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
        # t.g = n on the first cone's third ray g, so -n on g2 by g + g2 = a*e + b*f
        for i, j in self.interior_edges:
            g, g2 = (sum(self.cone_rays[ci]) - i - j for ci in self.edges[i, j])
            t = self.carving_vectors[i, j] = dual_vector(n, scaled[i], scaled[j], scaled[g])
            if dot3(t, scaled[g2]) != -n:
                raise FanValidationFailed(f"the two cones on edge {(i, j)} lie on one side of it")


# ---------------------------------------------------------------------------
# the seed cluster and the hull steps


def seed_ggraph(group: GroupData) -> GGraph:
    """The cluster of the chart containing the generic weight (1, n, n^2), n
    the group order: each character's least monomial there is its lift
    x^i y^j (GroupData.lifts), and a divisor of one is the least of its own
    character."""
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


def cross_wall(group: GroupData, graph: GGraph, wall, g: int) -> GGraph:
    """The hull step: the cluster, with its cone, across the interior wall
    (i, j) of a found cluster's cone (i, j, g), all ray indices.

    The far cone is unimodular, so its third ray is on the lattice line
    G_b = e + f - g + b*(e - f) of scaled points: the G_b that maximises
    H(G_b) - b*(H(e) - H(f)), concave in b (H is a sum of minima of linear
    functions), found by a walk uphill from b = 0 or the nearest b in the
    octant; a tie raises.  The wall's carving vector t (dual_vector) is -n
    on G_b, so each representative r moves by k*t, n*k = G.r - n*q(chi, G)
    at the far ray G: the new chart meets the table's row there term by
    term, at e and f it is the old one's, and a k not whole and >= 0 raises."""
    n, scaled, heights, index = group.order, group.juniors, group.heights, group._ray_index
    i, j = wall
    t0, t1, t2 = dual_vector(n, scaled[i], scaled[j], scaled[g])
    (e0, e1, e2), (f0, f1, f2), (h0, h1, h2) = scaled[i], scaled[j], scaled[g]
    c0, c1, c2, d0, d1, d2 = e0 + f0 - h0, e1 + f1 - h1, e2 + f2 - h2, e0 - f0, e1 - f1, e2 - f2
    # the b that keep G_b in the octant, never none: a unimodular triangulation of
    # the junior points beyond the wall has a triangle on it, its third ray on the line
    lo = max(-(c // d) for c, d in ((c0, d0), (c1, d1), (c2, d2)) if d > 0)
    hi = min(c // -d for c, d in ((c0, d0), (c1, d1), (c2, d2)) if d < 0)
    slope = heights[i] - heights[j]

    def ray(b):  # the index of G_b, None off the octant
        return index.get((c0 + b * d0, c1 + b * d1, c2 + b * d2))

    b = min(max(0, lo), hi)
    far = ray(b)
    best = heights[far] - b * slope
    for s in (1, -1):  # uphill, up or down
        while (up := ray(b + s)) is not None and (value := heights[up] - (b + s) * slope) >= best:
            if value == best:
                raise InconsistentCharts(f"the heights tie on the far side of wall {wall}")
            b, far, best = b + s, up, value
    x, y, z = scaled[far]
    row = list(graph.row)
    changed = []
    steps = 0  # the sum of the k: the new S is the old one plus steps * t
    for p, ((r0, r1, r2), q) in enumerate(zip(graph.row, group.divisor_rows[far])):
        gap = x * r0 + y * r1 + z * r2 - q
        if gap:
            k, rest = divmod(gap, n)
            if rest or k < 0:
                raise InconsistentCharts(
                    f"across wall {wall} the representative of {group.characters[p]} "
                    f"moves by {gap}/{n} carving vectors, not a whole number >= 0"
                )
            row[p] = (r0 + k * t0, r1 + k * t1, r2 + k * t2)
            changed.append(p)
            steps += k
    s0, s1, s2 = graph.total
    neighbor = GGraph(group, row, (s0 + steps * t0, s1 + steps * t1, s2 + steps * t2), changed)
    neighbor._cone_rays = tuple(sorted((i, j, far)))
    return neighbor


def enumerate_ggraphs(group: GroupData) -> list[GGraph]:
    """All torus-fixed clusters, by hull steps from the seed, in the order
    found, each with its cone.

    An interior wall (an edge off the octant's boundary, a ray-index pair)
    is open from the first found cone that has it until the second; a
    cluster steps only across its walls still open, so |G| clusters take
    |G| - 1 steps, and the dual graph is connected, so no wall stays open.
    The clusters are keyed by their cones: a step onto a cone already found
    raises InconsistentCharts naming the wall.
    """
    n = group.order
    scaled = group.juniors
    found: dict[tuple[int, int, int], GGraph] = {}
    open_walls: set[tuple[int, int]] = set()

    def add(graph: GGraph, wall=None):
        """Keep a found cluster; return its cone's interior walls and third rays."""
        cone = cone_of_ggraph(group, graph)
        if cone in found:
            raise InconsistentCharts(f"the step across wall {wall} reaches {cone}, already found")
        found[cone] = graph
        if len(found) > n:
            raise SearchExhausted(f"more than {n} clusters reached by wall crossing")
        a, b, c = cone
        walls = [
            ((i, j), g)
            for i, j, g in ((a, b, c), (a, c, b), (b, c, a))
            if spans_interior_edge(scaled[i], scaled[j])
        ]
        open_walls.symmetric_difference_update(wall for wall, _ in walls)
        return walls

    seed = seed_ggraph(group)
    queue = [(seed, add(seed))]
    while queue:
        graph, walls = queue.pop()
        for wall, g in walls:
            if wall not in open_walls:
                continue  # closed by a cone found since
            neighbor = cross_wall(group, graph, wall, g)
            queue.append((neighbor, add(neighbor, wall)))
    if len(found) != n:
        raise SearchExhausted(f"found {len(found)} clusters, expected {n}")
    return list(found.values())


def spans_interior_edge(e, f) -> bool:
    """Whether two scaled junior points n*e, n*f span an edge off the
    octant's boundary: no coordinate vanishes on both."""
    return bool((e[0] or f[0]) and (e[1] or f[1]) and (e[2] or f[2]))


def cone_of_ggraph(group: GroupData, graph: GGraph) -> tuple[int, int, int]:
    """The maximal cone whose chart carries the given cluster, as the
    ascending indices of its rays in group.juniors.

    A hull step keeps the cone it found on its cluster.  Any other cluster
    (the seed) is scanned once: its rays are the junior points e with
    (n*e).S = H(e), S the sum of its monomials (the module docstring), which
    must be three linearly independent ones, found in lex order."""
    if graph._cone_rays is None:
        sx, sy, sz = graph.total
        juniors = group.juniors
        triple = [
            ri
            for ri, ((a, b, c), height) in enumerate(zip(juniors, group.heights))
            if a * sx + b * sy + c * sz == height
        ]
        if len(triple) != 3 or not det3([juniors[ri] for ri in triple]):
            rays = [group.junior_points[ri] for ri in triple]
            raise LowerDimensionalCone(f"cluster {graph} has the height plane of {rays}")
        graph._cone_rays = tuple(triple)
    return graph._cone_rays


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
