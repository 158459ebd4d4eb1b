"""Brute-force reference implementations, independent of the library's
algorithms, used to compute and freeze expected values."""

import json
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd

from mckay_lab.errors import (
    DegenerateCone,
    FanValidationFailed,
    MultiplicityOutOfRange,
    NoOrientationWorks,
    NotInLattice,
    NotInSL3,
    SearchExhausted,
)
from mckay_lab.ghilb import GGraph, dual_vector
from mckay_lab.groups import CORNERS, MONO_ONE, Character, WeightVector, mono_divides, mono_str
from mckay_lab.intlin import cross3, det3, dot3
from mckay_lab.quiver import _classify_pattern
from mckay_lab.serialize import FAN_FORMAT


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*v)
    if g == 0:
        return tuple(v)
    return tuple(a // g for a in v)


def primitive_signed(v):
    """Primitive vector with the first nonzero entry positive."""
    w = primitive(v)
    for a in w:
        if a:
            return w if a > 0 else tuple(-b for b in w)
    return w


def mono_degree(m):
    return m[0] + m[1] + m[2]


def is_invariant(group, m):
    """Whether a (Laurent) monomial has the trivial character."""
    return group.kappa(m).is_trivial


def character_order_by_powers(chi):
    """The order of a character, by multiplying it until the trivial one."""
    k, acc = 1, chi
    while not acc.is_trivial:
        acc, k = acc * chi, k + 1
    return k


def character_power(chi, k):
    """chi^k, residue by residue."""
    return Character(tuple((a * k) % r for a, r in zip(chi.residues, chi.moduli)), chi.moduli)


def character_inverse(chi):
    return character_power(chi, -1)


def character_closure(group):
    """The characters sorted by residues, with the head and tail rows by
    position in them: a walk from the trivial character that multiplies
    every character it reaches by the characters of x, y and z, built from
    the generators' weights and never looked up in the group."""
    moduli = group.moduli
    units = [Character(tuple(w[o] % r for r, w in group.generators), moduli) for o in range(3)]
    heads = {}
    frontier = [Character(tuple(0 for _ in moduli), moduli)]
    while frontier:
        cur = frontier.pop()
        if cur not in heads:
            heads[cur] = [cur * u for u in units]
            frontier.extend(heads[cur])
    characters = tuple(sorted(heads, key=lambda chi: chi.residues))
    position = {chi: k for k, chi in enumerate(characters)}
    head_rows = tuple(tuple(position[h] for h in heads[chi]) for chi in characters)
    tails = [[None] * 3 for _ in characters]
    for k, row in enumerate(head_rows):
        for o, h in enumerate(row):
            tails[h][o] = k
    return characters, head_rows, tuple(map(tuple, tails))


def in_weight_lattice(group, l):
    """Membership in the weight lattice L, the dual of M: l.m is an
    integer for every row m of the M basis."""
    return all(dot3(l, m).denominator == 1 for m in group.invariant_basis)


def age(group, l):
    """Coordinate sum of a fractional weight vector in L with coords in [0,1)."""
    coords = tuple(Fraction(v) for v in l)
    if any(v < 0 or v >= 1 for v in coords):
        raise NotInLattice(f"{l} has coordinates outside [0,1)")
    if not in_weight_lattice(group, coords):
        raise NotInLattice(f"{l} is not in the weight lattice")
    total = sum(coords)
    if total.denominator != 1:
        raise NotInSL3(f"age of {l} is not an integer")
    return int(total)


def cone_is_unimodular(group, rays):
    """True iff the three rays form a Z-basis of L, i.e. |det| = 1/n for
    n = |G|: in integers, |det(n*e1, n*e2, n*e3)| = n^2."""
    if len(rays) != 3:
        raise DegenerateCone(f"expected a 3-cone, got {len(rays)} rays")
    n = group.order
    if any(n % v.denominator for r in rays for v in r.coords):
        return False  # a ray outside (1/n)Z^3 lies outside L
    d = det3([r.scaled(n) for r in rays])
    if d == 0:
        raise DegenerateCone("cone rays are linearly dependent")
    return abs(d) == n * n


def vertex_links_close(cone_rays, boundary):
    """The per-ray link walk the fan's validation once ran, kept as the
    reference for its pairing check: for each ray index of `boundary`, a
    dict to whether the ray lies on the simplex's boundary, the edges
    opposite it in its cones must form one cycle (a disc around it) or, on
    the boundary, one path (a half-disc).  FanValidationFailed names the
    first ray whose link does not."""
    cones_at = {}
    for triple in cone_rays:
        for ri in triple:
            cones_at.setdefault(ri, []).append(triple)
    for ri, on_boundary in boundary.items():
        # the link graph: a vertex's degree is the number of cones that hold it
        adjacency = {}
        for triple in cones_at.get(ri, ()):
            a, b = (v for v in triple if v != ri)
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        degrees = [len(nbrs) for nbrs in adjacency.values()]
        if not degrees or max(degrees) > 2 or degrees.count(1) != (2 if on_boundary else 0):
            raise FanValidationFailed(f"bad vertex link at ray {ri}")
        seen, stack = set(), [next(iter(adjacency))]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adjacency[v])
        if len(seen) != len(adjacency):
            raise FanValidationFailed(f"disconnected link at ray {ri}")


def junior_table_by_fractions(group):
    """The junior points keyed by n*e, by sorting Fraction points: the corners
    plus every element whose coordinates sum to 1."""
    n = group.order
    points = {WeightVector(c) for c in CORNERS}
    points.update(WeightVector(el) for el in group.elements if sum(el) == 1)
    return {p.scaled(n): p for p in sorted(points)}


def parse_fraction(text):
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def canonical_json(payload):
    """Canonical JSON as json itself writes it: sorted keys, two-space
    indent, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reemit(text):
    """Parse serialized JSON and re-emit it canonically (a byte identity)."""
    return canonical_json(json.loads(text))


def fraction_str(value):
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def fan_payload(fan):
    """The fan as plain JSON-ready data, from the fan's own objects."""
    group = fan.group
    n = group.order
    return {
        "format": FAN_FORMAT,
        "group": group.spec_string(),
        "order": n,
        "rays": [
            {
                "coords": [fraction_str(v) for v in ray.coords],
                "corner": n in s,
                "boundary": 0 in s,
            }
            for ray, s in zip(group.junior_points, group.juniors)
        ],
        "cones": [
            {
                "ray_indices": list(fan.cone_rays[ci]),
                "ggraph": {
                    chi.label(): mono_str(m)
                    for chi, m in zip(group.characters, graph.row)
                },
            }
            for ci, graph in enumerate(fan.ggraphs)
        ],
        "edges": [
            {
                "ray_indices": list(rays),
                "adjacent_cones": list(cones),
                "boundary": len(cones) == 1,
            }
            for rays, cones in fan.edges.items()
        ],
    }


# sqrt(3)/2 to six exact decimal digits, the diagrams' rational
ROOT3_HALF = Fraction(866025, 1_000_000)


def fixed_point(value, digits=3):
    """Fixed-point text of an exact rational, rounded down."""
    scale = 10 ** digits
    scaled = Fraction(value) * scale
    whole = scaled.numerator // scaled.denominator  # floor
    sign = "-" if whole < 0 else ""
    whole = abs(whole)
    return f"{sign}{whole // scale}.{whole % scale:0{digits}d}"


def simplex_point(ray):
    """Cartesian position of a junior point inside the triangle with corners
    (0,0), (1,0) and (1/2, sqrt(3)/2), as Fractions."""
    corners = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(1, 2), ROOT3_HALF),
    ]
    x = sum(c * w for (c, _), w in zip(corners, ray.coords))
    y = sum(c * w for (_, c), w in zip(corners, ray.coords))
    return x, y


def svg_point(x, y, size=640, pad=60):
    """The SVG text of a cartesian point of the simplex, y pointing down."""
    span = size - 2 * pad
    return fixed_point(pad + x * span), fixed_point(pad + (ROOT3_HALF - y) * span)


def tikz_point(x, y, scale=8):
    """The TikZ text of a cartesian point of the simplex."""
    return f"({fixed_point(x * scale)},{fixed_point(y * scale)})"


def torus_place(u, v):
    """The cartesian text of a torus position in skew coordinates."""
    return f"{fixed_point(Fraction(2 * u - v, 2))},{fixed_point(v * ROOT3_HALF)}"


def box_monomials(n):
    """xyz-free monomials with exponents < n, by total degree then lex.

    Every divisibility-minimal monomial of a character lies in this box:
    x^n, y^n, z^n and xyz are invariant."""
    pool = [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if min(i, j, k) == 0
    ]
    pool.sort(key=lambda m: (mono_degree(m), m))
    return pool


def minimal_monomials(group):
    """The divisibility-minimal monomials of each character, by box scan."""
    result = {chi: [] for chi in group.characters}
    for m in box_monomials(group.order):  # degree-sorted: divisors come first
        minimal = result[group.kappa(m)]
        if not any(mono_divides(p, m) for p in minimal):
            minimal.append(m)
    return result


def ggraph_inequalities(group, graph):
    """Integer normals a with the cone of the cluster equal to {v >= 0, a.v >= 0}.

    One normal b - r per border monomial b = x_i*m outside the cluster (m in
    the cluster, r the representative of b's character, read off the arrow
    table): every monomial outside the cluster is a multiple of a border
    monomial.  Normals that are nonnegative throughout are implied by the
    octant and dropped; the rest are deduplicated up to positive scaling.
    """
    row, heads = graph.row, group.head_rows
    normals = []
    seen = set()
    for k in sorted(range(len(row)), key=row.__getitem__):
        m = row[k]
        for i, h in enumerate(heads[k]):
            b = (m[0] + (i == 0), m[1] + (i == 1), m[2] + (i == 2))
            r = row[h]
            if r == b:
                continue
            vec = (b[0] - r[0], b[1] - r[1], b[2] - r[2])
            if min(vec) >= 0:
                continue
            key = primitive(vec)
            if key not in seen:
                seen.add(key)
                normals.append(vec)
    return normals


def minimal_monomial_normals(group, graph):
    """A cluster's cone normals m - r over every minimal monomial m of every
    character (r its representative): the cut before border monomials."""
    normals = []
    seen = set()
    for chi, monos in minimal_monomials(group).items():
        r = graph.representative(chi)
        for m in monos:
            vec = (m[0] - r[0], m[1] - r[1], m[2] - r[2])
            if m == r or min(vec) >= 0:
                continue
            key = primitive(vec)
            if key not in seen:
                seen.add(key)
                normals.append(vec)
    return normals


def is_cluster_by_kappa(group, row):
    """The cluster check read off characters: one distinct monomial per
    character, 1 for the trivial one, each xyz-free with exponents < n and
    of its own character by kappa, and every divisor m/x_i inside."""
    n = group.order
    monomials = set(row)
    if len(row) != n or len(monomials) != n:
        return False
    if row[group.index[group.trivial_character]] != MONO_ONE:
        return False
    for chi, m in zip(group.characters, row):
        if group.kappa(m) != chi or min(m) > 0 or max(m) >= n:
            return False
        a, b, c = m
        lowers = ((a - 1, b, c), (a, b - 1, c), (a, b, c - 1))
        if any(m[i] and lowers[i] not in monomials for i in range(3)):
            return False
    return True


def rank_of(vectors) -> int:
    """Rank of a set of integer 3-vectors (at most 3)."""
    vs = [v for v in vectors if any(v)]
    if not vs:
        return 0
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            c = cross3(vs[i], vs[j])
            if any(c):
                for k in range(len(vs)):
                    if dot3(c, vs[k]):
                        return 3
                return 2
    return 1


def extreme_rays_clipped(normals):
    """Extreme rays of {v >= 0} cut by the given halfspaces a.v >= 0.

    The octant meets the plane of the junior simplex in the triangle (1,0,0),
    (0,1,0), (0,0,1); each halfspace clips that polygon along a line, in
    integer homogeneous coordinates.  An edge (p, q) whose ends lie strictly
    on opposite sides gets the new vertex |a.p|*q + |a.q|*p, made primitive;
    vertices on the line are kept.  The result, possibly a segment, a point
    or empty, is returned as a sorted list of primitive rays.
    """
    poly = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for a in normals:
        vals = [dot3(a, p) for p in poly]
        if min(vals) >= 0:
            continue
        clipped = []
        for k, (p, vp) in enumerate(zip(poly, vals)):
            q, vq = poly[k - 1], vals[k - 1]
            if vp * vq < 0:
                cut = primitive(tuple(abs(vp) * x + abs(vq) * y for x, y in zip(q, p)))
                if cut not in clipped:
                    clipped.append(cut)
            if vp >= 0 and p not in clipped:
                clipped.append(p)
        poly = clipped
        if not poly:
            break
    return sorted(poly)


def cone_oracle_scan(fan):
    """Whether every cluster's inequalities (its border normals) hold at
    exactly the junior points of its own cone, by testing every junior
    point against every normal of every cluster."""
    for ci, graph in enumerate(fan.ggraphs):
        normals = ggraph_inequalities(fan.group, graph)
        inside = {
            ri
            for ri, s in enumerate(fan.group.juniors)
            if all(dot3(a, s) >= 0 for a in normals)
        }
        if inside != set(fan.cone_rays[ci]):
            return False
    return True


def cone_oracle_slack_loop(fan):
    """The three-ray cone oracle by one slack list per cluster and ray: every
    arrow (k, o) with head h has slack (n*p).(r_k + e_o - r_h) >= 0 at each
    ray p of the cluster's cone, and each edge of the cone with no
    coordinate zero at both ends has an arrow tight at both ends and
    positive at the third ray."""
    scaled = fan.group.juniors
    columns = tuple(zip(*fan.group.head_rows))  # [o][k]: head of the o-arrow out of k
    for graph, triple in zip(fan.ggraphs, fan.cone_rays):
        rays = [scaled[ri] for ri in triple]
        slacks = []
        for s in rays:
            v = [dot3(s, m) for m in graph.row]
            slack = [vk + so - v[h] for so, col in zip(s, columns) for vk, h in zip(v, col)]
            if min(slack) < 0:
                return False
            slacks.append(slack)
        for i, j, third in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            interior = all(a or b for a, b in zip(rays[i], rays[j]))
            if interior and not any(
                not si and not sj and st
                for si, sj, st in zip(slacks[i], slacks[j], slacks[third])
            ):
                return False
    return True


def junior_point(group, ray):
    """The junior point r/sum(r) of a nonzero nonnegative integer ray r, or
    None when it is not a point of L.

    L meets the junior simplex exactly in the junior points, so r/sum(r) is
    in L exactly when n*r is divisible by sum(r) and the quotient is in
    group.juniors.  The floor quotient suffices: when some entry does not
    divide, the floors sum to less than n, and no scaled junior point does.
    """
    n, total = group.order, sum(ray)
    table = dict(zip(group.juniors, group.junior_points))
    return table.get(tuple(n * v // total for v in ray))


def clipped_cone(group, graph):
    """A cluster's cone rays as junior points, by clipping the octant
    triangle with the cluster's border normals (None for a ray off L)."""
    normals = ggraph_inequalities(group, graph)
    return [junior_point(group, r) for r in extreme_rays_clipped(normals)]


def extreme_rays_dd(normals):
    """Extreme rays of {v >= 0} cut by the halfspaces a.v >= 0, by incremental
    double description: every positive/negative pair of rays is combined, and
    a candidate is kept when the constraints tight at it have rank >= 2.

    When no halfspace cuts the octant, its rays come back in octant order."""
    octant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    seen = []

    def is_extreme(r):
        tight = [a for a in octant + seen if dot3(a, r) == 0]
        return rank_of(tight) >= 2

    for a in normals:
        vals = [dot3(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            seen.append(a)
            continue
        keep = [r for r, v in zip(rays, vals) if v >= 0]
        new = []
        for rp, vp in zip(rays, vals):
            if vp <= 0:
                continue
            for rm, vm in zip(rays, vals):
                if vm >= 0:
                    continue
                new.append(
                    primitive_signed(tuple(vp * x - vm * y for x, y in zip(rm, rp)))
                )
        seen.append(a)
        rays = [
            r
            for r in sorted(set(keep + new))
            if all(dot3(b, r) >= 0 for b in seen) and is_extreme(r)
        ]
    return rays


def invariant_perpendicular(group, e, f):
    """The primitive invariant-lattice vector perpendicular to two scaled
    junior points n*e and n*f, by the group's characters: the primitive
    integer vector u on the line, times the order of its character.  Its
    sign is lexicographic; callers orient it."""
    u = primitive_signed(cross3(e, f))
    order = group.character_order(group.kappa(u))
    return tuple(w * order for w in u)


def stepped_flip(group, graph, e, f, g):
    """The row of representatives across the wall (e, f) of a cluster's cone,
    g its third ray (all scaled junior points n*e): each moves by the wall's
    carving direction t (positive on g) one step at a time, while the next
    step keeps it a regular monomial."""
    n = group.order
    t = invariant_perpendicular(group, e, f)
    if dot3(g, t) < 0:
        t = tuple(-v for v in t)
    shifted = []
    for r in graph.row:
        cur = r
        for _ in range(3 * n + 1):
            nxt = (cur[0] + t[0], cur[1] + t[1], cur[2] + t[2])
            if min(nxt) < 0:
                break
            cur = nxt
        else:
            raise AssertionError(f"unbounded shift across facet {(e, f)}")
        shifted.append(cur)
    return tuple(shifted)


def flip_ggraph(group, graph, e, f, g):
    """The cluster across the wall (e, f) of a cluster's cone, g its third
    ray, all three scaled junior points n*e, by the exponent rule: every
    representative r moves by the largest power k of the wall's carving
    vector t (dual_vector, positive on g) that keeps it a regular monomial,
    k = min r_i // -t_i over the one or two t_i < 0.  The new cluster is
    checked at the positions with k != 0 and their heads."""
    t = dual_vector(group.order, e, f, g)
    negative = [(i, -v) for i, v in enumerate(t) if v < 0]
    if not negative:
        raise SearchExhausted(f"unbounded shift across facet {(e, f)}")
    (i, v), (j, w) = negative[0], negative[-1]
    row = list(graph.row)
    changed = []
    for p, r in enumerate(row):
        k = min(r[i] // v, r[j] // w)
        if k:
            row[p] = tuple(a + k * b for a, b in zip(r, t))
            changed.append(p)
    return GGraph(group, row, tuple(map(sum, zip(*row))), changed)


def height_cone(group, total):
    """The indices of the junior points e where a cluster whose monomials
    sum to `total` meets the heights, (n*e).total = H(e): a scan of every
    junior point."""
    pairs = zip(group.juniors, group.heights)
    return tuple(ri for ri, (s, h) in enumerate(pairs) if dot3(s, total) == h)


def wall_crossing(group):
    """Every cluster's row by its cone, by the exponent-rule flip from the
    seed (the group's lifts): each interior wall of a found cone is crossed
    until a second found cone closes it, and every cluster's cone is a scan
    of the junior points (height_cone).  A flip onto a row already found,
    or onto a cone that has not three rays or not the crossed wall, fails
    an assertion naming the wall."""
    scaled = group.juniors
    found = {}
    open_walls = set()
    pending = []  # (cluster, wall, third ray) for each wall opened

    def add(graph, wall=None):
        cone = height_cone(group, graph.total)
        assert graph.row not in found, f"the flip across {wall} reaches a row already found"
        assert len(cone) == 3 and set(wall or ()) <= set(cone), f"across {wall}: cone {cone}"
        found[graph.row] = cone
        a, b, c = cone
        for edge, g in (((a, b), c), ((a, c), b), ((b, c), a)):
            if all(u or v for u, v in zip(scaled[edge[0]], scaled[edge[1]])):
                if edge in open_walls:
                    open_walls.remove(edge)
                else:
                    open_walls.add(edge)
                    pending.append((graph, edge, g))

    add(GGraph(group, group.lifts))
    while pending:
        graph, (i, j), g = pending.pop()
        if (i, j) in open_walls:
            add(flip_ggraph(group, graph, scaled[i], scaled[j], scaled[g]), (i, j))
    assert len(found) == group.order, f"{len(found)} clusters for order {group.order}"
    return {cone: row for row, cone in found.items()}


def box_least(group, weight):
    """Per character, the least weight.m over the box and a monomial attaining it
    (the first in box order)."""
    best = {}
    for m in box_monomials(group.order):
        chi = group.kappa(m)
        if chi not in best or dot3(weight, m) < best[chi][0]:
            best[chi] = (dot3(weight, m), m)
    return best


def least_valuations_by_heap(group, weight):
    """The least weight.m over the monomials of each character, in the order
    of characters, by Dijkstra with a binary heap over the McKay quiver: an
    o-arrow costs weight[o]."""
    heads = group.head_rows
    least = [None] * group.order
    heap = [(0, 0)]  # the trivial character, at distance 0
    while heap:
        d, k = heappop(heap)
        if least[k] is not None:
            continue
        least[k] = d
        for w, h in zip(weight, heads[k]):
            if least[h] is None:
                heappush(heap, (d + w, h))
    return least


def valuation(e, m):
    """The Q-valuation e(m) of a Laurent monomial along the divisor of the
    junior point e."""
    return Fraction(dot3(e.coords, m))


def divisor_q(fan, chi, ri):
    """The exact q(chi, ray) from the group's integer table n*q."""
    group = fan.group
    return Fraction(group.divisor_rows[ri][group.index[chi]], group.order)


def arrow_order(qa, ri, chi, o):
    """The vanishing order (0 or 1) of the o-arrow out of chi along the ray,
    read off the ray's out-arrow mask."""
    return qa.masks(ri)[0]["xyz".index(o)] >> qa.group.index[chi] & 1


def chart_pairing(group, ray, graph):
    """Arrow orders read off one chart: e_o + e(r_chi) - e(r_chi*kappa_o) for
    every arrow (chi, o), with e the ray's rational weight and r the chart's
    generators."""
    e = ray.coords
    out = {}
    for chi in group.characters:
        for k, o in enumerate("xyz"):
            head = chi * group.kappa(tuple(int(i == k) for i in range(3)))
            out[(chi, o)] = (
                e[k]
                + dot3(e, graph.representative(chi))
                - dot3(e, graph.representative(head))
            )
    return out


def naive_ggraphs(group):
    """Depth-first enumeration over divisibility-closed, one-per-character,
    xyz-free monomial sets (feasible for small orders only)."""
    n = group.order
    pool = box_monomials(n)
    kappa = {m: group.kappa(m) for m in pool}
    suffix = [set() for _ in range(len(pool) + 1)]
    for i in range(len(pool) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | {kappa[pool[i]]}

    found = []
    chosen = {group.trivial_character: MONO_ONE}
    members = {MONO_ONE}

    def closed(m):
        return all(
            tuple(v - (1 if j == i else 0) for j, v in enumerate(m)) in members
            for i in range(3)
            if m[i]
        )

    def extend(start):
        if len(chosen) == n:
            found.append(frozenset(members))
            return
        missing = {c for c in group.characters if c not in chosen}
        for i in range(start, len(pool)):
            if not missing <= suffix[i]:
                return
            m = pool[i]
            chi = kappa[m]
            if chi in chosen or not closed(m):
                continue
            chosen[chi] = m
            members.add(m)
            extend(i + 1)
            del chosen[chi]
            members.discard(m)

    extend(1)
    return found


def fraction_element_closure(gens):
    """The group's elements as Fraction triples in [0,1)^3, by a closure walk
    in Fractions, sorted."""
    zero = (Fraction(0), Fraction(0), Fraction(0))
    seen = {zero}
    frontier = [zero]
    steps = [tuple(Fraction(w, r) for w in weights) for r, weights in gens]
    while frontier:
        cur = frontier.pop()
        for s in steps:
            nxt = tuple((a + b) % 1 for a, b in zip(cur, s))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen))


def in_lattice_by_pairing(group, ray):
    """Whether r/sum(r) lies in L, for a nonzero nonnegative integer ray r:
    it pairs integrally with every vector of the invariant basis."""
    total = sum(ray)
    return not any(dot3(ray, m) % total for m in group.invariant_basis)


def cyclic_juniors(r, weights):
    """Junior points of 1/r(a,b,c) by direct enumeration of group powers."""
    out = set()
    for k in range(1, r):
        coords = tuple(Fraction((k * w) % r, r) for w in weights)
        if sum(coords) == 1:
            out.add(coords)
    return out


def cyclic_junior_count(r, weights):
    """The counting formula: powers whose reduced weights sum to r, plus corners."""
    a, b, c = weights
    interior = sum(
        1
        for k in range(1, r)
        if (k * a) % r + (k * b) % r + (k * c) % r == r
    )
    return interior + 3


def brute_carving_vector(group, e_coords, f_coords, bound):
    """Smallest invariant vector perpendicular to two rays, by box scan."""
    best = None
    for i in range(-bound, bound + 1):
        for j in range(-bound, bound + 1):
            for k in range(-bound, bound + 1):
                v = (i, j, k)
                if v == (0, 0, 0) or not is_invariant(group, v):
                    continue
                if sum(a * b for a, b in zip(e_coords, v)) != 0:
                    continue
                if sum(a * b for a, b in zip(f_coords, v)) != 0:
                    continue
                size = sum(abs(t) for t in v)
                if best is None or size < best[0]:
                    best = (size, v)
    return best[1] if best else None


def product_defect(vectors) -> int:
    """Smallest r' >= 0 with some signing of the vectors summing to (r',r',r'):
    the triangle defect by a search over the four signings up to a global
    sign, blind to the fan's edge orientation."""
    best = None
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)):
        total = tuple(
            sum(s * v[i] for s, v in zip(signs, vectors)) for i in range(3)
        )
        if total[0] == total[1] == total[2]:
            r = abs(total[0])
            if best is None or r < best:
                best = r
    if best is None:
        raise NoOrientationWorks(f"no signing of {vectors} gives a power of xyz")
    return best


def support_h0_scan(fan, qa, chi):
    """The h0 support of one character by a scan of every exceptional ray and
    interior edge, one arrow order at a time."""
    orientations = ("x", "y", "z")
    divisors = []
    for ri in fan.group.exceptional_ray_indices:
        if all(arrow_order(qa, ri, chi, o) for o in orientations):
            divisors.append(ri)
    cells = [("divisor", ri) for ri in divisors]
    chosen = set(divisors)
    for i, j in fan.interior_edges:
        if i in chosen or j in chosen:
            continue  # the curve lies inside an included divisor
        oi = [arrow_order(qa, i, chi, o) for o in orientations]
        oj = [arrow_order(qa, j, chi, o) for o in orientations]
        covered = all(a or b for a, b in zip(oi, oj))
        all_i, all_j = all(oi), all(oj)
        if covered and not all_i and not all_j:
            cells.append(("curve", (min(i, j), max(i, j))))
    return sorted(cells)


def support_h1_scan(fan, qa, chi):
    """The h1 support of one character by a scan of every exceptional ray's
    vertex classes, one vertex at a time."""
    k = fan.group.index[chi]
    return sorted(
        ("divisor", ri)
        for ri in fan.group.exceptional_ray_indices
        if classes_by_vertex(qa.masks(ri), fan.group.order)[k].kind == "source"
    )


def arrow_masks_by_loop(group, ri):
    """(outs, ins) of a ray by a loop over every arrow (k, o), k outer:
    e_o + n*q(k) - n*q(head) along the ray must be 0 or n, and the first
    arrow where it is not raises."""
    n = group.order
    e = group.juniors[ri]
    row = group.divisor_rows[ri]
    outs, ins = [0, 0, 0], [0, 0, 0]
    for k, heads in enumerate(group.head_rows):
        for o, h in enumerate(heads):
            val = e[o] + row[k] - row[h]
            if val == n:
                outs[o] |= 1 << k
                ins[o] |= 1 << h
            elif val:
                raise MultiplicityOutOfRange(
                    f"arrow ({group.characters[k]},{'xyz'[o]}) "
                    f"has multiplicity {val}/{n} along ray {ri}"
                )
    return tuple(outs), tuple(ins)


def quiver_triangles(group):
    """The 2|G| directed 3-cycles, each as its three arrows in path order,
    an arrow being (position of its tail, index of its orientation).

    Every triangle uses one arrow of each orientation; the two chiralities
    contribute |G| cycles each, keyed by the tail of their x-arrow.
    """
    heads = group.head_rows
    triangles = []
    for k, (hx, _, _) in enumerate(heads):
        triangles.append(((k, 0), (hx, 1), (heads[hx][1], 2)))
        triangles.append(((k, 0), (hx, 2), (heads[hx][2], 1)))
    return triangles


def triangles_consistent_by_sum(group, masks):
    """Exactly one vanishing arrow in each quiver triangle, by a sum over the
    three arrows of every triangle, read off the out-masks alone."""
    outs = masks[0]
    return all(
        sum(outs[o] >> k & 1 for k, o in triangle) == 1 for triangle in quiver_triangles(group)
    )


def classes_by_vertex(masks, n):
    """The class of each of the n vertices from its two 3-bit spoke patterns,
    one vertex at a time; the first invalid pattern raises."""
    (x, y, z), (ix, iy, iz) = masks
    return tuple(
        _classify_pattern(
            (x >> k & 1) | (y >> k & 1) << 1 | (z >> k & 1) << 2,
            (ix >> k & 1) | (iy >> k & 1) << 1 | (iz >> k & 1) << 2,
        )
        for k in range(n)
    )


def class_scan(classes):
    """The positions of the sources, (3,0)-sinks, (0,3)-sinks and charges in
    a per-vertex class tuple."""
    return {
        "sources": [k for k, cls in enumerate(classes) if cls.kind == "source"],
        "sink30": [k for k, cls in enumerate(classes) if cls.label() == "(3,0)-sink"],
        "sink03": [k for k, cls in enumerate(classes) if cls.label() == "(0,3)-sink"],
        "charges": [k for k, cls in enumerate(classes) if cls.kind == "charge"],
    }


def multi_curve_divisors_scan(group, curves):
    """Divisor cells of the exceptional rays lying on at least two of the
    curves, by a scan of every exceptional ray."""
    return sorted(
        ("divisor", ri)
        for ri in group.exceptional_ray_indices
        if sum(1 for e in curves if ri in e) >= 2
    )


def is_connected_pairwise(fan, cells):
    """Connectivity of a cell set, two cells meeting when some maximal cone
    holds the rays of both."""
    if not cells:
        return True
    cone_sets = [frozenset(t) for t in fan.cone_rays]

    def rays(cell):
        return {cell[1]} if cell[0] == "divisor" else set(cell[1])

    def meets(c1, c2):
        both = rays(c1) | rays(c2)
        return any(both <= cone for cone in cone_sets)

    remaining = list(cells)
    component = {remaining.pop()}
    grew = True
    while grew and remaining:
        grew = False
        for cell in list(remaining):
            if any(meets(cell, c) for c in component):
                component.add(cell)
                remaining.remove(cell)
                grew = True
    return not remaining


def ratio_is_primitive_pairwise(group, m1, m2):
    """No invariant ratio d1/d2 of divisors d1 | m1, d2 | m2, but for d1 = d2
    and the pair itself, by testing every pair."""

    def divisors(m):
        return [
            (i, j, k)
            for i in range(m[0] + 1)
            for j in range(m[1] + 1)
            for k in range(m[2] + 1)
        ]

    for d1 in divisors(m1):
        for d2 in divisors(m2):
            if (d1, d2) == (m1, m2) or d1 == d2:
                continue
            diff = tuple(x - y for x, y in zip(d1, d2))
            if any(diff) and is_invariant(group, diff):
                return False
    return True


def tautological_degree_single(fan, chi, rays):
    """One character's degree on the curve of the edge on a ray-index pair:
    the k with r' - r = k*w for the chart generators r, r' and the oriented
    carving vector w."""
    ci, cj = fan.edges[rays]
    r = fan.ggraphs[ci].representative(chi)
    r2 = fan.ggraphs[cj].representative(chi)
    if r == r2:
        return 0
    delta = tuple(b - a for a, b in zip(r, r2))
    w = fan.carving_vectors[rays]
    far = [ri for ri in fan.cone_rays[ci] if ri not in rays][0]
    if dot3(fan.group.juniors[far], w) < 0:
        w = tuple(-v for v in w)
    ks = {d // v for d, v in zip(delta, w) if v}
    if len(ks) != 1 or any(d != next(iter(ks)) * v for d, v in zip(delta, w)):
        raise AssertionError(f"generator ratio across {rays} is not a power")
    return ks.pop()


def wall_relation(fan, edge):
    """(a, b, g, g2) for an interior edge (e, f) whose two cones have third
    rays g and g2: the toric wall relation g + g2 = a*e + b*f on the scaled
    rays, with a + b = 2, solved by Cramer's rule over the basis e, f, g."""
    e, f = edge
    (g,), (g2,) = ([ri for ri in fan.cone_rays[ci] if ri not in edge] for ci in fan.edges[edge])
    s = fan.group.juniors
    total = tuple(x + y for x, y in zip(s[g], s[g2]))
    d = det3((s[e], s[f], s[g]))
    a, ra = divmod(det3((total, s[f], s[g])), d)
    b, rb = divmod(det3((s[e], total, s[g])), d)
    if ra or rb or a + b != 2 or total != tuple(a * x + b * y for x, y in zip(s[e], s[f])):
        raise AssertionError(f"no wall relation across {edge}")
    return a, b, g, g2


def table_degrees(fan, edge):
    """Every character's tautological degree on the curve of an interior
    edge, in the order of group.characters, read off the divisor table R
    (entries n*q(chi, e)) and the wall relation alone:
    (a*R[e] + b*R[f] - R[g] - R[g2]) / n, the quotient exact."""
    a, b, g, g2 = wall_relation(fan, edge)
    rows, n = fan.group.divisor_rows, fan.group.order
    degrees = []
    for q_e, q_f, q_g, q_g2 in zip(rows[edge[0]], rows[edge[1]], rows[g], rows[g2]):
        degree, rest = divmod(a * q_e + b * q_f - q_g - q_g2, n)
        if rest:
            raise AssertionError(f"the table degree across {edge} is not an integer")
        degrees.append(degree)
    return degrees
