"""Closed-form G-Hilb fans of three families, written down by hand.

The standard library only, and nothing from mckay_lab, so that they check the
engine at any order without sharing its code.  A point is a junior point e
scaled by the group order r, the integer triple r*e; the corners are
x = (r, 0, 0), y = (0, r, 0) and z = (0, 0, r).

- 1/r(1,1,r-2): the junior points are the corners x, y and the points
  p_k = (k, k, r-2k) for 0 <= k <= r/2, all on one line from p_0 = z.  The
  cones are (x, p_k, p_{k+1}) and (y, p_k, p_{k+1}) along the line, plus
  (x, y, p_K) at its last point p_K when r is odd: r cones.  Across each
  line edge (p_k, p_{k+1}) the third rays x and y satisfy the wall relation
  x + y = (2 - r + 2k) p_k + (r - 2k) p_{k+1}.  Across each spoke (x, p_k)
  or (y, p_k) with 0 < k < K, K = floor(r/2) the last index, the third rays
  are p_{k-1} and p_{k+1}, so g + g' = 2 p_k.  The spokes at p_K are
  interior only when r is odd: the third rays p_{K-1} and y of (x, p_K)
  have g + g' = -x + 3 p_K, and those of (y, p_K) have g + g' = -y + 3 p_K.
- 1/r(0,1,r-1), that is A_{r-1} x C: the junior points are x and
  p_k = (0, k, r-k) for 0 <= k <= r, all on the side x = 0 from p_0 = z to
  p_r = y, and the cones are (x, p_k, p_{k+1}): r cones.  Its line edges lie
  on the boundary, so it has no wall relation of this kind, and its spoke
  relations are not written down.

- Z/m x Z/m, of order r = m^2: the junior points are the m*(i, j, k) with
  i + j + k = m, and the cones are the m^2 triangles of the regular
  tessellation of the simplex by the lines parallel to its sides (Craw-Reid,
  math/9909085): the up triangles a + (e_1, e_2, e_3) for a of sum m - 1 and
  the down triangles b - (e_1, e_2, e_3) for b of sum m + 1, in these unit
  steps.  Each of its 3m(m-1)/2 interior edges is a diagonal of the rhombus
  of its two cones, so their third rays satisfy g + g' = e + f.

The two cyclic families are the extremes of the lifts x^i y^j: kappa(x) has
order r in the first and order 1 in the second.
"""

from typing import NamedTuple


class Family(NamedTuple):
    spec: str  # the group, in the 'r:a,b,c' syntax
    rays: list  # every junior point, scaled
    cones: list  # ray triples
    # each line edge (p_k, p_{k+1}), as a sorted pair, with (a, b) such that
    # the third rays g, g' of its two cones have g + g' = a p_k + b p_{k+1};
    # for Z/m x Z/m each interior edge (e, f), with (1, 1)
    walls: dict
    # each interior spoke from x or y, as a sorted pair (u, v), with (a, b)
    # such that the third rays of its two cones have g + g' = a u + b v
    spokes: dict


def line_family(r: int) -> Family:
    """1/r(1,1,r-2): the cones along the line of the p_k."""
    x, y = (r, 0, 0), (0, r, 0)
    points = [(k, k, r - 2 * k) for k in range(r // 2 + 1)]
    cones, walls, spokes = [], {}, {}
    for k, (p, q) in enumerate(zip(points, points[1:])):
        cones += [(x, p, q), (y, p, q)]
        walls[(p, q)] = (2 - r + 2 * k, r - 2 * k)
    for p in points[1:-1]:  # p < x and y < p
        spokes[(p, x)], spokes[(y, p)] = (2, 0), (0, 2)
    if r % 2:
        cones.append((x, y, points[-1]))
        p = points[-1]
        spokes[(p, x)], spokes[(y, p)] = (3, -1), (-1, 3)
    return Family(f"{r}:1,1,{r - 2}", [x, y] + points, cones, walls, spokes)


def surface_family(r: int) -> Family:
    """1/r(0,1,r-1): the cones from x to the side x = 0."""
    x = (r, 0, 0)
    points = [(0, k, r - k) for k in range(r + 1)]
    cones = [(x, p, q) for p, q in zip(points, points[1:])]
    return Family(f"{r}:0,1,{r - 1}", [x] + points, cones, {}, {})


def square_family(m: int) -> Family:
    """Z/m x Z/m: the up and down triangles of the regular tessellation."""
    def point(i, j, k):
        return (m * i, m * j, m * k)

    cones = []
    for i in range(m + 2):
        for j in range(m + 2 - i):
            k = m - 1 - i - j  # a = (i, j, k) of sum m - 1
            if k >= 0:
                cones.append((point(i + 1, j, k), point(i, j + 1, k), point(i, j, k + 1)))
            k += 2  # b = (i, j, k) of sum m + 1
            if min(i, j, k) >= 1:
                cones.append((point(i - 1, j, k), point(i, j - 1, k), point(i, j, k - 1)))
    walls = {}
    for cone in cones:
        for p in cone:
            edge = tuple(sorted(q for q in cone if q != p))
            if all(u or v for u, v in zip(*edge)):  # off the boundary
                walls[edge] = (1, 1)
    rays = [point(i, j, m - i - j) for i in range(m + 1) for j in range(m + 1 - i)]
    return Family(f"{m}:1,{m - 1},0+{m}:0,1,{m - 1}", rays, cones, walls, {})

