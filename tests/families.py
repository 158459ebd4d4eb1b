"""Closed-form G-Hilb fans of two cyclic families, written down by hand.

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

The two families are the extremes of the lifts x^i y^j: kappa(x) has order
r in the first and order 1 in the second.
"""

from typing import NamedTuple


class Family(NamedTuple):
    spec: str  # the group, in the 'r:a,b,c' syntax
    rays: list  # every junior point, scaled
    cones: list  # ray triples
    # each line edge (p_k, p_{k+1}), as a sorted pair, with (a, b) such that
    # the third rays g, g' of its two cones have g + g' = a p_k + b p_{k+1}
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
