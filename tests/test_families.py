"""The engine's fans against the closed-form families of tests/families.py:
the same cones, the relation of the third rays across every line edge and
every interior spoke, and the fan's carving vector across every interior
edge pairing to +n and -n with the edge's two third rays."""

import pytest

from mckay_lab import build_fan, parse_group_spec

from families import line_family, square_family, surface_family
from oracles import wall_crossing

FAMILIES = [line_family, surface_family]


def edge_thirds(cones):
    """Each edge of the cones, as a sorted point pair, with the sorted third
    rays of the cones that have it."""
    thirds = {}
    for cone in cones:
        for g in cone:
            thirds.setdefault(tuple(sorted(p for p in cone if p != g)), []).append(g)
    return {edge: sorted(gs) for edge, gs in thirds.items()}


def check_family(juniors, cone_rays, family):
    """Fail, naming the edge, where the cones (ray-index triples into the
    scaled junior points) break one of the family's wall or spoke relations
    or leave its cones."""
    assert sorted(juniors) == sorted(family.rays), "the junior points differ"
    got = edge_thirds([[juniors[i] for i in cone] for cone in cone_rays])
    for (p, q), (a, b) in [*family.walls.items(), *family.spokes.items()]:
        thirds = got.get((p, q), [])
        assert len(thirds) == 2, f"edge {(p, q)}: third rays {thirds}, not two"
        total = tuple(map(sum, zip(*thirds)))
        expected = tuple(a * u + b * v for u, v in zip(p, q))
        assert total == expected, f"edge {(p, q)}: g + g' = {total} != {a} p + {b} q"
    want = edge_thirds(family.cones)
    for edge in sorted(got.keys() | want.keys()):
        assert got.get(edge) == want.get(edge), (
            f"edge {edge}: third rays {got.get(edge)}, expected {want.get(edge)}"
        )


def check_carving_vectors(fan):
    """Each interior edge's carving vector t pairs to n with the scaled third
    ray of the edge's first cone and to -n with that of its second."""
    n, scaled = fan.group.order, fan.group.juniors
    assert len(fan.carving_vectors) == len(fan.interior_edges)
    for (i, j), t in fan.carving_vectors.items():
        pairs = []
        for ci in fan.edges[i, j]:
            (g,) = set(fan.cone_rays[ci]) - {i, j}
            pairs.append(sum(a * b for a, b in zip(t, scaled[g])))
        assert pairs == [n, -n], f"edge {(i, j)}: t = {t} pairs to {pairs}"


@pytest.mark.parametrize("r", range(2, 61))
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_build_fan_gives_the_closed_form_fan(family, r):
    fam = family(r)
    group = parse_group_spec(fam.spec)
    fan = build_fan(group)
    check_family(group.juniors, fan.cone_rays, fam)
    check_carving_vectors(fan)


@pytest.mark.parametrize("m", range(2, 9))
def test_build_fan_gives_the_regular_tessellation(m):
    """Z/m x Z/m: m^2 triangles, and g + g' = e + f across each of the
    3m(m-1)/2 interior edges."""
    fam = square_family(m)
    assert len(fam.cones) == m * m and len(fam.walls) == 3 * m * (m - 1) // 2
    group = parse_group_spec(fam.spec)
    fan = build_fan(group)
    check_family(group.juniors, fan.cone_rays, fam)
    check_carving_vectors(fan)


@pytest.mark.parametrize(
    "fam",
    [line_family(r) for r in range(2, 31)]
    + [surface_family(r) for r in range(2, 31)]
    + [square_family(m) for m in range(2, 7)],
    ids=lambda fam: fam.spec,
)
def test_hull_steps_match_the_oracle_wall_crossing_on_the_families(fam):
    """The oracle's wall crossing (the exponent-rule flip and a scan per
    cluster) gives the fan's cones and chart rows on the three families."""
    group = parse_group_spec(fam.spec)
    fan = build_fan(group)
    assert wall_crossing(group) == {
        cone: graph.row for cone, graph in zip(fan.cone_rays, fan.ggraphs)
    }


def test_the_line_family_has_a_wall_relation_on_every_line_edge():
    """r//2 line edges, from the corner z on: 900 relations for r <= 60."""
    assert all(len(line_family(r).walls) == r // 2 for r in range(2, 61))
    assert sum(len(line_family(r).walls) for r in range(2, 61)) == 900


def test_the_line_family_has_a_spoke_relation_on_every_interior_spoke():
    """r - 2 spokes from x and y for even r, r - 1 for odd r: 1740 relations
    for 3 <= r <= 60."""
    assert all(len(line_family(r).spokes) == r - 2 + r % 2 for r in range(3, 61))
    assert sum(len(line_family(r).spokes) for r in range(3, 61)) == 1740


@pytest.mark.parametrize(
    "family, r, k, far",
    [
        # (x, p_k, p_{k+1}) -> (y, p_k, p_{k+1}), so the edge's third rays are y twice
        (line_family, 9, 2, lambda r, k: (0, r, 0)),
        (line_family, 12, 0, lambda r, k: (0, r, 0)),
        (line_family, 12, 5, lambda r, k: (0, r, 0)),
        # (x, p_k, p_{k+1}) -> (p_{k+2}, p_k, p_{k+1})
        (surface_family, 7, 3, lambda r, k: (0, k + 2, r - k - 2)),
    ],
)
def test_a_moved_third_ray_fails_and_names_its_edge(family, r, k, far):
    """Move the third ray x of the fan's cone at the line edge (p_k, p_{k+1})."""
    fam = family(r)
    group = parse_group_spec(fam.spec)
    juniors = group.juniors
    index = {p: i for i, p in enumerate(juniors)}
    _, p, q = fam.cones[(2 if fam.walls else 1) * k]
    cone = tuple(sorted(index[v] for v in ((r, 0, 0), p, q)))
    moved = tuple(sorted(index[v] for v in (far(r, k), p, q)))
    cone_rays = list(build_fan(group).cone_rays)
    cone_rays[cone_rays.index(cone)] = moved
    with pytest.raises(AssertionError) as caught:
        check_family(juniors, cone_rays, fam)
    assert str(caught.value).startswith(f"edge {(p, q)}: ")


@pytest.mark.parametrize("r, k", [(9, 0), (9, 3), (12, 5)])
def test_a_moved_wall_coefficient_fails_and_names_its_edge(r, k):
    fam = line_family(r)
    group = parse_group_spec(fam.spec)
    edge = list(fam.walls)[k]
    a, b = fam.walls[edge]
    fam.walls[edge] = (a + 1, b)
    with pytest.raises(AssertionError) as caught:
        check_family(group.juniors, build_fan(group).cone_rays, fam)
    assert str(caught.value).startswith(f"edge {edge}: g + g'")


@pytest.mark.parametrize("r, k", [(9, 0), (9, 6), (9, 7), (12, 9)])
def test_a_moved_spoke_coefficient_fails_and_names_its_edge(r, k):
    """Spokes 6 and 7 of r = 9 are (x, p_4) and (y, p_4), at the last
    point of odd r."""
    fam = line_family(r)
    group = parse_group_spec(fam.spec)
    edge = list(fam.spokes)[k]
    a, b = fam.spokes[edge]
    fam.spokes[edge] = (a, b + 1)
    with pytest.raises(AssertionError) as caught:
        check_family(group.juniors, build_fan(group).cone_rays, fam)
    assert str(caught.value).startswith(f"edge {edge}: g + g'")


@pytest.mark.parametrize("m, k", [(4, 0), (4, 11), (6, 30)])
def test_a_moved_square_wall_coefficient_fails_and_names_its_edge(m, k):
    fam = square_family(m)
    group = parse_group_spec(fam.spec)
    edge = list(fam.walls)[k]
    fam.walls[edge] = (1, 2)
    with pytest.raises(AssertionError) as caught:
        check_family(group.juniors, build_fan(group).cone_rays, fam)
    assert str(caught.value).startswith(f"edge {edge}: g + g'")
