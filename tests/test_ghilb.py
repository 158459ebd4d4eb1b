import json
import random
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mckay_lab import (
    WeightVector,
    build_fan,
    chart_generator,
    cone_of_ggraph,
    enumerate_ggraphs,
    group_from_generators,
    parse_group_spec,
    tautological_degree,
)
from mckay_lab.errors import (
    BoundaryEdge,
    FanValidationFailed,
    InconsistentCharts,
    LowerDimensionalCone,
    McKayLabError,
    SearchExhausted,
    UnknownCone,
)
from mckay_lab.ghilb import (
    GGraph,
    GHilbFan,
    cross_wall,
    dual_vector,
    seed_ggraph,
)
from mckay_lab.groups import GroupData
from mckay_lab.intlin import det3, dot3

from conftest import SQUARE_PRODUCTS, sl3_cyclic, small_groups
from oracles import (
    box_least,
    clipped_cone,
    divisor_q,
    extreme_rays_clipped,
    extreme_rays_dd,
    flip_ggraph,
    ggraph_inequalities,
    height_cone,
    invariant_perpendicular,
    is_cluster_by_kappa,
    minimal_monomial_normals,
    naive_ggraphs,
    stepped_flip,
    vertex_links_close,
    wall_crossing,
)


def monoset(graph):
    return frozenset(graph.row)


def test_enumerate_ggraphs_examples(p3, p4, trivial_group):
    sets3 = {monoset(g) for g in enumerate_ggraphs(p3.group)}
    assert sets3 == {
        frozenset({(0, 0, 0), (1, 0, 0), (2, 0, 0)}),
        frozenset({(0, 0, 0), (0, 1, 0), (0, 2, 0)}),
        frozenset({(0, 0, 0), (0, 0, 1), (0, 0, 2)}),
    }
    sets4 = {monoset(g) for g in enumerate_ggraphs(p4.group)}
    assert sets4 == {
        frozenset({(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)}),
        frozenset({(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0)}),
        frozenset({(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)}),
        frozenset({(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)}),
    }
    triv = enumerate_ggraphs(trivial_group)
    assert len(triv) == 1 and monoset(triv[0]) == {(0, 0, 0)}


@settings(max_examples=25, deadline=None)
@given(sl3_cyclic(10))
def test_wall_crossing_matches_naive_search(gen):
    """The production enumeration agrees with the brute-force staircase DFS."""
    group = group_from_generators([gen])
    ours = {frozenset(g.row) for g in enumerate_ggraphs(group)}
    assert ours == set(naive_ggraphs(group))


@pytest.mark.parametrize("spec", ["13:1,5,7", "6:1,2,3", "4:1,3,0+4:0,1,3"])
def test_each_interior_wall_is_crossed_once(monkeypatch, spec):
    """The enumeration makes one hull step per new cluster: |G| - 1 steps,
    on distinct walls, each an interior edge of the fan."""
    from mckay_lab import ghilb

    walls = []
    original = ghilb.cross_wall

    def counted(group, graph, wall, g):
        walls.append(wall)
        return original(group, graph, wall, g)

    monkeypatch.setattr(ghilb, "cross_wall", counted)
    group = parse_group_spec(spec)
    fan = build_fan(group)
    assert len(walls) == len(set(walls)) == group.order - 1
    assert set(walls) <= set(fan.interior_edges)


def test_flip_to_a_found_cluster_is_inconsistent(monkeypatch, p13):
    """A hull step that leads back to a cone already found (here the cluster
    it left) is refused, naming the wall."""
    from mckay_lab import ghilb

    monkeypatch.setattr(ghilb, "cross_wall", lambda group, graph, wall, g: graph)
    found = r"the step across wall \(\d+, \d+\) reaches .* already found"
    with pytest.raises(InconsistentCharts, match=found):
        build_fan(p13.group)


def far_line_neighbour(group, fan):
    """An interior wall (i, j) of the fan, the cone ci on one side with its
    third ray g, and a junior point next to the far ray on the wall's
    lattice line, with its step b off the far ray."""
    scaled = group.juniors
    for (i, j), (ci, cj) in ((w, fan.edges[w]) for w in fan.interior_edges):
        (g,) = set(fan.cone_rays[ci]) - {i, j}
        (far,) = set(fan.cone_rays[cj]) - {i, j}
        for b in (1, -1):
            point = tuple(u + b * (v - w) for u, v, w in zip(scaled[far], scaled[i], scaled[j]))
            if point in group._ray_index:
                return (i, j), ci, g, far, group._ray_index[point], b
    raise AssertionError("no wall with a second junior point on its far line")


def test_a_tie_on_the_far_line_is_inconsistent(monkeypatch):
    """Heights under which two junior points on a wall's far line both
    maximise H(G_b) - b*(H(e) - H(f)) cut no triangulation: the hull step
    refuses them, naming the wall."""
    group = parse_group_spec("13:1,5,7")
    fan = build_fan(group)
    wall, ci, g, far, other, b = far_line_neighbour(group, fan)
    heights = list(group.heights)
    heights[other] = heights[far] + b * (heights[wall[0]] - heights[wall[1]])
    monkeypatch.setitem(group.__dict__, "heights", tuple(heights))
    with pytest.raises(InconsistentCharts, match=rf"tie .* wall \({wall[0]}, {wall[1]}\)"):
        cross_wall(group, fan.ggraphs[ci], wall, g)


def test_a_shift_off_the_lattice_is_inconsistent(monkeypatch):
    """A table entry at the far ray moved by one gives a shift k that is not
    a whole number of carving vectors: the hull step refuses it, naming the
    character and the wall."""
    group = parse_group_spec("13:1,5,7")
    fan = build_fan(group)
    wall, ci, g, far, _, _ = far_line_neighbour(group, fan)
    rows = list(group.divisor_rows)
    rows[far] = (rows[far][0],) + tuple(q + 1 for q in rows[far][1:])
    monkeypatch.setitem(group.__dict__, "divisor_rows", tuple(rows))
    chi = group.characters[1]
    with pytest.raises(InconsistentCharts, match=rf"wall \({wall[0]}, {wall[1]}\) .* {chi} .*/13"):
        cross_wall(group, fan.ggraphs[ci], wall, g)


@pytest.mark.parametrize("spec", ["13:1,5,7", "4:1,3,0+4:0,1,3"])
def test_cone_rays_are_the_fan_rays(spec):
    """Every cone's rays are the group's own junior points, object for object."""
    group = parse_group_spec(spec)
    fan = build_fan(group)
    points = group.junior_points
    assert all(
        fan.rays[ri] is points[ri] and group.ray_index(points[ri]) == ri
        for triple in fan.cone_rays
        for ri in triple
    )


def square_products(test):
    """Run a property on every Z/m x Z/m of SQUARE_PRODUCTS as well."""
    for spec in SQUARE_PRODUCTS:
        test = example(parse_group_spec(spec))(test)
    return test


@settings(max_examples=25, deadline=None)
@given(small_groups)
@square_products
def test_a_cone_is_its_ray_index_triple(group):
    """The k-th cluster's cone, extracted afresh, is fan.cone_rays[k];
    cone_index finds k from its three rays in each order, and the chart on
    them generates every character by the cluster's representative."""
    fan = build_fan(group)
    for k, graph in enumerate(fan.ggraphs):
        assert cone_of_ggraph(group, GGraph(group, graph.row)) == fan.cone_rays[k]
        rays = [fan.rays[ri] for ri in fan.cone_rays[k]]
        assert [fan.cone_index(order) for order in permutations(rays)] == [k] * 6
        rays.reverse()
        assert [chart_generator(fan, rays, chi) for chi in group.characters] == [
            graph.representative(chi) for chi in group.characters
        ]


class Scanned(tuple):
    """The heights, counting the scans over all of them."""

    scans = 0

    def __iter__(self):
        Scanned.scans += 1
        return tuple.__iter__(self)


@pytest.mark.parametrize("spec", ["13:1,5,7", "6:1,2,3", "4:1,3,0+4:0,1,3"])
def test_each_cone_is_extracted_once(monkeypatch, spec):
    """build_fan asks for each cluster's cone twice but scans the heights
    once, for the seed: every other cone comes with its hull step."""
    from mckay_lab import ghilb

    group = parse_group_spec(spec)
    monkeypatch.setitem(group.__dict__, "heights", Scanned(group.heights))
    calls = []
    cone_of_ggraph_ = ghilb.cone_of_ggraph

    def counted(group, graph):
        calls.append(graph)
        return cone_of_ggraph_(group, graph)

    monkeypatch.setattr(ghilb, "cone_of_ggraph", counted)
    Scanned.scans = 0
    fan = build_fan(group)
    assert len(calls) == 2 * group.order and Scanned.scans == 1
    assert all(cone_of_ggraph(group, g) is c for g, c in zip(fan.ggraphs, fan.cone_rays))


def test_seed_ggraph_is_a_cluster(p13):
    graph = seed_ggraph(p13.group)
    assert len(frozenset(graph.row)) == 13


@settings(max_examples=30, deadline=None)
@given(small_groups)
def test_seed_ggraph_is_the_box_argmin(group):
    """The z-free seed search finds the (1, n, n^2)-minimizer of the whole box."""
    n = group.order
    best = box_least(group, (1, n, n * n))
    assert seed_ggraph(group).row == tuple(best[chi][1] for chi in group.characters)


@pytest.mark.parametrize("spec", ["12:0,1,11", "30:0,1,29", "4:0,2,2", "3:1,2,0+3:0,1,2"])
def test_seed_row_is_the_first_xy_monomial_of_each_character(spec):
    """The seed's row is the first x^i y^j of each character in (j, i) order,
    and building it never reads the arrow table: the row is the group's
    lifts, read off residues when the group is built."""

    class Counted(list):
        reads = 0

        def __getitem__(self, k):
            Counted.reads += 1
            return list.__getitem__(self, k)

    group = parse_group_spec(spec)
    n = group.order
    first = {}
    for j in range(n):
        for i in range(n):
            first.setdefault(group.index[group.kappa((i, j, 0))], (i, j, 0))
    group.head_rows = Counted(group.head_rows)
    assert seed_ggraph(group).row == tuple(first[k] for k in range(n))
    assert Counted.reads == 0


def power(i, a):
    """The monomial v^a for v the i-th variable."""
    return tuple(a if j == i else 0 for j in range(3))


@pytest.mark.parametrize("i", range(3))
def test_swapped_representatives_are_rejected(p3, i):
    """{1, v, v^2} is a cluster of 1/3(1,1,1) for each variable v; with v and
    v^2 swapped it stays closed, but each has the other's character, which
    only the tail comparison in v's own coordinate sees."""
    one, v, v2 = (power(i, a) for a in range(3))
    assert GGraph(p3.group, (one, v, v2)).row == (one, v, v2)
    with pytest.raises(SearchExhausted, match="is not the representative"):
        GGraph(p3.group, (one, v2, v))


@pytest.mark.parametrize("i", range(3))
def test_unclosed_representative_is_rejected(p3, i):
    """In {1, v, v^2}, w^2 (w the next variable) has the character of v^2,
    but its divisor w is not in the cluster."""
    w2 = power((i + 1) % 3, 2)
    with pytest.raises(SearchExhausted, match="is not the representative"):
        GGraph(p3.group, (power(i, 0), power(i, 1), w2))


def single_entry_perturbations(row, n, positions=None):
    """Rows with one entry (at one of the given positions, by default any)
    moved by one step in a coordinate, or replaced by a pure power v^a with
    a < n."""
    for k in range(len(row)) if positions is None else positions:
        m = row[k]
        moved = {power(i, a) for i in range(3) for a in range(n)}
        for i in range(3):
            for d in (-1, 1):
                moved.add(tuple(v + d * (j == i) for j, v in enumerate(m)))
        for other in sorted(moved - {m}):
            if min(other) >= 0:
                yield row[:k] + (other,) + row[k + 1 :]


def accepted(group, row):
    try:
        GGraph(group, row)
    except SearchExhausted:
        return False
    return True


@settings(max_examples=20, deadline=None)
@given(small_groups)
@example(parse_group_spec("3:1,1,1"))
@example(parse_group_spec("13:1,5,7"))
@example(parse_group_spec("3:1,2,0+3:0,1,2"))
def test_tail_check_matches_kappa_and_closure(group):
    """On every cluster and every single-entry perturbation of it, the check
    by the tail table accepts exactly what kappa plus closure accepts."""
    for graph in enumerate_ggraphs(group):
        assert is_cluster_by_kappa(group, graph.row)
        for row in single_entry_perturbations(graph.row, group.order):
            assert accepted(group, row) == is_cluster_by_kappa(group, row), row


def build_flips(monkeypatch, group):
    """Build the fan, returning every hull step it made as (cluster, neighbor)."""
    from mckay_lab import ghilb

    flips = []
    original = ghilb.cross_wall

    def recorded(group, graph, wall, g):
        flips.append((graph, original(group, graph, wall, g)))
        return flips[-1][1]

    monkeypatch.setattr(ghilb, "cross_wall", recorded)
    build_fan(group)
    monkeypatch.undo()
    return flips


def delta_accepted(group, row, changed):
    try:
        GGraph(group, row, None, changed)
    except SearchExhausted:
        return False
    return True


def check_flip_deltas(group, graph, neighbor):
    """The hull step's delta check accepts each single-entry perturbation at a
    changed position or at a head of one (the perturbed position joins the
    delta) exactly when kappa plus closure does."""
    n = group.order
    changed = [k for k in range(n) if graph.row[k] != neighbor.row[k]]
    assert changed and neighbor.total == tuple(map(sum, zip(*neighbor.row)))
    heads = sorted(set(changed).union(*(group.head_rows[k] for k in changed)))
    for p in heads:
        for row in single_entry_perturbations(neighbor.row, n, [p]):
            expected = is_cluster_by_kappa(group, row)
            assert delta_accepted(group, row, changed + [p]) == expected, (p, row[p])


FLIP_GROUPS = ["13:1,5,7", "24:1,1,22", "72:1,1,70", "8:1,7,0+8:0,1,7"]


@pytest.mark.parametrize("spec", FLIP_GROUPS[:2])
def test_delta_check_matches_kappa_and_closure_on_every_flip(monkeypatch, spec):
    group = parse_group_spec(spec)
    flips = build_flips(monkeypatch, group)
    assert len(flips) == group.order - 1
    for graph, neighbor in flips:
        check_flip_deltas(group, graph, neighbor)


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(FLIP_GROUPS[2:]), st.data())
def test_delta_check_matches_kappa_and_closure_on_large_flips(spec, data):
    """On the larger groups every changed position and head of a drawn hull
    step: all their steps would make about 774k perturbed rows, each an
    O(n) oracle call."""
    group = parse_group_spec(spec)
    with pytest.MonkeyPatch.context() as monkeypatch:
        flips = build_flips(monkeypatch, group)
    check_flip_deltas(group, *data.draw(st.sampled_from(flips)))


@pytest.mark.parametrize("spec", FLIP_GROUPS)
def test_build_checks_every_position_only_for_the_seed(monkeypatch, spec):
    """A build runs the all-positions check once, on the seed; each hull
    step checks exactly the positions where its row differs from the
    cluster it left, and their heads."""
    group = parse_group_spec(spec)
    seed = seed_ggraph(group).row
    checked = {}
    validate = GGraph._validate

    def recorded(self, positions):
        checked[self.row] = positions
        return validate(self, positions)

    monkeypatch.setattr(GGraph, "_validate", recorded)
    flips = build_flips(monkeypatch, group)
    assert [row for row, positions in checked.items() if isinstance(positions, range)] == [seed]
    assert len(checked) == group.order
    for graph, neighbor in flips:
        changed = [k for k in range(group.order) if graph.row[k] != neighbor.row[k]]
        assert checked[neighbor.row] == set(changed).union(*(group.head_rows[k] for k in changed))


@pytest.mark.parametrize("at_head", [False, True])
def test_flip_fault_on_its_delta_is_exhausted(monkeypatch, at_head):
    """A stepped row corrupted at its first changed position, or at the
    first head of a changed position outside the delta (which then joins
    it), fails the build."""
    from mckay_lab import ghilb

    group = parse_group_spec("13:1,5,7")

    class Faulty(GGraph):
        def __init__(self, group, row, total=None, changed=None):
            if changed is not None:
                row, p = list(row), changed[0]
                if at_head:
                    heads = (h for k in changed for h in group.head_rows[k])
                    p = next(h for h in heads if h not in changed)
                    changed = changed + [p]
                a, b, c = row[p]
                row[p] = (a + 1, b, c) if not (b and c) else (a, b + 1, c)
            super().__init__(group, row, total, changed)

    monkeypatch.setattr(ghilb, "GGraph", Faulty)
    with pytest.raises(SearchExhausted):
        build_fan(group)


def test_a_fan_one_cluster_short_fails_the_count():
    fan = build_fan(parse_group_spec("7:1,2,4"))
    with pytest.raises(FanValidationFailed, match="^6 cones for a group of order 7$"):
        GHilbFan(fan.group, fan.ggraphs[:-1], fan.cone_rays[:-1])


def test_a_search_that_opens_no_wall_fails_the_count(monkeypatch):
    from mckay_lab import ghilb

    monkeypatch.setattr(ghilb, "spans_interior_edge", lambda e, f: False)
    with pytest.raises(SearchExhausted, match="^found 1 clusters, expected 7$"):
        enumerate_ggraphs(parse_group_spec("7:1,2,4"))


def test_a_search_past_n_clusters_fails_the_count(monkeypatch):
    """One patch of cone_of_ggraph: every cone it returns equals only
    itself, so no step is seen to reach a found cone, and every other one
    is reversed, so a wall one side opens as (i, j) the other side does not
    close as (j, i) and is crossed again."""
    from mckay_lab import ghilb

    class Unseen(tuple):
        __hash__ = object.__hash__
        __eq__ = object.__eq__

    calls = []
    original = ghilb.cone_of_ggraph

    def patched(group, graph):
        calls.append(graph)
        cone = original(group, graph)
        return Unseen(cone[::-1] if len(calls) % 2 else cone)

    monkeypatch.setattr(ghilb, "cone_of_ggraph", patched)
    with pytest.raises(SearchExhausted, match="^more than 7 clusters reached by wall crossing$"):
        enumerate_ggraphs(parse_group_spec("7:1,2,4"))


@pytest.mark.parametrize("spec", ["13:1,5,7", "4:1,3,0+4:0,1,3"])
def test_fan_build_makes_no_kappa_call(monkeypatch, spec):
    """Stepped clusters are checked by the tail table, the seed's cone is the
    height scan and every other the hull step's, and every carving vector is
    a cone's dual basis vector: building the fan asks no monomial for its
    character."""
    group = parse_group_spec(spec)
    callers = []
    kappa = GroupData.kappa

    def counted(self, m):
        callers.append(sys._getframe(1).f_code.co_name)
        return kappa(self, m)

    monkeypatch.setattr(GroupData, "kappa", counted)
    build_fan(group)
    assert callers == []


@settings(max_examples=20, deadline=None)
@given(small_groups)
def test_border_cones_match_minimal_monomial_cones(group):
    """Border monomials cut every cluster's cone exactly as the minimal
    monomials of every character do."""
    for graph in enumerate_ggraphs(group):
        assert extreme_rays_clipped(ggraph_inequalities(group, graph)) == extreme_rays_clipped(
            minimal_monomial_normals(group, graph)
        )


@settings(max_examples=30, deadline=None)
@given(small_groups)
@example(parse_group_spec("2:1,1,0+2:0,1,1"))
@example(parse_group_spec("3:1,2,0+3:0,1,2"))
@example(parse_group_spec("4:1,3,0+4:0,1,3"))
@example(parse_group_spec("5:1,4,0+5:0,1,4"))
@example(parse_group_spec("6:1,5,0+6:0,1,5"))
@example(parse_group_spec("72:1,1,70"))  # zero-weight arrows on the boundary rays
def test_height_cones_match_clipped_cones(group):
    """The junior points on a cluster's height plane are the corners that
    clipping the octant triangle by its border normals leaves."""
    points = group.junior_points
    for graph in enumerate_ggraphs(group):
        cone = cone_of_ggraph(group, GGraph(group, graph.row))
        clipped = clipped_cone(group, graph)
        assert len(clipped) == 3 and {points[ri] for ri in cone} == set(clipped)


@st.composite
def normal_lists(draw):
    """Short lists of small integer normals, some drawn twice; a zero entry
    makes a normal vanish on a vertex of the octant triangle."""
    bound = draw(st.sampled_from([1, 2, 3, 5]))
    entry = st.integers(min_value=-bound, max_value=bound)
    normals = draw(st.lists(st.tuples(entry, entry, entry), max_size=7))
    if normals:
        for vec in draw(st.lists(st.sampled_from(normals), max_size=2)):
            normals.insert(draw(st.integers(0, len(normals))), vec)
    return normals


@settings(max_examples=400, deadline=None)
@given(normal_lists())
@example([])  # nothing cuts
@example([(0, 0, 0), (2, 1, 2), (2, 1, 2)])  # nothing cuts, twice over
@example([(1, -1, 0)])  # vanishes on the vertex (0, 0, 1)
@example([(1, -1, 0), (1, -1, 0), (0, 1, -1)])  # repeated, then a cut through a vertex
@example([(1, -1, 0), (-1, 1, 0)])  # a segment
@example([(-1, 0, 0), (0, -1, 0)])  # a point
@example([(-1, 0, 0), (0, -1, 0), (0, 0, -1)])  # empty
@example([(1, 1, -1), (-1, 1, 1), (1, -1, 1)])  # the medial triangle
@example([(2, -1, 0), (0, 2, -1), (-1, 0, 2)])  # an interior triangle
def test_clipping_matches_double_description(normals):
    """Clipping the octant triangle finds the rays double description finds,
    sorted, for degenerate and empty cuts too."""
    assert extreme_rays_clipped(normals) == sorted(extreme_rays_dd(normals))


@settings(max_examples=20, deadline=None)
@given(small_groups)
def test_clipping_matches_double_description_on_clusters(group):
    for graph in enumerate_ggraphs(group):
        normals = ggraph_inequalities(group, graph)
        assert extreme_rays_clipped(normals) == sorted(extreme_rays_dd(normals))


def test_cone_extraction_makes_no_kappa_call(monkeypatch, p13, p33):
    """The height scan reads the divisor table, which Dijkstra builds over
    the arrow table, and the sum of the cluster's own representatives."""

    def refuse(self, m):
        raise AssertionError("kappa called during cone extraction")

    for pipe in (p13, p33):
        fresh = [GGraph(pipe.group, g.row) for g in pipe.fan.ggraphs]
        with monkeypatch.context() as patch:
            patch.setattr(GroupData, "kappa", refuse)
            cones = [cone_of_ggraph(pipe.group, g) for g in fresh]
        assert cones == list(pipe.fan.cone_rays)


@pytest.mark.parametrize("points", [2, 4])
def test_height_plane_off_three_points_is_rejected(monkeypatch, points):
    """A cluster whose height plane holds two junior points (one ray's
    height raised by one) or four (a point off the cone given the cluster's
    own height there) cuts no cone of the fan."""
    group = parse_group_spec("13:1,5,7")
    graph = build_fan(group).ggraphs[0]
    chart = [dot3(s, graph.total) for s in group.juniors]  # the cluster's heights
    ri = next(ri for ri, h in enumerate(group.heights) if (chart[ri] == h) == (points == 2))
    moved = list(group.heights)
    moved[ri] = chart[ri] + (points == 2)
    monkeypatch.setattr(group, "heights", tuple(moved))
    assert len(height_cone(group, graph.total)) == points
    with pytest.raises(LowerDimensionalCone, match="height plane"):
        cone_of_ggraph(group, GGraph(group, graph.row))


@settings(max_examples=20, deadline=None)
@given(small_groups)
def test_flip_matches_stepping(group):
    """Across every interior facet, from either side, the hull step (the
    shift read off the table at the far ray), the oracle's exponent rule
    k = min r_i // -t_i, and stepping by t until the next step leaves the
    octant move the cluster to the same row, and the step to the other
    cone."""
    fan = build_fan(group)
    for edge in fan.interior_edges:
        e, f = (group.juniors[ri] for ri in edge)
        for ci, cj in (fan.edges[edge], fan.edges[edge][::-1]):
            (gi,) = set(fan.cone_rays[ci]) - set(edge)
            g = group.juniors[gi]
            stepped = stepped_flip(group, fan.ggraphs[ci], e, f, g)
            assert flip_ggraph(group, fan.ggraphs[ci], e, f, g).row == stepped
            step = cross_wall(group, fan.ggraphs[ci], edge, gi)
            assert step.row == stepped == fan.ggraphs[cj].row
            assert cone_of_ggraph(group, step) == fan.cone_rays[cj]


@settings(max_examples=20, deadline=None)
@given(small_groups)
@example(parse_group_spec("72:1,1,70"))
@example(parse_group_spec("8:1,7,0+8:0,1,7"))
@example(parse_group_spec("4:0,2,2"))
def test_dual_vectors_are_the_invariant_perpendiculars(group):
    """The closed-form carving vector of every interior wall of every cone
    is the primitive invariant vector perpendicular to the wall, found by
    the group's characters, oriented positive on the cone's third ray; the
    fan's table holds it oriented on the far ray of the edge's first cone."""
    fan = build_fan(group)
    n, scaled = group.order, group.juniors

    def oriented(i, j, g):
        t = invariant_perpendicular(group, scaled[i], scaled[j])
        return t if dot3(scaled[g], t) > 0 else tuple(-v for v in t)

    for triple in fan.cone_rays:
        for i, j in combinations(triple, 2):
            if (i, j) in fan.carving_vectors:
                (g,) = set(triple) - {i, j}
                assert dual_vector(n, scaled[i], scaled[j], scaled[g]) == oriented(i, j, g)
    for (i, j), t in fan.carving_vectors.items():
        (g,) = set(fan.cone_rays[fan.edges[i, j][0]]) - {i, j}
        assert t == oriented(i, j, g)


def test_dual_vector_guards(p3):
    """On 1/3(1,1,1): a third ray in the wall's plane is no cone, in the
    hull step as well, and the corner cone (x, y, z), with |det| = 27, not
    9, is not unimodular."""
    center, x, y, z = (1, 1, 1), (3, 0, 0), (0, 3, 0), (0, 0, 3)
    with pytest.raises(LowerDimensionalCone, match="is not a facet of a cone"):
        dual_vector(3, y, z, y)
    ci, yi = (p3.group._ray_index[p] for p in (center, y))
    with pytest.raises(LowerDimensionalCone, match="is not a facet of a cone"):
        cross_wall(p3.group, p3.fan.ggraphs[0], (ci, yi), ci)
    with pytest.raises(FanValidationFailed, match="non-unimodular cone"):
        dual_vector(3, x, y, z)


@pytest.mark.parametrize(
    "cones, on_boundary, message",
    [
        ([(0, 1, 2), (0, 2, 3), (0, 3, 1)], False, None),  # a disc
        ([(0, 1, 2), (0, 2, 3)], True, None),  # a half-disc
        ([(0, 1, 2), (0, 2, 3)], False, "bad vertex link"),  # an interior path
        ([(0, 1, 2), (0, 2, 3), (0, 3, 1)], True, "bad vertex link"),  # a boundary cycle
        ([(0, 1, 2), (0, 1, 3), (0, 1, 4)], True, "bad vertex link"),  # an edge in three cones
        ([(0, 1, 2), (0, 2, 3), (0, 3, 1), (0, 4, 5), (0, 5, 6), (0, 6, 4)], False,
         "disconnected link"),
    ],
)
def test_vertex_links_must_close(cones, on_boundary, message):
    """In the reference walk, the cones at a vertex, here ray 0, must form
    one cycle of link vertices around an interior vertex and one path around
    a boundary one."""
    if message is None:
        vertex_links_close(cones, {0: on_boundary})
    else:
        with pytest.raises(FanValidationFailed, match=message):
            vertex_links_close(cones, {0: on_boundary})


def cone_faults(group, cone_rays, rng, count):
    """`count` seeded faults of a fan's cone list, the four kinds in turn:
    one cone replaced by a random unimodular one, the two cones on an
    interior edge by the other diagonal of their quadrilateral, one ray of a
    cone moved to a random ray, and two cones replaced by random unimodular
    ones."""
    n, scaled = group.order, group.juniors
    rays = range(len(scaled))
    sides = {}  # an edge's cones, each with its third ray
    for ci, (a, b, c) in enumerate(cone_rays):
        for edge, g in (((a, b), c), ((a, c), b), ((b, c), a)):
            sides.setdefault(edge, []).append((ci, g))
    quads = [(edge, pair) for edge, pair in sides.items() if len(pair) == 2]

    def unimodular():
        a, b = rng.sample(rays, 2)
        thirds = [c for c in rays if abs(det3((scaled[a], scaled[b], scaled[c]))) == n * n]
        return tuple(sorted((a, b, rng.choice(thirds or rays))))

    for k in range(count):
        cones = list(cone_rays)
        if k % 4 == 0:
            cones[rng.randrange(n)] = unimodular()
        elif k % 4 == 1 and quads:
            (i, j), ((ci, g), (cj, g2)) = rng.choice(quads)
            cones[ci], cones[cj] = tuple(sorted((i, g, g2))), tuple(sorted((j, g, g2)))
        elif k % 4 == 2:
            ci = rng.randrange(n)
            triple = list(cones[ci])
            triple[rng.randrange(3)] = rng.choice(rays)
            cones[ci] = tuple(sorted(triple))
        else:
            for ci in rng.sample(range(n), min(2, n)):
                cones[ci] = unimodular()
        yield cones


def fan_check(group, cones):
    """The error GHilbFan's triangulation checks raise on a cone list, or
    None; its charts are placeholders, read only after those checks."""
    try:
        GHilbFan(group, [None] * len(cones), cones)
    except McKayLabError as exc:
        return exc
    return None


def boundary_flags(group):
    return {ri: 0 in e for ri, e in enumerate(group.juniors)}


def test_the_pairing_rejects_a_cone_list_exactly_when_the_link_walk_did(monkeypatch):
    """On every group of the byte manifest, seeded faults of the fan's cone
    list: the fan rejects one exactly when its other guards or the old per-ray
    link walk (oracles.vertex_links_close) reject it.  In this sample a fault
    that passes the other guards is a triangulation (a flip of a convex
    quadrilateral), which both accept; the fold of
    test_two_cones_on_one_side_of_an_interior_edge_are_rejected, which passes
    them too, is added, and both reject it."""
    monkeypatch.setattr("mckay_lab.ghilb.DivisorCoefficients", lambda fan: None)
    rng = random.Random(20)
    verdicts = {"accepted": 0, "by the other guards": 0, "by the pairing": 0}
    for spec in MANIFEST_GROUPS:
        group = parse_group_spec(spec)
        faults = list(cone_faults(group, build_fan(group).cone_rays, rng, 16))
        if spec == FOLD_SPEC:
            faults.append(fold_cones())
        for cones in faults:
            error = fan_check(group, cones)
            if error is not None and "one side" not in str(error):
                verdicts["by the other guards"] += 1
                continue
            try:
                vertex_links_close(cones, boundary_flags(group))
            except FanValidationFailed:
                assert error is not None, (spec, cones)
                verdicts["by the pairing"] += 1
            else:
                assert error is None, (spec, cones, error)
                verdicts["accepted"] += 1
    assert min(verdicts.values()) > 0, verdicts


# 1/20(1,3,16): five unimodular parallelograms of junior points, no two
# sharing an edge, every edge off the boundary, together on all 14 rays
FOLD_SPEC = "20:1,3,16"
FOLD_PARALLELOGRAMS = ((1, 4, 5, 7), (5, 6, 8, 9), (0, 7, 8, 12), (2, 3, 9, 10), (2, 7, 11, 13))


def fold_cones():
    """Each parallelogram taken with both diagonals: four cones, each edge
    in two of them, both on one side of each of its four sides."""
    return sorted(t for quad in FOLD_PARALLELOGRAMS for t in combinations(quad, 3))


def test_two_cones_on_one_side_of_an_interior_edge_are_rejected():
    """The fold passes every guard but the pairing: 20 distinct unimodular
    cones on every ray, two on each edge, none on the boundary.  The first
    interior edge's carving vector pairs to +n with both its third rays, and
    the fan names that edge.  The link walk rejected it at a corner, whose
    link is a cycle."""
    group = parse_group_spec(FOLD_SPEC)
    cones = fold_cones()
    assert len(set(cones)) == group.order
    assert {ri for t in cones for ri in t} == set(range(len(group.juniors)))
    with pytest.raises(FanValidationFailed, match=r"cones on edge \(0, 7\) lie on one side"):
        GHilbFan(group, [None] * len(cones), cones)
    with pytest.raises(FanValidationFailed, match="bad vertex link at ray 0"):
        vertex_links_close(cones, boundary_flags(group))


def test_unbounded_flip_is_exhausted(p3):
    """In the oracle's exponent-rule flip, a carving vector with no negative
    entry exhausts the search: in 1/3(1,1,1) the boundary wall (y, z), with
    the centre as third ray, has t = (3, 0, 0).  So does a shift that leaves
    no cluster (here a one-monomial row across the wall (centre, y) of the
    cone with z).  The hull step crosses interior walls only, where e + f
    is positive in every coordinate, so t always has a negative entry."""
    from types import SimpleNamespace

    center, y, z = (1, 1, 1), (0, 3, 0), (0, 0, 3)
    graph = p3.fan.ggraphs[0]
    assert dual_vector(3, y, z, center) == (3, 0, 0)
    with pytest.raises(SearchExhausted, match="unbounded shift"):
        flip_ggraph(p3.group, graph, y, z, center)
    assert dual_vector(3, center, y, z) == (-1, 0, 1)
    far = SimpleNamespace(row=((3 * 3 + 1, 0, 0),), total=(3 * 3 + 1, 0, 0))
    with pytest.raises(SearchExhausted, match="exactly 3 monomials"):
        flip_ggraph(p3.group, far, center, y, z)


def coords_of(group, triple):
    points = group.junior_points
    return {points[ri].coords for ri in triple}


def test_cone_of_ggraph_examples(p3, p4, trivial_group):
    def cone_for(pipe, monomials):
        graph = next(
            g for g in pipe.fan.ggraphs if monoset(g) == monomials
        )
        return coords_of(pipe.group, cone_of_ggraph(pipe.group, graph))

    f = Fraction
    assert cone_for(p3, {(0, 0, 0), (1, 0, 0), (2, 0, 0)}) == {
        (f(1, 3), f(1, 3), f(1, 3)),
        (0, 1, 0),
        (0, 0, 1),
    }
    assert cone_for(p4, {(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)}) == {
        (f(1, 4), f(1, 4), f(1, 2)),
        (f(1, 2), f(1, 2), 0),
        (0, 1, 0),
    }
    graph = enumerate_ggraphs(trivial_group)[0]
    assert coords_of(trivial_group, cone_of_ggraph(trivial_group, graph)) == {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    }


def test_build_fan_examples(p3, p4, p13):
    assert len(p3.fan.cone_rays) == 3
    assert len(p13.fan.cone_rays) == 13 and len(p13.fan.rays) == 9
    f = Fraction
    p = (f(1, 4), f(1, 4), f(1, 2))
    q = (f(1, 2), f(1, 2), f(0))
    expected = {
        frozenset({p, q, (1, 0, 0)}),
        frozenset({p, q, (0, 1, 0)}),
        frozenset({p, (1, 0, 0), (0, 0, 1)}),
        frozenset({p, (0, 1, 0), (0, 0, 1)}),
    }
    got = {frozenset(coords_of(p4.group, triple)) for triple in p4.fan.cone_rays}
    assert {frozenset(map(tuple, s)) for s in got} == {
        frozenset(map(tuple, s)) for s in expected
    }


def test_chart_generator_examples(p3, p4):
    f = Fraction
    cone3 = next(
        [p3.fan.rays[ri] for ri in c]
        for c in p3.fan.cone_rays
        if coords_of(p3.group, c) == {(f(1, 3), f(1, 3), f(1, 3)), (0, 1, 0), (0, 0, 1)}
    )
    assert chart_generator(p3.fan, cone3, p3.chi(1)) == (1, 0, 0)
    assert chart_generator(p3.fan, cone3, p3.chi(0)) == (0, 0, 0)
    cone4 = next(
        [p4.fan.rays[ri] for ri in c]
        for c in p4.fan.cone_rays
        if coords_of(p4.group, c) == {(f(1, 4), f(1, 4), f(1, 2)), (f(1, 2), f(1, 2), 0), (0, 1, 0)}
    )
    assert chart_generator(p4.fan, cone4, p4.chi(2)) == (0, 0, 1)
    with pytest.raises(UnknownCone):
        chart_generator(
            p4.fan,
            (
                WeightVector((Fraction(1), Fraction(0), Fraction(0))),
                WeightVector((Fraction(0), Fraction(1), Fraction(0))),
                WeightVector((Fraction(0), Fraction(0), Fraction(1))),
            ),
            p4.chi(0),
        )


def test_divisor_coefficients_examples(p3, p4):
    center = p3.ray((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    assert divisor_q(p3.fan, p3.chi(1), center) == Fraction(1, 3)
    assert all(divisor_q(p3.fan, p3.chi(0), ri) == 0 for ri in range(len(p3.fan.rays)))
    p = p4.ray((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    assert divisor_q(p4.fan, p4.chi(3), p) == Fraction(3, 4)


@pytest.mark.parametrize("delta", [1, -1, 13, -13])
def test_a_height_off_its_row_sum_is_inconsistent(monkeypatch, delta):
    """A height that is not its row's sum, with every chart term equal to the
    row, names the ray, the height and the row's sum."""
    group = parse_group_spec("13:1,5,7")
    fan = build_fan(group)
    ri = fan.cone_rays[0][0]
    heights = list(group.heights)
    heights[ri] += delta
    monkeypatch.setitem(group.__dict__, "heights", tuple(heights))
    point, total = group.junior_points[ri], sum(group.divisor_rows[ri])
    with pytest.raises(InconsistentCharts) as caught:
        GHilbFan(group, fan.ggraphs, fan.cone_rays)
    assert str(caught.value) == (
        f"the height {total + delta} at ray {point} is not its row's sum {total}"
    )


FAULT_GROUPS = ["13:1,5,7", "12:1,1,10", "24:1,1,22", "3:1,2,0+3:0,1,2", "30:1,7,22", "79:1,11,67"]


@pytest.mark.parametrize("spec", FAULT_GROUPS)
def test_a_height_moved_off_its_row_fails_the_build(monkeypatch, spec):
    """Each height moved by +-1 or +-n, the rows kept, fails the build with
    a guard of the library, never a bare StopIteration or a fan."""
    group = parse_group_spec(spec)
    n, heights = group.order, group.heights
    for ri in range(len(heights)):
        for delta in (1, -1, n, -n):
            moved = heights[:ri] + (heights[ri] + delta,) + heights[ri + 1:]
            monkeypatch.setitem(group.__dict__, "heights", moved)
            with pytest.raises(McKayLabError):
                build_fan(group)


@pytest.mark.parametrize("spec", FAULT_GROUPS)
def test_a_fault_in_one_table_entry_fails_the_build(monkeypatch, spec):
    """A divisor-table entry moved by +-1 or +-n, the heights kept as the
    rows' sums, fails the build with a guard of the library: twenty entries
    drawn per move and group, seeded by the group."""
    group = parse_group_spec(spec)
    n, rows = group.order, group.divisor_rows
    cells = [(ri, k) for ri in range(len(rows)) for k in range(n)]
    rng = random.Random(spec)
    for delta in (1, -1, n, -n):
        for ri, k in rng.sample(cells, 20):
            row = rows[ri][:k] + (rows[ri][k] + delta,) + rows[ri][k + 1:]
            faulty = rows[:ri] + (row,) + rows[ri + 1:]
            monkeypatch.setitem(group.__dict__, "divisor_rows", faulty)
            monkeypatch.setitem(group.__dict__, "heights", tuple(map(sum, faulty)))
            with pytest.raises(McKayLabError):
                build_fan(group)


def by_cone(fan):
    """The fan's chart rows keyed by their cones."""
    return {cone: graph.row for cone, graph in zip(fan.cone_rays, fan.ggraphs)}


MANIFEST_GROUPS = json.loads(
    (Path(__file__).parent / "golden" / "manifest.json").read_text()
)["groups"]


def test_hull_steps_match_the_oracle_wall_crossing_on_the_manifest():
    """On every group of the byte manifest, the oracle's wall crossing (the
    exponent-rule flip and a scan per cluster) gives the fan's cones and
    rows."""
    for spec in MANIFEST_GROUPS:
        group = parse_group_spec(spec)
        assert wall_crossing(group) == by_cone(build_fan(group)), spec


@settings(max_examples=40, deadline=None)
@given(small_groups)
@square_products
def test_hull_steps_match_the_oracle_wall_crossing(group):
    assert wall_crossing(group) == by_cone(build_fan(group))


def test_disagreeing_charts_are_rejected(p13):
    """Swapping the clusters of the two cones on an interior edge leaves the
    cones valid but makes the charts at a far ray disagree on q."""
    ci, cj = p13.fan.edges[p13.fan.interior_edges[0]]
    ggraphs = list(p13.fan.ggraphs)
    ggraphs[ci], ggraphs[cj] = ggraphs[cj], ggraphs[ci]
    with pytest.raises(InconsistentCharts):
        GHilbFan(p13.group, ggraphs, p13.fan.cone_rays)


def test_tautological_degree_examples(p3, p4):
    f = Fraction
    edge3 = p3.edge((f(1, 3), f(1, 3), f(1, 3)), (0, 0, 1))
    assert tautological_degree(p3.fan, p3.chi(1), edge3) == 1
    assert tautological_degree(p3.fan, p3.chi(0), edge3) == 0
    edge4 = p4.edge((f(1, 4), f(1, 4), f(1, 2)), (0, 0, 1))
    assert tautological_degree(p4.fan, p4.chi(1), edge4) == 1
    boundary = p4.edge((f(1, 2), f(1, 2), 0), (1, 0, 0))
    with pytest.raises(BoundaryEdge):
        tautological_degree(p4.fan, p4.chi(1), boundary)


def test_fan_derives_its_index_tuples_once(p13):
    """The group derives its exceptional and interior rays, and the fan its
    interior edges, once each."""
    group, fan = p13.group, p13.fan
    assert group.exceptional_ray_indices is group.exceptional_ray_indices
    assert group.exceptional_ray_indices == tuple(
        i for i, r in enumerate(group.junior_points) if not r.is_corner
    )
    assert group.interior_ray_indices == tuple(
        i for i, r in enumerate(group.junior_points) if not r.is_boundary
    )
    assert fan.interior_edges is fan.interior_edges
    assert fan.interior_edges == tuple(e for e, cones in fan.edges.items() if len(cones) != 1)


def test_edges_at_ray_match_a_scan(p13, p33):
    for fan in (p13.fan, p33.fan):
        for ri in range(len(fan.rays)):
            assert list(fan.edges_at_ray[ri]) == [e for e in fan.edges if ri in e]


def test_fan_edges_and_boundary_flags(p4):
    interior = p4.fan.interior_edges
    assert len(interior) == 4
    assert all(len(p4.fan.edges[e]) == 2 for e in interior)
    boundary = [e for e in p4.fan.edges if e not in interior]
    assert all(len(p4.fan.edges[e]) == 1 for e in boundary)


def test_cone_membership_oracle(p13):
    """Junior points satisfying a cluster's inequalities are exactly its cone."""
    fan = p13.fan
    n = p13.group.order
    scaled = [r.scaled(n) for r in fan.rays]
    for ci, graph in enumerate(fan.ggraphs):
        normals = ggraph_inequalities(p13.group, graph)
        inside = {
            ri for ri, s in enumerate(scaled) if all(dot3(a, s) >= 0 for a in normals)
        }
        assert inside == set(fan.cone_rays[ci])


# every comparison and arithmetic operator Fraction defines
FRACTION_OPERATORS = (
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__bool__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
    "__pos__", "__neg__", "__abs__",
)


@pytest.mark.parametrize("spec", ["13:1,5,7", "12:1,1,10", "3:1,2,0+3:0,1,2"])
def test_build_fan_makes_no_fraction_comparison_or_arithmetic(monkeypatch, spec):
    """The group's junior points and its fan are built on integer triples
    and junior indices: with every Fraction operator raising, the group
    still parses and the fan still builds, equal to a build without the
    patch, and a cone's chart generators are looked up through its rays'
    indices."""
    reference = build_fan(parse_group_spec(spec))

    def refuse(*args):
        raise AssertionError("a Fraction was compared or computed with")

    with monkeypatch.context() as patch:
        for name in FRACTION_OPERATORS:
            if name in vars(Fraction):
                patch.setattr(Fraction, name, refuse)
        group = parse_group_spec(spec)  # the junior points are built here
        fan = build_fan(group)
        rays = [fan.rays[ri] for ri in fan.cone_rays[0]]
        generators = [chart_generator(fan, rays, chi) for chi in group.characters]
    assert generators == list(reference.ggraphs[0].row)
    assert fan.cone_rays == reference.cone_rays
    assert [g.row for g in fan.ggraphs] == [g.row for g in reference.ggraphs]
    assert fan.carving_vectors == reference.carving_vectors
    assert [r.coords for r in fan.rays] == [r.coords for r in reference.rays]


@pytest.mark.parametrize("spec", ["13:1,5,7", "12:1,1,10", "72:1,1,70", "3:1,2,0+3:0,1,2"])
def test_verify_and_fan_json_make_no_fraction_comparison_or_arithmetic(monkeypatch, spec):
    """Every reader of a ray's kind (corner, boundary, interior) reads it off
    n*e: with every Fraction operator raising, the verify report and the fan
    JSON come out byte for byte as without the patch."""
    from mckay_lab import verify_group
    from mckay_lab.serialize import fan_json, report_json

    reference = parse_group_spec(spec)
    expected = (report_json(verify_group(reference)), fan_json(build_fan(reference)))
    group = parse_group_spec(spec)

    def refuse(*args):
        raise AssertionError("a Fraction was compared or computed with")

    with monkeypatch.context() as patch:
        for name in FRACTION_OPERATORS:
            if name in vars(Fraction):
                patch.setattr(Fraction, name, refuse)
        got = (report_json(verify_group(group)), fan_json(build_fan(group)))
    assert got == expected


def _contents(obj) -> dict:
    """An object's attributes, each dict, list or tuple copied (a NamedTuple,
    such as the trivial character, through its own _make)."""
    return {
        name: getattr(value, "_make", type(value))(value)
        if isinstance(value, (dict, list, tuple)) else value
        for name, value in vars(obj).items()
    }


def _read_every_output(fan) -> None:
    """Run every reader of a fan."""
    from mckay_lab import GroupVerification, QuiverAnalysis, marked_triangulation
    from mckay_lab import transform_profile
    from mckay_lab.diagrams import all_sink_source_dot, marked_simplex_svg, marked_simplex_tikz
    from mckay_lab.serialize import fan_json

    marked = marked_triangulation(fan)
    qa = QuiverAnalysis(fan.group)
    for chi in fan.group.characters:
        transform_profile(fan, qa, chi)
    assert GroupVerification(fan).passed
    fan_json(fan)
    marked_simplex_svg(fan, marked)
    marked_simplex_tikz(fan, marked)
    all_sink_source_dot(qa)


@pytest.mark.parametrize("spec", ["13:1,5,7", "12:1,1,10", "3:1,2,0+3:0,1,2"])
def test_no_reader_writes_into_a_fan(spec):
    """Every reader of a fan leaves it as GHilbFan.__init__ made it, so one
    fan can serve every command on its group."""
    fan = build_fan(parse_group_spec(spec))
    before = _contents(fan)
    _read_every_output(fan)
    assert _contents(fan) == before


@pytest.mark.parametrize("spec", ["13:1,5,7", "12:1,1,10", "3:1,2,0+3:0,1,2"])
def test_the_fan_holds_no_second_name_for_a_group_fact(spec):
    """The group owns every junior-point fact: the fan keeps none of the
    group's values under a name of its own, and its one alias, rays, is the
    group's junior points, which the group's lookup inverts."""
    group = parse_group_spec(spec)
    fan = build_fan(group)
    owned = {id(value) for value in vars(group).values()}
    assert [
        name for name, value in vars(fan).items()
        if name not in ("group", "rays") and id(value) in owned
    ] == []
    assert fan.rays is group.junior_points
    assert [group.ray_index(p) for p in group.junior_points] == list(range(len(group.juniors)))


@pytest.mark.parametrize("spec", ["13:1,5,7", "12:1,1,10", "3:1,2,0+3:0,1,2"])
def test_nothing_writes_into_a_group_or_a_character(spec):
    """Building a fan and reading it adds only the group's own divisor
    table to the group, and nothing to any character: a character is a
    NamedTuple of its residues and moduli, with no __dict__ to write into."""
    group = parse_group_spec(spec)
    before = _contents(group)
    _read_every_output(build_fan(group))
    after = _contents(group)
    assert set(after) - set(before) == {"divisor_rows", "heights"}
    assert {name: after[name] for name in before} == before
    assert all(not hasattr(chi, "__dict__") for chi in group.characters)
    assert all(chi._fields == ("residues", "moduli") for chi in group.characters)


def _value_objects():
    """One instance of each value type of the package, built on 13:1,5,7."""
    from mckay_lab import QuiverAnalysis, marked_triangulation, transform_profile
    from mckay_lab.corpus import CorpusSpec

    group = parse_group_spec("13:1,5,7")
    fan = build_fan(group)
    qa = QuiverAnalysis(group)
    marked = marked_triangulation(fan)
    ri = group.interior_ray_indices[0]
    graph = qa.sink_source_graph(ri)
    return [
        group.junior_points[ri],
        group.characters[1],
        qa.vertex_class(ri, 0),
        graph.lines[0],
        graph,
        next(iter(marked.edge_ratios.values())),
        marked.vertex_cases[ri],
        transform_profile(fan, qa, group.characters[1]),
        CorpusSpec(max_order=4),
    ]


@pytest.mark.parametrize("value", _value_objects(), ids=lambda value: type(value).__name__)
def test_no_field_of_a_value_type_can_be_set(value):
    """Each value type is a NamedTuple: setting a field raises, and no
    attribute can be added beside its fields."""
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("spec", ["13:1,5,7", "12:1,1,10", "3:1,2,0+3:0,1,2"])
def test_divisor_table_is_built_on_demand_and_once(monkeypatch, capsys, spec):
    """The quiver commands run no Dijkstra; building the fan and running
    every reader of it run one per junior point."""
    from mckay_lab.cli import main

    calls = []
    least_valuations = GroupData.least_valuations

    def counted(self, weight):
        calls.append(weight)
        return least_valuations(self, weight)

    monkeypatch.setattr(GroupData, "least_valuations", counted)
    assert main(["quiver", "--group", spec]) == 0
    assert main(["quiver", "--group", spec, "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == []
    group = parse_group_spec(spec)
    _read_every_output(build_fan(group))
    assert calls == list(group.juniors)
