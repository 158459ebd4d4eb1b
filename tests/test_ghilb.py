import sys
from fractions import Fraction
from itertools import permutations

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
    InconsistentCharts,
    LowerDimensionalCone,
    SearchExhausted,
    UnknownCone,
)
from mckay_lab.ghilb import (
    GGraph,
    GHilbFan,
    flip_ggraph,
    seed_ggraph,
)
from mckay_lab.groups import GroupData
from mckay_lab.intlin import dot3

from conftest import SQUARE_PRODUCTS, sl3_cyclic, small_groups
from oracles import (
    box_least,
    clipped_cone,
    divisor_q,
    extreme_rays_clipped,
    extreme_rays_dd,
    ggraph_inequalities,
    is_cluster_by_kappa,
    minimal_monomial_normals,
    naive_ggraphs,
    stepped_flip,
)


def monoset(graph):
    return frozenset(graph.monomials)


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
    ours = {frozenset(g.monomials) for g in enumerate_ggraphs(group)}
    assert ours == set(naive_ggraphs(group))


@pytest.mark.parametrize("spec", ["13:1,5,7", "6:1,2,3", "4:1,3,0+4:0,1,3"])
def test_each_interior_wall_is_crossed_once(monkeypatch, spec):
    """Wall crossing flips once per new cluster: |G| - 1 flips, on distinct
    walls, each an interior edge of the fan."""
    from mckay_lab import ghilb

    flips = []
    original = ghilb.flip_ggraph

    def counted(group, graph, e, f, g):
        flips.append(frozenset((e, f)))
        return original(group, graph, e, f, g)

    monkeypatch.setattr(ghilb, "flip_ggraph", counted)
    group = parse_group_spec(spec)
    fan = build_fan(group)
    interior = {
        frozenset(group.juniors[ri] for ri in e) for e in fan.interior_edges
    }
    assert len(flips) == len(set(flips)) == group.order - 1
    assert set(flips) <= interior


def test_flip_to_a_found_cluster_is_inconsistent(monkeypatch, p13):
    """A flip that leads back to a cluster already found is refused, naming
    the wall."""
    from mckay_lab import ghilb

    monkeypatch.setattr(ghilb, "flip_ggraph", lambda group, graph, e, f, g: graph)
    with pytest.raises(InconsistentCharts, match="the flip across wall .* already found"):
        build_fan(p13.group)


def test_flip_to_a_cone_without_the_wall_is_inconsistent(monkeypatch, p13):
    """A flip that leads to a new cluster whose cone does not have the
    crossed wall is refused, naming the wall."""
    from mckay_lab import ghilb

    fan = p13.fan
    reached = {seed_ggraph(p13.group)}

    def elsewhere(group, graph, e, f, g):
        ci = next(
            ci
            for ci, h in enumerate(fan.ggraphs)
            if h not in reached
            and not {e, f} <= {fan.group.juniors[ri] for ri in fan.cone_rays[ci]}
        )
        reached.add(fan.ggraphs[ci])
        return GGraph(group, fan.ggraphs[ci].row)

    monkeypatch.setattr(ghilb, "flip_ggraph", elsewhere)
    with pytest.raises(InconsistentCharts, match="the flip across wall .* does not have the wall"):
        build_fan(p13.group)


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


@pytest.mark.parametrize("spec", ["13:1,5,7", "6:1,2,3", "4:1,3,0+4:0,1,3"])
def test_each_cone_is_extracted_once(monkeypatch, spec):
    """build_fan asks for each cluster's cone twice but scans the heights
    once per cluster."""
    from mckay_lab import ghilb

    calls = {"cone": 0, "scan": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(ghilb, "cone_of_ggraph", counting("cone", ghilb.cone_of_ggraph))
    monkeypatch.setattr(ghilb, "_height_rays", counting("scan", ghilb._height_rays))
    group = parse_group_spec(spec)
    fan = build_fan(group)
    assert calls == {"cone": 2 * group.order, "scan": group.order}
    assert all(cone_of_ggraph(group, g) is c for g, c in zip(fan.ggraphs, fan.cone_rays))


def test_seed_ggraph_is_a_cluster(p13):
    graph = seed_ggraph(p13.group)
    assert len(graph.monomials) == 13


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
    and each row's walk along x stops where it closes: with x invariant, the
    seed reads the arrow table O(n) times, not n^2."""

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
    if group.kappa((1, 0, 0)).is_trivial:
        assert Counted.reads < 3 * n


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


def single_entry_perturbations(row, n):
    """Rows with one entry moved by one step in a coordinate, or replaced by
    a pure power v^a with a < n."""
    for k, m in enumerate(row):
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


@pytest.mark.parametrize("spec", ["13:1,5,7", "4:1,3,0+4:0,1,3"])
def test_fan_build_calls_kappa_for_seed_and_carving_only(monkeypatch, spec):
    """Flipped clusters are checked by the tail table, cones by the arrow
    table, the seed by the head table: the carving vectors are kappa's only
    caller."""
    group = parse_group_spec(spec)
    callers = []
    kappa = GroupData.kappa

    def counted(self, m):
        callers.append(sys._getframe(1).f_code.co_name)
        return kappa(self, m)

    monkeypatch.setattr(GroupData, "kappa", counted)
    build_fan(group)
    assert set(callers) == {"invariant_perpendicular"}


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
    from mckay_lab import ghilb

    group = parse_group_spec("13:1,5,7")
    graph = build_fan(group).ggraphs[0]
    chart = [dot3(s, graph.total) for s in group.juniors]  # the cluster's heights
    ri = next(ri for ri, h in enumerate(group.heights) if (chart[ri] == h) == (points == 2))
    moved = list(group.heights)
    moved[ri] = chart[ri] + (points == 2)
    monkeypatch.setattr(group, "heights", tuple(moved))
    assert len(ghilb._height_rays(group, graph.total)) == points
    with pytest.raises(LowerDimensionalCone, match="height plane"):
        cone_of_ggraph(group, GGraph(group, graph.row))


@settings(max_examples=20, deadline=None)
@given(small_groups)
def test_flip_matches_stepping(group):
    """The closed-form shift k = min r_i // -t_i equals stepping by t until
    the next step leaves the octant, across every interior facet."""
    fan = build_fan(group)
    for edge in fan.interior_edges:
        e, f = (group.juniors[ri] for ri in edge)
        for ci in fan.edges[edge]:
            (g,) = (group.juniors[ri] for ri in fan.cone_rays[ci] if ri not in edge)
            flipped = flip_ggraph(group, fan.ggraphs[ci], e, f, g)
            assert flipped.row == stepped_flip(group, fan.ggraphs[ci], e, f, g)


def test_unbounded_flip_is_exhausted(monkeypatch, p3):
    """A carving direction with no negative entry exhausts the search, and
    so does a shift that leaves no cluster (here a one-monomial row)."""
    from types import SimpleNamespace

    from mckay_lab import ghilb

    center, y, z = (
        WeightVector(tuple(Fraction(c) for c in coords))
        for coords in ((Fraction(1, 3),) * 3, (0, 1, 0), (0, 0, 1))
    )
    cone = (center, y, z)  # the facet (center, y) is positive on z
    graph = p3.fan.ggraphs[p3.fan.cone_index(cone)]
    scaled = (center.scaled(3), y.scaled(3), z.scaled(3))  # the wall, then z
    monkeypatch.setattr(ghilb, "invariant_perpendicular", lambda group, e, f: (1, 1, 1))
    with pytest.raises(SearchExhausted, match="unbounded shift"):
        flip_ggraph(p3.group, graph, *scaled)
    monkeypatch.setattr(ghilb, "invariant_perpendicular", lambda group, e, f: (-1, 1, 1))
    far = SimpleNamespace(row=((3 * 3 + 1, 0, 0),))
    with pytest.raises(SearchExhausted):
        flip_ggraph(p3.group, far, *scaled)


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
    """An object's attributes, each dict, list or tuple copied."""
    return {
        name: type(value)(value) if isinstance(value, (dict, list, tuple)) else value
        for name, value in vars(obj).items()
    }


def _read_every_output(fan) -> None:
    """Run every reader of a fan."""
    from mckay_lab import GroupVerification, QuiverAnalysis, marked_triangulation
    from mckay_lab import transform_profile
    from mckay_lab.diagrams import all_sink_source_dot, marked_simplex_svg, marked_simplex_tikz
    from mckay_lab.serialize import fan_json

    marked = marked_triangulation(fan)
    qa = QuiverAnalysis(fan)
    for chi in fan.group.characters:
        transform_profile(fan, qa, chi)
    assert GroupVerification(fan).passed
    fan_json(fan)
    marked_simplex_svg(fan, marked)
    marked_simplex_tikz(fan, marked)
    all_sink_source_dot(fan, qa)


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
    table to the group, and nothing to any character."""
    group = parse_group_spec(spec)
    before = _contents(group)
    _read_every_output(build_fan(group))
    after = _contents(group)
    assert set(after) - set(before) == {"divisor_rows", "heights"}
    assert {name: after[name] for name in before} == before
    assert all(set(vars(chi)) == {"residues", "moduli"} for chi in group.characters)


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
