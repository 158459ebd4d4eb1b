"""The bit-parallel quiver facts against per-position oracles: the arrow
masks, the triangle identity, the class masks and everything read off them,
on every exceptional ray; and seeded faults, each caught where the
per-position loops catch it."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from mckay_lab import QuiverAnalysis, parse_group_spec, torus_positions
from mckay_lab.errors import (
    InputError,
    InvalidSpokePattern,
    MultiplicityOutOfRange,
    ShapeUnrecognized,
    UnknownCone,
    WalkDiverged,
)
from mckay_lab.groups import VARIABLES
from mckay_lab.quiver import _bits

from conftest import RECTANGULAR_PRODUCTS, SQUARE_PRODUCTS, small_groups
from golden import check as golden
from oracles import (
    arrow_masks_by_loop,
    class_scan,
    classes_by_vertex,
    quiver_triangles,
    triangles_consistent_by_sum,
)

PRODUCTS = SQUARE_PRODUCTS + RECTANGULAR_PRODUCTS + ["8:1,7,0+8:0,1,7"]
MANIFEST_UP_TO_40 = [
    spec for spec in golden.load()["groups"] if parse_group_spec(spec).order <= 40
]


def _agrees_with_the_oracles(group):
    qa = QuiverAnalysis(group)
    n = group.order
    interior = set(group.interior_ray_indices)
    h1 = [[] for _ in range(n)]
    for ri in group.exceptional_ray_indices:
        masks = arrow_masks_by_loop(group, ri)
        assert qa.masks(ri) == masks
        assert qa.triangles_consistent(ri) is triangles_consistent_by_sum(group, masks) is True
        classes = classes_by_vertex(masks, n)
        assert qa.classes(ri) == classes
        scan = class_scan(classes)
        assert {key: list(_bits(mask)) for key, mask in qa.class_masks(ri)._asdict().items()} == scan
        ss = qa.sink_source_graph(ri)
        assert ss.sources == scan["sources"]
        assert ss.sink03_vertices() == scan["sink03"]
        assert ss.sink30_count == len(scan["sink30"])
        if ri in interior:  # each charge on exactly one line
            inner = sorted(v for line in ss.lines for v in line.vertices[1:-1])
            assert inner == scan["charges"]
        for k in scan["sources"]:
            h1[k].append(ri)
    assert qa.h1_loci == h1


@pytest.mark.parametrize("spec", MANIFEST_UP_TO_40 + PRODUCTS)
def test_masks_match_the_per_position_oracles(spec):
    _agrees_with_the_oracles(parse_group_spec(spec))


@settings(max_examples=30, deadline=None)
@given(small_groups)
def test_masks_match_the_per_position_oracles_on_small_groups(group):
    assume(group.order > 1)
    _agrees_with_the_oracles(group)


def test_the_manifest_gives_the_oracle_test_its_groups():
    assert len(MANIFEST_UP_TO_40) > 150
    assert {parse_group_spec(spec).order for spec in MANIFEST_UP_TO_40} >= {31, 36}


def _flip(group, masks, k, o):
    """The arrow masks (outs, ins) with the order of the o-arrow out of
    position k flipped: its out-bit and its in-partner at the head."""
    outs, ins = masks
    h = group.head_rows[k][o]
    outs = tuple(m ^ (1 << k if p == o else 0) for p, m in enumerate(outs))
    ins = tuple(m ^ (1 << h if p == o else 0) for p, m in enumerate(ins))
    return outs, ins


def _both_paths_reject(qa, ri, masks):
    qa._masks[ri] = masks
    return not triangles_consistent_by_sum(qa.group, masks) and not qa.triangles_consistent(ri)


SEEDED = ["13:1,5,7", "4:1,1,2", "3:1,2,0+3:0,1,2", "6:1,2,3"]


@pytest.mark.parametrize("spec", SEEDED)
def test_one_flipped_arrow_breaks_the_triangle_identity(spec):
    """Each of the two triangles through a flipped arrow then has 0 or 2
    vanishing arrows, and both paths see it, on every arrow of every
    exceptional ray."""
    group = parse_group_spec(spec)
    mutants = 0
    for ri in group.exceptional_ray_indices:
        qa = QuiverAnalysis(group)
        clean = qa.masks(ri)
        for k in range(group.order):
            for o in range(3):
                assert _both_paths_reject(qa, ri, _flip(group, clean, k, o))
                mutants += 1
        qa._masks[ri] = clean
        assert qa.triangles_consistent(ri)
    assert mutants == 3 * group.order * len(group.exceptional_ray_indices)


@pytest.mark.parametrize("spec", SEEDED)
def test_a_swap_inside_one_triangle_breaks_the_other_chirality(spec):
    """Move the vanishing arrow of one triangle to another of its arrows:
    that triangle still loses one arrow, and only the triangles of the other
    chirality through the two arrows break, so each of the two identities
    is needed."""
    group = parse_group_spec(spec)
    for ri in group.exceptional_ray_indices:
        qa = QuiverAnalysis(group)
        clean = qa.masks(ri)
        outs = clean[0]
        for triangle in quiver_triangles(group):
            (dead,) = [(k, o) for k, o in triangle if outs[o] >> k & 1]
            for alive in triangle:
                if alive != dead:
                    swapped = _flip(group, _flip(group, clean, *dead), *alive)
                    assert _both_paths_reject(qa, ri, swapped)


@pytest.mark.parametrize("spec", ["13:1,5,7", "3:1,2,0+3:0,1,2"])
def test_a_corrupted_divisor_entry_names_the_loops_first_arrow(spec, monkeypatch):
    """One corrupted entry of the divisor table, at each position of each
    exceptional ray and of the three corner rays in turn, raises
    MultiplicityOutOfRange with the message of the loop over every arrow."""
    group = parse_group_spec(spec)
    clean = group.divisor_rows
    corners = [ri for ri, e in enumerate(group.juniors) if group.order in e]
    assert len(corners) == 3
    for ri in (*group.exceptional_ray_indices, *corners):
        for k in range(group.order):
            rows = [list(row) for row in clean]
            rows[ri][k] += 1
            monkeypatch.setitem(group.__dict__, "divisor_rows", tuple(map(tuple, rows)))
            with pytest.raises(MultiplicityOutOfRange) as expected:
                arrow_masks_by_loop(group, ri)
            with pytest.raises(MultiplicityOutOfRange) as got:
                QuiverAnalysis(group).masks(ri)
            assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("ray_idx", [-1, 999])
def test_an_index_off_the_rays_is_refused(ray_idx):
    """An index outside the junior points names no ray: the masks and the
    sink-source graph raise UnknownCone and keep nothing, where a negative
    index would read the last rays from the end."""
    qa = QuiverAnalysis(parse_group_spec("13:1,5,7"))
    for read in (qa.masks, qa.sink_source_graph):
        with pytest.raises(UnknownCone, match=f"^ray {ray_idx} is not a ray of the fan$"):
            read(ray_idx)
    assert not qa._masks and not qa._class_masks and not qa._graphs


@pytest.mark.parametrize("k", [-1, 999])
def test_a_position_off_the_characters_is_refused(k):
    """vertex_class names a vertex by its position in group.characters: a
    position outside range(order) raises InputError, where 999 would read
    the zero bits past n as a (3,3)-source and -1 would shift by a
    negative count."""
    group = parse_group_spec("13:1,5,7")
    qa = QuiverAnalysis(group)
    ri = group.exceptional_ray_indices[0]
    with pytest.raises(InputError, match=f"^character position {k} out of range$"):
        qa.vertex_class(ri, k)


def test_a_mixed_spoke_pattern_raises_at_the_loops_vertex():
    """Seed spokes vanishing both ways at two vertices with different
    patterns: the class masks raise InvalidSpokePattern with the message of
    the per-vertex loop, which stops at the lower vertex."""
    group = parse_group_spec("13:1,5,7")
    seeds = 0
    for ri in group.exceptional_ray_indices:
        outs, ins = QuiverAnalysis(group).masks(ri)
        for low in range(group.order):
            high = (low + 5) % group.order
            # low: the x out-arrow and the y in-arrow; high: the z out-arrow
            # and the x and y in-arrows
            seeded_outs = (outs[0] | 1 << low, outs[1], outs[2] | 1 << high)
            seeded_ins = (ins[0] | 1 << high, ins[1] | 1 << low | 1 << high, ins[2])
            seeded = seeded_outs, seeded_ins
            with pytest.raises(InvalidSpokePattern) as expected:
                classes_by_vertex(seeded, group.order)
            qa = QuiverAnalysis(group)
            qa._masks[ri] = seeded
            with pytest.raises(InvalidSpokePattern) as got:
                qa.class_masks(ri)
            assert str(got.value) == str(expected.value)
            first = min(low, high)
            with pytest.raises(InvalidSpokePattern) as at_first:
                qa.vertex_class(ri, first)
            assert str(got.value) == str(at_first.value)
            seeds += 1
    assert seeds == group.order * len(group.exceptional_ray_indices)


def test_three_12_sources_name_their_pattern(p4):
    """Three (1,2)-sources and the (0,3)-sink at the trivial character make
    no shape: each (1,2)-source emits two backward lines, so the pattern is
    rejected by name, not by a clash of backward lines, and no graph is
    kept."""
    p = p4.ray((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    qa = QuiverAnalysis(p4.group)
    # the trivial character's three in-arrows vanish, and one in-arrow of
    # each other vertex: the x-, y- and z-arrow into positions 1, 2 and 3
    qa._masks[p] = (0, 0, 0), (0b0011, 0b0101, 0b1001)
    masks = qa.class_masks(p)
    assert list(_bits(masks.sources)) == [1, 2, 3] and masks.sink03 == 0b0001
    pattern = r"source pattern \[\(1, 2\), \(1, 2\), \(1, 2\)\] matches no shape"
    with pytest.raises(ShapeUnrecognized, match=pattern):
        qa.sink_source_graph(p)
    assert p not in qa._graphs


def _moved_out_spoke(qa, ri, k, to):
    """The ray's masks with the vanishing out-spoke of the (2,1)-source at
    position k moved to orientation `to`."""
    outs, ins = qa.masks(ri)
    outs = tuple(m & ~(1 << k) for m in outs)
    return tuple(m | 1 << k if o == to else m for o, m in zip(VARIABLES, outs)), ins


def test_shape_b_sources_on_two_axes_clash_on_a_backward_line(p4):
    """The (1,2)-source at P emits backward x- and y-lines; moving the
    (2,1)-source's out-spoke from the axis z to x makes it emit a second
    backward x-line, rejected before it is walked."""
    p = p4.ray((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    qa = QuiverAnalysis(p4.group)
    first, second = qa.sink_source_graph(p).sources
    assert qa.vertex_class(p, first).bidegree == (1, 2)
    assert qa.vertex_class(p, second).label() == "z-(2,1)-source"
    qa = QuiverAnalysis(p4.group)
    qa._masks[p] = _moved_out_spoke(qa, p, second, "x")
    assert qa.vertex_class(p, second).label() == "x-(2,1)-source"
    with pytest.raises(ShapeUnrecognized, match=f"^two backward x-lines on ray {p}$"):
        qa.sink_source_graph(p)


def test_shape_c_sources_sharing_an_orientation_clash_on_a_backward_line(p33):
    """Of the three (2,1)-sources of the shape-C divisor, the second takes
    the out-spoke orientation of the first: the two backward lines clash."""
    center = p33.ray((Fraction(1, 3),) * 3)
    qa = QuiverAnalysis(p33.group)
    first, second, _ = qa.sink_source_graph(center).sources
    orientation = qa.vertex_class(center, first).orientation
    assert qa.vertex_class(center, second).orientation != orientation
    qa = QuiverAnalysis(p33.group)
    qa._masks[center] = _moved_out_spoke(qa, center, second, orientation)
    assert qa.class_masks(center).sources.bit_count() == 3
    with pytest.raises(
        ShapeUnrecognized, match=f"^two backward {orientation}-lines on ray {center}$"
    ):
        qa.sink_source_graph(center)


def test_shape_a_rejects_a_forward_line_shorter_than_its_backward_one():
    """On the shape-A divisor of 1/5(1,1,3) the z-lines have length 2 both
    ways; making the forward z-line's inner vertex a (3,0)-sink ends that
    line one step early, while every charge left is still on one line."""
    group = parse_group_spec("5:1,1,3")
    qa = QuiverAnalysis(group)
    (ri,) = (ri for ri in group.interior_ray_indices
             if qa.sink_source_graph(ri).shape == "A")
    (line,) = (line for line in qa.sink_source_graph(ri).lines
               if line.chirality == (1, 0) and line.length == 2)
    (inner,) = line.vertices[1:-1]
    qa = QuiverAnalysis(group)
    outs, ins = qa.masks(ri)
    qa._masks[ri] = tuple(m | 1 << inner for m in outs), ins
    assert qa.vertex_class(ri, inner).label() == "(3,0)-sink"
    with pytest.raises(
        ShapeUnrecognized, match=f"^forward and backward line lengths differ on ray {ri}$"
    ):
        qa.sink_source_graph(ri)


def _ray_of_shape(qa, shape):
    (ri,) = (ri for ri in qa.group.interior_ray_indices if qa.sink_source_graph(ri).shape == shape)
    return ri


def test_a_second_03_sink_is_no_shape():
    """On the shape-A divisor of 1/5(1,1,3) the x- and y-arrows into chi_3
    vanish; seeding its z-arrow in as vanishing too makes chi_3 a second
    (0,3)-sink, named before any line is walked."""
    group = parse_group_spec("5:1,1,3")
    ri = _ray_of_shape(QuiverAnalysis(group), "A")
    qa = QuiverAnalysis(group)
    outs, (ix, iy, iz) = qa.masks(ri)
    assert qa.vertex_class(ri, 3).label() == "z-(0,1)-charge"
    qa._masks[ri] = outs, (ix, iy, iz | 1 << 3)
    assert qa.vertex_class(ri, 3).label() == "(0,3)-sink"
    with pytest.raises(
        ShapeUnrecognized,
        match=rf"^ray {ri}: \(0,3\)-sinks are \[chi_0, chi_3\], expected the trivial character$",
    ):
        qa.sink_source_graph(ri)


def test_a_charge_off_every_line_is_not_covered():
    """On the shape-B divisor of 1/5(1,1,3), chi_2 is a z-tile.  Seeding its
    x-arrow out as vanishing and its z-arrow in as not makes it a
    y-(1,0)-charge that no line reaches, while every line still ends at a
    sink."""
    group = parse_group_spec("5:1,1,3")
    ri = _ray_of_shape(QuiverAnalysis(group), "B")
    qa = QuiverAnalysis(group)
    (x, y, z), (ix, iy, iz) = qa.masks(ri)
    assert qa.vertex_class(ri, 2).label() == "z-(0,0)-tile"
    qa._masks[ri] = (x | 1 << 2, y, z), (ix, iy, iz & ~(1 << 2))
    assert qa.vertex_class(ri, 2).label() == "y-(1,0)-charge"
    with pytest.raises(
        InvalidSpokePattern, match=f"^charge vertices not covered exactly once on ray {ri}$"
    ):
        qa.sink_source_graph(ri)


def test_a_line_through_a_lost_sink_hits_another_line():
    """On the shape-A divisor of 1/5(1,1,3) the forward x-line from the
    source chi_1 ends at the (3,0)-sink chi_2.  Seeding chi_2's x-arrow out
    as not vanishing makes it an x-(1,0)-charge, so the line runs on to
    chi_3, a charge of the backward z-line."""
    group = parse_group_spec("5:1,1,3")
    ri = _ray_of_shape(QuiverAnalysis(group), "A")
    qa = QuiverAnalysis(group)
    (x, y, z), ins = qa.masks(ri)
    assert qa.vertex_class(ri, 1).label() == "(3,3)-source"
    assert qa.vertex_class(ri, 2).label() == "(3,0)-sink"
    qa._masks[ri] = (x & ~(1 << 2), y, z), ins
    assert qa.vertex_class(ri, 2).label() == "x-(1,0)-charge"
    with pytest.raises(
        InvalidSpokePattern, match=r"^line from chi_1 \(x,1\) hits z-\(0,1\)-charge at chi_3$"
    ):
        qa.sink_source_graph(ri)


def _head_seeded(monkeypatch, group, k, o):
    """The group's head table with the o-arrow out of position k made a
    loop, so the table is no longer a permutation along o."""
    rows = [list(row) for row in group.head_rows]
    rows[k][VARIABLES.index(o)] = k
    monkeypatch.setattr(group, "head_rows", tuple(map(tuple, rows)))


def test_a_line_looping_on_a_charge_diverges(monkeypatch):
    """The forward z-line of the shape-A divisor of 1/5(1,1,3) runs chi_1,
    chi_4, chi_2.  With the head table's z-arrow out of chi_4 a loop, read
    after the arrow masks, the walk stays on the charge chi_4 and gives up
    after |G| + 1 steps.  A head table that is a permutation cannot do this:
    the walk returns to its source, which is off every line."""
    group = parse_group_spec("5:1,1,3")
    qa = QuiverAnalysis(group)
    ri = _ray_of_shape(qa, "A")
    (line,) = (line for line in qa.sink_source_graph(ri).lines
               if line.orientation == "z" and line.chirality == (1, 0))
    assert line.vertices == (1, 4, 2)
    qa = QuiverAnalysis(group)
    qa.class_masks(ri)
    _head_seeded(monkeypatch, group, 4, "z")
    with pytest.raises(WalkDiverged, match="^line from chi_1 exceeded 5 steps$"):
        qa.sink_source_graph(ri)


def test_a_shape_b_chord_that_meets_no_line_diverges(monkeypatch):
    """On the shape-B divisor of 1/5(1,1,3) the length a1 counts the steps
    along x from the (1,2)-source chi_1 to the forward y-line of the
    (2,1)-source.  With the head table's x-arrow out of chi_1 a loop, read
    after the arrow masks, that walk never lands on the line."""
    group = parse_group_spec("5:1,1,3")
    qa = QuiverAnalysis(group)
    ri = _ray_of_shape(qa, "B")
    assert [qa.vertex_class(ri, k).label() for k in (1, 3)] == [
        "z-(1,2)-source",
        "z-(2,1)-source",
    ]
    qa = QuiverAnalysis(group)
    qa.class_masks(ri)
    _head_seeded(monkeypatch, group, 1, "x")
    with pytest.raises(WalkDiverged, match="^no target reached from chi_1 along x$"):
        qa.sink_source_graph(ri)


def test_a_projected_lattice_of_rank_one_is_refused(monkeypatch):
    """An invariant basis whose members all project onto one line of the
    (u, v)-plane (xyz projects to zero) gives no fundamental domain for the
    torus positions.  No group's does, as its invariants have rank 3."""
    group = parse_group_spec("3:1,1,1")
    monkeypatch.setattr(group, "invariant_basis", ((3, 0, 0), (6, 0, 0), (1, 1, 1)))
    with pytest.raises(InvalidSpokePattern, match="^projected invariant lattice is not rank 2$"):
        torus_positions(group)
