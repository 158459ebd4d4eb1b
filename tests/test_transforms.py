from fractions import Fraction

import pytest

from mckay_lab import (
    QuiverAnalysis,
    build_fan,
    parse_group_spec,
    support_h0,
    support_h1,
    support_h2,
    transform_profile,
)
from mckay_lab.errors import EmptySupport, InputError, MultiDegreeSupport, NoExceptionalLocus

f = Fraction


def test_support_h0_examples(p3, p4):
    center = p3.ray((f(1, 3),) * 3)
    assert support_h0(p3.fan, p3.qa, p3.chi(2)) == [("divisor", center)]
    assert support_h0(p3.fan, p3.qa, p3.chi(1)) == []
    p = p4.ray((f(1, 4), f(1, 4), f(1, 2)))
    assert support_h0(p4.fan, p4.qa, p4.chi(3)) == [("divisor", p)]


def test_support_h1_reads_the_memoized_classes():
    """support_h1 takes each ray's sources from the memoized class masks
    (QuiverAnalysis.class_masks), by the one sweep h1_loci: a corrupted
    entry shows up in the support instead of being recomputed."""
    fan = build_fan(parse_group_spec("3:1,1,1"))
    (center,) = fan.group.exceptional_ray_indices
    sink = fan.group.characters[2]
    assert support_h1(fan, QuiverAnalysis(fan.group), sink) == []
    qa = QuiverAnalysis(fan.group)
    masks = qa.class_masks(center)
    qa._class_masks[center] = masks._replace(sources=masks.sources | 1 << 2)
    assert support_h1(fan, qa, sink) == [("divisor", center)]


def test_support_h1_examples(p3, p4):
    center = p3.ray((f(1, 3),) * 3)
    assert support_h1(p3.fan, p3.qa, p3.chi(1)) == [("divisor", center)]
    p = p4.ray((f(1, 4), f(1, 4), f(1, 2)))
    assert support_h1(p4.fan, p4.qa, p4.chi(1)) == [("divisor", p)]
    assert support_h1(p3.fan, p3.qa, p3.chi(0)) == []
    assert support_h1(p4.fan, p4.qa, p4.chi(0)) == []


def test_support_h2_examples(p3, p4):
    center = p3.ray((f(1, 3),) * 3)
    assert support_h2(p3.fan, p3.qa, p3.chi(0)) == [("divisor", center)]
    p = p4.ray((f(1, 4), f(1, 4), f(1, 2)))
    q = p4.ray((f(1, 2), f(1, 2), 0))
    assert support_h2(p4.fan, p4.qa, p4.chi(0)) == sorted(
        [("divisor", p), ("divisor", q)]
    )
    for chi in (p3.chi(1), p3.chi(2)):
        assert support_h2(p3.fan, p3.qa, chi) == []


def test_profiles_3_1_1_1(p3):
    center = p3.ray((f(1, 3),) * 3)
    degrees = {}
    for chi in p3.group.characters:
        prof = transform_profile(p3.fan, p3.qa, chi)
        degrees[chi.residues[0]] = prof.degree
        assert prof.components == (("divisor", center),)
        assert prof.connected
    assert degrees == {0: -2, 1: -1, 2: 0}


def test_profiles_4_1_1_2(p4):
    p = p4.ray((f(1, 4), f(1, 4), f(1, 2)))
    prof1 = transform_profile(p4.fan, p4.qa, p4.chi(1))
    prof2 = transform_profile(p4.fan, p4.qa, p4.chi(2))
    prof3 = transform_profile(p4.fan, p4.qa, p4.chi(3))
    assert (prof1.degree, prof1.components) == (-1, (("divisor", p),))
    assert (prof2.degree, prof2.components) == (-1, (("divisor", p),))
    assert (prof3.degree, prof3.components) == (0, (("divisor", p),))


def test_single_curve_profile(p2, p22):
    # 1/2(1,1,0): the nontrivial character lives on one compact curve
    p = p2.ray((f(1, 2), f(1, 2), 0))
    ez = p2.ray((0, 0, 1))
    prof = transform_profile(p2.fan, p2.qa, p2.chi(1))
    assert prof.degree == 0
    assert prof.components == (("curve", (min(p, ez), max(p, ez))),)

    # Z/2 x Z/2: all three nontrivial characters are single-curve
    for chi in p22.group.characters:
        if chi.is_trivial:
            continue
        prof = transform_profile(p22.fan, p22.qa, chi)
        assert prof.degree == 0
        assert len(prof.components) == 1
        assert prof.components[0][0] == "curve"
        # the supporting curve is the one curve marked by the character
        assert prof.components[0][1] == tuple(p22.marked.marked_edges(chi)[0])


def test_exclusivity(p13):
    for chi in p13.group.characters:
        prof = transform_profile(p13.fan, p13.qa, chi)
        h0 = support_h0(p13.fan, p13.qa, chi)
        h1 = support_h1(p13.fan, p13.qa, chi)
        h2 = support_h2(p13.fan, p13.qa, chi)
        assert sum(bool(s) for s in (h0, h1, h2)) == 1
        assert prof.components == tuple(h0 or h1 or h2)


def test_a_support_in_two_degrees_or_none_is_refused(monkeypatch):
    """On 1/3(1,1,1) the character chi_1 is a source on the central divisor,
    in degree -1: seeded as a sink there too it has two degrees, and with
    its degree -1 locus emptied it has none."""
    fan = build_fan(parse_group_spec("3:1,1,1"))
    qa = QuiverAnalysis(fan.group)
    chi = fan.group.characters[1]
    k = fan.group.index[chi]
    assert transform_profile(fan, qa, chi).degree == -1
    h0, h1 = list(qa.h0_loci(fan)), list(qa.h1_loci)
    h0[k] = (h1[k], [])
    monkeypatch.setattr(qa, "h0_loci", lambda _fan: h0)
    with pytest.raises(MultiDegreeSupport, match=r"degrees \[0, -1\]"):
        transform_profile(fan, qa, chi)
    h0[k], h1[k] = ([], []), []
    monkeypatch.setattr(qa, "h1_loci", h1)
    with pytest.raises(EmptySupport, match="empty support in all degrees"):
        transform_profile(fan, qa, chi)


def test_the_degree_0_loci_sweep_the_groups_fan_once():
    """h0_loci reads the interior edges of the fan it is given and keeps its
    sweep for that fan: the same fan gets the kept loci back, a second fan
    of the group is swept again to equal loci, and a fan of another group
    is refused by both specs."""
    group = parse_group_spec("13:1,5,7")
    fan = build_fan(group)
    qa = QuiverAnalysis(group)
    loci = qa.h0_loci(fan)
    assert qa.h0_loci(fan) is loci
    second = build_fan(group)
    assert second is not fan
    again = qa.h0_loci(second)
    assert again == loci and again is not loci
    assert any(curves for _, curves in loci)
    with pytest.raises(InputError, match="^a fan of 7:1,2,4 given to the quiver of 13:1,5,7$"):
        qa.h0_loci(build_fan(parse_group_spec("7:1,2,4")))
    assert qa.h0_loci(second) is again


@pytest.mark.parametrize("support", [support_h0, support_h1, support_h2])
def test_every_support_refuses_the_quiver_of_another_group(support):
    """A fan of 7:1,2,4 with the quiver analysis of 7:1,1,5: every support
    refuses the pair as h0_loci does, instead of reading the other group's
    loci (chi_1's degree -1 support there is [2, 3, 4], here [3, 4])."""
    fan = build_fan(parse_group_spec("7:1,2,4"))
    qa = QuiverAnalysis(parse_group_spec("7:1,1,5"))
    assert support_h1(fan, QuiverAnalysis(fan.group), fan.group.characters[1]) == [
        ("divisor", 3),
        ("divisor", 4),
    ]
    for chi in fan.group.characters:
        with pytest.raises(InputError, match="^a fan of 7:1,2,4 given to the quiver of 7:1,1,5$"):
            support(fan, qa, chi)


def test_trivial_group_rejected(trivial_group):
    fan = build_fan(trivial_group)
    qa = QuiverAnalysis(trivial_group)
    with pytest.raises(NoExceptionalLocus):
        transform_profile(fan, qa, trivial_group.trivial_character)
    with pytest.raises(NoExceptionalLocus):
        support_h0(fan, qa, trivial_group.trivial_character)
