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
from mckay_lab.errors import NoExceptionalLocus
from mckay_lab.quiver import SOURCE33

f = Fraction


def test_support_h0_examples(p3, p4):
    center = p3.ray((f(1, 3),) * 3)
    assert support_h0(p3.fan, p3.qa, p3.chi(2)) == [("divisor", center)]
    assert support_h0(p3.fan, p3.qa, p3.chi(1)) == []
    p = p4.ray((f(1, 4), f(1, 4), f(1, 2)))
    assert support_h0(p4.fan, p4.qa, p4.chi(3)) == [("divisor", p)]


def test_support_h1_reads_the_memoized_classes():
    """support_h1 takes each vertex class from QuiverAnalysis.classes, by
    the one sweep h1_loci: a corrupted entry shows up in the support instead
    of being recomputed."""
    fan = build_fan(parse_group_spec("3:1,1,1"))
    (center,) = fan.group.exceptional_ray_indices
    sink = fan.group.characters[2]
    assert support_h1(fan, QuiverAnalysis(fan), sink) == []
    qa = QuiverAnalysis(fan)
    classes = list(qa.classes(center))
    classes[2] = SOURCE33
    qa._classes[center] = tuple(classes)
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


def test_trivial_group_rejected(trivial_group):
    fan = build_fan(trivial_group)
    qa = QuiverAnalysis(fan)
    with pytest.raises(NoExceptionalLocus):
        transform_profile(fan, qa, trivial_group.trivial_character)
    with pytest.raises(NoExceptionalLocus):
        support_h0(fan, qa, trivial_group.trivial_character)
