"""Randomized invariants over small groups, plus spot property suites."""

from math import gcd

from hypothesis import assume, example, given, settings, strategies as st

from mckay_lab import (
    QuiverAnalysis,
    build_fan,
    group_from_generators,
    junior_points,
    valuation,
    verify_group,
)

from conftest import sl3_cyclic, small_groups
from oracles import chart_pairing


@settings(max_examples=25, deadline=None)
@given(sl3_cyclic())
def test_fan_structure(gen):
    group = group_from_generators([gen])
    fan = build_fan(group)
    n = group.order
    assert len(fan.cones) == n
    assert set(fan.rays) == set(junior_points(group))
    # volumes of unimodular cones cover the whole simplex
    from mckay_lab import cone_is_unimodular

    assert all(cone_is_unimodular(group, c) for c in fan.cones)


@settings(max_examples=25, deadline=None)
@given(sl3_cyclic())
def test_chart_consistency_of_divisor_coefficients(gen):
    group = group_from_generators([gen])
    fan = build_fan(group)  # DivisorCoefficients raises on any disagreement
    for chi in group.characters:
        for ri in range(len(fan.rays)):
            q = fan.q(chi, ri)
            ci = fan.cones_at_ray(ri)[0]
            assert q == valuation(fan.rays[ri], fan.ggraphs[ci].representative(chi))
        if chi.is_trivial:
            assert all(fan.q(chi, ri) == 0 for ri in range(len(fan.rays)))


@settings(max_examples=25, deadline=None)
@given(small_groups)
def test_divisor_table_agrees_with_every_chart(group):
    """The table-read arrow orders and q equal the pairings of each chart at
    each ray, not only the first."""
    fan = build_fan(group)
    qa = QuiverAnalysis(fan)
    for ri, ray in enumerate(fan.rays):
        mult = qa.multiplicities(ri)
        for ci in fan.cones_at_ray(ri):
            graph = fan.ggraphs[ci]
            assert chart_pairing(group, ray, graph) == mult
            for chi in group.characters:
                assert fan.q(chi, ri) == valuation(ray, graph.representative(chi))


@settings(max_examples=12, deadline=None)
@given(sl3_cyclic(max_r=10))
def test_full_verification_passes(gen):
    assert verify_group(group_from_generators([gen]))["pass"]


@settings(max_examples=8, deadline=None)
@given(sl3_cyclic(max_r=4), sl3_cyclic(max_r=4))
def test_full_verification_passes_on_products(gen1, gen2):
    group = group_from_generators([gen1, gen2])
    assert verify_group(group)["pass"]


def _fan_picture(group):
    fan = build_fan(group)
    return fan.rays, fan.cone_rays, [frozenset(g.monomials) for g in fan.ggraphs]


@settings(max_examples=20, deadline=None)
@given(sl3_cyclic(), st.integers(min_value=1, max_value=40))
@example((36, (1, 1, 34)), 35)  # 36:35,35,2 against 36:1,1,34
def test_fan_is_independent_of_the_generator(gen, k):
    """k*(a,b,c) with gcd(k, r) = 1 generates the same subgroup, so the rays,
    the cones and each cone's cluster are the same."""
    r, weights = gen
    assume(gcd(k, r) == 1)
    other = (r, tuple(k * w % r for w in weights))
    assert _fan_picture(group_from_generators([gen])) == _fan_picture(
        group_from_generators([other])
    )

