"""Randomized invariants over small groups, plus spot property suites."""

from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mckay_lab import (
    GroupVerification,
    QuiverAnalysis,
    build_fan,
    group_from_generators,
    parse_group_spec,
    verify_group,
)

from conftest import RECTANGULAR_PRODUCTS, REDUNDANT_PRESENTATIONS, sl3_cyclic, small_groups
from oracles import arrow_order, chart_pairing, divisor_q, valuation


@settings(max_examples=25, deadline=None)
@given(sl3_cyclic())
def test_fan_structure(gen):
    group = group_from_generators([gen])
    fan = build_fan(group)
    n = group.order
    assert len(fan.cone_rays) == n
    assert set(fan.rays) == set(group.junior_points)
    # volumes of unimodular cones cover the whole simplex
    from oracles import cone_is_unimodular

    assert all(
        cone_is_unimodular(group, [fan.rays[ri] for ri in triple]) for triple in fan.cone_rays
    )


@settings(max_examples=25, deadline=None)
@given(sl3_cyclic())
def test_chart_consistency_of_divisor_coefficients(gen):
    group = group_from_generators([gen])
    fan = build_fan(group)  # DivisorCoefficients raises on any disagreement
    for chi in group.characters:
        for ri in range(len(fan.rays)):
            q = divisor_q(fan, chi, ri)
            ci = fan.cones_at_ray[ri][0]
            assert q == valuation(fan.rays[ri], fan.ggraphs[ci].representative(chi))
        if chi.is_trivial:
            assert all(divisor_q(fan, chi, ri) == 0 for ri in range(len(fan.rays)))


@settings(max_examples=25, deadline=None)
@given(small_groups)
def test_divisor_table_agrees_with_every_chart(group):
    """The table-read arrow orders and q equal the pairings of each chart at
    each ray, not only the first."""
    fan = build_fan(group)
    qa = QuiverAnalysis(fan)
    for ri, ray in enumerate(fan.rays):
        mult = {
            (chi, o): arrow_order(qa, ri, chi, o) for chi in group.characters for o in "xyz"
        }
        for ci in fan.cones_at_ray[ri]:
            graph = fan.ggraphs[ci]
            assert chart_pairing(group, ray, graph) == mult
            for chi in group.characters:
                assert divisor_q(fan, chi, ri) == valuation(ray, graph.representative(chi))


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


@pytest.mark.parametrize("spec", sorted(REDUNDANT_PRESENTATIONS))
def test_a_redundant_generator_changes_nothing(spec):
    """A generator already in G, listed first or last, leaves the order, M,
    the rays, the cones and each cone's cluster as they were.  Clusters are
    compared as monomial sets: a redundant generator listed first can
    reorder the residues, so rows by position may differ."""
    groups = parse_group_spec(spec), parse_group_spec(REDUNDANT_PRESENTATIONS[spec])
    fans = [build_fan(group) for group in groups]
    assert groups[0].order == groups[1].order
    assert groups[0].invariant_basis == groups[1].invariant_basis
    assert groups[0].juniors == groups[1].juniors
    assert fans[0].cone_rays == fans[1].cone_rays
    assert [g.monomials for g in fans[0].ggraphs] == [g.monomials for g in fans[1].ggraphs]


@pytest.mark.parametrize("spec", RECTANGULAR_PRODUCTS)
def test_full_verification_passes_on_rectangular_products(spec):
    """Z/m x Z/mn with n > 1: products whose factors differ in order."""
    assert verify_group(parse_group_spec(spec))["pass"] is True


def _charted_cones(fan, sigma):
    """Each cone's rays, mapped by sigma, with its cluster mapped by sigma."""
    return {
        frozenset(sigma(fan.rays[ri].coords) for ri in triple): frozenset(
            sigma(m) for m in fan.ggraphs[ci].monomials
        )
        for ci, triple in enumerate(fan.cone_rays)
    }


def _character_facts(fan):
    return {
        tuple(e["residues"]): (e["marking_class"], e["degree"], len(e["components"]))
        for e in GroupVerification(fan).per_character
    }


@settings(max_examples=20, deadline=None)
@given(sl3_cyclic(max_r=10), st.permutations(range(3)))
def test_permuting_the_weights_permutes_everything(gen, perm):
    """With the weights permuted by sigma, sigma maps the rays, each cone and
    its cluster onto the new fan; the monomial sigma(m) has the character of
    m, which keeps its marking class, degree and component count."""
    r, weights = gen

    def sigma(v):
        return tuple(v[p] for p in perm)

    fan = build_fan(group_from_generators([gen]))
    permuted = build_fan(group_from_generators([(r, sigma(weights))]))
    assert {sigma(ray.coords) for ray in fan.rays} == {ray.coords for ray in permuted.rays}
    assert _charted_cones(fan, sigma) == _charted_cones(permuted, tuple)
    assert _character_facts(fan) == _character_facts(permuted)
