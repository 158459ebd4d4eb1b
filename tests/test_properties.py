"""Randomized invariants over small groups, plus spot property suites."""

from hypothesis import given, settings, strategies as st

from mckay_lab import (
    build_fan,
    group_from_generators,
    junior_points,
    minimal_monomials,
    valuation,
    verify_group,
)
from mckay_lab.groups import mono_divides


def sl3_cyclic(max_r=12):
    return st.tuples(
        st.integers(min_value=2, max_value=max_r),
        st.integers(min_value=0, max_value=max_r - 1),
        st.integers(min_value=0, max_value=max_r - 1),
    ).map(lambda t: (t[0], (t[1] % t[0], t[2] % t[0], (-t[1] - t[2]) % t[0])))


@settings(max_examples=30, deadline=None)
@given(sl3_cyclic(), st.tuples(*[st.integers(0, 8)] * 3))
def test_minimal_monomials_dominate(gen, mono):
    group = group_from_generators([gen])
    chi = group.kappa(mono)
    mins = minimal_monomials(group, chi)
    assert any(mono_divides(m, mono) for m in mins)
    assert all(
        not mono_divides(m1, m2)
        for m1 in mins
        for m2 in mins
        if m1 != m2
    )


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


@settings(max_examples=12, deadline=None)
@given(sl3_cyclic(max_r=10))
def test_full_verification_passes(gen):
    assert verify_group(group_from_generators([gen]))["pass"]


@settings(max_examples=8, deadline=None)
@given(sl3_cyclic(max_r=4), sl3_cyclic(max_r=4))
def test_full_verification_passes_on_products(gen1, gen2):
    group = group_from_generators([gen1, gen2])
    assert verify_group(group)["pass"]
