from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mckay_lab.groups
from mckay_lab import group_from_generators, parse_group_spec
from mckay_lab.errors import EmptyGenerators, InconsistentGroup, NotInLattice, NotInSL3
from mckay_lab.groups import Character, GroupData, _element_closure, mono_str
from mckay_lab.intlin import det3, dot3, hnf_rows

from conftest import REDUNDANT_PRESENTATIONS, RECTANGULAR_PRODUCTS, SQUARE_PRODUCTS, small_groups
from oracles import (
    age,
    box_least,
    box_monomials,
    character_closure,
    character_inverse,
    character_order_by_powers,
    fraction_element_closure,
    least_valuations_by_heap,
)


def test_order_from_picture_group():
    assert parse_group_spec("13:1,5,7").order == 13


def test_trivial_group():
    g = group_from_generators([(1, (0, 0, 0))])
    assert g.order == 1
    assert g.invariant_basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_product_group_order():
    g = group_from_generators([(2, (1, 1, 0)), (2, (0, 1, 1))])
    assert g.order == 4
    # non-cyclic: every nontrivial character has order 2
    assert all(
        g.character_order(c) == 2 for c in g.characters if not c.is_trivial
    )


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        small_groups,
        st.sampled_from(SQUARE_PRODUCTS).map(parse_group_spec),
    )
)
def test_character_order_from_residues_matches_the_powers(group):
    for chi in group.characters:
        assert group.character_order(chi) == character_order_by_powers(chi)


@settings(max_examples=40, deadline=None)
@given(small_groups)
def test_integer_element_closure_matches_fraction_walk(group):
    elements = group.elements
    assert elements == fraction_element_closure(group.generators)
    assert all(type(v) is Fraction for e in elements for v in e)
    modulus, triples = _element_closure(group.generators)
    assert triples == group.element_triples
    assert triples == tuple(tuple(v * modulus for v in e) for e in elements)


@pytest.mark.parametrize("m", range(2, 7))
def test_integer_element_closure_on_products(m):
    gens = ((m, (1, m - 1, 0)), (m, (0, 1, m - 1)))
    elements = group_from_generators(gens).elements
    assert elements == fraction_element_closure(gens)
    assert len(elements) == m * m


def test_rejects_non_sl3():
    with pytest.raises(NotInSL3):
        group_from_generators([(5, (1, 1, 2))])


def test_rejects_empty():
    with pytest.raises(EmptyGenerators):
        group_from_generators([])


def test_redundant_generators_are_idempotent():
    g1 = group_from_generators([(3, (1, 1, 1))])
    g2 = group_from_generators([(3, (1, 1, 1)), (3, (2, 2, 2))])
    assert g1.order == g2.order == 3
    assert g1.invariant_basis == g2.invariant_basis


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        small_groups,
        st.sampled_from(
            SQUARE_PRODUCTS + RECTANGULAR_PRODUCTS + list(REDUNDANT_PRESENTATIONS)
        ).map(parse_group_spec),
    )
)
def test_invariant_basis_is_the_hermite_basis_of_m(group):
    """Every row is invariant under every generator, the rows have index |G|
    in Z^3, so they span all of M, and they are already in Hermite form."""
    basis = group.invariant_basis
    assert all(dot3(w, m) % r == 0 for m in basis for r, w in group.generators)
    assert abs(det3(basis)) == group.order
    assert tuple(hnf_rows(basis)) == basis


def test_index_check_rejects_a_short_element_walk(monkeypatch):
    """An element walk that misses one element disagrees with [Z^3 : M]: a
    seeded internal fault, so an internal guard fires, not an input error."""
    closure = mckay_lab.groups._element_closure
    monkeypatch.setattr(
        mckay_lab.groups,
        "_element_closure",
        lambda gens: (lambda modulus, triples: (modulus, triples[:-1]))(*closure(gens)),
    )
    with pytest.raises(InconsistentGroup, match="invariant lattice index 13 != element count 12"):
        parse_group_spec("13:1,5,7")


def test_kappa_examples():
    g3 = parse_group_spec("3:1,1,1")
    assert g3.kappa((1, 0, 0)).residues == (1,)
    assert g3.kappa((1, 1, 1)).is_trivial
    g2 = parse_group_spec("2:1,1,0")
    assert g2.kappa((0, 0, 1)).is_trivial  # z is invariant


def test_age_examples():
    g = parse_group_spec("13:1,5,7")
    assert age(g, (Fraction(1, 13), Fraction(5, 13), Fraction(7, 13))) == 1
    assert age(g, (0, 0, 0)) == 0
    assert age(g, (Fraction(5, 13), Fraction(12, 13), Fraction(9, 13))) == 2
    with pytest.raises(NotInLattice):
        age(g, (Fraction(1, 2), Fraction(1, 2), 0))
    with pytest.raises(NotInLattice):
        age(g, (Fraction(14, 13), 0, 0))


def test_character_group_structure():
    g = parse_group_spec("4:1,1,2")
    assert len(g.characters) == 4
    chi1 = g.kappa((1, 0, 0))
    chi2 = g.kappa((0, 0, 1))
    assert chi1.residues == (1,) and chi2.residues == (2,)
    assert (chi1 * chi2).residues == (3,)
    assert character_inverse(chi1).residues == (3,)


def test_mono_str():
    assert mono_str((2, 1, 0)) == "x^2y"
    assert mono_str((0, 0, 0)) == "1"
    assert mono_str((0, 0, 3)) == "z^3"


def test_spec_string_roundtrip():
    for spec in ("3:1,1,1", "13:1,5,7", "2:1,1,0+2:0,1,1"):
        g = parse_group_spec(spec)
        assert parse_group_spec(g.spec_string()).order == g.order


# -- randomized properties ---------------------------------------------------

def sl3_cyclic():
    def build(draw_tuple):
        r, a, b = draw_tuple
        return (r, (a % r, b % r, (-a - b) % r))

    return st.tuples(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
    ).map(build)


@given(sl3_cyclic(), st.tuples(*[st.integers(0, 6)] * 3), st.tuples(*[st.integers(0, 6)] * 3))
def test_kappa_is_a_monoid_homomorphism(gen, m1, m2):
    g = group_from_generators([gen])
    prod = tuple(a + b for a, b in zip(m1, m2))
    assert g.kappa(prod) == g.kappa(m1) * g.kappa(m2)


@given(sl3_cyclic())
def test_kappa_box_surjectivity_and_power_triviality(gen):
    g = group_from_generators([gen])
    n = g.order
    hit = {
        g.kappa((i, j, k))
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if min(i, j, k) == 0
    }
    assert len(hit) == n
    for unit in ((n, 0, 0), (0, n, 0), (0, 0, n)):
        assert g.kappa(unit).is_trivial


@given(sl3_cyclic())
def test_element_count_matches_order(gen):
    g = group_from_generators([gen])
    assert len(g.elements) == g.order
    ages = {age(g, el) for el in g.elements}
    assert ages <= {0, 1, 2}


@settings(max_examples=40, deadline=None)
@given(small_groups)
def test_arrow_tables_match_kappa(group):
    """head_rows[k][o] is the position of the k-th character times the
    character of the o-th variable, and tail_rows inverts it arrow by arrow."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    chars = group.characters
    assert len(group.head_rows) == len(group.tail_rows) == group.order
    for k, chi in enumerate(chars):
        for o, unit in enumerate(units):
            head = group.head_rows[k][o]
            assert chars[head] == chi * group.kappa(unit)
            assert group.tail_rows[head][o] == k
            assert chars[group.tail_rows[k][o]] * group.kappa(unit) == chi


@settings(max_examples=40, deadline=None)
@given(small_groups)
def test_characters_are_the_groups_own_objects(group):
    """kappa of every box monomial is the element of group.characters with
    its residues, not an equal copy."""
    own = {chi.residues: chi for chi in group.characters}
    for m in box_monomials(group.order):
        chi = group.kappa(m)
        assert chi is own[chi.residues]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        small_groups,
        st.sampled_from(
            SQUARE_PRODUCTS + RECTANGULAR_PRODUCTS + list(REDUNDANT_PRESENTATIONS)
        ).map(parse_group_spec),
    )
)
def test_the_trivial_character_comes_first(group):
    """The characters are sorted by residues, so every reader may take
    position 0 for the trivial character."""
    assert group.characters[0] is group.trivial_character
    assert group.index[group.trivial_character] == 0


def test_character_hash_is_the_field_hash():
    """The hash kept on each character is the hash of its fields, so an
    equal copy finds the group's own object in a dict."""
    group = parse_group_spec("3:1,2,0+3:0,1,2")
    for chi in group.characters:
        copy = Character(chi.residues, chi.moduli)
        assert copy is not chi and copy == chi
        assert hash(copy) == hash(chi) == hash((chi.residues, chi.moduli))
        assert group.index[copy] == group.index[chi]


weights = st.tuples(*[st.one_of(st.just(0), st.integers(0, 40))] * 3)


@settings(max_examples=60, deadline=None)
@given(small_groups, weights)
def test_fifo_least_valuations_match_the_heap(group, weight):
    """The three FIFO lists give Dijkstra's distances, at every junior point
    (a corner is (n, 0, 0)) and at weights with zero entries."""
    for s in group.juniors:
        assert group.least_valuations(s) == least_valuations_by_heap(group, s)
    assert group.least_valuations(weight) == least_valuations_by_heap(group, weight)


@pytest.mark.parametrize("weight", [(1, 1, 1), (0, 0, 0), (5, 0, 0)])
def test_unreached_position_is_inconsistent(weight):
    """A quiver whose arrows all lead back to the trivial character leaves
    the other positions unreached: the FIFO pass raises, it does not spin."""
    group = parse_group_spec("5:1,1,3")
    group.head_rows = ((0, 0, 0),) * group.order
    with pytest.raises(InconsistentGroup, match="unreached"):
        group.least_valuations(weight)


# x-invariant, trivial and product groups beside the drawn ones
LIFT_SPECS = (
    SQUARE_PRODUCTS
    + RECTANGULAR_PRODUCTS
    + list(REDUNDANT_PRESENTATIONS)
    + ["1:0,0,0", "12:0,1,11", "4:0,2,2"]
)


def _check_lifts(group):
    """The lifts give the closure's characters and arrows, and each lift is
    its character's (1, n, n^2)-least monomial in the box."""
    characters, head_rows, tail_rows = character_closure(group)
    assert group.characters == characters
    assert group.head_rows == head_rows
    assert group.tail_rows == tail_rows
    n = group.order
    best = box_least(group, (1, n, n * n))
    assert group.lifts == tuple(best[chi][1] for chi in group.characters)


@settings(max_examples=80, deadline=None)
@given(small_groups)
def test_lifts_match_the_closure_and_the_box_argmin(group):
    _check_lifts(group)


@pytest.mark.parametrize("spec", LIFT_SPECS)
def test_lifts_match_the_closure_and_the_box_argmin_on_products(spec):
    _check_lifts(parse_group_spec(spec))


@pytest.mark.parametrize(
    "spec, walk, message",
    [
        # the element walk counts every element twice: y^j for j < 24 repeats
        # the 12 characters
        pytest.param(
            "12:0,1,11", lambda t: t + t, r"12 distinct characters .* != group order 24", id="collide"
        ),
        # one element too many: the 13 lifts x^i fall short of 14
        pytest.param(
            "13:1,5,7", lambda t: t + t[:1], r"13 distinct characters .* != group order 14", id="short"
        ),
        # half the walk: y^j for j < 6 are 6 distinct characters, not closed
        pytest.param(
            "12:0,1,11", lambda t: t[:6], r"head \(11,\) not among the 6 lifted", id="unclosed"
        ),
    ],
)
def test_lift_guards_reject_a_wrong_element_count(monkeypatch, spec, walk, message):
    """With the index check off, an element walk of the wrong size gives
    lifts that collide, fall short or are not closed under the arrows: a
    seeded internal fault, so an internal guard fires and names the count."""
    closure = mckay_lab.groups._element_closure
    monkeypatch.setattr(
        mckay_lab.groups,
        "_element_closure",
        lambda gens: (lambda modulus, triples: (modulus, walk(triples)))(*closure(gens)),
    )
    monkeypatch.setattr(GroupData, "_check_indices", lambda self: None)
    with pytest.raises(InconsistentGroup, match=message):
        parse_group_spec(spec)
