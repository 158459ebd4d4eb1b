"""Shared fixtures: the hand-checked groups and their pipelines, built once."""

import pytest
from hypothesis import strategies as st

from mckay_lab import (
    QuiverAnalysis,
    build_fan,
    group_from_generators,
    marked_triangulation,
    parse_group_spec,
)


def sl3_cyclic(max_r=12):
    """Generators (r, (a, b, c)) of cyclic subgroups of SL3 with 2 <= r <= max_r."""
    return st.tuples(
        st.integers(min_value=2, max_value=max_r),
        st.integers(min_value=0, max_value=max_r - 1),
        st.integers(min_value=0, max_value=max_r - 1),
    ).map(lambda t: (t[0], (t[1] % t[0], t[2] % t[0], (-t[1] - t[2]) % t[0])))


# cyclic groups of order <= 10 and products of two cyclic groups of order <= 4
small_groups = st.one_of(
    sl3_cyclic(10).map(lambda g: [g]),
    st.lists(sl3_cyclic(4), min_size=2, max_size=2),
).map(group_from_generators)


# Z/m x Z/m for m = 2..6, as specs
SQUARE_PRODUCTS = [f"{m}:1,{m - 1},0+{m}:0,1,{m - 1}" for m in range(2, 7)]

# Z/m x Z/mn for m, n in {2, 3}: Z/2 x Z/4, Z/2 x Z/6, Z/3 x Z/6, Z/3 x Z/9
RECTANGULAR_PRODUCTS = [
    f"{m}:1,{m - 1},0+{m * n}:0,1,{m * n - 1}" for m in (2, 3) for n in (2, 3)
]

# presentations with a generator that already lies in the group, each
# against the presentation without it
REDUNDANT_PRESENTATIONS = {
    "7:1,2,4+7:2,4,1": "7:1,2,4",
    "7:3,6,5+7:1,2,4": "7:1,2,4",
    "6:1,2,3+3:2,1,0+2:1,0,1": "6:1,2,3",
    "9:1,2,6+3:1,2,0": "9:1,2,6",
    "3:1,2,0+3:0,1,2+3:1,0,2": "3:1,2,0+3:0,1,2",
}


class Pipeline:
    """Everything computed for one group, for compact test access."""

    def __init__(self, spec):
        self.group = parse_group_spec(spec)
        self.fan = build_fan(self.group)
        self.qa = QuiverAnalysis(self.fan)
        self.marked = marked_triangulation(self.fan)

    def ray(self, coords):
        from fractions import Fraction

        from mckay_lab import WeightVector

        return self.group.ray_index(WeightVector(tuple(Fraction(c) for c in coords)))

    def chi(self, *residues):
        return next(
            c for c in self.group.characters if c.residues == tuple(residues)
        )

    def pos(self, *residues):
        """The position in group.characters of the character with these residues."""
        return self.group.index[self.chi(*residues)]

    def edge(self, coords_a, coords_b):
        return self.fan.edge_between(self.ray(coords_a), self.ray(coords_b))


_CACHE = {}


def pipeline(spec):
    if spec not in _CACHE:
        _CACHE[spec] = Pipeline(spec)
    return _CACHE[spec]


@pytest.fixture(scope="session")
def p3():
    """1/3(1,1,1): one interior divisor, case 1 / shape A."""
    return pipeline("3:1,1,1")


@pytest.fixture(scope="session")
def p4():
    """1/4(1,1,2): case 2 / shape B at P plus a boundary divisor at Q."""
    return pipeline("4:1,1,2")


@pytest.fixture(scope="session")
def p13():
    """1/13(1,5,7): the quiver picture group."""
    return pipeline("13:1,5,7")


@pytest.fixture(scope="session")
def p6():
    return pipeline("6:1,2,3")


@pytest.fixture(scope="session")
def p2():
    return pipeline("2:1,1,0")


@pytest.fixture(scope="session")
def p22():
    """Z/2 x Z/2: every junior point on the boundary."""
    return pipeline("2:1,1,0+2:0,1,1")


@pytest.fixture(scope="session")
def p33():
    """Z/3 x Z/3: has a case-3 / shape-C divisor."""
    return pipeline("3:1,2,0+3:0,1,2")


@pytest.fixture(scope="session")
def trivial_group():
    return parse_group_spec("1:0,0,0")
