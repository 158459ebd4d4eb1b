"""Junior simplex points and simplicial cones in the weight lattice.

Each group keeps one table of its junior points, keyed by n*e (n = |G|) in
lex order and read off the integer element walk, so every cone, fan and
divisor table shares one index per junior point.  Its `WeightVector`s are
output views over the group's own `Fraction`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInLattice
from .groups import GroupData

CORNERS = (
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)


@dataclass(frozen=True, order=True)
class WeightVector:
    """A point of the junior simplex: l in L with l >= 0 and sum(l) = 1."""

    coords: tuple[Fraction, Fraction, Fraction]

    @property
    def is_corner(self) -> bool:
        return self.coords in CORNERS

    @property
    def is_boundary(self) -> bool:
        """True on the boundary of the simplex (some coordinate vanishes)."""
        return any(v == 0 for v in self.coords)

    @property
    def is_interior(self) -> bool:
        return all(v > 0 for v in self.coords)

    def scaled(self, n: int) -> tuple[int, int, int]:
        """Integer coordinates n*l; NotInLattice unless every one is integral."""
        pairs = tuple(divmod(v.numerator * n, v.denominator) for v in self.coords)
        if any(rest for _, rest in pairs):
            raise NotInLattice(f"{self} is not a point of the lattice (1/{n})Z^3")
        return tuple(v for v, _ in pairs)

    def __repr__(self) -> str:
        return "(" + ",".join(str(v) for v in self.coords) + ")"


@dataclass(frozen=True)
class Cone:
    """A simplicial cone spanned by 1-3 junior-simplex rays."""

    rays: tuple[WeightVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(sorted(self.rays)))

    @classmethod
    def from_sorted(cls, rays: tuple[WeightVector, ...]) -> "Cone":
        """A cone of rays already in lex order, taken as they are."""
        cone = object.__new__(cls)
        object.__setattr__(cone, "rays", rays)
        return cone

    @property
    def dim(self) -> int:
        return len(self.rays)


def junior_table(group: GroupData) -> dict[tuple[int, int, int], WeightVector]:
    """All lattice points e of the junior simplex, corners included, keyed by
    n*e and in lex order; built once per group and kept on it.  An element
    N*e (N = group.modulus) is junior when it sums to N, and n*e = n*(N*e)//N;
    the corners go first, after the elements with x = 0, and last."""
    table = group._junior_table
    if table is None:
        n, modulus = group.order, group.modulus
        x, y, z = ((tuple(n * (i == k) for i in range(3)), c) for k, c in enumerate(CORNERS))
        points = [z]
        for (a, b, c), coords in zip(group.element_triples, group.elements):
            if a + b + c == modulus:
                if a and y:
                    points.append(y)
                    y = None
                points.append(((a * n // modulus, b * n // modulus, c * n // modulus), coords))
        points += [y, x] if y else [x]
        table = group._junior_table = {}
        for triple, coords in points:
            table[triple] = WeightVector(coords)
    return table


def junior_points(group: GroupData) -> list[WeightVector]:
    """All lattice points of the junior simplex, corners included, in lex order."""
    return list(junior_table(group).values())
