"""Junior simplex points and simplicial cones in the weight lattice.

Each group keeps one table of its junior points, keyed by the integer
triples n*e (n = |G|), so every cone, fan and divisor table shares one
`WeightVector` per junior point; a ray's scaled coordinates are computed
once per scale and kept on the `WeightVector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateCone
from .groups import GroupData
from .intlin import det3

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
        """Integer coordinates n*l (n a multiple of every denominator), kept
        on the object per n."""
        # kept beside the dataclass field, which alone drives eq, order and hash
        fields = self.__dict__
        memo = fields.get("_scaled")
        if memo is None:
            memo = fields["_scaled"] = {}
        triple = memo.get(n)
        if triple is None:
            pairs = tuple(divmod(v.numerator * n, v.denominator) for v in self.coords)
            assert not any(rest for _, rest in pairs)
            triple = memo[n] = tuple(v for v, _ in pairs)
        return triple

    def __repr__(self) -> str:
        return "(" + ",".join(str(v) for v in self.coords) + ")"


@dataclass(frozen=True)
class Cone:
    """A simplicial cone spanned by 1-3 junior-simplex rays."""

    rays: tuple[WeightVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(sorted(self.rays)))

    @property
    def dim(self) -> int:
        return len(self.rays)


def junior_table(group: GroupData) -> dict[tuple[int, int, int], WeightVector]:
    """All lattice points e of the junior simplex, corners included, keyed by
    n*e and in lex order; built once per group and kept on it."""
    table = group._junior_table
    if table is None:
        n = group.order
        points = {WeightVector(c) for c in CORNERS}
        points.update(WeightVector(el) for el in group.elements if sum(el) == 1)
        table = group._junior_table = {p.scaled(n): p for p in sorted(points)}
    return table


def junior_points(group: GroupData) -> list[WeightVector]:
    """All lattice points of the junior simplex, corners included, in lex order."""
    return list(junior_table(group).values())


def cone_is_unimodular(group: GroupData, cone: Cone) -> bool:
    """True iff the three rays form a Z-basis of L, i.e. |det| = 1/n for
    n = |G|: in integers, |det(n*e1, n*e2, n*e3)| = n^2."""
    if cone.dim != 3:
        raise DegenerateCone(f"expected a 3-cone, got dimension {cone.dim}")
    n = group.order
    if any(n % v.denominator for r in cone.rays for v in r.coords):
        return False  # a ray outside (1/n)Z^3 lies outside L
    d = det3([r.scaled(n) for r in cone.rays])
    if d == 0:
        raise DegenerateCone("cone rays are linearly dependent")
    return abs(d) == n * n
