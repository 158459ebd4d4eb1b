"""Finite abelian diagonal subgroups of SL(3,C) as lattice quotients, and
the facts that depend on the group alone.

A group generated by diag(eps^a, eps^b, eps^c), eps a primitive r-th root of
unity, is stored through the sublattice M of Z^3 of invariant Laurent
monomials, M = {m : (a,b,c).m = 0 mod r for every generator}, held as its
Hermite basis.  Characters are the classes of Z^3/M, represented by their
pairing residues against the given generators, so that for a cyclic
1/r(a,b,c) the monomial x^i y^j z^k has character (a*i + b*j + c*k) mod r.
Every character has one lift x^i y^j with i < d = ord kappa(x) and j < n/d,
and one pass over the lifts' residues gives the sorted characters, their
positions and the McKay quiver by position: one row of three heads and one
of three tails per character.  The lifts are also the seed cluster and the
quiver's torus positions.

The junior points e (the elements with coordinate sum 1, and the corners)
are read off the integer element walk in lex order, as n*e (n = |G|) and as
`WeightVector` views over the elements' own `Fraction`s.  They are the rays
of every crepant fan, a ray index being a position in them, so the group
holds each of their facts: the exceptional and interior ones, the lookup
from a point, and the divisor table of n*q(chi, e), the least (n*e).m over
the monomials m of chi, per junior point and character, with each row's sum,
the height H(e), built on first use as a tuple of tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import EmptyGenerators, InconsistentGroup, NotInLattice, NotInSL3, UnknownCone
from .intlin import det3, dot3, hnf_rows

Monomial = tuple  # (i, j, k) exponents of x^i y^j z^k; Laurent if negatives allowed

MONO_ONE: Monomial = (0, 0, 0)
VARIABLES = ("x", "y", "z")


def mono_divides(m1: Monomial, m2: Monomial) -> bool:
    return m1[0] <= m2[0] and m1[1] <= m2[1] and m1[2] <= m2[2]


def mono_str(m: Monomial) -> str:
    """Compact text form: (2,1,0) -> 'x^2y', (0,0,0) -> '1'."""
    parts = []
    for var, e in zip(VARIABLES, m):
        if e == 1:
            parts.append(var)
        elif e != 0:
            parts.append(f"{var}^{e}")
    return "".join(parts) or "1"


CORNERS = (
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)


class WeightVector(NamedTuple):
    """A point of the junior simplex: l in L with l >= 0 and sum(l) = 1."""

    coords: tuple[Fraction, Fraction, Fraction]

    @property
    def is_corner(self) -> bool:
        return self.coords in CORNERS

    @property
    def is_boundary(self) -> bool:
        """True on the boundary of the simplex (some coordinate vanishes)."""
        return any(v == 0 for v in self.coords)

    def scaled(self, n: int) -> tuple[int, int, int]:
        """Integer coordinates n*l; NotInLattice unless every one is integral."""
        pairs = tuple(divmod(v.numerator * n, v.denominator) for v in self.coords)
        if any(rest for _, rest in pairs):
            raise NotInLattice(f"{self} is not a point of the lattice (1/{n})Z^3")
        return tuple(v for v, _ in pairs)

    def __repr__(self) -> str:
        return "(" + ",".join(str(v) for v in self.coords) + ")"


class Character(NamedTuple):
    """An element of Z^3/M, as pairing residues against the group generators."""

    residues: tuple[int, ...]
    moduli: tuple[int, ...]

    def __mul__(self, other: "Character") -> "Character":
        return Character(
            tuple((a + b) % r for a, b, r in zip(self.residues, other.residues, self.moduli)),
            self.moduli,
        )

    @property
    def is_trivial(self) -> bool:
        return not any(self.residues)

    def label(self) -> str:
        if len(self.residues) == 1:
            return f"chi_{self.residues[0]}"
        if not self.residues:  # the trivial group's one character
            return "chi_0"
        return "chi_(" + ",".join(str(a) for a in self.residues) + ")"

    def __repr__(self) -> str:
        return self.label()


class GroupData:
    """Container for one finite abelian diagonal subgroup.

    Built by :func:`group_from_generators` and never written after its
    constructor, but for the divisor table (`divisor_rows` and `heights`),
    which it builds itself on first use.  It owns every junior-point fact.
    The characters are sorted by residues, so the trivial one is at
    position 0 of `characters` and of every per-character table.
    """

    def __init__(self, generators):
        gens = _normalize_generators(generators)
        self.generators = gens
        # residue coordinates pair against every nontrivial generator
        self.moduli = tuple(r for r, _ in gens) or ()

        # the elements e as N*e (N the lcm of the generator orders) in lex
        # order, and as Fraction triples sharing one object per value
        self.modulus, self.element_triples = _element_closure(gens)
        fractions = [Fraction(v, self.modulus) for v in range(self.modulus)]
        self.elements = tuple(tuple(fractions[v] for v in e) for e in self.element_triples)
        self.order = len(self.elements)
        self.juniors, self.junior_points = self._read_juniors()
        # the exceptional rays are the non-corner points (no coordinate n),
        # the interior ones those of compact divisors (no coordinate 0)
        n = self.order
        self.exceptional_ray_indices = tuple(i for i, s in enumerate(self.juniors) if n not in s)
        self.interior_ray_indices = tuple(i for i, s in enumerate(self.juniors) if 0 not in s)
        self._ray_index = {s: i for i, s in enumerate(self.juniors)}

        self.invariant_basis = _invariant_basis(gens)
        self._check_indices()

        # xyz is invariant, so y steps through the cosets of <kappa(x)>; least
        # in j, then in i, the lifts are the (1, n, n^2)-least monomials
        d = self.character_order(Character(tuple([w[0] for _, w in gens]), self.moduli))
        lifts = {
            tuple([(a * i + b * j) % r for r, (a, b, _) in gens]): (i, j, 0)
            for j in range(n // d)
            for i in range(d)
        }
        if len(lifts) != n:
            raise InconsistentGroup(
                f"{len(lifts)} distinct characters among the lifts x^i y^j "
                f"(i < {d}, j < {n // d}) != group order {n}"
            )
        # head_rows[k][o] is the position of the k-th character times
        # kappa(o-th variable), tail_rows[k][o] the position of the tail of
        # the o-arrow into it
        keys = sorted(lifts)
        self.characters = tuple(Character(key, self.moduli) for key in keys)
        self.trivial_character = self.characters[0]
        self.lifts = tuple(map(lifts.get, keys))
        self._by_residues = dict(zip(keys, self.characters))
        self.index = {chi: k for k, chi in enumerate(self.characters)}
        position = dict(zip(keys, range(n)))
        # per variable, every key shifted by it, one residue column per
        # generator (with no generator every key is ()); the lookups run in
        # row order, so a miss names the first missing head
        columns = list(zip(*keys))
        shifted = [
            list(zip(*[[(a + w[o]) % r for a in col] for col, (r, w) in zip(columns, gens)])) or keys
            for o in range(3)
        ]
        try:
            self.head_rows = tuple(zip(*[map(position.__getitem__, c) for c in shifted]))
        except KeyError as exc:
            raise InconsistentGroup(f"head {exc} not among the {n} lifted characters") from None
        tails = [[0, 0, 0] for _ in self.characters]
        for k, row in enumerate(self.head_rows):
            for o, h in enumerate(row):
                tails[h][o] = k
        self.tail_rows = tuple(map(tuple, tails))

    def _read_juniors(self):
        """The junior points e in lex order, corners included: as n*e and as
        `WeightVector`s.  An element N*e (N = modulus) is junior when it sums
        to N, and n*e = n*(N*e)//N; the scaled points are distinct, so they
        alone set the order."""
        n, modulus = self.order, self.modulus
        points = [(tuple(n * (i == k) for i in range(3)), c) for k, c in enumerate(CORNERS)]
        points += [
            ((a * n // modulus, b * n // modulus, c * n // modulus), coords)
            for (a, b, c), coords in zip(self.element_triples, self.elements)
            if a + b + c == modulus
        ]
        points.sort()
        scaled, coords = zip(*points)
        return scaled, tuple(map(WeightVector, coords))

    def ray_index(self, point: WeightVector) -> int:
        """The one lookup from a point to its position in junior_points:
        NotInLattice off the lattice (1/n)Z^3, UnknownCone off the juniors."""
        ri = self._ray_index.get(point.scaled(self.order))
        if ri is None:
            raise UnknownCone(f"{point} is not a junior point, so no ray of a fan")
        return ri

    # -- the divisor table -------------------------------------------------

    def least_valuations(self, weight) -> list[int]:
        """The least weight.m over the monomials m of each character, in the
        order of characters.

        A monomial is a path from the trivial character in the McKay quiver,
        so this is Dijkstra over positions with an o-arrow costing weight[o]
        (all nonnegative); each position's distance is unique, whatever the
        order ties pop in.  With only three arrow costs the heap is one FIFO
        list per arrow type: positions pop in nondecreasing distance d, so
        each list, fed d + weight[o], stays sorted, and the least of the
        three heads is the next pop.  A bucket (Dial) queue over the integer
        distances is not used: they reach about n^2/8 on 1/n(1,1,n-2), every
        bucket up to the largest is visited, and in CPython that is slower
        than the three lists at large order.
        """
        heads, n = self.head_rows, self.order
        least: list[int | None] = [None] * n
        wx, wy, wz = weight
        empty = (wx + wy + wz) * n + 1  # above every distance: each list's last entry
        dx, dy, dz = [empty], [empty], [empty]  # the distances in each list
        px, py, pz = [], [], []  # and their positions
        ix = iy = iz = 0  # the heads' indices
        d = k = 0  # the trivial character, at distance 0
        left = n
        while True:
            if least[k] is None:
                least[k] = d
                left -= 1
                if not left:
                    return least
                hx, hy, hz = heads[k]
                if least[hx] is None:
                    dx[-1] = d + wx
                    dx.append(empty)
                    px.append(hx)
                if least[hy] is None:
                    dy[-1] = d + wy
                    dy.append(empty)
                    py.append(hy)
                if least[hz] is None:
                    dz[-1] = d + wz
                    dz.append(empty)
                    pz.append(hz)
            a, b, c = dx[ix], dy[iy], dz[iz]
            if a <= b and a <= c:
                if a == empty:
                    raise InconsistentGroup(f"{left} characters unreached by the McKay quiver")
                d, k = a, px[ix]
                ix += 1
            elif b <= c:
                d, k = b, py[iy]
                iy += 1
            else:
                d, k = c, pz[iz]
                iz += 1

    @cached_property
    def divisor_rows(self) -> tuple[tuple[int, ...], ...]:
        """One row per junior point e, by position in juniors:
        least_valuations(n*e), that is n*q(chi, e) for every character chi."""
        return tuple(tuple(self.least_valuations(s)) for s in self.juniors)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """The height H(e) of every junior point e, the sum of its row."""
        return tuple(map(sum, self.divisor_rows))

    # -- characters --------------------------------------------------------

    def kappa(self, m: Monomial) -> Character:
        """Character of a (Laurent) monomial: its class in Z^3/M, the group's own object."""
        return self._by_residues[tuple([dot3(w, m) % r for r, w in self.generators])]

    def character_order(self, chi: Character) -> int:
        """The lcm over the generators of r/gcd(a, r), a the residue of chi
        against a generator of order r."""
        return math.lcm(*(r // math.gcd(a, r) for a, r in zip(chi.residues, self.moduli)))

    def spec_string(self) -> str:
        """Round-trippable 'r:a,b,c+...' syntax."""
        return "+".join(f"{r}:{w[0]},{w[1]},{w[2]}" for r, w in self.generators) or "1:0,0,0"

    def _check_indices(self) -> None:
        # |G| = [Z^3 : M]: the lattice against the element walk
        index = abs(det3(self.invariant_basis))
        if index != self.order:
            raise InconsistentGroup(
                f"invariant lattice index {index} != element count {self.order}"
            )

    def __repr__(self) -> str:
        return f"GroupData({self.spec_string()!r}, order={self.order})"


def _normalize_generators(generators):
    gens = []
    for r, weights in generators:
        r = int(r)
        a, b, c = (int(w) for w in weights)
        if r < 1:
            raise NotInSL3(f"generator order {r} must be >= 1")
        if (a + b + c) % r:
            raise NotInSL3(f"weights {(a, b, c)} do not sum to 0 mod {r}")
        reduced = (a % r, b % r, c % r)
        if reduced == (0, 0, 0):
            continue  # trivial generator contributes nothing
        if (r, reduced) not in gens:
            gens.append((r, reduced))
    return tuple(gens)


def _element_closure(gens):
    """(N, the sorted triples N*e) over the group's elements e in [0,1)^3,
    N the lcm of the generator orders: the walk runs on the integer triples
    N*e mod N, and sorting them sorts the elements.
    """
    modulus = math.lcm(*(r for r, _ in gens))
    steps = [tuple(w * (modulus // r) for w in weights) for r, weights in gens]
    zero = (0, 0, 0)
    seen = {zero}
    frontier = [zero]
    while frontier:
        a, b, c = frontier.pop()
        for s in steps:
            nxt = ((a + s[0]) % modulus, (b + s[1]) % modulus, (c + s[2]) % modulus)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return modulus, tuple(sorted(seen))


def _invariant_basis(gens):
    """The Hermite basis of M, from one echelon form: the rows
    (w_1[j], ..., w_k[j] | e_j) and (r_i * e_i | 0) span the pairs
    (w.m + r*c | m), so the echelon rows that vanish on the k generator
    columns span M.  M holds N*Z^3, N the lcm of the orders, so three rows
    are left."""
    k = len(gens)
    rows = [
        tuple(w[j] for _, w in gens) + tuple(int(i == j) for i in range(3)) for j in range(3)
    ]
    rows += [tuple(r * (i == t) for t in range(k)) + (0, 0, 0) for i, (r, _) in enumerate(gens)]
    return tuple(row[k:] for row in hnf_rows(rows) if not any(row[:k]))


def group_from_generators(generators) -> GroupData:
    """Build a GroupData from (r, (a, b, c)) generator pairs."""
    gens = list(generators)
    if not gens:
        raise EmptyGenerators("at least one generator is required")
    return GroupData(gens)


def parse_group_spec(spec: str) -> GroupData:
    """Parse the 'r:a,b,c' syntax, with '+' joining product factors."""
    gens = []
    for part in spec.split("+"):
        part = part.strip()
        if not part:
            continue
        try:
            r_text, w_text = part.split(":")
            weights = tuple(int(v) for v in w_text.split(","))
            if len(weights) != 3:
                raise ValueError
            gens.append((int(r_text), weights))
        except ValueError as exc:
            raise NotInSL3(f"cannot parse group factor {part!r}") from exc
    return group_from_generators(gens)

