"""The McKay quiver, arrow vanishing orders, and sink-source graphs.

Vertices are characters; from each vertex three arrows leave, one per
coordinate, landing on the character twisted by that coordinate's weight.
Along a fixed exceptional divisor each arrow either survives or vanishes to
first order, every quiver triangle loses exactly one of its three arrows,
and the vanishing pattern around a vertex places it in one of 18 classes:
two sinks, seven sources, six charges and three tiles.

Vertices are keyed by position in ``group.characters``, the arrows are the
group's tables ``head_rows`` and ``tail_rows``, and every per-ray fact is an
integer bitmask over the positions.  Every fact here is the group's alone:
only ``QuiverAnalysis.h0_loci(fan)`` reads a fan, for its interior edges.
One loop over the arrows (k, o) reads a ray's arrow orders off its row of
the divisor table into masks of vanishing out- and in-arrows; an order
other than 0 or 1 raises at its arrow.  Integer operations on the masks
give the triangle identity and the class masks: the sources, the (3,0)- and
(0,3)-sinks and the charges.  A vertex's class is _classify_pattern of its
two 3-bit spoke patterns.  A sink-source graph is a frozen value, built in
one call; its charge lines and shape are sought on interior divisors only,
where they are theorems: the sorted source bidegrees name the shape before
any line is walked, and each line is walked once into its table, which the
lengths are read off.  A boundary divisor's graph holds its class masks
alone.  The torus positions, for drawing, are the group's lifts x^i y^j
reduced modulo the projected invariant lattice.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import NamedTuple

from .errors import (
    InputError,
    InvalidSpokePattern,
    MultiplicityOutOfRange,
    ShapeUnrecognized,
    UnknownCone,
    WalkDiverged,
)
from .groups import GroupData, VARIABLES
from .intlin import hnf_rows


class VertexClass(NamedTuple):
    """One of the 18 vanishing patterns around a quiver vertex."""

    kind: str  # "sink" | "source" | "charge" | "tile"
    bidegree: tuple[int, int]  # charges emitted/received: (1,0)-type vs (0,1)-type
    orientation: str | None = None  # line orientation, None for (3,0)/(0,3)/(3,3)

    def label(self) -> str:
        deg = f"({self.bidegree[0]},{self.bidegree[1]})"
        if self.orientation:
            return f"{self.orientation}-{deg}-{self.kind}"
        return f"{deg}-{self.kind}"

    def __repr__(self) -> str:
        return self.label()


SINK30 = VertexClass("sink", (3, 0))
SINK03 = VertexClass("sink", (0, 3))
SOURCE33 = VertexClass("source", (3, 3))


@cache
def _classify_pattern(outs: int, ins: int) -> VertexClass:
    """Map the 3-bit patterns of vanishing out- and in-spokes (bit k for the
    k-th orientation) to a vertex class."""
    if outs and ins:
        if outs == ins and outs.bit_count() == 1:
            return VertexClass("tile", (0, 0), _orientation(outs))
        raise InvalidSpokePattern(f"mixed vanishing spokes out={outs:03b} in={ins:03b} (zyx)")
    if not outs and not ins:
        return SOURCE33
    spokes = outs or ins
    out_side = bool(outs)
    if spokes == 0b111:
        return SINK30 if out_side else SINK03
    if spokes.bit_count() == 1:
        # a vanishing out-spoke keeps one backward line: a (2,1)-source
        return VertexClass("source", (2, 1) if out_side else (1, 2), _orientation(spokes))
    # out-pairs sit on lines running along the arrows, in-pairs against them
    return VertexClass("charge", (1, 0) if out_side else (0, 1), _orientation(0b111 ^ spokes))


def _orientation(bit: int) -> str:
    return VARIABLES[bit.bit_length() - 1]


def _ones(a: int, b: int, c: int) -> int:
    """The bits set in exactly one of three masks."""
    return (a ^ b ^ c) & ~(a & b & c)


def _classes_at(masks, positions) -> list[VertexClass]:
    """The class of the vertex at each given position, read off a ray's
    masks: bit k of the x-, y- and z-masks makes the k-th spoke pattern."""
    (x, y, z), (ix, iy, iz) = masks
    return [
        _classify_pattern(
            (x >> k & 1) | (y >> k & 1) << 1 | (z >> k & 1) << 2,
            (ix >> k & 1) | (iy >> k & 1) << 1 | (iz >> k & 1) << 2,
        )
        for k in positions
    ]


class ClassMasks(NamedTuple):
    """The vertices of a ray's divisor in each class family, as bitmasks over
    the positions of group.characters."""

    sources: int  # (3,3)-, (2,1)- and (1,2)-sources
    sink30: int
    sink03: int
    charges: int  # (1,0)- and (0,1)-charges of every orientation


class ChargeLine(NamedTuple):
    """A straight run of same-orientation arrows from a source to a sink."""

    orientation: str
    chirality: tuple[int, int]  # (1,0): along the arrows, (0,1): against them
    source: int
    sink: int
    vertices: tuple[int, ...]  # from source to sink, endpoints included

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


# the shape of an interior divisor, named by its sorted source bidegrees
_SHAPES = {((3, 3),): "A", ((1, 2), (2, 1)): "B", ((2, 1),) * 3: "C"}


def _emitted(cls: VertexClass) -> list[tuple[str, int]]:
    """The (orientation, direction) of each line a source of the class
    emits, +1 along the arrows and -1 against them: a vanishing in-spoke
    keeps one forward line and two backward ones, a vanishing out-spoke
    one backward line and two forward ones."""
    if cls == SOURCE33:
        return [(o, d) for o in VARIABLES for d in (+1, -1)]
    one = +1 if cls.bidegree == (1, 2) else -1
    return [(cls.orientation, one)] + [(o, -one) for o in VARIABLES if o != cls.orientation]


class SinkSourceGraph(NamedTuple):
    """Per-divisor analysis: class masks, charge lines, shape and lengths,
    built whole by QuiverAnalysis._build_graph."""

    ray_index: int
    masks: ClassMasks
    lines: tuple[ChargeLine, ...] = ()  # the backward lines, then the forward ones
    shape: str | None = None  # "A" | "B" | "C", None on a boundary divisor
    lengths: dict | None = None  # as the report writes them

    @property
    def sources(self) -> list[int]:
        return list(_bits(self.masks.sources))

    @property
    def sink30_count(self) -> int:
        return self.masks.sink30.bit_count()

    def sink03_vertices(self) -> list[int]:
        return list(_bits(self.masks.sink03))


class QuiverAnalysis:
    """Arrow vanishing data along every divisor of one group; only h0_loci reads a fan."""

    def __init__(self, group: GroupData):
        self.group = group
        self._h0 = (None, None)  # the fan h0_loci last swept, and its loci
        self._masks: dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]] = {}
        self._class_masks: dict[int, ClassMasks] = {}
        self._graphs: dict[int, SinkSourceGraph] = {}
        self._full = (1 << self.group.order) - 1

    # -- arrow orders --------------------------------------------------------

    def masks(self, ray_idx: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """(outs, ins), bitmasks over the index of group.characters: bit k of
        outs[o] is set when the o-arrow out of the k-th character vanishes
        along the ray's divisor, bit k of ins[o] when the o-arrow into it
        does.  Every arrow vanishes to order 0 or 1.  An index outside the
        junior points raises UnknownCone."""
        if ray_idx not in self._masks:
            if not 0 <= ray_idx < len(self.group.juniors):
                raise UnknownCone(f"ray {ray_idx} is not a ray of the fan")
            self._masks[ray_idx] = self._compute_mult(ray_idx)
        return self._masks[ray_idx]

    def _compute_mult(self, ray_idx: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """n times the order of the o-arrow out of the k-th character is
        n*e_o + n*q(k) - n*q(head), read off the ray's row of the divisor
        table in one loop over the arrows (k, o), k outer.  Order 1 sets bit
        k of outs[o] and bit head of ins[o]; an order other than 0 or 1
        raises at its arrow."""
        group = self.group
        n = group.order
        e = group.juniors[ray_idx]
        row = group.divisor_rows[ray_idx]
        outs, ins = [0, 0, 0], [0, 0, 0]
        for k, (qk, heads) in enumerate(zip(row, group.head_rows)):
            for o, h in enumerate(heads):
                val = e[o] + qk - row[h]
                if val == n:
                    outs[o] |= 1 << k
                    ins[o] |= 1 << h
                elif val:
                    raise MultiplicityOutOfRange(
                        f"arrow ({group.characters[k]},{VARIABLES[o]}) "
                        f"has multiplicity {val}/{n} along ray {ray_idx}"
                    )
        return tuple(outs), tuple(ins)

    def require_fan(self, fan) -> None:
        """InputError unless fan is a fan of this analysis's group."""
        if fan.group is not self.group:
            theirs, mine = fan.group.spec_string(), self.group.spec_string()
            raise InputError(f"a fan of {theirs} given to the quiver of {mine}")

    def h0_loci(self, fan) -> list[tuple[list[int], list[tuple[int, int]]]]:
        """Per character, the exceptional rays killing its three out-arrows and
        the fan's interior edges (i, j) where each dies along i or j but
        neither ray kills all three: one sweep, kept for the last fan given."""
        self.require_fan(fan)
        if self._h0[0] is not fan:
            loci = [([], []) for _ in self.group.characters]
            for ri in self.group.exceptional_ray_indices:
                x, y, z = self.masks(ri)[0]
                for k in _bits(x & y & z):
                    loci[k][0].append(ri)
            for i, j in fan.interior_edges:
                xi, yi, zi = self.masks(i)[0]
                xj, yj, zj = self.masks(j)[0]
                dead = (xi | xj) & (yi | yj) & (zi | zj) & ~(xi & yi & zi) & ~(xj & yj & zj)
                for k in _bits(dead):
                    loci[k][1].append((i, j))
            self._h0 = (fan, loci)
        return self._h0[1]

    @cached_property
    def h1_loci(self) -> list[list[int]]:
        """Per character, the exceptional rays whose sink-source graph makes
        it a source: one sweep of each ray's source mask serves every
        character."""
        loci = [[] for _ in self.group.characters]
        for ri in self.group.exceptional_ray_indices:
            for k in _bits(self.class_masks(ri).sources):
                loci[k].append(ri)
        return loci

    def vanishing_counts(self, ray_idx: int) -> tuple[int, int, int]:
        """(a, b, c): how many x-, y-, z-arrows vanish along the divisor."""
        return tuple(mask.bit_count() for mask in self.masks(ray_idx)[0])

    def triangles_consistent(self, ray_idx: int) -> bool:
        """Exactly one vanishing arrow in each of the 2|G| quiver triangles.

        The triangles keyed by k run x out of k, then y (or z) out of its
        x-head, then z (or y) back into k, as the three weights multiply to
        the trivial character: over all k at once, exactly one of outs_x,
        the y- (or z-) mask moved back along the x-arrows (bit p to the
        x-tail of p, a permutation, so the sum is an or) and the in-mask of
        the third arrow is set."""
        (x, y, z), (_, iy, iz) = self.masks(ray_idx)
        tails = self.group.tail_rows
        y_at_hx, z_at_hx = (sum(1 << tails[p][0] for p in _bits(m)) for m in (y, z))
        full = self._full
        return _ones(x, y_at_hx, iz) == full and _ones(x, z_at_hx, iy) == full

    # -- vertex classes ------------------------------------------------------

    def class_masks(self, ray_idx: int) -> ClassMasks:
        """The ray's sources, sinks and charges as bitmasks; a vertex whose
        spokes vanish both ways, other than a tile, raises
        InvalidSpokePattern at the lowest such position."""
        if ray_idx not in self._class_masks:
            self._class_masks[ray_idx] = self._classify(ray_idx)
        return self._class_masks[ray_idx]

    def _classify(self, ray_idx: int) -> ClassMasks:
        (x, y, z), (ix, iy, iz) = self.masks(ray_idx)
        outs, ins = x | y | z, ix | iy | iz
        all_out, all_in = x & y & z, ix & iy & iz
        one_out, one_in = _ones(x, y, z), _ones(ix, iy, iz)
        # spokes vanishing both ways make a tile only as one spoke, out and in
        tiles = one_out & ~((x ^ ix) | (y ^ iy) | (z ^ iz))
        mixed = outs & ins & ~tiles
        if mixed:
            self.vertex_class(ray_idx, (mixed & -mixed).bit_length() - 1)  # raises
        # no mixed vertex is left: a vertex with both kinds of spokes is a tile
        only_out, only_in = outs & ~ins, ins & ~outs
        return ClassMasks(
            sources=self._full & ~(outs | ins) | one_out & only_out | one_in & only_in,
            sink30=all_out,
            sink03=all_in,
            charges=only_out & ~one_out & ~all_out | only_in & ~one_in & ~all_in,
        )

    def vertex_class(self, ray_idx: int, k: int) -> VertexClass:
        """The class of the k-th vertex along the ray's divisor, k in range(order)."""
        if not 0 <= k < self.group.order:
            raise InputError(f"character position {k} out of range")
        return _classes_at(self.masks(ray_idx), (k,))[0]

    def classes(self, ray_idx: int) -> tuple[VertexClass, ...]:
        """The class of every vertex along the ray's divisor, by position in
        group.characters, for printing."""
        return tuple(_classes_at(self.masks(ray_idx), range(self.group.order)))

    # -- sink-source graphs ---------------------------------------------------

    def sink_source_graph(self, ray_idx: int) -> SinkSourceGraph:
        if ray_idx not in self._graphs:
            self._graphs[ray_idx] = self._build_graph(ray_idx)
        return self._graphs[ray_idx]

    def _build_graph(self, ray_idx: int) -> SinkSourceGraph:
        """The class masks on every divisor; the charge lines, the shape and
        its lengths only on interior ones, where the shapes are theorems.

        The (0,3)-sink must be the trivial character alone.  Each source is
        classified once, and the sorted source bidegrees name the shape
        before any line is walked.  Each line is then walked once, straight
        into its table: a backward line by its orientation, which no other
        backward line may share, a forward one by (source, orientation).
        The lengths are read off those two tables."""
        masks = self.class_masks(ray_idx)
        if 0 in self.group.juniors[ray_idx]:  # a boundary ray
            return SinkSourceGraph(ray_idx, masks)
        sink03s = list(_bits(masks.sink03))
        if sink03s != [0]:  # the trivial character's position
            raise ShapeUnrecognized(
                f"ray {ray_idx}: (0,3)-sinks are "
                f"{[self.group.characters[k] for k in sink03s]}, expected the trivial character"
            )
        sources = list(_bits(masks.sources))
        classes = _classes_at(self.masks(ray_idx), sources)
        kinds = sorted(cls.bidegree for cls in classes)
        shape = _SHAPES.get(tuple(kinds))
        if shape is None:
            raise ShapeUnrecognized(f"ray {ray_idx}: source pattern {kinds} matches no shape")
        back, fwd, visited = {}, {}, 0
        for source, cls in zip(sources, classes):
            for orientation, direction in _emitted(cls):
                if direction < 0 and orientation in back:
                    raise ShapeUnrecognized(f"two backward {orientation}-lines on ray {ray_idx}")
                line = self._walk_one(ray_idx, masks, source, orientation, direction)
                if direction > 0:
                    fwd[source, orientation] = line
                else:
                    back[orientation] = line
                for v in line.vertices[1:-1]:
                    visited |= 1 << v
        # every charge vertex must lie on a line; on no more than one, as a
        # line's inner vertices are charges of its own orientation and
        # chirality, each with one predecessor along it, and no source is one
        if visited != masks.charges:
            raise InvalidSpokePattern(f"charge vertices not covered exactly once on ray {ray_idx}")
        lengths = self._lengths(ray_idx, shape, zip(sources, classes), back, fwd)
        return SinkSourceGraph(ray_idx, masks, (*back.values(), *fwd.values()), shape, lengths)

    def _walk_one(
        self, ray_idx: int, masks: ClassMasks, source: int, orientation: str, direction: int
    ) -> ChargeLine:
        group = self.group
        k = VARIABLES.index(orientation)
        outs, ins = self.masks(ray_idx)
        if direction > 0:
            step, want_chirality, sinks = group.head_rows, (1, 0), masks.sink30
            spokes, other = outs, ins
        else:
            step, want_chirality, sinks = group.tail_rows, (0, 1), masks.sink03
            spokes, other = ins, outs
        # the charges of this line's class: the two other spokes vanish, on
        # this line's side only
        a, b = (m for o, m in enumerate(spokes) if o != k)
        on_line = a & b & ~spokes[k] & ~(other[0] | other[1] | other[2])
        path = [source]
        cur = source
        for _ in range(group.order + 1):
            cur = step[cur][k]
            path.append(cur)
            if sinks >> cur & 1:
                # path runs in propagation order: the source emits, the sink receives
                return ChargeLine(
                    orientation=orientation,
                    chirality=want_chirality,
                    source=source,
                    sink=cur,
                    vertices=tuple(path),
                )
            if not on_line >> cur & 1:
                raise InvalidSpokePattern(
                    f"line from {group.characters[source]} ({orientation},{direction}) "
                    f"hits {self.vertex_class(ray_idx, cur)} at {group.characters[cur]}"
                )
        raise WalkDiverged(f"line from {group.characters[source]} exceeded {group.order} steps")

    # -- shape lengths ---------------------------------------------------------

    def _lengths(self, ray_idx: int, shape: str, emitters, back: dict, fwd: dict) -> dict:
        """The shape's length record from the backward lines by orientation
        and the forward lines by (source, orientation); emitters pairs each
        source with its class.  The sources of every shape emit three
        backward lines, no two alike: one along each orientation."""
        a, b, c = (back[o].length for o in VARIABLES)
        if shape == "A":
            if any(line.length != back[o].length for (_, o), line in fwd.items()):
                raise ShapeUnrecognized(
                    f"forward and backward line lengths differ on ray {ray_idx}"
                )
            return {"a": a, "b": b, "c": c}
        if shape == "C":
            # the forward p-line of the source of the backward o-line: each
            # source emits one backward line and forward lines on the others
            chords = [(o, p) for o in VARIABLES for p in VARIABLES if o != p]
            return {
                "a": a, "b": b, "c": c,
                "fwd": {f"{o}->{p}": fwd[back[o].source, p].length for o, p in chords},
            }
        # the (1,2)-source emits the two backward lines off the axis, the
        # (2,1)-source the one along it
        (first, _), (second, cls) = sorted(emitters, key=lambda e: e[1].bidegree)
        axis = cls.orientation
        o1, o2 = [o for o in VARIABLES if o != axis]
        a1 = self._steps_until(first, o1, set(fwd[second, o2].vertices))
        b1 = self._steps_until(first, o2, set(fwd[second, o1].vertices))
        return {"a": back[o1].length, "b": back[o2].length, "c": back[axis].length,
                "a1": a1, "b1": b1, "orientations": [o1, o2, axis]}

    def _steps_until(self, start: int, orientation: str, targets: set) -> int:
        """Forward steps from a vertex until first landing on a target vertex."""
        heads, k = self.group.head_rows, VARIABLES.index(orientation)
        cur = start
        for steps in range(1, self.group.order + 1):
            cur = heads[cur][k]
            if cur in targets:
                return steps
        raise WalkDiverged(
            f"no target reached from {self.group.characters[start]} along {orientation}"
        )


def _bits(mask: int):
    """The indices of the set bits of a nonnegative integer, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def shape_lengths(ss: SinkSourceGraph) -> dict:
    """The shape-specific length record of a recognized sink-source graph,
    a copy down to its `fwd` and `orientations`: no caller writes into the
    memoized graph's record."""
    if ss.lengths is None:
        raise ShapeUnrecognized(f"ray {ss.ray_index} has no recognized shape")
    return {k: v.copy() if isinstance(v, (dict, list)) else v for k, v in ss.lengths.items()}


def quiver_counts(group: GroupData) -> dict[str, int]:
    """Vertex, arrow and triangle counts of the McKay quiver: each vertex is
    the x-tail of one triangle of each chirality."""
    n = group.order
    return {"vertices": n, "arrows": 3 * n, "triangles": 2 * n}


def torus_positions(group: GroupData) -> list[tuple[int, int]]:
    """Positions of the quiver vertices in a fundamental domain of the torus.

    A monomial exponent (a, b, c) sits at a*u + b*v + c*w for unit steps u, v
    at 0 and 120 degrees and w = -(u+v); in the (u, v) basis that is
    (a-c, b-c).  Projected invariant monomials form a rank-2 lattice (xyz
    projects to zero), and reducing the group's lift x^i y^j of a character,
    at (i, j), against a reduced basis of that lattice gives one point per
    character, by position in group.characters, inside a half-open
    fundamental parallelogram.
    """
    basis = _reduced_projected_lattice(group)
    return [_reduce_mod_lattice((i, j), basis) for i, j, _ in group.lifts]


def _reduced_projected_lattice(group: GroupData):
    """A Lagrange-reduced basis of the projected invariant lattice in Z^2."""
    rows = hnf_rows([(m[0] - m[2], m[1] - m[2]) for m in group.invariant_basis])
    if len(rows) != 2:
        raise InvalidSpokePattern("projected invariant lattice is not rank 2")
    b1, b2 = rows
    while True:
        if b1[0] ** 2 + b1[1] ** 2 > b2[0] ** 2 + b2[1] ** 2:
            b1, b2 = b2, b1
        norm = b1[0] ** 2 + b1[1] ** 2
        mu = (2 * (b1[0] * b2[0] + b1[1] * b2[1]) + norm) // (2 * norm)  # round
        if mu == 0:
            return b1, b2
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])


def _reduce_mod_lattice(p, basis):
    """Translate an integer point into the half-open fundamental parallelogram."""
    b1, b2 = basis
    det = b1[0] * b2[1] - b1[1] * b2[0]
    # integer floors of the rational coordinates of p in the basis
    s_num = p[0] * b2[1] - p[1] * b2[0]
    t_num = b1[0] * p[1] - b1[1] * p[0]
    if det < 0:
        s_num, t_num, det = -s_num, -t_num, -det
    fs, ft = s_num // det, t_num // det
    return (
        p[0] - fs * b1[0] - ft * b2[0],
        p[1] - fs * b1[1] - ft * b2[1],
    )
