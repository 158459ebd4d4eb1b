"""The McKay quiver, arrow vanishing orders, and sink-source graphs.

Vertices are characters; from each vertex three arrows leave, one per
coordinate, landing on the character twisted by that coordinate's weight.
Along a fixed exceptional divisor each arrow either survives or vanishes to
first order, every quiver triangle loses exactly one of its three arrows,
and the vanishing pattern around a vertex places it in one of 18 classes:
two sinks, seven sources, six charges and three tiles.

Vertices are keyed by position in ``group.characters`` throughout, and the
arrows are the group's position tables ``head_rows`` and ``tail_rows``.
QuiverAnalysis derives, once per ray, the arrow orders from the ray's row
of the group's divisor table, as bitmasks of vanishing out- and in-arrows per
orientation over those positions; a vertex's class depends only on its two
3-bit spoke patterns.  Charge lines and shapes are sought on
interior divisors only, where they are theorems; the sink-source graph of a
boundary divisor holds its vertex classes alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

from .errors import (
    InvalidSpokePattern,
    MultiplicityOutOfRange,
    ShapeUnrecognized,
    WalkDiverged,
)
from .ghilb import GHilbFan, seed_ggraph
from .groups import GroupData, VARIABLES
from .intlin import hnf_rows


@dataclass(frozen=True)
class VertexClass:
    """One of the 18 vanishing patterns around a quiver vertex."""

    kind: str  # "sink" | "source" | "charge" | "tile"
    bidegree: tuple[int, int]  # charges emitted/received: (1,0)-type vs (0,1)-type
    orientation: str | None = None  # line orientation, None for (3,0)/(0,3)/(3,3)

    @property
    def is_source(self) -> bool:
        return self.kind == "source"

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


@dataclass(frozen=True)
class ChargeLine:
    """A straight run of same-orientation arrows from a source to a sink."""

    orientation: str
    chirality: tuple[int, int]  # (1,0): along the arrows, (0,1): against them
    source: int
    sink: int
    vertices: tuple[int, ...]  # from source to sink, endpoints included

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


@dataclass
class SinkSourceGraph:
    """Per-divisor analysis: vertex classes, charge lines, shape and lengths."""

    ray_index: int
    classes: tuple[VertexClass, ...]
    lines: list[ChargeLine] = field(default_factory=list)
    shape: str | None = None  # "A" | "B" | "C", None when unrecognized
    shape_axis: str | None = None  # B: orientation of the lone third line
    lengths: dict | None = None

    @property
    def sources(self) -> list[int]:
        return [k for k, cls in enumerate(self.classes) if cls.is_source]

    @property
    def sink30_count(self) -> int:
        return self.classes.count(SINK30)

    def sink03_vertices(self) -> list[int]:
        return [k for k, cls in enumerate(self.classes) if cls == SINK03]


class QuiverAnalysis:
    """Arrow vanishing data of the cluster family over one fan, all divisors."""

    def __init__(self, fan: GHilbFan):
        self.fan = fan
        self.group = fan.group
        self._masks: dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]] = {}
        self._classes: dict[int, tuple[VertexClass, ...]] = {}
        self._graphs: dict[int, SinkSourceGraph] = {}

    # -- arrow orders --------------------------------------------------------

    def masks(self, ray_idx: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """(outs, ins), bitmasks over the index of group.characters: bit k of
        outs[o] is set when the o-arrow out of the k-th character vanishes
        along the ray's divisor, bit k of ins[o] when the o-arrow into it
        does.  Every arrow vanishes to order 0 or 1."""
        if ray_idx not in self._masks:
            self._masks[ray_idx] = self._compute_mult(ray_idx)
        return self._masks[ray_idx]

    def _compute_mult(self, ray_idx: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """n times the order of the o-arrow out of chi is
        n*e_o + n*q(chi) - n*q(chi*kappa_o), read off the ray's row of the
        divisor table; it must be 0 or n."""
        group = self.group
        n = group.order
        e = group.juniors[ray_idx]
        row = group.divisor_rows[ray_idx]
        outs, ins = [0, 0, 0], [0, 0, 0]
        for k, heads in enumerate(group.head_rows):
            for o, h in enumerate(heads):
                val = e[o] + row[k] - row[h]
                if val == n:
                    outs[o] |= 1 << k
                    ins[o] |= 1 << h
                elif val:
                    raise MultiplicityOutOfRange(
                        f"arrow ({group.characters[k]},{VARIABLES[o]}) "
                        f"has multiplicity {val}/{n} along ray {ray_idx}"
                    )
        return tuple(outs), tuple(ins)

    @cached_property
    def h0_loci(self) -> list[tuple[list[int], list[tuple[int, int]]]]:
        """Per character, the exceptional rays killing its three out-arrows and
        the interior edges (i, j) where each dies along i or j but neither ray
        kills all three: one sweep of the masks serves every character."""
        loci = [([], []) for _ in self.group.characters]
        for ri in self.group.exceptional_ray_indices:
            x, y, z = self.masks(ri)[0]
            for k in _bits(x & y & z):
                loci[k][0].append(ri)
        for i, j in self.fan.interior_edges:
            xi, yi, zi = self.masks(i)[0]
            xj, yj, zj = self.masks(j)[0]
            dead = (xi | xj) & (yi | yj) & (zi | zj) & ~(xi & yi & zi) & ~(xj & yj & zj)
            for k in _bits(dead):
                loci[k][1].append((i, j))
        return loci

    @cached_property
    def h1_loci(self) -> list[list[int]]:
        """Per character, the exceptional rays whose sink-source graph makes
        it a source: one walk of each ray's classes serves every character."""
        loci = [[] for _ in self.group.characters]
        for ri in self.group.exceptional_ray_indices:
            for k, cls in enumerate(self.classes(ri)):
                if cls.is_source:
                    loci[k].append(ri)
        return loci

    def vanishing_counts(self, ray_idx: int) -> tuple[int, int, int]:
        """(a, b, c): how many x-, y-, z-arrows vanish along the divisor."""
        return tuple(mask.bit_count() for mask in self.masks(ray_idx)[0])

    @cached_property
    def _triangles(self) -> list[tuple[tuple[int, int], ...]]:
        return quiver_triangles(self.group)

    def triangles_consistent(self, ray_idx: int) -> bool:
        """Exactly one vanishing arrow in each of the 2|G| quiver triangles."""
        outs = self.masks(ray_idx)[0]
        return all(
            sum(outs[o] >> k & 1 for k, o in triangle) == 1 for triangle in self._triangles
        )

    # -- vertex classes ------------------------------------------------------

    def classes(self, ray_idx: int) -> tuple[VertexClass, ...]:
        """The class of every vertex along the ray's divisor, by position in
        group.characters, from its vanishing out-arrows and in-arrows."""
        if ray_idx not in self._classes:
            (x, y, z), (ix, iy, iz) = self.masks(ray_idx)
            self._classes[ray_idx] = tuple(
                _classify_pattern(
                    (x >> k & 1) | (y >> k & 1) << 1 | (z >> k & 1) << 2,
                    (ix >> k & 1) | (iy >> k & 1) << 1 | (iz >> k & 1) << 2,
                )
                for k in range(self.group.order)
            )
        return self._classes[ray_idx]

    # -- sink-source graphs ---------------------------------------------------

    def sink_source_graph(self, ray_idx: int) -> SinkSourceGraph:
        if ray_idx not in self._graphs:
            self._graphs[ray_idx] = self._build_graph(ray_idx)
        return self._graphs[ray_idx]

    def _build_graph(self, ray_idx: int) -> SinkSourceGraph:
        """The classes on every divisor; the charge lines and the shape only
        on interior ones, where the shapes are theorems."""
        ss = SinkSourceGraph(ray_index=ray_idx, classes=self.classes(ray_idx))
        if 0 not in self.group.juniors[ray_idx]:  # an interior ray
            self._walk_lines(ss)
            self._detect_shape(ss)
        return ss

    def _walk_lines(self, ss: SinkSourceGraph) -> None:
        classes = ss.classes
        for source in ss.sources:
            cls = classes[source]
            if cls == SOURCE33:
                emitted = [(o, d) for o in VARIABLES for d in (+1, -1)]
            elif cls.bidegree == (1, 2):
                # vanishing in-spoke: one forward line, two backward ones
                emitted = [(cls.orientation, +1)] + [
                    (o, -1) for o in VARIABLES if o != cls.orientation
                ]
            else:  # (2,1): vanishing out-spoke
                emitted = [(cls.orientation, -1)] + [
                    (o, +1) for o in VARIABLES if o != cls.orientation
                ]
            for orientation, direction in emitted:
                ss.lines.append(self._walk_one(classes, source, orientation, direction))
        # every charge vertex must lie on exactly one line
        visits = [0] * len(classes)
        for line in ss.lines:
            for v in line.vertices[1:-1]:
                visits[v] += 1
        if visits != [int(cls.kind == "charge") for cls in classes]:
            raise InvalidSpokePattern(
                f"charge vertices not covered exactly once on ray {ss.ray_index}"
            )

    def _walk_one(self, classes, source: int, orientation: str, direction: int) -> ChargeLine:
        group = self.group
        k = VARIABLES.index(orientation)
        step = group.head_rows if direction > 0 else group.tail_rows
        want_chirality = (1, 0) if direction > 0 else (0, 1)
        want_sink = SINK30 if direction > 0 else SINK03
        path = [source]
        cur = source
        for _ in range(group.order + 1):
            cur = step[cur][k]
            path.append(cur)
            cls = classes[cur]
            if cls == want_sink:
                # path runs in propagation order: the source emits, the sink receives
                return ChargeLine(
                    orientation=orientation,
                    chirality=want_chirality,
                    source=source,
                    sink=cur,
                    vertices=tuple(path),
                )
            if not (
                cls.kind == "charge"
                and cls.orientation == orientation
                and cls.bidegree == want_chirality
            ):
                raise InvalidSpokePattern(
                    f"line from {group.characters[source]} ({orientation},{direction}) "
                    f"hits {cls} at {group.characters[cur]}"
                )
        raise WalkDiverged(f"line from {group.characters[source]} exceeded {group.order} steps")

    def _detect_shape(self, ss: SinkSourceGraph) -> None:
        classes = ss.classes
        sources = ss.sources
        sink03s = ss.sink03_vertices()
        if sink03s != [self.group.index[self.group.trivial_character]]:
            raise ShapeUnrecognized(
                f"ray {ss.ray_index}: (0,3)-sinks are "
                f"{[self.group.characters[k] for k in sink03s]}, expected the trivial character"
            )

        kinds = sorted(classes[s].bidegree for s in sources)
        if len(sources) == 1 and classes[sources[0]] == SOURCE33:
            ss.shape = "A"
            self._lengths_a(ss)
        elif len(sources) == 2 and kinds == [(1, 2), (2, 1)]:
            ss.shape = "B"
            self._lengths_b(ss)
        elif len(sources) == 3 and kinds in ([(1, 2)] * 3, [(2, 1)] * 3):
            ss.shape = "C"
            self._lengths_c(ss)
        else:
            raise ShapeUnrecognized(
                f"ray {ss.ray_index}: source pattern {kinds} matches no shape"
            )

    # -- shape lengths ---------------------------------------------------------

    def _backward_lines(self, ss: SinkSourceGraph) -> dict[str, ChargeLine]:
        """The (0,1)-lines into the trivial character, keyed by orientation."""
        back = {}
        for line in ss.lines:
            if line.chirality == (0, 1):
                if line.orientation in back:
                    raise ShapeUnrecognized(
                        f"two backward {line.orientation}-lines on ray {ss.ray_index}"
                    )
                back[line.orientation] = line
        return back

    def _lengths_a(self, ss: SinkSourceGraph) -> None:
        back = self._backward_lines(ss)
        fwd = {l.orientation: l for l in ss.lines if l.chirality == (1, 0)}
        a, b, c = (back[o].length for o in VARIABLES)
        if any(fwd[o].length != back[o].length for o in VARIABLES):
            raise ShapeUnrecognized(
                f"forward and backward line lengths differ on ray {ss.ray_index}"
            )
        ss.lengths = {"a": a, "b": b, "c": c}

    def _lengths_b(self, ss: SinkSourceGraph) -> None:
        classes = ss.classes
        back = self._backward_lines(ss)
        double = [s for s in ss.sources if sum(1 for l in back.values() if l.source == s) == 2]
        single = [s for s in ss.sources if s not in double]
        if len(double) != 1 or len(single) != 1:
            raise ShapeUnrecognized(f"ray {ss.ray_index}: bad backward line split")
        first, second = double[0], single[0]
        axis = classes[second].orientation
        if classes[first].orientation != axis:
            raise ShapeUnrecognized(
                f"ray {ss.ray_index}: the two sources disagree on the axis"
            )
        o1, o2 = [o for o in VARIABLES if o != axis]
        a, b, c = back[o1].length, back[o2].length, back[axis].length
        fwd = {
            l.orientation: l
            for l in ss.lines
            if l.chirality == (1, 0) and l.source == second
        }
        a1 = self._steps_until(first, o1, set(fwd[o2].vertices))
        b1 = self._steps_until(first, o2, set(fwd[o1].vertices))
        ss.shape_axis = axis
        ss.lengths = {"a": a, "b": b, "c": c, "a1": a1, "b1": b1,
                      "orientations": (o1, o2, axis)}

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

    def _lengths_c(self, ss: SinkSourceGraph) -> None:
        back = self._backward_lines(ss)
        a, b, c = (back[o].length for o in VARIABLES)
        source_of = {o: back[o].source for o in VARIABLES}
        fwd: dict[tuple[str, str], int] = {}
        for line in ss.lines:
            if line.chirality == (1, 0):
                for o, s in source_of.items():
                    if line.source == s:
                        fwd[(o, line.orientation)] = line.length
        # the two forward lines of each source have the other two orientations
        expected = {(o, p) for o in VARIABLES for p in VARIABLES if o != p}
        if set(fwd) != expected:
            raise ShapeUnrecognized(
                f"ray {ss.ray_index}: forward lines {sorted(fwd)} are not the six chords"
            )
        ss.lengths = {
            "a": a, "b": b, "c": c,
            # length of the forward p-line emitted by the source of the o-line
            "fwd": fwd,
        }


def _bits(mask: int):
    """The indices of the set bits of a nonnegative integer, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def shape_lengths(ss: SinkSourceGraph) -> dict:
    """The shape-specific length record of a recognized sink-source graph."""
    if ss.shape is None or ss.lengths is None:
        raise ShapeUnrecognized(f"ray {ss.ray_index} has no recognized shape")
    return dict(ss.lengths)


def quiver_counts(group: GroupData) -> dict[str, int]:
    """Vertex, arrow and triangle counts of the McKay quiver."""
    n = group.order
    return {"vertices": n, "arrows": 3 * n, "triangles": len(quiver_triangles(group))}


def quiver_triangles(group: GroupData) -> list[tuple[tuple[int, int], ...]]:
    """The 2|G| directed 3-cycles, each as its three arrows in path order,
    an arrow being (position of its tail, index of its orientation).

    Every triangle uses one arrow of each orientation; the two chiralities
    contribute |G| cycles each, keyed by the tail of their x-arrow.
    """
    heads = group.head_rows
    triangles = []
    for k, (hx, _, _) in enumerate(heads):
        triangles.append(((k, 0), (hx, 1), (heads[hx][1], 2)))
        triangles.append(((k, 0), (hx, 2), (heads[hx][2], 1)))
    return triangles


def torus_positions(group: GroupData) -> list[tuple[int, int]]:
    """Positions of the quiver vertices in a fundamental domain of the torus.

    A monomial exponent (a, b, c) sits at a*u + b*v + c*w for unit steps u, v
    at 0 and 120 degrees and w = -(u+v); in the (u, v) basis that is
    (a-c, b-c).  Projected invariant monomials form a rank-2 lattice (xyz
    projects to zero), and reducing any exponent lift of a character against
    a reduced basis of that lattice gives one well-defined point per
    character, by position in group.characters, inside a half-open
    fundamental parallelogram.
    """
    basis = _reduced_projected_lattice(group)
    return [
        _reduce_mod_lattice((w[0] - w[2], w[1] - w[2]), basis)
        for w in seed_ggraph(group).row
    ]


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
