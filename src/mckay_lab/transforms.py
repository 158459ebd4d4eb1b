"""Cohomological degree and support of the skyscraper transforms.

For each character the transform of the origin skyscraper twisted by it is a
shift of a sheaf; which shift, and its support, is read off arrow vanishing
data: degree 0 lives where all three arrows out of the character die (a
(3,0)-sink for divisor components, a split pair of vanishing divisors for
curve components), degree -1 on the divisors where the character is a
source, and degree -2 only for the trivial character, on the whole
exceptional locus.

The degree-0 supports of all characters come from one sweep over the
bitmasks of vanishing arrows per ray (``QuiverAnalysis.h0_loci``), the
degree -1 supports from one sweep over each ray's vertex classes
(``QuiverAnalysis.h1_loci``), and two cells meet when their rays span a
face of the fan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptySupport, MultiDegreeSupport, NoExceptionalLocus
from .ghilb import GHilbFan
from .groups import Character
from .quiver import QuiverAnalysis

# support cells: ("divisor", ray) or ("curve", (ray, ray))
Cell = tuple


def divisor_cell(ray_idx: int) -> Cell:
    return ("divisor", ray_idx)

def curve_cell(i: int, j: int) -> Cell:
    return ("curve", (min(i, j), max(i, j)))


def support_h0(fan: GHilbFan, qa: QuiverAnalysis, chi: Character) -> list[Cell]:
    """Maximal cells where all three arrows out of chi vanish jointly.

    A divisor qualifies when the three arrows all vanish along it (chi's bit
    is in x & y & z of its masks); a compact curve (i, j) when every arrow
    dies on i or j but neither kills all three (chi's bit is in
    (x_i | x_j) & (y_i | y_j) & (z_i | z_j) & ~all_i & ~all_j).
    """
    _require_nontrivial_locus(fan)
    divisors, curves = qa.h0_loci[fan.group.index[chi]]
    return sorted([divisor_cell(ri) for ri in divisors] + [curve_cell(*e) for e in curves])


def support_h1(fan: GHilbFan, qa: QuiverAnalysis, chi: Character) -> list[Cell]:
    """Divisors whose sink-source graph classifies chi as a source, read off
    the one sweep of the vertex classes (``QuiverAnalysis.h1_loci``)."""
    _require_nontrivial_locus(fan)
    return [divisor_cell(ri) for ri in qa.h1_loci[fan.group.index[chi]]]


def support_h2(fan: GHilbFan, qa: QuiverAnalysis, chi: Character) -> list[Cell]:
    """The full exceptional locus for the trivial character, else empty."""
    _require_nontrivial_locus(fan)
    if not chi.is_trivial:
        return []
    return sorted(divisor_cell(ri) for ri in fan.group.exceptional_ray_indices)


# what the transform is in each degree
DESCRIPTORS = {0: "L_chi^{-1} (x) O_supp", -1: "sheaf[1]", -2: "O_Y(Exc) (x) O_Exc[2]"}


@dataclass(frozen=True)
class TransformProfile:
    """Unique nonzero cohomological degree and support of one transform."""

    character: Character
    degree: int  # 0, -1 or -2
    components: tuple[Cell, ...]
    descriptor: str
    connected: bool


def transform_profile(fan: GHilbFan, qa: QuiverAnalysis, chi: Character) -> TransformProfile:
    """The one degree among 0, -1 and -2 where chi's transform has support;
    -2 is the trivial character's, whose degree-0 and -1 supports must vanish."""
    supports = {
        0: support_h0(fan, qa, chi),
        -1: support_h1(fan, qa, chi),
        -2: support_h2(fan, qa, chi),
    }
    nonempty = [degree for degree, cells in supports.items() if cells]
    if len(nonempty) > 1:
        raise MultiDegreeSupport(f"{chi} supported in degrees {nonempty}")
    if not nonempty:
        raise EmptySupport(f"{chi} has empty support in all degrees")
    (degree,) = nonempty
    cells = supports[degree]
    return TransformProfile(
        character=chi,
        degree=degree,
        components=tuple(cells),
        descriptor=DESCRIPTORS[degree],
        connected=_is_connected(fan, cells),
    )


def _require_nontrivial_locus(fan: GHilbFan) -> None:
    if fan.group.order < 2:
        raise NoExceptionalLocus("the trivial group has no exceptional locus")


def _cell_rays(cell: Cell) -> tuple[int, ...]:
    return (cell[1],) if cell[0] == "divisor" else cell[1]


def _is_connected(fan: GHilbFan, cells) -> bool:
    """Connectivity of a cell set under nonempty scheme intersection: two
    cells meet when their rays together span a ray, an edge or a cone."""
    if not cells:
        return True
    stack, seen = [cells[0]], {cells[0]}
    while stack:
        rays = set(_cell_rays(stack.pop()))
        for cell in cells:
            if cell not in seen and fan.is_face(rays | set(_cell_rays(cell))):
                seen.add(cell)
                stack.append(cell)
    return len(seen) == len(set(cells))
