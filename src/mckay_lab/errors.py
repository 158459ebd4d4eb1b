"""Exception hierarchy.

Every error is in one of two families.  An `InputError` is bad group data or
arguments, or a point that is no ray or no marked vertex of the fan (CLI exit
2).  An `InternalGuardError` fires when a structural fact the pipeline relies
on fails: on valid input a bug, never to be caught and ignored (CLI exit 3).
"""


class McKayLabError(Exception):
    """Base class for all package errors."""


class InputError(McKayLabError):
    """The caller's input is invalid."""


class InternalGuardError(McKayLabError):
    """A structural fact the pipeline relies on failed to hold."""


# ---------------------------------------------------------------------------
# input errors

class EmptyGenerators(InputError):
    """A group was requested from an empty generator list."""


class NotInSL3(InputError):
    """Generator weights do not sum to 0 mod r."""


class NotInLattice(InputError):
    """A rational triple times n is not integral, so it is off the group's lattice."""


class BoundaryEdge(InputError):
    """Operation requires an interior edge of the triangulation."""


class UnknownCone(InputError):
    """The given point or rays are no ray, edge or cone of the fan."""


class NoExceptionalLocus(InputError):
    """Transform analysis needs a nontrivial group."""


class UnmarkedVertex(InputError):
    """The point is a corner or a boundary point of the simplex: it has no marking."""


# ---------------------------------------------------------------------------
# internal guards (bugs or genuine counterexamples; never expected on valid input)

class InconsistentGroup(InternalGuardError):
    """The element walk, the character closure and the lattice index disagree on |G|."""


class DegenerateCone(InternalGuardError):
    """Cone rays are linearly dependent."""


class SearchExhausted(InternalGuardError):
    """Torus-fixed cluster search returned the wrong count."""


class LowerDimensionalCone(InternalGuardError):
    """A cluster's inequality system has no 3-dimensional solution cone."""


class FanValidationFailed(InternalGuardError):
    """An assembled fan violates a triangulation invariant."""


class InconsistentCharts(InternalGuardError):
    """Two charts sharing a ray disagree on a divisor coefficient."""


class UnclassifiableVertex(InternalGuardError):
    """A triangulation vertex fits none of the three local patterns."""


class RecipeInconsistency(InternalGuardError):
    """The marking recipe's internal agreement checks failed."""


class NoOrientationWorks(InternalGuardError):
    """No sign assignment turns an edge-ratio product into a power of xyz."""


class MultiplicityOutOfRange(InternalGuardError):
    """An arrow vanishing multiplicity fell outside {0, 1}."""


class InvalidSpokePattern(InternalGuardError):
    """A quiver vertex shows a vanishing pattern outside the 18 classes."""


class ShapeUnrecognized(InternalGuardError):
    """A sink-source graph of a compact divisor matches none of the 3 shapes."""


class WalkDiverged(InternalGuardError):
    """A charge-line walk failed to terminate within the step budget."""


class MultiDegreeSupport(InternalGuardError):
    """A transform has nonempty support in more than one degree."""


class EmptySupport(InternalGuardError):
    """A transform has empty support in every degree."""
