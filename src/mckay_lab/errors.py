"""Exception hierarchy.

Errors split into two families: input errors (bad group data or arguments,
a point that is no ray of the fan) and internal verification guards.  The
latter fire only when a structural fact the pipeline relies on fails to hold,
which on valid input means a bug, so they should never be caught and ignored.
"""


class McKayLabError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# input errors

class EmptyGenerators(McKayLabError):
    """A group was requested from an empty generator list."""


class NotInSL3(McKayLabError):
    """Generator weights do not sum to 0 mod r."""


class NotInLattice(McKayLabError):
    """A rational triple times n is not integral, so it is off the group's lattice."""


class BoundaryEdge(McKayLabError):
    """Operation requires an interior edge of the triangulation."""


class UnknownCone(McKayLabError):
    """The cone is not a maximal cone of the fan."""


class NoExceptionalLocus(McKayLabError):
    """Transform analysis needs a nontrivial group."""


# ---------------------------------------------------------------------------
# internal guards (bugs or genuine counterexamples; never expected on valid input)

class DegenerateCone(McKayLabError):
    """Cone rays are linearly dependent."""


class SearchExhausted(McKayLabError):
    """Torus-fixed cluster search returned the wrong count."""


class LowerDimensionalCone(McKayLabError):
    """A cluster's inequality system has no 3-dimensional solution cone."""


class FanValidationFailed(McKayLabError):
    """An assembled fan violates a triangulation invariant."""


class InconsistentCharts(McKayLabError):
    """Two charts sharing a ray disagree on a divisor coefficient."""


class UnclassifiableVertex(McKayLabError):
    """A triangulation vertex fits none of the three local patterns."""


class RecipeInconsistency(McKayLabError):
    """The marking recipe's internal agreement checks failed."""


class NoOrientationWorks(McKayLabError):
    """No sign assignment turns an edge-ratio product into a power of xyz."""


class MultiplicityOutOfRange(McKayLabError):
    """An arrow vanishing multiplicity fell outside {0, 1}."""


class InvalidSpokePattern(McKayLabError):
    """A quiver vertex shows a vanishing pattern outside the 18 classes."""


class ShapeUnrecognized(McKayLabError):
    """A sink-source graph of a compact divisor matches none of the 3 shapes."""


class WalkDiverged(McKayLabError):
    """A charge-line walk failed to terminate within the step budget."""


class MultiDegreeSupport(McKayLabError):
    """A transform has nonempty support in more than one degree."""


class EmptySupport(McKayLabError):
    """A transform has empty support in every degree."""
