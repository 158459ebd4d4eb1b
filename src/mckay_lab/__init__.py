"""Exact-arithmetic McKay correspondence engine for abelian subgroups of SL(3,C).

The pipeline, in dependency order: groups (characters via lattice quotients,
the junior simplex and the divisor table), ghilb (torus-fixed clusters and
the fan), reid (carving ratios and markings), quiver (arrow vanishing and
sink-source graphs, from the group alone), transforms (degrees and
supports), verify (the correspondence theorems, machine-checked).  The
verifier is imported on first use of its names, so a program that never
verifies never compiles it.
"""

from .errors import McKayLabError
from .groups import WeightVector, group_from_generators, parse_group_spec
from .ghilb import (
    build_fan,
    chart_generator,
    cone_of_ggraph,
    enumerate_ggraphs,
    tautological_degree,
)
from .reid import (
    carving_ratio,
    classify_fan_vertex,
    marked_triangulation,
    regular_triangle_defect,
    vertex_marking,
)
from .quiver import QuiverAnalysis, quiver_counts, shape_lengths, torus_positions
from .transforms import support_h0, support_h1, support_h2, transform_profile

__version__ = "0.1.0"

__all__ = [
    "GroupVerification",
    "McKayLabError",
    "QuiverAnalysis",
    "WeightVector",
    "build_fan",
    "carving_ratio",
    "chart_generator",
    "classify_fan_vertex",
    "cone_of_ggraph",
    "enumerate_ggraphs",
    "group_from_generators",
    "marked_triangulation",
    "parse_group_spec",
    "quiver_counts",
    "regular_triangle_defect",
    "shape_lengths",
    "support_h0",
    "support_h1",
    "support_h2",
    "tautological_degree",
    "torus_positions",
    "transform_profile",
    "verify_group",
    "vertex_marking",
]


def __getattr__(name: str):
    """GroupVerification and verify_group, read from the verify module,
    which is imported on the first such read (PEP 562)."""
    if name in ("GroupVerification", "verify_group"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
