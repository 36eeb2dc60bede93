"""Circular arc fitting from moments, with an arc-aware polyline compressor.

The fitters minimize the squared-distance circle objective divided by 4r^2,
which removes most of the small-radius bias of the plain algebraic fit while
staying computable in O(1) from moments up to order four. Unconstrained,
one-anchor, and two-anchor variants are provided, plus a dynamic-programming
polyline compressor that recovers arcs using O(1) windowed fits.
"""

__version__ = "0.1.0"

from .errors import (CollinearOrDegenerate, DegeneratePencil, FitError,
                     NoArcExists, NonConvergence)
from .moments import (MomentAccumulator, NormalizedMoments, accumulate_point,
                      centroid, difference, empty, from_points, merge,
                      normalized, translate)
from .quadratio import QuadRatio, RatioMin, minimize_ratio, ratio_value
from .dirsearch import minimize
from .fit import (Circle, free_fit, kasa_fit, one_point_fit, penalty,
                  two_point_fit, two_point_ratio)
from .reference import (Arc, DeviationReport, arc_deviation,
                        check_tolerance_zigzag, exact_objective_sq, exact_sse,
                        geometric_fit)
# The compressor is arcfit.compress.compress: importing the function here
# would shadow the arcfit.compress module.
from .compress import (ArcPrim, CompressedPath, PrefixMoments, Segment,
                       build_prefix, candidate_arc, candidate_segment,
                       fit_arc_candidate)
from .scenario import SimScenario, trial_points

__all__ = [
    "CollinearOrDegenerate", "DegeneratePencil", "FitError", "NoArcExists",
    "NonConvergence",
    "MomentAccumulator", "NormalizedMoments", "accumulate_point",
    "centroid", "difference", "empty", "from_points", "merge", "normalized",
    "translate",
    "QuadRatio", "RatioMin", "minimize_ratio", "ratio_value",
    "minimize",
    "Circle", "free_fit", "kasa_fit", "one_point_fit", "penalty",
    "two_point_fit", "two_point_ratio",
    "Arc", "DeviationReport", "arc_deviation", "check_tolerance_zigzag",
    "exact_objective_sq", "exact_sse", "geometric_fit",
    "ArcPrim", "CompressedPath", "PrefixMoments", "Segment", "build_prefix",
    "candidate_arc", "candidate_segment", "fit_arc_candidate",
    "SimScenario", "trial_points",
]
