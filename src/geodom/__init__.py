"""Exact-rational stabbing and domination heuristics with certified bounds.

Algorithms live in submodules (``geodom.ssr``, ``geodom.srs``,
``geodom.stabbedl``, ``geodom.psd``, ``geodom.uvpg``); this namespace
re-exports the shared geometry and LP vocabulary.
"""

from .errors import (
    AssumptionViolationError,
    GenerationExhaustedError,
    GeodomError,
    InfeasibleConstraintError,
    InfeasibleError,
    InfeasibleRayError,
    InfeasibleSegmentError,
    InfeasibleTargetError,
    InputError,
    InvalidInputError,
    InvalidPathError,
    NotProperError,
    SizeCapExceededError,
    UncoveredRowError,
    UnmetConstraintError,
)
from .geom import (
    NO_GAP,
    HRay,
    HSeg,
    OrthoInstance,
    Rat,
    VSeg,
    as_rat,
    intersects,
    min_positive_gap,
    properize,
    rat_str,
)
from .lp import (
    CoverProgram,
    CoverSolution,
    SolveCertificate,
    solve_ilp_exact,
    solve_lp,
    threshold_split,
)
from .oracle import AbstractGraph, exact_mds, exact_stab
from .srs import SrsInstance
from .ssr import SsrInstance
from .stabbedl import LPath, StabbedLInstance
from .uvpg import UnitKBendPath, grid_to_unit_b1

__version__ = "0.1.0"

__all__ = [
    "AbstractGraph",
    "AssumptionViolationError",
    "CoverProgram",
    "CoverSolution",
    "GenerationExhaustedError",
    "GeodomError",
    "HRay",
    "HSeg",
    "InfeasibleConstraintError",
    "InfeasibleError",
    "InfeasibleRayError",
    "InfeasibleSegmentError",
    "InfeasibleTargetError",
    "InputError",
    "InvalidInputError",
    "InvalidPathError",
    "LPath",
    "NO_GAP",
    "NotProperError",
    "OrthoInstance",
    "Rat",
    "SizeCapExceededError",
    "SolveCertificate",
    "SrsInstance",
    "SsrInstance",
    "StabbedLInstance",
    "UncoveredRowError",
    "UnmetConstraintError",
    "UnitKBendPath",
    "VSeg",
    "as_rat",
    "exact_mds",
    "exact_stab",
    "grid_to_unit_b1",
    "intersects",
    "min_positive_gap",
    "properize",
    "rat_str",
    "solve_ilp_exact",
    "solve_lp",
    "threshold_split",
    "__version__",
]
