"""Separable motions of a self-gravitating hyperelastic ball.

The flow map factors as phi(t, R) = q(t) f(R): the spatial profile f comes
from a contraction fixed point plus a root search for the reference density
(run in the forcing scale w), the amplitude q from the elementary ODE
q**2 qddot = mu.
"""

__version__ = "0.1.0"

from .constitutive import (
    ConstitutiveModel,
    V,
    ValidationReport,
    make_builtin_model,
    validate_model,
)
from .fixed_point import PicardDiagnostics, apply_F, picard_solve
from .parameters import ParameterBox, build_parameter_box
from .radial import (
    GeometryProfile,
    RadialGrid,
    apply_L_inverse,
    moment_integral,
    reconstruct_geometry,
    y_at_boundary,
)
from .shooting import (
    MismatchResult,
    SolutionProfile,
    SweepRow,
    boundary_mismatch,
    solve_separable,
    sweep,
)
from .temporal import (
    CollapseEstimate,
    MotionSnapshot,
    TemporalSolution,
    assemble_motion,
    classify,
    collapse_time,
    evolve_q,
)
from .verify import ResidualReport, residual_report, stress_profiles

__all__ = [
    "__version__",
    "ConstitutiveModel",
    "ValidationReport",
    "make_builtin_model",
    "validate_model",
    "V",
    "RadialGrid",
    "GeometryProfile",
    "moment_integral",
    "apply_L_inverse",
    "reconstruct_geometry",
    "y_at_boundary",
    "ParameterBox",
    "build_parameter_box",
    "PicardDiagnostics",
    "apply_F",
    "picard_solve",
    "MismatchResult",
    "SolutionProfile",
    "SweepRow",
    "boundary_mismatch",
    "solve_separable",
    "sweep",
    "TemporalSolution",
    "CollapseEstimate",
    "MotionSnapshot",
    "classify",
    "evolve_q",
    "collapse_time",
    "assemble_motion",
    "ResidualReport",
    "residual_report",
    "stress_profiles",
]
