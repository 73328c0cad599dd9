"""Typed failure modes of the solver stack.

Everything deliberately raised by the library derives from SolverError so
callers (and the CLI) can separate numerical/model failures from plain
usage bugs, which stay ValueError/TypeError.
"""


class SolverError(Exception):
    """Base class for all solver failures."""


class NormalizationViolated(SolverError):
    """g(1) = 1 or g'(1) = -1/3 fails by more than constitutive.NORMALIZATION_TOL."""


class HypothesisFailed(SolverError):
    """A model hypothesis fails, named first in the message: "largeness" (g''(1)
    below its margin, so the contraction setup is void) or "E" (the model's E
    disagrees with its definition from g)."""


class ParameterOutOfRange(SolverError):
    """(mu, brho) lies outside the admissible box; the solver refuses to guess."""


class DomainExit(SolverError):
    """A strain ratio left the admissible window around y = 1."""


class DegenerateGeometry(SolverError):
    """Reconstructed profile stopped being orientation preserving (f' or lambda <= 0)."""


class NotContracting(SolverError):
    """Picard updates grew for two consecutive iterations."""


class MaxIterExceeded(SolverError):
    """Picard iteration hit the cap before reaching tolerance."""


class BracketFailure(SolverError):
    """Boundary mismatch does not change sign across the density bracket."""


class NonconvexModel(SolverError):
    """g'' <= 0 encountered where convexity is required."""


class NotCollapsing(SolverError):
    """Collapse diagnostics requested for a non-collapsing trajectory."""


class KeplerNotConverged(SolverError):
    """The Halley step left a Kepler-equation residual above roundoff."""


class OutOfRange(SolverError):
    """Requested time lies outside the computed trajectory."""

