"""Typed failure modes of the solver stack.

Everything deliberately raised by the library derives from SolverError so
callers (and the CLI) can separate numerical/model failures from plain
usage bugs, which stay ValueError/TypeError.
"""


class SolverError(Exception):
    """Base class for all solver failures."""


class NormalizationViolated(SolverError):
    """Constitutive normalization g(1) = 1, g'(1) = -1/3 does not hold."""


class HypothesisFailed(SolverError):
    """The largeness condition on g''(1) fails; the contraction setup is void."""


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

