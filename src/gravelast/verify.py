"""Independent residual checks of solved profiles.

The solver never forms f'' directly (it works with cumulative integrals of
the curvature density), so verification recovers f'' from the f' samples
with fourth-order finite-difference stencils and assembles the pointwise
defects of both equation forms:

  separated form    g''(y) f'' + (f/R**2)(y-1)(2 y g''(y) + E(y))
                        = ((4 pi/3) G brho + mu lam**3) brho**(-1/3) f
  reformulated      (1/R)(f'' + (2/R)(f' - lam))
                        = -(1/R**2)(f' - lam) U(y) + V(lam)/g''(y)

The separated left side is the flux derivative (f**2/R**5) d/dR (R**4 g'/f)
expanded by the chain rule at node values, written in the deviation
variable y - 1 so that none of its terms loses the tiny residual to
cancellation against the O(1) parts of f' and y.  The two assemblies obey
the exact algebraic identity

    (separated defect) = R g''(y) * (reformulated defect)

so their discrepancy measures the E/U bookkeeping and floating-point
noise, never discretization.  Both forms have removable 1/R structure at
the origin; sup norms exclude nodes R < 2h.

verdict() passes a stored profile on fixed bounds: f(1) = 1, lambda = f/R
and y = f'/lambda to MAX_INCONSISTENCY, both sup residuals to MAX_RESIDUAL,
the gap to MAX_EQUIVALENCE (1 + residual_separated), and |g'(y(1))| to
max(MAX_BOUNDARY, g''(1) eps), at least twice the solver's stop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .constitutive import FOUR_PI_3, V
from .errors import NonconvexModel
from .io import fmt
from .radial import moment_integral
from .shooting import SolutionProfile

STENCIL_ORDER = 4

# The bounds of verdict(), read at call time.
MAX_INCONSISTENCY = 1e-9
MAX_RESIDUAL = 1e-6
MAX_EQUIVALENCE = 1e-8
MAX_BOUNDARY = 1e-8


def _derivative_stencil(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative on a uniform grid, one-sided at edges."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n < 5:
        raise ValueError("need at least 5 nodes for the 4th-order stencil")
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    d[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
    d[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * h)
    d[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * h)
    d[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * h)
    return d


def _residual_arrays(profile: SolutionProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed pointwise defects of both forms on the nodes R > 0, and g''(y).

    f'' comes from the stencil applied to f' - 1; the stencil annihilates
    constants exactly, and the deviation (fprime0 - 1) + m1 is assembled
    from the moments of zeta so its float representation carries the full
    relative accuracy of the small quantity.
    """
    grid = profile.grid
    r = grid.nodes[1:]
    f = profile.f[1:]
    lam = profile.lam[1:]
    y = profile.y[1:]

    m1 = moment_integral(grid, profile.zeta, 1)
    m2 = moment_integral(grid, profile.zeta, 2)
    fprime_dev = -(m1[-1] - m2[-1]) + m1
    fpp = _derivative_stencil(fprime_dev, grid.h)[1:]
    e = m2[1:] / (lam * r)

    gpp, big_e = profile.model.d2g(y), profile.model.E(y)
    if np.any(gpp <= 0.0):
        raise NonconvexModel("g'' <= 0 along the profile")

    brho, mu, G = profile.brho0, profile.mu, profile.G
    rhs_sep = (FOUR_PI_3 * G * brho + mu * lam**3) * brho ** (-1.0 / 3.0) * f
    lhs_sep = gpp * fpp + f / r**2 * e * (2.0 * y * gpp + big_e)

    lhs_ref = fpp / r + 2.0 * m2[1:] / r**3
    rhs_ref = -m2[1:] / r**3 * (2.0 * e + big_e / gpp) + V(brho, mu, G, lam) / gpp

    return lhs_sep - rhs_sep, lhs_ref - rhs_ref, gpp


def stress_profiles(profile: SolutionProfile) -> tuple[np.ndarray, np.ndarray]:
    """Radial and tangential referential stress components per node.

    c1 = brho**(4/3) lam**(-2) g'(y), which must vanish at R = 1 for a
    stress-free surface; c2 = -(brho**(4/3)/2) lam**(-2) (y g'(y) + g(y)).
    At the reference state both equal -brho**(4/3)/3.
    """
    model = profile.model
    scale = profile.brho0 ** (4.0 / 3.0)
    lam2 = profile.lam**2
    dg = model.dg(profile.y)
    c1 = scale / lam2 * dg
    c2 = -0.5 * scale / lam2 * (profile.y * dg + model.g(profile.y))
    return c1, c2


@dataclass(frozen=True)
class ResidualReport:
    residual_separated: float
    residual_reformulation: float
    equivalence_gap: float
    boundary_residual: float
    grid_n: int
    stencil_order: int = STENCIL_ORDER


def residual_report(profile: SolutionProfile) -> ResidualReport:
    """Residuals of the profile against the model it carries, from one
    assembly of the defects.

    The sup norms run over the nodes R >= 2h. The equivalence gap is
    sup |R g''(y) * (reformulated defect) - (separated defect)| with both
    defects signed, so a sign error in either form shows; by the exact
    identity between the two forms it sits at accumulation-roundoff level
    for any profile, solved or not.
    """
    sep, ref, gpp = _residual_arrays(profile)
    r = profile.grid.nodes[1:]
    interior = r >= 2.0 * profile.grid.h - 1e-15
    gap = ref * r * gpp - sep
    sup_sep, sup_ref, sup_gap = (float(np.max(np.abs(d[interior]))) for d in (sep, ref, gap))
    return ResidualReport(
        residual_separated=sup_sep,
        residual_reformulation=sup_ref,
        equivalence_gap=sup_gap,
        boundary_residual=float(profile.model.dg(profile.y[-1])),
        grid_n=profile.grid.n,
    )


def verdict(profile: SolutionProfile) -> tuple[str, bool]:
    """report.txt for a stored profile, and whether it passes: the values
    measured, the bounds applied, one pass_<check> line per check and the
    verdict. Columns that disagree fail on consistency alone."""
    r = profile.grid.nodes
    values = {
        "f_boundary": abs(float(profile.f[-1]) - 1.0),
        "lambda_consistency": float(max(np.max(np.abs(profile.lam[1:] - profile.f[1:] / r[1:])),
                                        abs(profile.lam[0] - profile.fprime[0]))),
        "y_consistency": float(np.max(np.abs(profile.y - profile.fprime / profile.lam))),
    }
    passed = {"consistency": False}
    if all(v <= MAX_INCONSISTENCY for v in values.values()):
        report = residual_report(profile)
        max_bc = max(MAX_BOUNDARY, float(profile.model.d2g(1.0)) * np.finfo(float).eps)
        values |= {**asdict(report), "max_residual": MAX_RESIDUAL,
                   "max_equivalence": MAX_EQUIVALENCE, "max_boundary": max_bc}
        passed = {
            "residual_separated": report.residual_separated <= MAX_RESIDUAL,
            "residual_reformulation": report.residual_reformulation <= MAX_RESIDUAL,
            "equivalence_gap": report.equivalence_gap
            <= MAX_EQUIVALENCE * (1.0 + report.residual_separated),
            "boundary_residual": abs(report.boundary_residual) <= max_bc,
        }
    ok = all(passed.values())
    lines = [f"{k} = {fmt(v)}" for k, v in values.items()]
    lines += [f"pass_{k} = {v}" for k, v in passed.items()]
    lines.append(f"verdict = {'pass' if ok else 'fail'}")
    return "\n".join(lines) + "\n", ok
