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

so their discrepancy measures the h/E/U bookkeeping and floating-point
noise, never discretization.  Both forms have removable 1/R structure at
the origin; sup norms exclude nodes R < 2h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import FOUR_PI_3, ConstitutiveModel, V
from .errors import NonconvexModel
from .radial import moment_integral
from .shooting import SolutionProfile

STENCIL_ORDER = 4


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

    gpp, big_e = profile.model.strain_terms(y)
    if np.any(gpp <= 0.0):
        raise NonconvexModel("g'' <= 0 along the profile")

    brho, mu, G = profile.brho0, profile.mu, profile.G
    rhs_sep = (FOUR_PI_3 * G * brho + mu * lam**3) * brho ** (-1.0 / 3.0) * f
    lhs_sep = gpp * fpp + f / r**2 * e * (2.0 * y * gpp + big_e)

    lhs_ref = fpp / r + 2.0 * m2[1:] / r**3
    rhs_ref = -m2[1:] / r**3 * (2.0 * e + big_e / gpp) + V(brho, mu, G, lam) / gpp

    return lhs_sep - rhs_sep, lhs_ref - rhs_ref, gpp


def check_derivatives(model: ConstitutiveModel) -> dict[str, float]:
    """Max mismatch of analytic (g', g'', g''') against central differences.

    Differences use step 1e-5 in extended working precision; mismatches are
    normalized by each derivative's own scale on [1/2, 3/2].
    """
    ys = np.linspace(0.5, 1.5, 201).astype(np.longdouble)
    s = np.longdouble(1e-5)
    out = {}
    for name, analytic, lower in (
        ("dg", model.dg, model.g),
        ("d2g", model.d2g, model.dg),
        ("d3g", model.d3g, model.d2g),
    ):
        fd = (lower(ys + s) - lower(ys - s)) / (2.0 * s)
        exact = analytic(ys)
        scale = max(float(np.max(np.abs(exact))), 1.0)
        out[name] = float(np.max(np.abs(exact - fd))) / scale
    return out


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
