"""Scalar constitutive layer.

The material enters the radial problem only through a function g of the
strain ratio y = (radial stretch)/(tangential stretch), normalized so that
g(1) = 1 and g'(1) = -1/3.  The model supplies g, g', g'', g''' and
E(y) = (h(y) - h(1))/(y - 1) - h'(y) with h = 3 y g' + g; the solver
derives U = 2(y - 1) + E/g'' and the strain radius delta = 10/g''(1).

validate_model accepts a model or refuses it: it returns a ValidationReport
when the normalization, the largeness condition on g''(1) with its 1% margin
and the model's E all hold, and otherwise raises on the first that fails.

The built-in family is

    g(y) = y**(-1/3) + (kappa/2) * (y - 1)**2

for which h = kappa (y - 1)(3y + (y - 1)/2), so E(y) = -(7 kappa/2)(y - 1)
exactly.  The family satisfies both normalizations identically for every
stiffness kappa >= 0; kappa = 0 is the mass-critical-gas special case and
is refused by the largeness condition.  The raw condition holds from
kappa ~ 3023; with the 1% margin charged against the sampled sup of |g'''|,
validation passes from kappa ~ 3053 (default 3100).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainExit, HypothesisFailed, NormalizationViolated

FOUR_PI_3 = 4.0 * math.pi / 3.0
EIGHT_PI_3 = 8.0 * math.pi / 3.0

NORMALIZATION_TOL = 1e-12
E_RTOL = 1e-9
SUP_SAMPLES = 10_001


@dataclass(frozen=True)
class ConstitutiveModel:
    """Evaluators for g, its first three derivatives and E on y > 0."""

    g: Callable
    dg: Callable
    d2g: Callable
    d3g: Callable
    E: Callable
    family: str
    kappa: float | None = None

    def U(self, y):
        """U(y) = 2(y - 1) + E(y)/g''(y) on the window |y - 1| <= delta."""
        y = np.asarray(y, dtype=float)
        if np.any(np.abs(y - 1.0) > self.delta):
            raise DomainExit(
                f"strain ratio left the window |y-1| <= {self.delta:.3e}"
            )
        out = 2.0 * (y - 1.0) + self.E(y) / self.d2g(y)
        return out if out.ndim else float(out)

    @cached_property
    def delta(self) -> float:
        """Admissible strain radius 10/g''(1).

        Meaningful when the largeness condition holds; then g'' stays within
        [9/10, 11/10] of g''(1) on the whole window.
        """
        return 10.0 / float(self.d2g(1.0))

    @cached_property
    def validation(self) -> ValidationReport:
        """validate_model(self), evaluated once per model that passes.

        A model that fails raises its SolverError on every read: a
        cached_property stores nothing when its getter raises.
        """
        return validate_model(self)

    def spec_string(self) -> str:
        if self.family == "builtin":
            return f"builtin:kappa={self.kappa:g}"
        return self.family


@dataclass(frozen=True)
class ValidationReport:
    """Measures of a model that passed validate_model."""

    g2_at_1: float
    sup_d3g: float
    threshold: float


def make_builtin_model(kappa: float) -> ConstitutiveModel:
    """Built-in family g(y) = y**(-1/3) + (kappa/2)(y-1)**2, 0 <= kappa < inf."""
    if not 0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa!r}")
    kappa = float(kappa)

    def g(y):
        return y ** (-1.0 / 3.0) + 0.5 * kappa * (y - 1.0) ** 2

    def dg(y):
        return -(1.0 / 3.0) * y ** (-4.0 / 3.0) + kappa * (y - 1.0)

    def d2g(y):
        return (4.0 / 9.0) * y ** (-7.0 / 3.0) + kappa * (1.0 + 0.0 * y)

    def d3g(y):
        return -(28.0 / 27.0) * y ** (-10.0 / 3.0)

    def E(y):
        return -3.5 * kappa * (y - 1.0)

    return ConstitutiveModel(g=g, dg=dg, d2g=d2g, d3g=d3g, E=E, family="builtin", kappa=kappa)


def validate_model(model: ConstitutiveModel) -> ValidationReport:
    """The model's report if it satisfies every hypothesis; otherwise raises
    on the first that fails, in this order:

    - NormalizationViolated if |g(1) - 1| or |g'(1) + 1/3| exceeds
      NORMALIZATION_TOL;
    - HypothesisFailed naming largeness if g''(1) < 1.01 * 50 (50 + sup|g'''|).
      The sup over [1/2, 3/2] is estimated by dense sampling (SUP_SAMPLES
      uniform points), a lower bound on the true sup; the 1% margin
      compensates, and makes delta meaningful;
    - HypothesisFailed naming E from _check_E.
    """
    g1 = float(model.g(1.0))
    dg1 = float(model.dg(1.0))
    if not (abs(g1 - 1.0) <= NORMALIZATION_TOL and abs(dg1 + 1.0 / 3.0) <= NORMALIZATION_TOL):
        raise NormalizationViolated(
            f"normalization: g(1) = {g1!r}, g'(1) = {dg1!r} differ from 1 and -1/3"
            f" by more than {NORMALIZATION_TOL:g}"
        )

    ys = np.linspace(0.5, 1.5, SUP_SAMPLES)
    sup_d3g = float(np.max(np.abs(model.d3g(ys))))
    g2_1 = float(model.d2g(1.0))
    threshold = 50.0 * (50.0 + sup_d3g)
    if not g2_1 >= 1.01 * threshold:
        raise HypothesisFailed(
            f"largeness: g''(1) = {g2_1:.6g} is below the margin 1.01 times"
            f" 50 (50 + sup|g'''|) = {threshold:.6g}"
        )
    _check_E(model)
    return ValidationReport(g2_at_1=g2_1, sup_d3g=sup_d3g, threshold=threshold)


def _check_E(model: ConstitutiveModel) -> None:
    """HypothesisFailed unless model.E equals its definition from g to E_RTOL
    relative at y = 1 +- delta and 1 +- delta/2.

    The reference is the definition integrated by parts,
    E(y) = -(y - 1) int_0^1 s h''(1 + (y - 1) s) ds with h'' = 7 g'' + 3 y g''',
    by 3-point Gauss-Legendre in closed form (leggauss would load LAPACK).
    The rule is exact for h'' of degree 4, and on |y - 1| <= delta <= 0.004
    it is at roundoff for a smooth g, as an 8-point rule is.  It cancels
    nothing: an admissible model has sup|g'''| < g''(1)/50, so on the window
    the g''' term is at most about 3/350 of h'' ~ 7 g''(1).  The difference
    quotient instead cancels two terms of about 3 g''(1) down to |E|.
    """
    y = 1.0 + model.delta * np.array([-1.0, -0.5, 0.5, 1.0])
    t = y - 1.0
    s = 0.5 + 0.5 * math.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])  # nodes on [0, 1]
    ys = 1.0 + np.outer(t, s)
    d2h = 7.0 * model.d2g(ys) + 3.0 * ys * model.d3g(ys)
    expected = -t * np.sum(d2h * (np.array([5.0, 8.0, 5.0]) / 18.0 * s), axis=1)
    supplied = np.asarray(model.E(y), dtype=float)
    bad = ~(np.abs(supplied - expected) <= E_RTOL * np.abs(expected))
    if bad.any():
        y1, e1, ref = (float(a[np.argmax(bad)]) for a in (y, supplied, expected))
        raise HypothesisFailed(
            f"E: the model's E({y1!r}) = {e1!r} differs from"
            f" -(y - 1) int_0^1 s h''(1 + (y - 1) s) ds = {ref!r} by more than {E_RTOL:g} relative"
        )


def V(brho, mu, G: float, lam):
    """Force-density scale (lam/brho**(1/3)) * ((4 pi/3) G brho + mu lam**3).

    brho and mu are scalars or arrays that broadcast against lam, e.g. one
    (rows, 1) column each for a (rows, N+1) stack of lam; every shape takes
    the same path.  np.cbrt rounds an element alike in any shape, so a
    stacked row equals its scalar call.
    """
    brho = np.asarray(brho, dtype=float)
    if (brho <= 0).any():
        raise ValueError("brho must be positive")
    lam = np.asarray(lam, dtype=float)
    out = lam / np.cbrt(brho) * (FOUR_PI_3 * G * brho + mu * lam**3)
    return out if out.ndim else float(out)

