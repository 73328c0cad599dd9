"""Scalar constitutive layer.

The material enters the radial problem only through a function g of the
strain ratio y = (radial stretch)/(tangential stretch), normalized so that
g(1) = 1 and g'(1) = -1/3.  The model supplies g, g', g'', g''' and
E(y) = (h(y) - h(1))/(y - 1) - h'(y) with h = 3 y g' + g; the solver
derives U = 2(y - 1) + E/g'' and the strain radius delta = 10/g''(1).

The built-in family is

    g(y) = y**(-1/3) + (kappa/2) * (y - 1)**2

for which h = kappa (y - 1)(3y + (y - 1)/2), so E(y) = -(7 kappa/2)(y - 1)
exactly.  The family satisfies both normalizations identically for every
stiffness kappa >= 0; kappa = 0 is the mass-critical-gas special case and
fails the largeness condition.  The raw condition holds from kappa ~ 3023;
with the 1% margin charged against the sampled sup of |g'''|, validation
passes from kappa ~ 3053 (default 3100).
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

NORMALIZATION_TOL = 1e-9
NORMALIZATION_FLAG_TOL = 1e-12
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
        """validate_model(self), evaluated once per model."""
        return validate_model(self)

    def spec_string(self) -> str:
        if self.family == "builtin":
            return f"builtin:kappa={self.kappa:g}"
        return self.family


@dataclass(frozen=True)
class ValidationReport:
    normalization_ok: bool
    largeness_ok: bool
    margin_ok: bool
    g2_at_1: float
    sup_d3g: float
    threshold: float

    @property
    def passes(self) -> bool:
        return self.normalization_ok and self.largeness_ok and self.margin_ok


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
    """Check normalization and the largeness condition on g''(1).

    The sup of |g'''| over [1/2, 3/2] is estimated by dense sampling
    (SUP_SAMPLES uniform points), which is a lower bound on the true sup;
    a 1% margin on top of the threshold compensates.  A normalization error
    beyond NORMALIZATION_TOL raises; one beyond NORMALIZATION_FLAG_TOL, or a
    failed largeness condition, is only flagged.  Once the margin holds, so
    that delta is meaningful, the model's E must equal its definition
    (h(y) - h(1))/(y - 1) - h'(y), h = 3 y g' + g, to E_RTOL relative at
    y = 1 +- delta and 1 +- delta/2; HypothesisFailed names E otherwise.
    """
    g1 = float(model.g(1.0))
    dg1 = float(model.dg(1.0))
    g_err, dg_err = abs(g1 - 1.0), abs(dg1 + 1.0 / 3.0)
    if g_err > NORMALIZATION_TOL or dg_err > NORMALIZATION_TOL:
        raise NormalizationViolated(
            f"g(1) = {g1!r}, g'(1) = {dg1!r}; expected 1 and -1/3"
        )
    normalization_ok = g_err <= NORMALIZATION_FLAG_TOL and dg_err <= NORMALIZATION_FLAG_TOL

    ys = np.linspace(0.5, 1.5, SUP_SAMPLES)
    sup_d3g = float(np.max(np.abs(model.d3g(ys))))
    g2_1 = float(model.d2g(1.0))
    threshold = 50.0 * (50.0 + sup_d3g)
    largeness_ok = g2_1 > 0 and g2_1 >= threshold
    margin_ok = g2_1 >= 1.01 * threshold
    if margin_ok:
        _check_E(model)
    return ValidationReport(
        normalization_ok=normalization_ok,
        largeness_ok=largeness_ok,
        margin_ok=margin_ok,
        g2_at_1=g2_1,
        sup_d3g=sup_d3g,
        threshold=threshold,
    )


def _check_E(model: ConstitutiveModel) -> None:
    """HypothesisFailed unless model.E equals its definition from g to E_RTOL."""
    def h(y):
        return 3.0 * y * model.dg(y) + model.g(y)

    d = model.delta
    y = 1.0 + np.array([-d, -0.5 * d, 0.5 * d, d])
    dh = 4.0 * model.dg(y) + 3.0 * y * model.d2g(y)
    expected = (h(y) - h(1.0)) / (y - 1.0) - dh
    supplied = np.asarray(model.E(y), dtype=float)
    bad = ~np.isclose(supplied, expected, rtol=E_RTOL, atol=0.0)
    if bad.any():
        y1, e1, ref = (float(a[np.argmax(bad)]) for a in (y, supplied, expected))
        raise HypothesisFailed(
            f"E: the model's E({y1!r}) = {e1!r} differs from"
            f" (h(y) - h(1))/(y - 1) - h'(y) = {ref!r} by more than {E_RTOL:g} relative"
        )


def ensure_validated(model: ConstitutiveModel) -> ValidationReport:
    """The model's cached validation report; raises HypothesisFailed, naming
    the failed condition, unless the report passes."""
    report = model.validation
    if not report.normalization_ok:
        raise HypothesisFailed(
            f"normalization: g(1) = {float(model.g(1.0))!r}, g'(1) = {float(model.dg(1.0))!r}"
            f" differ from 1 and -1/3 by more than {NORMALIZATION_FLAG_TOL:g}"
        )
    if not report.margin_ok:
        raise HypothesisFailed(
            f"largeness: g''(1) = {report.g2_at_1:.6g} < required "
            f"50*(50 + sup|g'''|) * 1.01 = {1.01 * report.threshold:.6g}"
        )
    return report


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

