"""Scalar constitutive layer.

The material enters the radial problem only through a function g of the
strain ratio y = (radial stretch)/(tangential stretch), normalized so that
g(1) = 1 and g'(1) = -1/3.  Everything the solver consumes downstream
(h, E, U, the admissible strain radius delta) derives from g and its first
three derivatives.

The built-in family is

    g(y) = y**(-1/3) + (kappa/2) * (y - 1)**2

which satisfies both normalizations identically for every stiffness
kappa >= 0; kappa = 0 is the mass-critical-gas special case and fails the
largeness condition.  The raw condition holds from kappa ~ 3023; with the
1% margin charged against the sampled sup of |g'''|, validation passes
from kappa ~ 3053 (default 3100).
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

# Switch point of the series branch of E; below this the raw difference
# quotient loses too many digits to cancellation.
EPS_E = 1e-4

# Step for the one finite difference we allow ourselves (g'''' of a C3
# model, needed only for the quadratic term of the E series).
FD_STEP = 1e-4

NORMALIZATION_TOL = 1e-9
NORMALIZATION_FLAG_TOL = 1e-12
SUP_SAMPLES = 10_001


@dataclass(frozen=True)
class ConstitutiveModel:
    """Evaluators for g and its first three derivatives on y > 0."""

    g: Callable
    dg: Callable
    d2g: Callable
    d3g: Callable
    family: str
    kappa: float | None = None

    # -- derived scalar functions ------------------------------------

    def h(self, y):
        """h(y) = 3 y g'(y) + g(y); vanishes at y = 1 for normalized models."""
        return 3.0 * y * self.dg(y) + self.g(y)

    def d2h(self, y):
        return 7.0 * self.d2g(y) + 3.0 * y * self.d3g(y)

    def d3h(self, y):
        # g'''' by central difference: the model is only assumed C3.
        d4g = (self.d3g(y + FD_STEP) - self.d3g(y - FD_STEP)) / (2.0 * FD_STEP)
        return 10.0 * self.d3g(y) + 3.0 * y * d4g

    def strain_terms(self, y):
        """(g''(y), E(y)), E(y) = (h(y) - h(1))/(y - 1) - h'(y).

        Inside |y - 1| < EPS_E, where a solved profile has nearly all its
        nodes, E is the series in t = y - 1 and reads only the constants at
        y = 1. g and g' are evaluated, and the raw quotient formed, only at
        the nodes outside it; g'' once at every node.
        """
        y = np.asarray(y, dtype=float)
        d2g = self.d2g(y)
        t = y - 1.0
        h1, d2h1, d3h1 = self._h_at_1
        big_e = np.asarray(-0.5 * d2h1 * t - d3h1 * t**2 / 3.0)
        far = np.abs(t) >= EPS_E
        if far.any():
            yf, tf = y[far], t[far]
            dg = self.dg(yf)
            big_e[far] = (3.0 * yf * dg + self.g(yf) - h1) / tf - (4.0 * dg + 3.0 * yf * d2g[far])
        return d2g, big_e

    @cached_property
    def _h_at_1(self) -> tuple[float, float, float]:
        """h and its second and third derivatives at y = 1, the constants of
        E; evaluated once per model."""
        return self.h(1.0), self.d2h(1.0), self.d3h(1.0)

    def U(self, y):
        """U(y) = 2(y - 1) + E(y)/g''(y) on the window |y - 1| <= delta."""
        y = np.asarray(y, dtype=float)
        if np.any(np.abs(y - 1.0) > self.delta):
            raise DomainExit(
                f"strain ratio left the window |y-1| <= {self.delta:.3e}"
            )
        d2g, big_e = self.strain_terms(y)
        out = 2.0 * (y - 1.0) + big_e / d2g
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

    return ConstitutiveModel(g=g, dg=dg, d2g=d2g, d3g=d3g, family="builtin", kappa=kappa)


def validate_model(model: ConstitutiveModel) -> ValidationReport:
    """Check normalization and the largeness condition on g''(1).

    The sup of |g'''| over [1/2, 3/2] is estimated by dense sampling
    (SUP_SAMPLES uniform points), which is a lower bound on the true sup;
    a 1% margin on top of the threshold compensates.  A normalization error
    beyond NORMALIZATION_TOL raises; one beyond NORMALIZATION_FLAG_TOL, or a
    failed largeness condition, is only flagged.
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
    return ValidationReport(
        normalization_ok=normalization_ok,
        largeness_ok=largeness_ok,
        margin_ok=margin_ok,
        g2_at_1=g2_1,
        sup_d3g=sup_d3g,
        threshold=threshold,
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
    the same path.
    """
    brho = np.asarray(brho, dtype=float)
    cells = brho.ravel().tolist()
    if any(b <= 0 for b in cells):
        raise ValueError("brho must be positive")
    # Python's float power per element: numpy's vectorised power rounds some
    # cube roots differently, and a stacked row must equal its scalar call.
    root = np.array([b ** (1.0 / 3.0) for b in cells]).reshape(brho.shape)
    lam = np.asarray(lam, dtype=float)
    out = lam / root * (FOUR_PI_3 * G * brho + mu * lam**3)
    return out if out.ndim else float(out)

