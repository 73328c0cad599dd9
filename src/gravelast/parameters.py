"""Admissible (mu, brho) region for the contraction construction.

All constants are closed forms in G, with the gravity-vs-eigenvalue scale
K(brho, mu) = brho**(-1/3) ((4 pi / 3) G brho + |mu|):

    brho_plus       solves (4 pi / 3) G brho**(2/3) = 10
    brho_minus(mu)  = |mu| / ((8 pi / 3) G), the minimizer of K(., mu)
    mu_ceiling      = 0.99 * min of the two smallness conditions, the
                      binding one being K(brho_minus(mu), mu) < 1/20

Within the box, K(brho, mu) < 21/2 and the map being iterated shrinks
distances by a factor around 0.12, so plain fixed-point iteration and a
bracketing sign-change search for brho (run in the forcing scale w, see
shooting) suffice downstream.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constitutive import EIGHT_PI_3, FOUR_PI_3, ConstitutiveModel, ensure_validated
from .errors import ParameterOutOfRange

# Lower bracket endpoint never goes below this fraction of brho_plus; K is
# continuous down to brho = 0 but brho**(-1/3) is not.
BRHO_FLOOR_FRACTION = 1e-6


def brho_plus(G: float) -> float:
    return (10.0 / (FOUR_PI_3 * G)) ** 1.5


def brho_minus(mu: float, G: float) -> float:
    return abs(mu) / (EIGHT_PI_3 * G)


def k_minimum(mu: float, G: float) -> float:
    """Closed-form minimum of brho -> K(brho, mu), attained at brho_minus."""
    return 1.5 * abs(mu) ** (2.0 / 3.0) * (EIGHT_PI_3 * G) ** (1.0 / 3.0)


def mu_ceiling(G: float) -> float:
    """Largest |mu| the solver accepts, with a 0.99 safety factor.

    Condition 1: mu < min(brho_plus**(1/3)/2, (8 pi/3) G brho_plus).
    Condition 2: K(brho_minus(mu), mu) < 1/20, inverted in closed form.
    """
    bp = brho_plus(G)
    cond1 = min(0.5 * bp ** (1.0 / 3.0), EIGHT_PI_3 * G * bp)
    cond2 = 30.0 ** -1.5 / math.sqrt(EIGHT_PI_3 * G)
    return 0.99 * min(cond1, cond2)


@dataclass(frozen=True)
class ParameterBox:
    G: float
    mu0: float
    brho_plus: float

    def brho_minus(self, mu: float) -> float:
        return brho_minus(mu, self.G)

    def brho_lower(self, mu: float) -> float:
        """Lower bracket endpoint, floored away from zero."""
        return max(self.brho_minus(mu), BRHO_FLOOR_FRACTION * self.brho_plus)

    def check_mu(self, mu: float) -> None:
        if not abs(mu) <= self.mu0:  # NaN fails too
            raise ParameterOutOfRange(
                f"mu outside proven range: |{mu:g}| > mu0 = {self.mu0:.6g}"
            )

    def check_brho(self, brho: float, mu: float) -> None:
        self.check_mu(mu)
        lo = self.brho_lower(mu)
        if not (lo <= brho <= self.brho_plus):
            raise ParameterOutOfRange(
                f"brho = {brho:.6g} outside bracket [{lo:.6g}, {self.brho_plus:.6g}]"
            )


def check_G(G: float) -> float:
    """G itself; ValueError unless G > 0 is finite and brho_plus, the stress scale
    brho_plus**(4/3) and mu_ceiling are normal floats (about 2e-154 < G < 2e154)."""
    _box_constants(G)
    return G


def _box_constants(G: float) -> tuple[float, float]:
    """(brho_plus, mu_ceiling) of G, after the checks of check_G."""
    if not (math.isfinite(G) and G > 0):
        raise ValueError(f"G must be finite and positive, got {G!r}")
    try:
        bp = brho_plus(G)
        mu0 = mu_ceiling(G)
        constants = (bp, bp ** (4.0 / 3.0), mu0)
    except OverflowError:
        constants = (math.inf,)
    if not all(sys.float_info.min <= c < math.inf for c in constants):
        raise ValueError(f"G = {G!r} puts the parameter box outside the float range")
    return bp, mu0


def build_parameter_box(model: ConstitutiveModel, G: float) -> ParameterBox:
    """Assemble the box and re-check the two smallness conditions post hoc."""
    bp, mu0 = _box_constants(G)
    ensure_validated(model)

    assert mu0 < min(0.5 * bp ** (1.0 / 3.0), EIGHT_PI_3 * G * bp)
    assert k_minimum(mu0, G) < 1.0 / 20.0
    assert abs(FOUR_PI_3 * G * bp ** (2.0 / 3.0) - 10.0) <= 1e-12

    return ParameterBox(G=G, mu0=mu0, brho_plus=bp)
