"""Independent references for the radial operators and the model derivatives.

The solver only ever applies Linv; `apply_L` is the forward operator it
inverts, assembled from the same moment quadrature, so a round trip checks
`apply_L_inverse` against a second formula. `lipschitz_probe` estimates the
contraction factor of the real composition Linv F on random pairs, and
`check_derivatives` compares a model's analytic g', g'', g''' with central
differences of the next lower derivative. `E_mpmath` forms E from its
definition, h = 3 y g' + g of the built-in g at 50 digits, and
`E_series_mpmath` from its series about y = 1: the references for the
closed form `make_builtin_model` supplies. `K` is the
gravity-vs-eigenvalue scale that the box conditions and the contraction
bounds are stated in.
"""

import mpmath as mp
import numpy as np

from gravelast.constitutive import FOUR_PI_3, ConstitutiveModel
from gravelast.fixed_point import apply_F
from gravelast.parameters import build_parameter_box
from gravelast.radial import RadialGrid, apply_L_inverse, moment_integral


def apply_L(grid: RadialGrid, zeta: np.ndarray) -> np.ndarray:
    """(L z)(R) = z(R) + (2/R**3) int_0^R t**2 z dt, with L z(0) = (5/3) z(0)."""
    z = np.asarray(zeta, dtype=float)
    m2 = moment_integral(grid, z, 2)
    r = grid.nodes
    out = np.empty_like(z)
    out[0] = (5.0 / 3.0) * z[0]
    out[1:] = z[1:] + 2.0 * m2[1:] / r[1:] ** 3
    return out


def lipschitz_probe(
    model: ConstitutiveModel,
    brho: float,
    mu: float,
    G: float,
    grid: RadialGrid,
    trials: int = 100,
    seed: int = 0,
) -> float:
    """Empirical Lipschitz constant of Linv F over random pairs in the ball.

    Node values are drawn i.i.d. uniform in [-delta, delta]; such profiles
    are rougher than actual iterates, which makes the estimate conservative.
    Coincident pairs (zero denominator) are skipped.
    """
    build_parameter_box(model, G).check_brho(brho, mu)

    delta = model.delta
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        z1 = rng.uniform(-delta, delta, grid.n + 1)
        z2 = rng.uniform(-delta, delta, grid.n + 1)
        gap = float(np.max(np.abs(z1 - z2)))
        if gap == 0.0:
            continue
        im1 = apply_L_inverse(grid, apply_F(model, brho, mu, G, grid, z1))
        im2 = apply_L_inverse(grid, apply_F(model, brho, mu, G, grid, z2))
        best = max(best, float(np.max(np.abs(im1 - im2))) / gap)
    return best


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


def _builtin_h_mp(k):
    """h = 3 v g' + g and h' = 4 g' + 3 v g'' of the built-in family with
    stiffness k, in the working mpmath precision."""
    one = mp.mpf(1)

    def g(v):
        return v ** (-one / 3) + k / 2 * (v - 1) ** 2

    def dg(v):
        return -v ** (-4 * one / 3) / 3 + k * (v - 1)

    def d2g(v):
        return 4 * v ** (-7 * one / 3) / 9 + k

    def h(v):
        return 3 * v * dg(v) + g(v)

    def dh(v):
        return 4 * dg(v) + 3 * v * d2g(v)

    return h, dh


def E_mpmath(kappa: float, y: float, dps: int = 50) -> mp.mpf:
    """E(y) = (h(y) - h(1))/(y - 1) - h'(y) of the built-in family
    g = y**(-1/3) + (kappa/2)(y - 1)**2, with h = 3 y g' + g and
    h' = 4 g' + 3 y g'' evaluated at dps digits; y != 1."""
    with mp.workdps(dps):
        y = mp.mpf(y)
        h, dh = _builtin_h_mp(mp.mpf(kappa))
        return (h(y) - h(mp.mpf(1))) / (y - 1) - dh(y)


def E_series_mpmath(kappa: float, y: float, dps: int = 50) -> mp.mpf:
    """E(1 + t) = -h''(1) t/2 - h'''(1) t**2/3 of the built-in family at dps
    digits, h'' and h''' by numerical differentiation; the higher terms of
    the series vanish since h is a quadratic for this family."""
    with mp.workdps(dps):
        t = mp.mpf(y) - 1
        h, _ = _builtin_h_mp(mp.mpf(kappa))
        return -mp.diff(h, 1, 2) * t / 2 - mp.diff(h, 1, 3) * t**2 / 3


def K(brho: float, mu: float, G: float) -> float:
    """Gravity-vs-eigenvalue scale brho**(-1/3) ((4 pi/3) G brho + |mu|)."""
    if brho <= 0:
        raise ValueError("brho must be positive")
    return brho ** (-1.0 / 3.0) * (FOUR_PI_3 * G * brho + abs(mu))
