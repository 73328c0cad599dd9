"""Independent references for the radial operators and the model derivatives.

The solver only ever applies Linv; `apply_L` is the forward operator it
inverts, assembled from the same moment quadrature, so a round trip checks
`apply_L_inverse` against a second formula. `lipschitz_probe` estimates the
contraction factor of the real composition Linv F on random pairs, and
`check_derivatives` compares a model's analytic g', g'', g''' with central
differences of the next lower derivative. `strain_terms_both_branches`
forms both branches of E at every node and picks one per node: the
reference for `ConstitutiveModel.strain_terms`, which forms the raw
quotient only outside the series branch.
"""

import numpy as np

from gravelast.constitutive import EPS_E, ConstitutiveModel
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


def strain_terms_both_branches(model: ConstitutiveModel, y):
    """(g''(y), E(y)) with g, g', g'', the raw quotient and the series of E
    evaluated at every node, and np.where choosing the series inside
    |y - 1| < EPS_E."""
    y = np.asarray(y, dtype=float)
    g, dg, d2g = model.g(y), model.dg(y), model.d2g(y)
    t = y - 1.0
    near = np.abs(t) < EPS_E
    # Guard the quotient where it is not used.
    t_safe = np.where(near, 1.0, t)
    h1, d2h1, d3h1 = model.h(1.0), model.d2h(1.0), model.d3h(1.0)
    raw = (3.0 * y * dg + g - h1) / t_safe - (4.0 * dg + 3.0 * y * d2g)
    series = -0.5 * d2h1 * t - d3h1 * t**2 / 3.0
    return d2g, np.where(near, series, raw)
