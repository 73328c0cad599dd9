"""End-to-end oracle: march the profile ODE as an initial-value problem.

The solver produces (brho0, mu, f'(0)) through an integral fixed point plus
a root search in brho.  Here the second-order ODE

    f'' = -(f' - lambda)(2 + U(y))/R + R V(lambda)/g''(y)

is integrated outward with RK4 from a series start at the center, using
only those three scalars.  If the solver is right, both boundary conditions
f(1) = 1 and g'(y(1)) = 0 must come out on their own.
"""

import pytest

from gravelast.constitutive import V
from gravelast.radial import RadialGrid
from gravelast.shooting import solve_separable


def march_profile(model, brho, mu, G, fp0, r_end=1.0, r0=1e-3, dr=2e-4):
    """RK4 in radius; start from f ~ f'(0) R + a R^3/6, a = (3/5) V(f'(0))/g''(1)."""
    a = 0.6 * V(brho, mu, G, fp0) / float(model.d2g(1.0))
    f = fp0 * r0 + a * r0**3 / 6.0
    fp = fp0 + a * r0**2 / 2.0

    def rhs(r, f, fp):
        lam = f / r
        y = fp / lam
        return (
            -(fp - lam) * (2.0 + model.U(y)) / r
            + r * V(brho, mu, G, lam) / model.d2g(y)
        )

    n = round((r_end - r0) / dr)
    dr = (r_end - r0) / n
    r = r0
    for _ in range(n):
        k1f, k1p = fp, rhs(r, f, fp)
        k2f, k2p = fp + 0.5 * dr * k1p, rhs(r + 0.5 * dr, f + 0.5 * dr * k1f, fp + 0.5 * dr * k1p)
        k3f, k3p = fp + 0.5 * dr * k2p, rhs(r + 0.5 * dr, f + 0.5 * dr * k2f, fp + 0.5 * dr * k2p)
        k4f, k4p = fp + dr * k3p, rhs(r + dr, f + dr * k3f, fp + dr * k3p)
        f += dr / 6.0 * (k1f + 2 * k2f + 2 * k3f + k4f)
        fp += dr / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        r += dr
    return f, fp


@pytest.mark.parametrize("mu_frac", [0.0, -0.5, 1.0])
def test_marched_profile_hits_both_boundary_conditions(model, box, mu_frac):
    mu = mu_frac * box.mu0
    sol = solve_separable(model, mu, 1.0, RadialGrid(512), box=box)
    f1, fp1 = march_profile(model, sol.brho0, mu, 1.0, sol.fprime0)
    y1 = fp1 / f1
    assert abs(f1 - 1.0) <= 1e-10
    assert abs(model.dg(y1)) <= 5e-9
    assert y1 == pytest.approx(float(sol.y[-1]), abs=1e-10)


@pytest.mark.parametrize("stop", [0.25, 0.5, 0.75])
def test_marched_profile_matches_interior_nodes(model, solution_mu0, stop):
    sol = solution_mu0
    f, fp = march_profile(model, sol.brho0, sol.mu, 1.0, sol.fprime0, r_end=stop)
    node = int(round(stop * sol.grid.n))
    assert f == pytest.approx(float(sol.f[node]), abs=1e-10)
    assert fp == pytest.approx(float(sol.fprime[node]), abs=1e-9)
