import numpy as np
import pytest

from gravelast.constitutive import make_builtin_model
from gravelast.parameters import build_parameter_box
from gravelast.radial import RadialGrid, reconstruct_geometry
from gravelast.shooting import SolutionProfile, solve_separable


@pytest.fixture(scope="session")
def model():
    return make_builtin_model(3100.0)


@pytest.fixture(scope="session")
def box(model):
    return build_parameter_box(model, 1.0)


@pytest.fixture(scope="session")
def grid512():
    return RadialGrid(512)


@pytest.fixture(scope="session")
def solution_mu0(model, box, grid512):
    return solve_separable(model, 0.0, 1.0, grid512, box=box)


@pytest.fixture(scope="session")
def reference_profile(model, box):
    """Factory for zeta = 0 profiles (f = R, y = lambda = 1) at chosen params."""

    def make(brho, mu=0.0, n=256):
        grid = RadialGrid(n)
        geo = reconstruct_geometry(grid, np.zeros(n + 1))
        return SolutionProfile(
            model=model, mu=mu, brho0=brho, G=1.0, grid=grid,
            zeta=np.zeros(n + 1), f=geo.f, fprime=geo.fprime, lam=geo.lam,
            y=geo.y, fprime0=geo.fprime0,
            boundary_residual=float(model.dg(geo.y[-1])),
            diagnostics=None, root_evaluations=0, box=box,
        )

    return make
