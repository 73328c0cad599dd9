"""Solver behavior across the admissible parameter space: gravitational
constants away from 1, stiffnesses away from the default, the extreme
eigenvalues, and the minimum grid."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravelast.constitutive import FOUR_PI_3, make_builtin_model, validate_model
from gravelast.errors import HypothesisFailed, NormalizationViolated, SolverError
from gravelast.parameters import build_parameter_box, k_minimum
from gravelast.radial import RadialGrid
from gravelast.shooting import solve_separable, sweep
from gravelast.verify import residual_report, stress_profiles
from operator_oracles import K

# Smallest stiffness whose validation margin (1% over the sampled threshold)
# holds: 1.01 * 50 * (50 + sup|g'''|) - 4/9 ~ 3052.4.
KAPPA_MARGIN_MIN = 3053.0


@pytest.mark.parametrize("G", [0.25, 1.0, 4.0])
class TestGravitationalConstant:
    def test_box_invariants(self, model, G):
        box = build_parameter_box(model, G)
        assert FOUR_PI_3 * G * box.brho_plus ** (2 / 3) == pytest.approx(10.0, abs=1e-12)
        for mu in (-box.mu0, 0.0, box.mu0):
            assert box.brho_minus(mu) < box.brho_plus
            assert k_minimum(mu, G) < 1 / 20
            assert K(box.brho_plus, mu, G) < 21 / 2

    def test_solve_and_residual(self, model, G):
        grid = RadialGrid(128)
        sol = solve_separable(model, 0.0, G, grid)
        d = model.delta
        assert abs(sol.boundary_residual) <= 1e-10
        assert d / 33 <= sol.y[-1] - 1.0 <= d / 27
        rep = residual_report(sol)
        assert rep.residual_separated <= 5e-5 * grid.h**2
        assert rep.equivalence_gap <= 1e-8

    def test_nonzero_mu(self, model, G):
        box = build_parameter_box(model, G)
        sol = solve_separable(model, -box.mu0 / 2, G, RadialGrid(64))
        assert box.brho_minus(-box.mu0 / 2) < sol.brho0 < box.brho_plus


@pytest.mark.parametrize("G", [-1.0, 0.0, float("nan"), float("inf")])
def test_bad_G_rejected(model, G):
    with pytest.raises(ValueError, match="G must be finite and positive"):
        build_parameter_box(model, G)


@pytest.mark.parametrize("G", [1e-250, 1e-155, 1e155, 1e250])
def test_G_beyond_float_range_rejected(model, G):
    # brho_plus**1.5 overflowed below, the box underflowed to 0 above
    with pytest.raises(ValueError, match="puts the parameter box outside the float range"):
        build_parameter_box(model, G)


@pytest.mark.parametrize("G", [1e-153, 1e153])
def test_G_at_float_range_edges_solves(model, G):
    box = build_parameter_box(model, G)
    for mu in (-box.mu0, 0.0, box.mu0):
        sol = solve_separable(model, mu, G, RadialGrid(16))
        assert abs(sol.boundary_residual) <= 1e-10
        assert np.all(np.isfinite(stress_profiles(sol)[0]))


class TestExtremeEigenvalues:
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_full_interval_endpoint(self, model, box, sign):
        mu = sign * box.mu0
        sol = solve_separable(model, mu, 1.0, RadialGrid(128))
        assert abs(sol.boundary_residual) <= 1e-10
        assert np.max(np.abs(sol.zeta)) <= model.delta

    def test_y1_independent_of_mu(self, model, box):
        # the boundary value solves g'(y) = 0, a model property alone
        grid = RadialGrid(128)
        y1s = [
            solve_separable(model, mu, 1.0, grid).y[-1]
            for mu in (-box.mu0, 0.0, box.mu0)
        ]
        assert max(y1s) - min(y1s) <= 1e-10


class TestStiffnessRange:
    @pytest.mark.parametrize("kappa", [KAPPA_MARGIN_MIN, 1e4, 1e5])
    def test_solve_scales_with_kappa(self, kappa):
        model = make_builtin_model(kappa)
        validate_model(model)
        sol = solve_separable(model, 0.0, 1.0, RadialGrid(64))
        d = model.delta
        assert d == pytest.approx(10.0 / (kappa + 4.0 / 9.0), rel=1e-12)
        assert d / 33 <= sol.y[-1] - 1.0 <= d / 27
        assert abs(sol.boundary_residual) <= 1e-10

    def test_margin_gate(self):
        # raw inequality alone is not enough; the 1% sampling margin decides
        model = make_builtin_model(3023.0)
        sup_d3g = (28.0 / 27.0) * 2.0 ** (10.0 / 3.0)  # |g'''(1/2)|
        assert model.d2g(1.0) >= 50.0 * (50.0 + sup_d3g)
        with pytest.raises(HypothesisFailed, match="^largeness: "):
            validate_model(model)
        validate_model(make_builtin_model(3053.0))


def _refused(case):
    """(model, error type, message prefix) of a model that fails one hypothesis."""
    base = make_builtin_model(3100.0)
    return {
        # the band 1e-12 < |g(1) - 1| <= 1e-9 was once only flagged
        "normalization": (dataclasses.replace(base, g=lambda y: base.g(y) + 1e-10),
                          NormalizationViolated, "normalization: "),
        # the raw largeness condition holds; the margin does not
        "margin": (make_builtin_model(3023.0), HypothesisFailed, "largeness: "),
        "gas": (make_builtin_model(0.0), HypothesisFailed, "largeness: "),
        "E": (dataclasses.replace(base, E=lambda y: (1.0 + 1e-6) * base.E(y)),
              HypothesisFailed, "E: "),
    }[case]


@pytest.mark.parametrize("case", ["normalization", "margin", "gas", "E"])
def test_refusal_is_the_same_at_every_entry_point(case):
    model, error, prefix = _refused(case)
    grid = RadialGrid(16)
    calls = {
        "validate_model": lambda: validate_model(model),
        "build_parameter_box": lambda: build_parameter_box(model, 1.0),
        "solve_separable": lambda: solve_separable(model, 0.0, 1.0, grid),
        "sweep": lambda: sweep(model, 1.0, [0.0], grid),
        "model.validation, read again": lambda: model.validation,
    }
    messages = set()
    for name, call in calls.items():
        with pytest.raises(SolverError) as info:
            call()
        assert type(info.value) is error, name
        assert str(info.value).startswith(prefix), name
        messages.add(str(info.value))
    assert len(messages) == 1
    assert "validation" not in vars(model)  # a failed read caches nothing


def test_minimum_grid(model):
    sol = solve_separable(model, 0.0, 1.0, RadialGrid(16))
    assert abs(sol.boundary_residual) <= 1e-10
    assert abs(sol.f[-1] - 1.0) <= 1e-12
    assert residual_report(sol).residual_separated <= 5e-5 / 16**2


@settings(max_examples=10, deadline=None)
@given(
    kappa=st.floats(KAPPA_MARGIN_MIN, 5e4),
    mu_frac=st.floats(-1.0, 1.0),
)
def test_solve_invariants_hold_across_parameters(kappa, mu_frac):
    model = make_builtin_model(kappa)
    box = build_parameter_box(model, 1.0)
    mu = mu_frac * box.mu0
    sol = solve_separable(model, mu, 1.0, RadialGrid(64))
    d = model.delta
    assert abs(sol.boundary_residual) <= 1e-10
    assert box.brho_lower(mu) <= sol.brho0 <= box.brho_plus
    assert np.max(np.abs(sol.zeta)) <= d
    assert d / 33 <= sol.y[-1] - 1.0 <= d / 27
    assert np.all(np.abs(sol.y - 1.0) <= sol.grid.nodes**2 * d + 1e-15)
