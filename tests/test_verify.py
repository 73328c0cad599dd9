import dataclasses
import math

import numpy as np
import pytest

from gravelast.constitutive import (
    ConstitutiveModel,
    make_builtin_model,
    residual_pressure,
)
from gravelast import verify
from gravelast.errors import NonconvexModel
from gravelast.radial import RadialGrid
from gravelast.shooting import solve_separable
from gravelast.verify import (
    check_derivatives,
    residual_report,
    residual_reformulation,
    residual_separated,
    stress_profiles,
)

# Frozen from the refinement study over N in {128, 256, 512, 1024}:
# sup residual ~ 1.3e-5 h^2 on converged profiles.
C_RESIDUAL = 5e-5


class TestResidualSeparated:
    def test_converged_profile_small(self, model, solution_mu0):
        res = residual_separated(model, solution_mu0)
        assert res <= C_RESIDUAL * solution_mu0.grid.h**2

    @pytest.mark.parametrize("mu_frac", [-0.9, 0.0, 0.9])
    def test_refinement_order(self, model, box, mu_frac):
        sups = []
        for n in (128, 256, 512):
            sol = solve_separable(model, mu_frac * box.mu0, 1.0, RadialGrid(n))
            sups.append(residual_separated(model, sol))
        orders = [math.log2(sups[i] / sups[i + 1]) for i in range(2)]
        assert all(1.8 <= order <= 2.2 for order in orders)

    def test_straight_probe_with_mismatched_params(self, model, reference_profile):
        # f = R solves nothing unless the force balance is tuned; the defect
        # is exactly the right-hand side, coefficient * R
        brho, mu = 2.0, 0.0
        probe = reference_profile(brho=brho, mu=mu)
        coeff = abs(brho ** (-1 / 3) * (4 * math.pi / 3 * brho + mu))
        assert residual_separated(model, probe) == pytest.approx(coeff, rel=1e-12)

    def test_scaling_violation_increases_residual(self, model, solution_mu0):
        res = residual_separated(model, solution_mu0)
        bad = dataclasses.replace(
            solution_mu0,
            f=1.01 * solution_mu0.f,
            fprime=1.01 * solution_mu0.fprime,
            lam=1.01 * solution_mu0.lam,
        )
        assert residual_separated(model, bad) > res


class TestEquivalence:
    def test_converged_profile(self, model, solution_mu0):
        sup_sep = residual_separated(model, solution_mu0)
        sup_ref, gap = residual_reformulation(model, solution_mu0)
        assert gap <= 1e-8 * (1.0 + sup_sep)
        assert sup_ref <= C_RESIDUAL * solution_mu0.grid.h**2

    def test_probe_proportionality(self, model, reference_profile):
        # zeta = 0: separated defect = R g''(1) * reformulated defect
        probe = reference_profile(brho=1.3, mu=0.0)
        sup_sep = residual_separated(model, probe)
        sup_ref, gap = residual_reformulation(model, probe)
        assert gap <= 1e-12 * (1.0 + sup_sep)
        assert sup_sep == pytest.approx(sup_ref * model.d2g(1.0), rel=1e-10)

    @pytest.mark.parametrize("brho", [1.3, 2.0])
    def test_sign_flip_detected(self, model, reference_profile, monkeypatch, brho):
        # a reformulated defect with the wrong sign has the right magnitude;
        # the signed gap must still exceed the CLI's max_equivalence
        probe = reference_profile(brho=brho)
        original = verify._residual_arrays

        def flipped(model_, profile):
            sep, ref, gpp = original(model_, profile)
            return sep, -ref, gpp

        monkeypatch.setattr(verify, "_residual_arrays", flipped)
        _, gap = residual_reformulation(model, probe)
        assert gap > 1e-8 * (1.0 + residual_separated(model, probe))

    def test_nonconvex_model_rejected(self, reference_profile):
        base = make_builtin_model(3100.0)
        bent = ConstitutiveModel(
            g=base.g, dg=base.dg,
            d2g=lambda y: -1.0 + 0.0 * y, d3g=base.d3g, family="bent",
        )
        probe = reference_profile(brho=1.0)
        probe = dataclasses.replace(probe, model=bent)
        with pytest.raises(NonconvexModel):
            residual_reformulation(bent, probe)


class TestCheckDerivatives:
    @pytest.mark.parametrize("kappa", [0.0, 3100.0])
    def test_builtin(self, kappa):
        out = check_derivatives(make_builtin_model(kappa))
        assert set(out) == {"dg", "d2g", "d3g"}
        assert all(v <= 1e-6 for v in out.values())

    def test_constant_model_exact(self):
        flat = ConstitutiveModel(
            g=lambda y: 1.0 + 0.0 * y,
            dg=lambda y: 0.0 * y,
            d2g=lambda y: 0.0 * y,
            d3g=lambda y: 0.0 * y,
            family="flat",
        )
        assert check_derivatives(flat)["dg"] == 0.0


class TestStress:
    def test_boundary_stress_free(self, model, solution_mu0):
        c1, _ = stress_profiles(solution_mu0)
        assert abs(c1[-1]) <= 1e-10 * solution_mu0.brho0 ** (4 / 3)

    def test_reference_state_isotropic(self, reference_profile):
        brho = 2.0
        probe = reference_profile(brho=brho)
        c1, c2 = stress_profiles(probe)
        assert np.max(np.abs(c1 + residual_pressure(brho))) <= 1e-14
        assert np.max(np.abs(c2 - c1)) <= 1e-14

    def test_boundary_consistency(self, model, solution_mu0):
        c1, _ = stress_profiles(solution_mu0)
        lhs = abs(c1[-1]) / solution_mu0.brho0 ** (4 / 3)
        rhs = abs(model.dg(solution_mu0.y[-1])) * solution_mu0.lam[-1] ** -2
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestReport:
    def test_fields(self, model, solution_mu0):
        rep = residual_report(model, solution_mu0)
        assert rep.grid_n == 512
        assert rep.stencil_order == 4
        assert rep.residual_separated >= 0
        assert rep.boundary_residual == pytest.approx(
            solution_mu0.boundary_residual, abs=1e-15
        )

    def test_profile_handle(self, model, solution_mu0):
        rep = solution_mu0.residual_report()
        assert rep == residual_report(model, solution_mu0)

    @pytest.mark.parametrize("brho", [None, 1.3])
    def test_defects_assembled_once(self, model, solution_mu0, reference_profile,
                                    monkeypatch, brho):
        profile = solution_mu0 if brho is None else reference_profile(brho=brho)
        sup_sep = residual_separated(model, profile)
        sup_ref, gap = residual_reformulation(model, profile)
        calls = []
        original = verify._residual_arrays
        monkeypatch.setattr(
            verify, "_residual_arrays", lambda m, p: calls.append(p) or original(m, p)
        )
        rep = residual_report(model, profile)
        assert len(calls) == 1
        # Bit-identical, not approximately equal.
        assert rep.residual_separated == sup_sep
        assert rep.residual_reformulation == sup_ref
        assert rep.equivalence_gap == gap
