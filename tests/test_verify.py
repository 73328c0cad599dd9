import dataclasses
import math

import numpy as np
import pytest
from operator_oracles import check_derivatives

from gravelast.constitutive import ConstitutiveModel, make_builtin_model
from gravelast import verify
from gravelast.errors import NonconvexModel
from gravelast.parameters import build_parameter_box
from gravelast.radial import RadialGrid
from gravelast.shooting import SolutionProfile, solve_separable, sweep
from gravelast.verify import residual_report, stress_profiles

# Frozen from the refinement study over N in {128, 256, 512, 1024}:
# sup residual ~ 1.3e-5 h^2 on converged profiles.
C_RESIDUAL = 5e-5


class TestResidualSeparated:
    def test_converged_profile_small(self, solution_mu0):
        res = residual_report(solution_mu0).residual_separated
        assert res <= C_RESIDUAL * solution_mu0.grid.h**2

    @pytest.mark.parametrize("mu_frac", [-0.9, 0.0, 0.9])
    def test_refinement_order(self, model, box, mu_frac):
        sups = []
        for n in (128, 256, 512):
            sol = solve_separable(model, mu_frac * box.mu0, 1.0, RadialGrid(n))
            sups.append(residual_report(sol).residual_separated)
        orders = [math.log2(sups[i] / sups[i + 1]) for i in range(2)]
        assert all(1.8 <= order <= 2.2 for order in orders)

    def test_straight_probe_with_mismatched_params(self, reference_profile):
        # f = R solves nothing unless the force balance is tuned; the defect
        # is exactly the right-hand side, coefficient * R
        brho, mu = 2.0, 0.0
        probe = reference_profile(brho=brho, mu=mu)
        coeff = abs(brho ** (-1 / 3) * (4 * math.pi / 3 * brho + mu))
        assert residual_report(probe).residual_separated == pytest.approx(coeff, rel=1e-12)

    def test_scaling_violation_increases_residual(self, solution_mu0):
        res = residual_report(solution_mu0).residual_separated
        bad = dataclasses.replace(
            solution_mu0,
            f=1.01 * solution_mu0.f,
            fprime=1.01 * solution_mu0.fprime,
            lam=1.01 * solution_mu0.lam,
        )
        assert residual_report(bad).residual_separated > res


class TestEquivalence:
    def test_converged_profile(self, solution_mu0):
        rep = residual_report(solution_mu0)
        assert rep.equivalence_gap <= 1e-8 * (1.0 + rep.residual_separated)
        assert rep.residual_reformulation <= C_RESIDUAL * solution_mu0.grid.h**2

    def test_probe_proportionality(self, model, reference_profile):
        # zeta = 0: separated defect = R g''(1) * reformulated defect
        probe = reference_profile(brho=1.3, mu=0.0)
        rep = residual_report(probe)
        assert rep.equivalence_gap <= 1e-12 * (1.0 + rep.residual_separated)
        assert rep.residual_separated == pytest.approx(
            rep.residual_reformulation * model.d2g(1.0), rel=1e-10
        )

    @pytest.mark.parametrize("brho", [1.3, 2.0])
    def test_sign_flip_detected(self, reference_profile, monkeypatch, brho):
        # a reformulated defect with the wrong sign has the right magnitude;
        # the signed gap must still fail verify's equivalence check
        probe = reference_profile(brho=brho)
        assert "pass_equivalence_gap = True" in verify.verdict(probe)[0]
        original = verify._residual_arrays

        def flipped(profile):
            sep, ref, gpp = original(profile)
            return sep, -ref, gpp

        monkeypatch.setattr(verify, "_residual_arrays", flipped)
        rep = residual_report(probe)
        assert rep.equivalence_gap > verify.MAX_EQUIVALENCE * (1.0 + rep.residual_separated)
        assert "pass_equivalence_gap = False" in verify.verdict(probe)[0]

    def test_nonconvex_model_rejected(self, reference_profile):
        base = make_builtin_model(3100.0)
        bent = ConstitutiveModel(
            g=base.g, dg=base.dg,
            d2g=lambda y: -1.0 + 0.0 * y, d3g=base.d3g, E=base.E, family="bent",
        )
        probe = reference_profile(brho=1.0)
        probe = dataclasses.replace(probe, model=bent)
        with pytest.raises(NonconvexModel):
            residual_report(probe)


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
            E=lambda y: 0.0 * y,
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
        # -c1 is the residual pressure brho**(4/3)/3 of the reference state
        assert np.max(np.abs(c1 + brho ** (4.0 / 3.0) / 3.0)) <= 1e-14
        assert np.max(np.abs(c2 - c1)) <= 1e-14

    def test_boundary_consistency(self, model, solution_mu0):
        c1, _ = stress_profiles(solution_mu0)
        lhs = abs(c1[-1]) / solution_mu0.brho0 ** (4 / 3)
        rhs = abs(model.dg(solution_mu0.y[-1])) * solution_mu0.lam[-1] ** -2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_one_dg_evaluation(self, model, solution_mu0):
        calls = []
        spied = dataclasses.replace(model, dg=lambda y: calls.append(y) or model.dg(y))
        c1, c2 = stress_profiles(dataclasses.replace(solution_mu0, model=spied))
        assert len(calls) == 1
        # Bit-identical to the components assembled from g' and g directly.
        y, lam2 = solution_mu0.y, solution_mu0.lam**2
        scale = solution_mu0.brho0 ** (4.0 / 3.0)
        assert np.array_equal(c1, scale / lam2 * model.dg(y))
        assert np.array_equal(c2, -0.5 * scale / lam2 * (y * model.dg(y) + model.g(y)))


class TestVerdict:
    @pytest.mark.parametrize("n", [16, 512])
    @pytest.mark.parametrize("kappa,G", [(3060.0, 2.0), (3100.0, 1.0), (1e9, 1.0)])
    def test_fixed_bounds_pass_solved_profiles_at_the_corners(self, kappa, G, n):
        # At kappa = 1e9, |g'(y(1))| ~ 2.8e-8 sits at the solver's rounding
        # floor, above MAX_BOUNDARY: the boundary bound follows g''(1) eps.
        model = make_builtin_model(kappa)
        mu0 = build_parameter_box(model, G).mu0
        for row in sweep(model, G, [-mu0, 0.0, mu0], RadialGrid(n)):
            assert isinstance(row, SolutionProfile), row
            text, ok = verify.verdict(row)
            assert ok, text


class TestReport:
    def test_fields(self, solution_mu0):
        rep = residual_report(solution_mu0)
        assert rep.grid_n == 512
        assert rep.stencil_order == 4
        assert rep.residual_separated >= 0
        assert rep.boundary_residual == pytest.approx(
            solution_mu0.boundary_residual, abs=1e-15
        )

    @pytest.mark.parametrize("brho", [None, 1.3])
    def test_defects_assembled_once(self, solution_mu0, reference_profile, monkeypatch, brho):
        profile = solution_mu0 if brho is None else reference_profile(brho=brho)
        # The sup norms over R >= 2h of one assembly of the signed defects.
        sep, ref, gpp = verify._residual_arrays(profile)
        r = profile.grid.nodes[1:]
        interior = r >= 2.0 * profile.grid.h - 1e-15
        sup_sep, sup_ref, gap = (
            float(np.max(np.abs(d[interior]))) for d in (sep, ref, ref * r * gpp - sep)
        )
        calls = []
        original = verify._residual_arrays
        monkeypatch.setattr(
            verify, "_residual_arrays", lambda p: calls.append(p) or original(p)
        )
        rep = residual_report(profile)
        assert len(calls) == 1
        # Bit-identical, not approximately equal.
        assert rep.residual_separated == sup_sep
        assert rep.residual_reformulation == sup_ref
        assert rep.equivalence_gap == gap
