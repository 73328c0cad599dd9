import dataclasses
from collections import Counter

import numpy as np
import pytest
from operator_oracles import K, lipschitz_probe

import gravelast.fixed_point as fp
from gravelast import constitutive
from gravelast.constitutive import V, make_builtin_model
from gravelast.errors import (
    DomainExit,
    MaxIterExceeded,
    NotContracting,
    ParameterOutOfRange,
)
from gravelast.fixed_point import apply_F, picard_solve
from gravelast.radial import RadialGrid, apply_L_inverse, reconstruct_geometry, y_at_boundary

# Frozen from a 512-vs-1024 refinement study: common-node difference of the
# fixed point is ~3.3e-8 h^2.
C_GRID = 2e-7


class TestApplyF:
    def test_zero_curvature_is_constant(self, model, box, grid512):
        brho, mu = 1.7, 0.0
        out = apply_F(model, brho, mu, 1.0, grid512, np.zeros(513))
        eps = 4 * np.pi / 3 * brho ** (2 / 3) + mu * brho ** (-1 / 3)
        assert np.max(np.abs(out - eps / model.d2g(1.0))) <= 1e-15

    def test_zero_curvature_at_brho_plus_equals_delta(self, model, box, grid512):
        out = apply_F(model, box.brho_plus, 0.0, 1.0, grid512, np.zeros(513))
        assert np.max(np.abs(out - model.delta)) <= 1e-17

    def test_first_term_vanishes_for_zero_curvature(self, model, box, grid512):
        # with zeta = 0 the output must be exactly the V/g'' constant,
        # i.e. node-independent
        out = apply_F(model, 2.0, box.mu0 / 2, 1.0, grid512, np.zeros(513))
        assert np.max(out) - np.min(out) == 0.0

    def test_domain_exit_for_large_zeta(self, model, box, grid512):
        with pytest.raises(DomainExit):
            apply_F(model, 1.0, 0.0, 1.0, grid512, np.full(513, 4 * model.delta))

    def test_one_strain_evaluation_per_call(self, model, grid512):
        counts = Counter()

        def counted(name):
            fn = getattr(model, name)
            return lambda y: counts.update([name]) or fn(y)

        names = ("g", "dg", "d2g", "E")
        spied = dataclasses.replace(model, **{n: counted(n) for n in names})
        zeta, _ = picard_solve(model, 1.8, 0.0, 1.0, grid512)
        apply_F(spied, 1.8, 0.0, 1.0, grid512, zeta)
        assert counts == {"d2g": 2, "E": 1}  # one more d2g caches delta = 10/g''(1)
        counts.clear()
        apply_F(spied, 1.8, 0.0, 1.0, grid512, zeta)
        assert counts == {"d2g": 1, "E": 1}

    @pytest.mark.parametrize("mu_frac", [-0.5, 0.0, 0.5])
    def test_equals_assembly_from_public_pieces(self, model, box, grid512, mu_frac):
        brho, mu = 1.8, mu_frac * box.mu0
        zeta, _ = picard_solve(model, brho, mu, 1.0, grid512)
        geo = reconstruct_geometry(grid512, zeta)
        r = grid512.nodes
        expected = V(brho, mu, 1.0, geo.lam) / model.d2g(geo.y)
        expected[1:] -= geo.moment2[1:] / r[1:] ** 3 * model.U(geo.y[1:])
        out = apply_F(model, brho, mu, 1.0, grid512, zeta)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)


class TestPicard:
    def test_converges_with_small_ratios(self, model, box, grid512, monkeypatch):
        monkeypatch.setattr(fp, "TOL", 1e-14)
        brho = 0.5 * (box.brho_lower(0.0) + box.brho_plus)
        zeta, diag = picard_solve(model, brho, 0.0, 1.0, grid512)
        assert diag.updates[-1] <= 1e-14
        assert diag.ratios and max(diag.ratios) <= 0.13

    def test_ball_and_norm_bound(self, model, box, grid512):
        delta = model.delta
        for brho in np.linspace(box.brho_lower(0.0), box.brho_plus, 4):
            zeta, diag = picard_solve(model, brho, 0.0, 1.0, grid512)
            norm = np.max(np.abs(zeta))
            assert norm <= delta
            assert norm <= (3 / 40 * K(brho, 0.0, 1.0) + 7 / 80) * delta

    def test_positive_floor_at_brho_plus(self, model, box, grid512):
        zeta, _ = picard_solve(model, box.brho_plus, 0.0, 1.0, grid512)
        assert np.min(zeta) > model.delta / 9

    def test_pointwise_y_bound(self, model, box, grid512):
        delta = model.delta
        r = grid512.nodes
        for mu in (-box.mu0 / 2, box.mu0 / 2):
            zeta, _ = picard_solve(model, 1.0, mu, 1.0, grid512)
            from gravelast.radial import reconstruct_geometry

            geo = reconstruct_geometry(grid512, zeta)
            assert np.all(np.abs(geo.y - 1.0) <= r**2 * delta + 1e-15)

    def test_fixed_point_residual(self, model, grid512):
        zeta, _ = picard_solve(model, 2.0, 0.0, 1.0, grid512)
        image = apply_L_inverse(
            grid512, apply_F(model, 2.0, 0.0, 1.0, grid512, zeta)
        )
        assert np.max(np.abs(zeta - image)) <= 2 * fp.TOL

    def test_deterministic(self, model, grid512):
        z1, d1 = picard_solve(model, 1.3, 0.0, 1.0, grid512)
        z2, d2 = picard_solve(model, 1.3, 0.0, 1.0, grid512)
        assert np.array_equal(z1, z2)
        assert d1.updates == d2.updates

    def test_warm_start_same_fixed_point(self, model, grid512):
        cold, cold_diag = picard_solve(model, 1.3, 0.0, 1.0, grid512)
        near, _ = picard_solve(model, 1.3 * (1.0 + 1e-7), 0.0, 1.0, grid512)
        warm, warm_diag = picard_solve(model, 1.3, 0.0, 1.0, grid512, zeta0=near)
        assert warm_diag.iterations < cold_diag.iterations
        assert np.max(np.abs(warm - cold)) <= 1e-13

    def test_warm_start_keeps_checks(self, model, grid512):
        with pytest.raises(ValueError):
            picard_solve(model, 1.3, 0.0, 1.0, grid512, zeta0=np.zeros(5))
        # 1.5 delta is inside the strain window, so only the start check rejects it
        for scale in (4.0, 1.5):
            with pytest.raises(DomainExit, match="start outside the ball"):
                picard_solve(
                    model, 1.3, 0.0, 1.0, grid512, zeta0=np.full(513, scale * model.delta)
                )

    def test_validates_each_model_once(self, grid512, monkeypatch):
        # The session model is validated already; a fresh one shows the call.
        calls = []
        original = constitutive.validate_model
        monkeypatch.setattr(
            constitutive, "validate_model", lambda m: calls.append(m) or original(m)
        )
        fresh = make_builtin_model(3100.0)
        picard_solve(fresh, 1.3, 0.0, 1.0, grid512)
        picard_solve(fresh, 1.3, 0.0, 1.0, grid512)
        assert len(calls) == 1 and calls[0] is fresh

    def test_grid_convergence(self, model):
        z512, _ = picard_solve(model, 1.8443, 0.0, 1.0, RadialGrid(512))
        z1024, _ = picard_solve(model, 1.8443, 0.0, 1.0, RadialGrid(1024))
        err = np.max(np.abs(z1024[::2] - z512))
        assert err <= C_GRID * (1.0 / 512) ** 2

    def test_rejects_mu_out_of_range(self, model, box, grid512):
        with pytest.raises(ParameterOutOfRange, match="mu outside proven range"):
            picard_solve(model, 1.0, 2 * box.mu0, 1.0, grid512)

    def test_rejects_brho_out_of_bracket(self, model, box, grid512):
        with pytest.raises(ParameterOutOfRange):
            picard_solve(model, 2 * box.brho_plus, 0.0, 1.0, grid512)

    def test_max_iter_exceeded(self, model, grid512, monkeypatch):
        monkeypatch.setattr(fp, "MAX_ITER", 3)
        monkeypatch.setattr(fp, "TOL", 0.0)
        with pytest.raises(MaxIterExceeded, match="no convergence to 0 in 3 iterations"):
            picard_solve(model, 1.0, 0.0, 1.0, grid512)

    def test_not_contracting_detected(self, model, grid512, monkeypatch):
        # synthetic diverging map: iterates with geometrically growing gaps
        state = {"k": 0}

        def fake_F(model_, brho, mu, G, grid, zeta):
            state["k"] += 1
            return np.full(np.shape(zeta), 1e-7 * 3.0 ** state["k"])

        monkeypatch.setattr(fp, "apply_F", fake_F)
        monkeypatch.setattr(fp, "apply_L_inverse", lambda grid, eta: eta)
        with pytest.raises(NotContracting):
            picard_solve(model, 1.0, 0.0, 1.0, grid512)

    @staticmethod
    def _scripted_map(monkeypatch, outputs):
        """Make Linv F return outputs[k] (a constant profile) on call k, then the last."""
        calls = []

        def fake_F(model_, brho, mu, G, grid, zeta):
            calls.append(1)
            return np.full(np.shape(zeta), outputs[min(len(calls), len(outputs)) - 1])

        monkeypatch.setattr(fp, "apply_F", fake_F)
        monkeypatch.setattr(fp, "apply_L_inverse", lambda grid, eta: eta)
        return calls

    def test_two_growing_updates_stop_the_run(self, model, grid512, monkeypatch):
        # updates 1, 2, 4 (x 1e-7): the third call makes the second growth
        calls = self._scripted_map(monkeypatch, [1e-7, 3e-7, 7e-7])
        with pytest.raises(NotContracting, match="grew twice in a row"):
            picard_solve(model, 1.0, 0.0, 1.0, grid512)
        assert len(calls) == 3

    def test_equal_updates_count_as_growth(self, model, grid512, monkeypatch):
        # updates a, 2a, 2a (a = 2**-24, exact): ratios 2 and 1, both >= 1
        a = 2.0**-24
        calls = self._scripted_map(monkeypatch, [a, 3 * a, 5 * a])
        with pytest.raises(NotContracting, match=r"last ratio 1\)"):
            picard_solve(model, 1.0, 0.0, 1.0, grid512)
        assert len(calls) == 3

    def test_growth_broken_by_a_shrink_runs_on(self, model, grid512, monkeypatch):
        # updates 1, 2, 1, 2, 0 (x 1e-7): no two growths in a row
        calls = self._scripted_map(monkeypatch, [1e-7, 3e-7, 4e-7, 6e-7])
        _, diag = picard_solve(model, 1.0, 0.0, 1.0, grid512)
        assert diag.iterations == len(calls) == 5 and diag.updates[-1] == 0.0

    def test_zero_update_neither_grows_nor_resets_the_streak(self, model, grid512,
                                                              monkeypatch):
        # updates 1, 2, 0, 3, 4 (x 1e-7): ratios 2 and 4/3 are the two growths
        calls = self._scripted_map(monkeypatch, [1e-7, 3e-7, 3e-7, 6e-7, 10e-7])
        monkeypatch.setattr(fp, "TOL", 0.0)
        with pytest.raises(NotContracting, match=r"last ratio 1\.33\)"):
            picard_solve(model, 1.0, 0.0, 1.0, grid512)
        assert len(calls) == 5

    def test_diagnostics_derive_from_the_updates(self):
        diag = fp.PicardDiagnostics(updates=[1e-7, 2e-7, 0.0, 1e-7])
        assert diag.iterations == 4 and diag.ratios == [2.0]

    def test_slow_contraction_converges_within_max_iter(self, model, grid512, monkeypatch):
        # z <- z* + (z - z*)/2 from z = 0, inside the ball: the updates halve
        target = 0.5 * model.delta
        monkeypatch.setattr(fp, "apply_F", lambda model_, brho, mu, G, grid, zeta:
                            target + 0.5 * (zeta - target))
        monkeypatch.setattr(fp, "apply_L_inverse", lambda grid, eta: eta)
        _, diag = picard_solve(model, 1.0, 0.0, 1.0, grid512)
        assert 9 <= diag.iterations < fp.MAX_ITER
        assert diag.updates[-1] < fp.TOL and np.allclose(diag.ratios, 0.5, rtol=1e-4)


class TestLipschitzProbe:
    def test_estimate_below_contraction_bound(self, model):
        grid = RadialGrid(128)
        est = lipschitz_probe(model, 1.8, 0.0, 1.0, grid, trials=100, seed=0)
        assert 0.0 < est <= 0.13


def test_boundary_value_reaches_lower_and_upper_windows(model, box, grid512):
    delta = model.delta
    z_hi, _ = picard_solve(model, box.brho_plus, 0.0, 1.0, grid512)
    assert y_at_boundary(grid512, z_hi) - 1.0 > delta / 27
    z_lo, _ = picard_solve(model, box.brho_lower(0.0), 0.0, 1.0, grid512)
    assert y_at_boundary(grid512, z_lo) - 1.0 < delta / 33
