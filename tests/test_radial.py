import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravelast.errors import DegenerateGeometry
from gravelast.radial import (
    RadialGrid,
    apply_L,
    apply_L_inverse,
    moment_integral,
    reconstruct_geometry,
    y_at_boundary,
)

# Empirical constants, frozen from refinement studies over N in {64..2048}:
# monomial eigen-action error <= 0.3 h^2 (measured ~0.25 h^2 for n = 3),
# composition error <= 5 h^2 (measured ~0.03 h^2).
C_MONOMIAL = 1.0
C_COMPOSE = 5.0


class TestGrid:
    def test_nodes(self):
        g = RadialGrid(16)
        assert g.h == 1.0 / 16
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert np.allclose(np.diff(g.nodes), g.h)

    @pytest.mark.parametrize("n", [15, 17, 14, 0, -2])
    def test_invalid_sizes(self, n):
        with pytest.raises(ValueError):
            RadialGrid(n)


class TestMomentIntegral:
    def test_constant_p2(self):
        g = RadialGrid(64)
        m = moment_integral(g, np.ones(65), 2)
        assert m[-1] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert np.max(np.abs(m - g.nodes**3 / 3.0)) <= 1e-15

    def test_linear_p2(self):
        g = RadialGrid(64)
        m = moment_integral(g, g.nodes, 2)
        assert m[-1] == pytest.approx(0.25, abs=1e-15)

    def test_constant_p4_midpoint(self):
        g = RadialGrid(64)
        m = moment_integral(g, np.ones(65), 4)
        i_half = 32
        assert m[i_half] == pytest.approx(0.5**5 / 5.0, abs=1e-16)

    def test_quadratic_antiderivative_oracle(self):
        # closed-form oracle int_0^R t^p t^2 dt = R^(p+3)/(p+3)
        for p in (1, 2, 4):
            errs = []
            for n in (64, 128):
                g = RadialGrid(n)
                m = moment_integral(g, g.nodes**2, p)
                errs.append(np.max(np.abs(m - g.nodes ** (p + 3) / (p + 3))))
            assert errs[0] <= 1.0 * (1 / 64) ** 2
            assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("n", [16, 512, 8192])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_cached_weights_bit_identical(self, n, p):
        # the weights rebuilt on every call, as before they were cached
        g = RadialGrid(n)
        v = np.random.default_rng(n + p).uniform(-1.0, 1.0, n + 1)
        a, b = g.nodes[:-1], g.nodes[1:]
        i1 = (b ** (p + 1) - a ** (p + 1)) / (p + 1)
        i2 = (b ** (p + 2) - a ** (p + 2)) / (p + 2)
        w_left = (b * i1 - i2) / (b - a)
        w_right = (i2 - a * i1) / (b - a)
        expected = np.concatenate(([0.0], np.cumsum(w_left * v[:-1] + w_right * v[1:])))
        assert np.array_equal(moment_integral(g, v, p), expected)
        assert np.array_equal(moment_integral(g, v, p), expected)

    def test_rejects_bad_power(self):
        g = RadialGrid(16)
        with pytest.raises(ValueError):
            moment_integral(g, np.ones(17), 3)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-5, 5), b=st.floats(-5, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_linearity(self, a, b, seed):
        g = RadialGrid(32)
        rng = np.random.default_rng(seed)
        v1, v2 = rng.normal(size=33), rng.normal(size=33)
        lhs = moment_integral(g, a * v1 + b * v2, 2)
        rhs = a * moment_integral(g, v1, 2) + b * moment_integral(g, v2, 2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + abs(a) + abs(b))


class TestOperators:
    def test_L_of_one(self):
        g = RadialGrid(512)
        out = apply_L(g, np.ones(513))
        assert np.max(np.abs(out - 5.0 / 3.0)) <= 1e-14

    def test_L_of_zero(self):
        g = RadialGrid(64)
        assert np.all(apply_L(g, np.zeros(65)) == 0.0)

    def test_Linv_of_one_exact(self):
        g = RadialGrid(512)
        out = apply_L_inverse(g, np.ones(513))
        assert np.max(np.abs(out - 0.6)) <= 1e-12

    @pytest.mark.parametrize("n_pow", [1, 2, 3])
    def test_monomial_eigen_action(self, n_pow):
        for cells in (128, 512):
            g = RadialGrid(cells)
            exact = g.nodes**n_pow * (n_pow + 5) / (n_pow + 3)
            err = np.max(np.abs(apply_L(g, g.nodes**n_pow) - exact))
            assert err <= C_MONOMIAL * g.h**2

    def test_monomial_eigen_action_inverse(self):
        g = RadialGrid(256)
        exact = g.nodes**2 * 5.0 / 7.0
        err = np.max(np.abs(apply_L_inverse(g, g.nodes**2) - exact))
        assert err <= C_MONOMIAL * g.h**2

    def test_eta_family_limit(self):
        # eta_n = -1 + 2 R^n probes the operator norm 7/5 of the inverse
        g = RadialGrid(512)
        n = 20
        out = apply_L_inverse(g, -1 + 2 * g.nodes**n)
        expected = -0.6 + 2 * (n + 3) / (n + 5)
        assert out[-1] == pytest.approx(expected, abs=1e-4)
        assert out[-1] == pytest.approx(1.24, abs=1e-4)

    def test_operator_norm_family(self):
        g = RadialGrid(512)
        bound = 1.4 + 10 * g.h
        ratios = []
        for n in (1, 2, 5, 20, 200):
            eta = -1 + 2 * g.nodes ** float(n)
            ratio = np.max(np.abs(apply_L_inverse(g, eta))) / np.max(np.abs(eta))
            ratios.append(ratio)
            assert ratio <= bound
        assert max(ratios) >= 1.35

    def test_composition_identity(self):
        for cells in (128, 256, 512):
            g = RadialGrid(cells)
            z = g.nodes**2
            err = np.max(np.abs(apply_L_inverse(g, apply_L(g, z)) - z))
            assert err <= C_COMPOSE * g.h**2

    def test_composition_smooth_family(self):
        g = RadialGrid(256)
        for z in (np.ones(257), g.nodes, g.nodes**3):
            err = np.max(np.abs(apply_L_inverse(g, apply_L(g, z)) - z))
            assert err <= C_COMPOSE * g.h**2


class TestReconstruction:
    def test_zero_curvature(self):
        g = RadialGrid(512)
        geo = reconstruct_geometry(g, np.zeros(513))
        assert np.array_equal(geo.f, g.nodes)
        assert np.all(geo.lam == 1.0)
        assert np.all(geo.y == 1.0)
        assert geo.fprime[0] == 1.0

    def test_constant_curvature(self):
        g = RadialGrid(512)
        c = 0.5
        geo = reconstruct_geometry(g, np.full(513, c))
        assert geo.fprime[0] == pytest.approx(1 - c / 6, abs=1e-15)
        assert geo.y[-1] == pytest.approx(1 + c / 3, abs=1e-14)
        assert abs(geo.f[-1] - 1.0) <= 1e-12

    def test_boundary_normalization_random(self):
        g = RadialGrid(64)
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = rng.uniform(-1.0, 1.0, 65)
            geo = reconstruct_geometry(g, z)
            assert abs(geo.f[-1] - 1.0) <= 1e-12
            assert geo.y[0] == 1.0

    def test_y_consistent_with_quotient(self):
        g = RadialGrid(128)
        rng = np.random.default_rng(3)
        z = rng.uniform(-0.5, 0.5, 129)
        geo = reconstruct_geometry(g, z)
        assert np.max(np.abs(geo.y - geo.fprime / geo.lam)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-2, 2), b=st.floats(-2, 2), seed=st.integers(0, 2**31 - 1))
    def test_affine_in_zeta(self, a, b, seed):
        # f[a z1 + b z2] = a f[z1] + b f[z2] + (1 - a - b) R
        g = RadialGrid(32)
        rng = np.random.default_rng(seed)
        z1, z2 = rng.uniform(-1, 1, 33), rng.uniform(-1, 1, 33)
        try:
            f_mix = reconstruct_geometry(g, a * z1 + b * z2).f
            f1 = reconstruct_geometry(g, z1).f
            f2 = reconstruct_geometry(g, z2).f
        except DegenerateGeometry:
            return
        combo = a * f1 + b * f2 + (1 - a - b) * g.nodes
        assert np.max(np.abs(f_mix - combo)) <= 1e-12 * (1 + abs(a) + abs(b))

    def test_degenerate_profile_rejected(self):
        g = RadialGrid(64)
        with pytest.raises(DegenerateGeometry):
            reconstruct_geometry(g, np.full(65, -20.0))

    def test_rejects_nonfinite(self):
        g = RadialGrid(64)
        z = np.zeros(65)
        z[3] = np.nan
        with pytest.raises(ValueError):
            reconstruct_geometry(g, z)


class TestBoundaryValue:
    def test_zero(self):
        g = RadialGrid(64)
        assert y_at_boundary(g, np.zeros(65)) == 1.0

    def test_constant(self):
        g = RadialGrid(64)
        assert y_at_boundary(g, np.full(65, 0.3)) == pytest.approx(1.1, abs=1e-15)

    def test_linear(self):
        g = RadialGrid(64)
        assert y_at_boundary(g, g.nodes) == pytest.approx(1.25, abs=1e-14)

    def test_matches_geometry(self):
        g = RadialGrid(128)
        rng = np.random.default_rng(11)
        z = rng.uniform(-0.3, 0.3, 129)
        geo = reconstruct_geometry(g, z)
        assert y_at_boundary(g, z) == pytest.approx(float(geo.y[-1]), abs=1e-12)
