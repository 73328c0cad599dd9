import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravelast.constitutive import (
    EPS_E,
    ConstitutiveModel,
    V,
    ensure_validated,
    make_builtin_model,
    validate_model,
)
from gravelast.errors import DomainExit, HypothesisFailed, NormalizationViolated
from operator_oracles import K, strain_terms_both_branches

FOUR_PI_3 = 4 * math.pi / 3
EIGHT_PI_3 = 8 * math.pi / 3


def central_diff(fn, y, step=1e-5):
    y = np.asarray(y, dtype=np.longdouble)
    s = np.longdouble(step)
    return (fn(y + s) - fn(y - s)) / (2 * s)


class TestBuiltinFamily:
    def test_normalization_exact(self):
        m = make_builtin_model(3100.0)
        assert m.g(1.0) == 1.0
        assert m.dg(1.0) == -1.0 / 3.0

    def test_g2_at_1(self):
        m = make_builtin_model(3100.0)
        assert m.d2g(1.0) == pytest.approx(3100.0 + 4.0 / 9.0, abs=1e-12)

    def test_gas_case_power_law(self):
        m = make_builtin_model(0.0)
        assert m.g(2.0) == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-15)

    def test_derivatives_match_central_differences(self):
        # analytic derivatives vs extended-precision differences on [1/2, 3/2]
        m = make_builtin_model(3100.0)
        ys = np.linspace(0.5, 1.5, 101)
        for analytic, lower in ((m.dg, m.g), (m.d2g, m.dg), (m.d3g, m.d2g)):
            fd = central_diff(lower, ys)
            exact = analytic(np.asarray(ys, dtype=np.longdouble))
            scale = np.maximum(np.abs(exact), 1.0)
            assert np.max(np.abs(exact - fd) / scale) < 1e-6

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            make_builtin_model(-1.0)

    @pytest.mark.parametrize("kappa", [math.inf, -math.inf, math.nan])
    def test_non_finite_kappa_rejected(self, kappa):
        with pytest.raises(ValueError, match="kappa must be finite and nonnegative"):
            make_builtin_model(kappa)


class TestValidation:
    def test_kappa_3100_passes(self):
        rep = validate_model(make_builtin_model(3100.0))
        assert rep.passes
        # sup|g'''| on [1/2, 3/2] is attained at y = 1/2 for the power-law tail
        sup_exact = (28.0 / 27.0) * 2.0 ** (10.0 / 3.0)
        assert rep.sup_d3g == pytest.approx(sup_exact, rel=1e-9)
        assert rep.threshold == pytest.approx(50 * (50 + sup_exact), rel=1e-9)
        assert rep.g2_at_1 >= rep.threshold

    def test_pass_implies_modified_condition(self):
        rep = validate_model(make_builtin_model(3100.0))
        assert rep.g2_at_1 >= 2400.0 * (1.0 + (rep.sup_d3g / rep.g2_at_1) ** 2)

    def test_kappa_0_fails_flagged(self):
        rep = validate_model(make_builtin_model(0.0))
        assert not rep.largeness_ok
        assert not rep.passes
        assert rep.g2_at_1 == pytest.approx(4.0 / 9.0, abs=1e-12)
        with pytest.raises(HypothesisFailed, match="^largeness: g''\\(1\\)"):
            ensure_validated(make_builtin_model(0.0))

    def test_flagged_normalization_named(self):
        # g(1) - 1 = 1e-10 is flagged (> 1e-12) but not raised (<= 1e-9), while
        # g''(1) clears the largeness margin: the failure is the normalization.
        base = make_builtin_model(3100.0)
        shifted = ConstitutiveModel(
            g=lambda y: base.g(y) + 1e-10, dg=base.dg, d2g=base.d2g, d3g=base.d3g,
            family="shifted",
        )
        rep = validate_model(shifted)
        assert not rep.normalization_ok and rep.margin_ok
        with pytest.raises(HypothesisFailed, match="^normalization") as info:
            ensure_validated(shifted)
        assert "g''(1)" not in str(info.value)

    def test_report_cached_per_model(self):
        m = make_builtin_model(3100.0)
        assert ensure_validated(m) is m.validation is ensure_validated(m)
        assert validate_model(m) is not m.validation
        assert validate_model(m) == m.validation

    def test_broken_normalization_raises(self):
        base = make_builtin_model(3100.0)
        bad = ConstitutiveModel(
            g=lambda y: 2.0 * base.g(y), dg=base.dg, d2g=base.d2g, d3g=base.d3g,
            family="broken",
        )
        with pytest.raises(NormalizationViolated):
            validate_model(bad)


class TestScalarFunctions:
    def test_h_vanishes_at_1(self):
        m = make_builtin_model(3100.0)
        assert m.h(1.0) == 0.0

    def test_h_gas_case_identically_zero(self):
        m = make_builtin_model(0.0)
        for y in (0.5, 1.5, 2.0):
            assert abs(m.h(y)) <= 1e-15

    def test_h_builtin_closed_form(self):
        # h(y) = kappa (y-1)(3y + (y-1)/2) for the built-in family
        m = make_builtin_model(3100.0)
        assert m.h(2.0) == pytest.approx(20150.0, rel=1e-12)

    def test_E_at_1(self):
        m = make_builtin_model(3100.0)
        assert m.strain_terms(1.0)[1] == 0.0

    def test_E_gas_case_zero(self):
        m = make_builtin_model(0.0)
        assert abs(m.strain_terms(1.3)[1]) <= 1e-12

    def test_E_matches_extended_precision_quotient(self):
        m = make_builtin_model(3100.0)
        y = np.longdouble(1.001)
        h1 = 3 * y * m.dg(y) + m.g(y)
        raw = (h1 - 0) / (y - 1) - (4 * m.dg(y) + 3 * y * m.d2g(y))
        assert m.strain_terms(1.001)[1] == pytest.approx(float(raw), rel=1e-8)

    def test_E_continuous_across_switch(self):
        m = make_builtin_model(3100.0)
        tol = 1e-8 * (1.0 + abs(m.d2h(1.0)))
        for y in (1.0 + EPS_E * (1 - 1e-3), 1.0 - EPS_E * (1 + 1e-3)):
            t = y - 1.0
            series = -0.5 * m.d2h(1.0) * t - m.d3h(1.0) * t**2 / 3.0
            assert abs(m.strain_terms(y)[1] - series) <= tol

    def test_E_builtin_closed_form(self):
        # E(y) = -(7 kappa / 2)(y - 1) exactly for the built-in family
        m = make_builtin_model(3100.0)
        for y in (0.9, 1.0005, 1.2):
            assert m.strain_terms(y)[1] == pytest.approx(-3.5 * 3100.0 * (y - 1.0), rel=1e-9)

    @pytest.mark.parametrize("kappa", [3100.0, 20000.0])
    def test_strain_terms_equal_both_branch_reference(self, kappa):
        m = make_builtin_model(kappa)
        # No float y has |y - 1| == EPS_E; take y = 1 +- EPS_E and the floats
        # beside them, which put the switch between two neighbours on each side.
        edge = [np.nextafter(y, [0.0, 2.0]) for y in (1.0 - EPS_E, 1.0 + EPS_E)]
        edge = np.concatenate([[y[0], 1.0 + s * EPS_E, y[1]] for y, s in zip(edge, (-1, 1))])
        assert list(np.abs(edge - 1.0) < EPS_E) == [False, True, True, True, True, False]
        y = np.concatenate([np.linspace(1.0 - 2 * EPS_E, 1.0 + 2 * EPS_E, 47), [1.0], edge])
        stack = y.reshape(2, -1)
        for y in (stack, 1.0 + 0.5 * EPS_E, 1.0 + 3 * EPS_E):
            d2g, big_e = m.strain_terms(y)
            ref_d2g, ref_e = strain_terms_both_branches(m, y)
            assert np.array_equal(d2g, ref_d2g) and np.array_equal(big_e, ref_e)
            assert np.shape(big_e) == np.shape(y)

    def test_g_and_dg_only_off_the_series(self):
        base = make_builtin_model(3100.0)
        sizes = {"g": [], "dg": []}

        def recording(name):
            def fn(y):
                sizes[name].append(np.size(y))
                return getattr(base, name)(y)
            return fn

        m = ConstitutiveModel(g=recording("g"), dg=recording("dg"), d2g=base.d2g,
                              d3g=base.d3g, family="recording")
        m.strain_terms(1.0)  # caches h and its derivatives at y = 1
        for calls in sizes.values():
            calls.clear()
        near = 1.0 + np.linspace(-0.9, 0.9, 12).reshape(3, 4) * EPS_E
        m.strain_terms(near)
        assert sizes == {"g": [], "dg": []}
        mixed = near.copy()
        mixed[0, 0], mixed[2, 1], mixed[1, 3] = 1.0 + 2 * EPS_E, 1.1, 1.0 - 2 * EPS_E
        m.strain_terms(mixed)
        assert sizes == {"g": [3], "dg": [3]}

    def test_U_at_1(self):
        m = make_builtin_model(3100.0)
        assert m.U(1.0) == 0.0

    def test_U_gas_case_linear(self):
        # E == 0 for kappa = 0 and delta = 22.5 covers y = 1.2
        m = make_builtin_model(0.0)
        assert m.U(1.2) == pytest.approx(0.4, rel=1e-12)

    def test_U_derivative_bound(self):
        m = make_builtin_model(3100.0)
        rep = validate_model(m)
        d = m.delta
        ys = np.linspace(1 - 0.99 * d, 1 + 0.99 * d, 2001)
        s = 1e-8
        du = (m.U(ys + s) - m.U(ys - s)) / (2 * s)
        assert np.max(np.abs(du)) <= 22.0 * (1.0 + (rep.sup_d3g / rep.g2_at_1) ** 2)

    def test_U_domain_exit(self):
        m = make_builtin_model(3100.0)
        with pytest.raises(DomainExit):
            m.U(1.0 + 2 * m.delta)


class TestVAndK:
    def test_V_at_lambda_1_is_epsilon(self):
        brho, mu, G = 2.5, 1e-3, 1.0
        eps = FOUR_PI_3 * G * brho ** (2 / 3) + mu * brho ** (-1 / 3)
        assert V(brho, mu, G, 1.0) == pytest.approx(eps, rel=1e-14)

    def test_V_vanishes_at_lambda_0(self):
        assert V(1.0, 0.5, 1.0, 0.0) == 0.0

    def test_V_simple_value(self):
        assert V(1.0, 0.0, 1.0, 1.0) == pytest.approx(FOUR_PI_3, rel=1e-15)

    def test_V_array_brho_equals_scalar_calls(self):
        # 2000 seeded densities: numpy's vectorised cube root differs from
        # the scalar one on a few percent of them, so a stacked V must not use it.
        brho = np.random.default_rng(3).uniform(1e-3, 5.0, (2000, 1))
        lam = np.linspace(0.99, 1.01, 7)
        out = V(brho, -2e-3, 1.0, lam)
        assert out.shape == (2000, 7)
        for i, b in enumerate(brho[:, 0].tolist()):
            assert np.array_equal(out[i], V(b, -2e-3, 1.0, lam))

    def test_V_rejects_any_nonpositive_brho(self):
        with pytest.raises(ValueError, match="brho must be positive"):
            V(np.array([[1.0], [-1.0], [2.0]]), 0.0, 1.0, np.ones((3, 5)))
        with pytest.raises(ValueError, match="brho must be positive"):
            V(np.array([0.5, 0.0]), 0.0, 1.0, 1.0)

    def test_K_mu0_increasing(self):
        rs = np.linspace(0.1, 5.0, 50)
        ks = [K(r, 0.0, 1.0) for r in rs]
        assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_K_minimizer_golden_section(self):
        # golden-section oracle over (0, 1] against the closed forms
        mu, G = -1e-3, 1.0
        fn = lambda r: K(r, mu, G)
        a, b = 1e-8, 1.0
        invphi = (math.sqrt(5) - 1) / 2
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        for _ in range(200):
            if fn(c) < fn(d):
                b, d = d, c
                c = b - invphi * (b - a)
            else:
                a, c = c, d
                d = a + invphi * (b - a)
        r_star = 0.5 * (a + b)
        assert r_star == pytest.approx(abs(mu) / (EIGHT_PI_3 * G), rel=1e-6)
        k_min = 1.5 * abs(mu) ** (2 / 3) * (EIGHT_PI_3 * G) ** (1 / 3)
        assert fn(r_star) == pytest.approx(k_min, rel=1e-9)

    def test_K_at_brho_plus_below_21_halves(self, box):
        for mu in (-box.mu0, 0.0, box.mu0):
            assert K(box.brho_plus, mu, 1.0) < 21.0 / 2.0

    def test_K_nondecreasing_on_bracket(self, box):
        for mu in (-box.mu0, -box.mu0 / 3, box.mu0 / 2):
            lo = box.brho_minus(mu)
            if lo >= box.brho_plus:
                continue
            rs = np.linspace(max(lo, 1e-9), box.brho_plus, 200)
            ks = [K(r, mu, 1.0) for r in rs]
            assert all(b >= a - 1e-12 for a, b in zip(ks, ks[1:]))


class TestDelta:
    def test_value(self):
        m = make_builtin_model(3100.0)
        assert m.delta == pytest.approx(10.0 / (3100.0 + 4.0 / 9.0), rel=1e-14)

    def test_sandwich_on_window(self):
        m = make_builtin_model(3100.0)
        ys = np.linspace(1 - m.delta, 1 + m.delta, 4001)
        g2 = m.d2g(ys)
        g2_1 = m.d2g(1.0)
        assert np.min(g2) >= 0.9 * g2_1
        assert np.max(g2) <= 1.1 * g2_1

    def test_synthetic_scale(self):
        base = make_builtin_model(3100.0)
        synthetic = ConstitutiveModel(
            g=base.g, dg=base.dg, d2g=lambda y: 100.0 + 0.0 * y, d3g=base.d3g,
            family="synthetic",
        )
        assert synthetic.delta == pytest.approx(0.1, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(kappa=st.floats(0.0, 5000.0), y=st.floats(0.5, 1.5))
def test_normalization_holds_for_every_kappa(kappa, y):
    m = make_builtin_model(kappa)
    assert m.g(1.0) == 1.0
    assert m.dg(1.0) == -1.0 / 3.0
    assert m.h(1.0) == 0.0
    assert np.isfinite(m.g(y)) and np.isfinite(m.d3g(y))
