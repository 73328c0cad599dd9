import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravelast.constitutive import (
    ConstitutiveModel,
    V,
    make_builtin_model,
    validate_model,
)
from gravelast.errors import DomainExit, HypothesisFailed, NormalizationViolated
from gravelast.parameters import build_parameter_box
from operator_oracles import (
    E_definition_mpmath,
    E_mpmath,
    E_series_mpmath,
    K,
    check_derivatives,
    cubic_model,
)

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
        # sup|g'''| on [1/2, 3/2] is attained at y = 1/2 for the power-law tail
        sup_exact = (28.0 / 27.0) * 2.0 ** (10.0 / 3.0)
        assert rep.sup_d3g == pytest.approx(sup_exact, rel=1e-9)
        assert rep.threshold == pytest.approx(50 * (50 + sup_exact), rel=1e-9)
        assert rep.g2_at_1 >= rep.threshold

    def test_pass_implies_modified_condition(self):
        rep = validate_model(make_builtin_model(3100.0))
        assert rep.g2_at_1 >= 2400.0 * (1.0 + (rep.sup_d3g / rep.g2_at_1) ** 2)

    def test_kappa_0_refused(self):
        message = "^largeness: g''\\(1\\) = 0.444444 is below the margin"
        with pytest.raises(HypothesisFailed, match=message):
            validate_model(make_builtin_model(0.0))

    def test_normalization_band_refused(self):
        # g(1) - 1 = 1e-10 was once only flagged, between two tolerances; one
        # tolerance, 1e-12, now refuses it while g''(1) clears the largeness
        # margin, so the failure named is the normalization.
        base = make_builtin_model(3100.0)
        shifted = dataclasses.replace(base, g=lambda y: base.g(y) + 1e-10)
        with pytest.raises(NormalizationViolated, match="^normalization: g\\(1\\) = ") as info:
            validate_model(shifted)
        assert "g''(1)" not in str(info.value)
        # just inside the tolerance passes
        validate_model(dataclasses.replace(base, g=lambda y: base.g(y) + 5e-13))

    def test_report_cached_per_model(self):
        m = make_builtin_model(3100.0)
        assert m.validation is m.validation
        assert validate_model(m) is not m.validation
        assert validate_model(m) == m.validation

    def test_broken_normalization_raises(self):
        base = make_builtin_model(3100.0)
        bad = ConstitutiveModel(
            g=lambda y: 2.0 * base.g(y), dg=base.dg, d2g=base.d2g, d3g=base.d3g,
            E=base.E, family="broken",
        )
        with pytest.raises(NormalizationViolated):
            validate_model(bad)


def _E_error(model, kappa, ys):
    """Largest relative error of model.E against the 50-digit definition."""
    return max(float(abs(model.E(y) / E_mpmath(kappa, y) - 1)) for y in ys)


def _h(model, y):
    """h(y) = 3 y g'(y) + g(y), the function E is the divided difference of."""
    return 3.0 * y * model.dg(y) + model.g(y)


def _E_points(model):
    """1 +- delta, 1 +- 1e-12, 1 - 1e-9 and the window between."""
    d = model.delta
    window = np.linspace(1.0 - d, 1.0 + d, 41)
    return [1.0 - d, 1.0 + d, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-9] + [
        float(y) for y in window if y != 1.0
    ]


class TestScalarFunctions:
    def test_h_vanishes_at_1(self):
        m = make_builtin_model(3100.0)
        assert _h(m, 1.0) == 0.0

    def test_h_gas_case_identically_zero(self):
        m = make_builtin_model(0.0)
        for y in (0.5, 1.5, 2.0):
            assert abs(_h(m, y)) <= 1e-15

    def test_h_builtin_closed_form(self):
        # h(y) = kappa (y-1)(3y + (y-1)/2) for the built-in family
        m = make_builtin_model(3100.0)
        assert _h(m, 2.0) == pytest.approx(20150.0, rel=1e-12)

    def test_E_at_1(self):
        for kappa in (0.0, 3100.0, 20000.0):
            assert make_builtin_model(kappa).E(1.0) == 0.0

    def test_E_gas_case_zero(self):
        # h vanishes identically for kappa = 0, so E does too: an absolute
        # bound, since the relative error of a zero means nothing
        m = make_builtin_model(0.0)
        for y in (0.5, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 + 1e-12, 1.3, 2.0):
            assert m.E(y) == 0.0
            assert abs(E_mpmath(0.0, y)) <= 1e-30

    @pytest.mark.parametrize("kappa", [3100.0, 20000.0])
    def test_E_matches_mpmath(self, kappa):
        m = make_builtin_model(kappa)
        assert _E_error(m, kappa, _E_points(m)) <= 1e-15
        stack = np.array(_E_points(m)[:4]).reshape(2, 2)
        assert np.array_equal(m.E(stack), [[m.E(y) for y in row] for row in stack])

    @pytest.mark.parametrize(
        "wrong", [lambda k, y: 3.5 * k * (y - 1.0), lambda k, y: -3.0 * k * (y - 1.0)],
        ids=["sign", "3kappa"],
    )
    def test_E_check_rejects_wrong_closed_forms(self, wrong):
        base = make_builtin_model(3100.0)
        bad = dataclasses.replace(base, E=lambda y: wrong(3100.0, y))
        assert _E_error(bad, 3100.0, _E_points(bad)) > 1e-15
        # and validation keeps an E that disagrees with its g from the solver
        with pytest.raises(HypothesisFailed, match="^E: the model's E"):
            build_parameter_box(bad, 1.0)

    def test_E_check_rejects_a_millionth_off(self):
        # far below any wrong closed form, far above the check's own roundoff
        base = make_builtin_model(3100.0)
        bad = dataclasses.replace(base, E=lambda y: (1.0 + 1e-6) * base.E(y))
        with pytest.raises(HypothesisFailed, match="^E: the model's E"):
            validate_model(bad)

    def test_E_check_holds_at_every_stiffness(self):
        # A reference formed as the difference quotient cancels two terms of
        # about 3 kappa down to |E| = 35: it rejected the exact closed form
        # from kappa ~ 2.8e7 and, once allowed its own rounding, accepted
        # E (1 + 1e-6) from kappa ~ 1.4e10.
        for kappa in np.geomspace(3100.0, 1e12, 61):
            base = make_builtin_model(kappa)
            validate_model(base)
            bad = dataclasses.replace(base, E=lambda y, b=base: (1.0 + 1e-6) * b.E(y))
            with pytest.raises(HypothesisFailed, match="^E: the model's E"):
                validate_model(bad)

    def test_E_matches_extended_precision_quotient(self):
        m = make_builtin_model(3100.0)
        y = np.longdouble(1.001)
        h1 = 3 * y * m.dg(y) + m.g(y)
        raw = (h1 - 0) / (y - 1) - (4 * m.dg(y) + 3 * y * m.d2g(y))
        assert m.E(1.001) == pytest.approx(float(raw), rel=1e-8)

    def test_E_builtin_closed_form(self):
        # E(y) = -(7 kappa / 2)(y - 1) exactly for the built-in family
        m = make_builtin_model(3100.0)
        for y in (0.9, 1.0005, 1.2):
            assert m.E(y) == pytest.approx(-3.5 * 3100.0 * (y - 1.0), rel=1e-9)

    @pytest.mark.parametrize("kappa", [3100.0, 20000.0])
    def test_strain_terms_equal_both_branch_reference(self, kappa):
        # E on a stacked array against both branches of its definition at
        # 50 digits, the divided-difference quotient and the series about
        # y = 1, on a grid that straddles 1 and reaches 1 +- delta
        m = make_builtin_model(kappa)
        y = np.linspace(1.0 - 2e-4, 1.0 + 2e-4, 47)
        stack = np.concatenate([y, [1.0 - m.delta, 1.0 + m.delta, 1.0]]).reshape(2, -1)
        big_e = m.E(stack)
        assert np.shape(big_e) == np.shape(stack)
        for yi, ei in zip(stack.ravel(), big_e.ravel()):
            series = E_series_mpmath(kappa, yi)
            if yi == 1.0:
                assert ei == 0.0 and series == 0
                continue
            for ref in (E_mpmath(kappa, yi), series):
                assert abs(float(ei / ref - 1)) <= 1e-15

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


class TestCubicModel:
    """The hand-built cubic g of operator_oracles, whose E is nonlinear in y - 1."""

    def test_validates(self):
        m = cubic_model()
        rep = validate_model(m)
        assert rep.g2_at_1 == pytest.approx(2e4 + 4.0 / 9.0, rel=1e-12)
        # |g'''| peaks at y = 3/2: 6b less the power's 28/27 * 1.5**(-10/3)
        sup_exact = 300.0 - (28.0 / 27.0) * 1.5 ** (-10.0 / 3.0)
        assert rep.sup_d3g == pytest.approx(sup_exact, rel=1e-9)
        assert rep.threshold == pytest.approx(17486.58, rel=1e-6)
        assert rep.g2_at_1 >= 1.01 * rep.threshold
        assert all(v <= 1e-6 for v in check_derivatives(m).values())

    def test_E_matches_its_definition(self):
        m = cubic_model()
        for y in _E_points(m)[::4] + [0.7, 1.2]:
            assert m.E(y) == pytest.approx(float(E_definition_mpmath(m, y)), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("wrong", [
        lambda m, y: (1.0 + 1e-6) * m.E(y),
        lambda m, y: -(7.0 * 1e4 + 9.0 * 50.0) * (y - 1.0),
    ], ids=["millionth", "linear-part"])
    def test_E_check_rejects(self, wrong):
        base = cubic_model()
        bad = dataclasses.replace(base, E=lambda y: wrong(base, y))
        with pytest.raises(HypothesisFailed, match="^E: the model's E"):
            validate_model(bad)


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
        # V takes np.cbrt of a scalar and of a stack alike, so each stacked
        # row must equal its scalar call, bit for bit, over 2000 seeded densities.
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
            E=base.E, family="synthetic",
        )
        assert synthetic.delta == pytest.approx(0.1, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(kappa=st.floats(0.0, 5000.0), y=st.floats(0.5, 1.5))
def test_normalization_holds_for_every_kappa(kappa, y):
    m = make_builtin_model(kappa)
    assert m.g(1.0) == 1.0
    assert m.dg(1.0) == -1.0 / 3.0
    assert m.E(1.0) == 0.0
    assert np.isfinite(m.g(y)) and np.isfinite(m.d3g(y))
