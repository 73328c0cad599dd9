import dataclasses
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from kepler_oracles import mp_amplitude, mp_anomaly, rk4_amplitude

from gravelast import temporal as temporal_mod
from gravelast.errors import KeplerNotConverged, NotCollapsing, OutOfRange
from gravelast.temporal import (
    COLLAPSE_THRESHOLDS,
    REGIME_COLLAPSING,
    REGIME_LINEAR,
    REGIME_SELF_SIMILAR,
    REGIME_STATIONARY,
    _amplitude,
    assemble_motion,
    classify,
    collapse_time,
    e_effective,
    evolve_q,
)

EPS = np.finfo(float).eps
# (mu, qdot0) of scripts/bench.py's evolve_q orbits: bound, repulsive, outward
# and inward unbound
BENCH_ORBITS = [(-0.001, 0.01), (0.001, 0.1), (-0.001, 0.3), (-0.001, -0.3)]
# an inward bound orbit drawn by perfbench's regime_portrait: at dt = 1e-3 it
# stops after 22,518 of 30,001 samples
PORTRAIT_BOUND = (-0.001573492102369512, -0.01055587685835712)


def passages(mu, qdot0, thresholds):
    """(T, passage time per eps, local exponent per eps) at any thresholds, by
    collapse_time's closed forms on temporal._orbit; collapse_time itself
    reports COLLAPSE_THRESHOLDS only."""
    orbit = temporal_mod._orbit(mu, qdot0)
    eps = np.array(thresholds)
    big_t, to_go = orbit.to_collapse(eps)
    local = to_go * np.sqrt(2.0 * (orbit.e - mu / eps)) / eps
    return (float(big_t), dict(zip(thresholds, (big_t - to_go).tolist())),
            dict(zip(thresholds, local.tolist())))


class TestClassify:
    @pytest.mark.parametrize(
        "mu,qdot0,expected",
        [
            (0.001, 0.0, REGIME_LINEAR),
            (0.001, 0.5, REGIME_LINEAR),
            (0.001, -0.5, REGIME_LINEAR),
            (0.0, 0.0, REGIME_STATIONARY),
            (0.0, 0.5, REGIME_LINEAR),
            (-0.02, 0.2, REGIME_SELF_SIMILAR),
            (-0.02, -0.2, REGIME_COLLAPSING),
            (-0.0008, -0.04, REGIME_COLLAPSING),
            (-0.001, 0.0, REGIME_COLLAPSING),
            (-0.001, 0.01, REGIME_COLLAPSING),
            # inward starts with e_eff > 0 reach q = 0 unless mu repels
            (-0.001, -0.5, REGIME_COLLAPSING),
            (0.0, -0.5, REGIME_COLLAPSING),
        ],
    )
    def test_decision_table(self, mu, qdot0, expected):
        assert classify(mu, qdot0) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.floats(-1.0, 1.0, allow_nan=False),
        qdot0=st.floats(-2.0, 2.0, allow_nan=False),
    )
    @example(mu=1e-310, qdot0=-0.5)
    @example(mu=0.0, qdot0=1.19e-7)
    def test_depends_only_on_e_eff_and_velocity_sign(self, mu, qdot0):
        # ... and, for e_eff > 0 with an inward start, on the sign of mu:
        # an attracting or free inward start reaches q = 0. Free motion
        # (|mu| < MU_FREE) is q = 1 + qdot0 t, whatever e_eff is.
        e = e_effective(mu, qdot0)
        tag = classify(mu, qdot0)
        if abs(mu) < temporal_mod.MU_FREE:
            expected = (
                REGIME_LINEAR if qdot0 > 0
                else REGIME_COLLAPSING if qdot0 < 0
                else REGIME_STATIONARY
            )
        elif abs(e) <= 1e-14:
            expected = (
                REGIME_SELF_SIMILAR if qdot0 > 0
                else REGIME_COLLAPSING if qdot0 < 0
                else REGIME_STATIONARY
            )
        elif e < 0 or (qdot0 < 0 and mu < temporal_mod.MU_FREE):
            expected = REGIME_COLLAPSING
        else:
            expected = REGIME_LINEAR
        assert tag == expected

    def test_slow_free_start_is_linear(self):
        # e_eff = 5e-15 is within the parabolic tolerance, but with mu = 0
        # q grows linearly, to 11 at t = 1e8 (the self-similar law gives 6.35)
        sol = evolve_q(0.0, 1e-7, 1e8, 1e7)
        assert classify(0.0, 1e-7) == sol.regime == REGIME_LINEAR
        assert sol.q[-1] == 11.0

    @pytest.mark.parametrize(
        "mu,qdot0",
        [(-0.001, -0.5), (0.0, -0.5), (0.001, -0.5), (-0.001, 0.3),
         (-0.001, 0.0), (-0.0008, -0.04), (-0.02, 0.2)],
    )
    def test_tag_matches_trajectory(self, mu, qdot0):
        sol = evolve_q(mu, qdot0, 100.0, 0.01)
        assert sol.stopped_early == (classify(mu, qdot0) == REGIME_COLLAPSING)


class TestEvolve:
    def test_free_linear_motion_exact(self):
        sol = evolve_q(0.0, 0.5, 2.0, 0.01)
        assert sol.q[-1] == 2.0
        assert np.all(sol.qdot == 0.5)

    def test_stationary(self):
        sol = evolve_q(0.0, 0.0, 1.0, 1e-3)
        assert np.all(sol.q == 1.0)
        assert sol.regime == REGIME_STATIONARY

    def test_self_similar_closed_form(self):
        sol = evolve_q(-0.02, 0.2, 1.0, 1e-3)
        assert sol.q[-1] == pytest.approx(1.3 ** (2 / 3), abs=1e-15)

    # The RK4 oracle of the tests, checked against the self-similar form.
    def test_rk4_matches_self_similar_form(self):
        q, _ = rk4_amplitude(-0.02, 0.2, 1.0, 1000)
        assert abs(q - 1.3 ** (2 / 3)) <= 1e-10

    def test_rk4_fourth_order(self):
        # halving dt shrinks the terminal error against the closed form >= 14x
        exact = 2.5 ** (2 / 3)
        err = {}
        for steps in (50, 100):
            err[steps] = abs(rk4_amplitude(-0.5, 1.0, 1.0, steps)[0] - exact)
        assert err[50] / err[100] >= 14.0

    def test_energy_conservation(self):
        for mu in (0.001, -0.001):
            sol = evolve_q(mu, 0.0, 10.0, 1e-3)
            assert sol.max_energy_drift <= 1e-8 * (1 + abs(sol.e_eff))

    def test_linear_expansion_rate(self):
        mu = 0.001
        sol = evolve_q(mu, 0.0, 1e4, 0.01)
        expected = math.sqrt(2 * e_effective(mu, 0.0))
        assert sol.q[-1] / sol.t[-1] == pytest.approx(expected, rel=0.05)

    def test_collapse_stops_early(self):
        sol = evolve_q(-0.0008, -0.04, 20.0, 1e-3)
        assert sol.stopped_early
        assert np.all(sol.q > 0)
        assert sol.t[-1] < 50.0 / 3.0

    def test_linear_contraction_stops_early(self):
        # mu = 0 with inward velocity reaches q = 0 at t = 2 despite e_eff > 0
        sol = evolve_q(0.0, -0.5, 3.0, 1e-3)
        assert sol.stopped_early
        assert sol.t[-1] < 2.0

    def test_kepler_residual_check(self, monkeypatch):
        # bound, attractive unbound and repulsive branches
        starts = [(-0.001, 0.01), (-0.001, -0.3), (0.001, -0.5)]
        # one Halley step from the starters passes the check, here and on
        # the four orbits of scripts/bench.py
        for mu, qdot0 in starts:
            assert evolve_q(mu, qdot0, 3.0, 0.01).t[-1] > 2.0
        for mu, qdot0 in BENCH_ORBITS:
            assert evolve_q(mu, qdot0, 30.0, 1e-3).t.size > 3000
        # one Newton step (S'' = 0), a Halley term of the wrong sign, or the
        # starters alone (S' = inf, a zero step) fail it
        inner = temporal_mod._kepler_invert
        for change in (lambda d1, d2: (d1, 0.0 * d2), lambda d1, d2: (d1, -d2),
                       lambda d1, d2: (np.inf * d1, d2)):
            def changed(S, slopes, y, x0, change=change):
                return inner(S, lambda x: change(*slopes(x)), y, x0)

            monkeypatch.setattr(temporal_mod, "_kepler_invert", changed)
            for mu, qdot0 in starts:
                with pytest.raises(KeplerNotConverged):
                    evolve_q(mu, qdot0, 3.0, 0.01)

    # branch -> (S, its slopes, its starter, its largest clock)
    KEPLER = {
        "bound": (temporal_mod._x_minus_sin, temporal_mod._bound_slopes,
                  temporal_mod._bound_start, math.pi),
        "unbound": (temporal_mod._sinh_minus_x, temporal_mod._unbound_slopes,
                    temporal_mod._unbound_start, 1e300),
        "repulsive": (temporal_mod._sinh_plus_x, temporal_mod._repulsive_slopes,
                      temporal_mod._repulsive_start, 1e300),
    }

    @pytest.mark.parametrize("branch", KEPLER)
    def test_halley_term_is_needed(self, branch):
        # on clocks over the branch's whole domain the Halley step passes the
        # check, and its slopes match those of the direct trig; without its
        # S'' term (one Newton step) or with S'' of the wrong sign it fails
        S, slopes, start, top = self.KEPLER[branch]
        y = np.unique(np.concatenate([np.linspace(0.0, min(top, 400.0), 2000),
                                      np.geomspace(1e-20, top, 2000)]))
        x0 = start(y)
        x = temporal_mod._kepler_invert(S, slopes, y, x0)
        assert np.all(np.abs(S(x) - y) <= temporal_mod.KEPLER_RTOL * y)
        xs = x0[(x0 > 1e-3) & (x0 < 50.0)]
        direct = {"bound": (2.0 * np.sin(0.5 * xs) ** 2, np.sin(xs)),
                  "unbound": (2.0 * np.sinh(0.5 * xs) ** 2, np.sinh(xs)),
                  "repulsive": (np.cosh(xs) + 1.0, np.sinh(xs))}[branch]
        for got, want in zip(slopes(xs), direct):
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        for change in (lambda d1, d2: (d1, 0.0 * d2), lambda d1, d2: (d1, -d2)):
            with np.errstate(all="ignore"), pytest.raises(KeplerNotConverged):
                temporal_mod._kepler_invert(S, lambda s: change(*slopes(s)), y, x0)

    def test_wrong_derivative_fails_the_residual_check(self):
        # an S' of the wrong sign sends every step away from the root: the
        # residual check must reject it, on every branch
        y = np.linspace(0.1, 3.0, 7)
        for S, slopes, start, _ in self.KEPLER.values():
            with pytest.raises(KeplerNotConverged):
                temporal_mod._kepler_invert(
                    S, lambda s, slopes=slopes: (-slopes(s)[0], slopes(s)[1]), y, start(y))

    @pytest.mark.parametrize("branch", KEPLER)
    def test_zero_clock_stays_at_zero(self, branch):
        # y = 0 (at and past collapse) has S(x0) = y and S'(x0) = S''(x0) = 0:
        # the sample keeps its starter, exactly 0, and the 0/0 step warns nothing
        S, slopes, start, _ = self.KEPLER[branch]
        y = np.array([0.0, 0.5, 0.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = temporal_mod._kepler_invert(S, slopes, y, start(y))
        assert x[0] == x[2] == 0.0 and np.all(x[[1, 3]] > 0)

    def test_one_halley_step_per_sample(self, monkeypatch):
        # every block's inversion evaluates S exactly twice and its slopes
        # once: the Halley step and the residual
        inner, calls = temporal_mod._kepler_invert, []

        def counting(S, slopes, y, x0):
            def counted(x):
                calls[-1][0] += 1
                return S(x)

            def counted_slopes(x):
                calls[-1][1] += 1
                return slopes(x)
            calls.append([0, 0])
            return inner(counted, counted_slopes, y, x0)

        monkeypatch.setattr(temporal_mod, "_kepler_invert", counting)
        for mu, qdot0 in BENCH_ORBITS:
            calls.clear()
            evolve_q(mu, qdot0, 30.0, 1e-3)
            assert calls and all(c == [2, 1] for c in calls)

    def test_tiny_mu_is_free_motion(self):
        for mu in (5e-324, -1e-310):
            sol = evolve_q(mu, 0.5, 1.0, 0.25)
            assert np.array_equal(sol.q, 1.0 + 0.5 * sol.t)
        assert collapse_time(-1e-310, -0.5).time == 2.0
        # a Kepler clock beyond the float range fails the residual check
        with np.errstate(all="ignore"), pytest.raises(KeplerNotConverged):
            evolve_q(1e-290, 0.5, 1e20, 1e15)

    @pytest.mark.parametrize(
        "mu,qdot0", [(0.001, 1e200), (-1e308, 0.0), (-0.001, 1e154), (0.0, 2e154)]
    )
    def test_rejects_starts_beyond_float_range(self, mu, qdot0):
        # e_eff overflows, v = sqrt(2|e_eff|) overflows, A is subnormal, and a
        # free start whose e_eff overflows
        for call in (classify, evolve_q, collapse_time):
            args = (mu, qdot0, 1.0, 1e-3) if call is evolve_q else (mu, qdot0)
            with pytest.raises(ValueError, match=re.escape(f"(mu, qdot0) = ({mu!r}, {qdot0!r})")):
                call(*args)

    def test_stops_before_first_sample_below_q_min(self, monkeypatch):
        monkeypatch.setattr(temporal_mod, "Q_MIN_STOP", 1e-3)
        sol = evolve_q(-0.001, -0.3, 5.0, 1e-3)
        assert sol.stopped_early
        assert np.all(sol.q >= 1e-3)
        q_next, _ = _amplitude(-0.001, -0.3, sol.t[-1] + 1e-3)
        assert q_next < 1e-3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            evolve_q(0.0, 0.0, -1.0, 1e-3)
        with pytest.raises(ValueError):
            evolve_q(0.0, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "t_end,dt",
        [(math.nan, 1e-3), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1e300, 1e-10)],
    )
    def test_rejects_non_finite_times(self, t_end, dt):
        # inf/nan used to reach _sample_times and end in ValueError or OverflowError there
        with pytest.raises(ValueError, match="t_end, dt and t_end/dt must be finite"):
            evolve_q(0.0, 0.0, t_end, dt)

    def test_partial_final_step(self):
        sol = evolve_q(0.0, 0.1, 0.0105, 1e-3)
        assert sol.t[-1] == pytest.approx(0.0105, abs=1e-15)

    @pytest.mark.parametrize("t_end,dt", [(30.0, 1e-3), (1.0, 0.01), (0.0105, 1e-3), (1e8, 1e7)])
    def test_sample_times_are_dt_times_integers(self, t_end, dt):
        # the float grid scaled in place holds the floats of dt times an integer grid
        times = temporal_mod._sample_times(t_end, dt)
        n = int(math.floor(t_end / dt + 1e-12))
        assert times.dtype == np.float64
        assert np.array_equal(times[:n + 1], dt * np.arange(n + 1))
        assert times.size in (n + 1, n + 2)


class TestEnergyDrift:
    """evolve_q returns t, q and qdot; the energy drift is formed on first read."""

    @pytest.mark.parametrize("mu,qdot0", BENCH_ORBITS + [(0.0, 0.5), (-0.02, 0.2)])
    def test_formed_on_first_read(self, mu, qdot0):
        sol = evolve_q(mu, qdot0, 30.0, 1e-3)
        assert "energy_drift" not in sol.__dict__
        assert "max_energy_drift" not in sol.__dict__
        q, qd = sol.q, sol.qdot
        expected = 0.5 * qd * qd + mu / q - sol.e_eff
        assert np.array_equal(sol.energy_drift, expected)
        assert sol.energy_drift is sol.energy_drift
        assert sol.max_energy_drift == float(np.max(np.abs(expected)))
        assert type(sol.max_energy_drift) is float

    @pytest.mark.parametrize("qdot,largest", [([0.0, 1.0, 1.5], 1.0), ([1.0, 2.5, 0.5], 2.125),
                                              ([], 0.0)])
    def test_max_of_either_sign(self, qdot, largest):
        # the largest magnitude, whichever sign it has, and 0 with no samples:
        # with mu = 0 and e_eff = 1 the drift is qdot**2/2 - 1
        qdot = np.array(qdot)
        sol = temporal_mod.TemporalSolution(0.0, 0.0, 1.0, REGIME_LINEAR, qdot, np.ones_like(qdot),
                                            qdot, False)
        assert sol.max_energy_drift == largest


def collapse_time_oracle(mu, qdot0):
    """Energy-integral collapse time for e_eff < 0.

    With a = |mu|/|e_eff| the speed is sqrt(2|e|(a/q - 1)), whose time
    antiderivative is F(q) = a asin(sqrt(q/a)) - sqrt(q(a-q)); an outward
    start rises to q = a first and falls through the whole ball.
    """
    e = 0.5 * qdot0**2 + mu
    a = abs(mu) / abs(e)
    root = math.sqrt(2 * abs(e))

    def F(q):
        return a * math.asin(math.sqrt(q / a)) - math.sqrt(q * (a - q))

    if qdot0 > 0:
        return (2 * F(a) - F(1.0)) / root
    return F(1.0) / root


class TestCollapseTime:
    def test_zero_energy_closed_form(self):
        est = collapse_time(-0.0008, -0.04)
        assert est.time == pytest.approx(50.0 / 3.0, rel=1e-6)
        assert est.exponent == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_negative_energy_numeric(self):
        mu = -0.001
        est = collapse_time(mu, 0.0)
        # free-fall time of q'' = mu/q^2 from rest: pi / (2 sqrt(2 |mu|))
        t_ff = math.pi / (2 * math.sqrt(2 * abs(mu)))
        assert est.time == pytest.approx(t_ff, rel=1e-12)
        assert est.exponent == 2.0 / 3.0
        assert est.prefactor == pytest.approx((9 * abs(mu) / 2) ** (1 / 3), rel=4 * EPS)

    @pytest.mark.parametrize(
        "mu,qdot0",
        [(-0.001, 0.0), (-0.002, 0.01), (-0.003, -0.02), (-0.05, 0.1)],
    )
    def test_energy_integral_oracle(self, mu, qdot0):
        est = collapse_time(mu, qdot0)
        assert est.time == pytest.approx(collapse_time_oracle(mu, qdot0), rel=1e-12)
        assert est.exponent == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_turnaround_trajectory(self):
        # outward start with e_eff < 0 rises to q_max = |mu|/|e_eff|, then falls
        mu, qdot0 = -0.002, 0.01
        sol = evolve_q(mu, qdot0, 40.0, 0.01)
        q_max = abs(mu) / abs(e_effective(mu, qdot0))
        assert sol.stopped_early
        assert float(np.max(sol.q)) == pytest.approx(q_max, rel=1e-4)

    def test_threshold_times_recorded(self):
        est = collapse_time(-0.0008, -0.04)
        assert set(est.threshold_times) == {1e-2, 1e-3, 1e-4}
        ts = [est.threshold_times[e] for e in (1e-2, 1e-3, 1e-4)]
        assert ts[0] < ts[1] < ts[2] < est.time

    @pytest.mark.parametrize("mu,qdot0", [(-0.002, 0.01), (-0.001, -0.3), (0.0, -0.5)])
    def test_threshold_times_invert_the_amplitude(self, mu, qdot0):
        est = collapse_time(mu, qdot0)
        for eps, t in est.threshold_times.items():
            q, qd = _amplitude(mu, qdot0, t)
            # q is ill-conditioned in t near collapse: allow cond * 8 eps
            assert q == pytest.approx(eps, rel=1e-13 + 8 * EPS * abs(t * qd / q))

    def test_linear_collapse(self):
        est = collapse_time(0.0, -0.5)
        assert est.time == 2.0
        assert est.exponent == 1.0
        assert est.prefactor == 0.5
        assert all(a == pytest.approx(1.0, rel=4 * EPS) for a in est.local_exponents.values())

    def test_inward_unbound_exponent(self):
        # A = |mu|/(2 e_eff) = 4e-3: at q = 1e-4 the local exponent is not
        # yet 2/3, far below A it is; the asymptotic law is exact either way.
        coarse = collapse_time(-0.001, -0.5)
        fine_time, _, fine_local = passages(-0.001, -0.5, (1e-6, 1e-7, 1e-8))
        assert fine_time == coarse.time
        assert coarse.exponent == 2.0 / 3.0
        assert coarse.prefactor == 0.0045 ** (1.0 / 3.0)
        assert coarse.local_exponents[1e-4] == pytest.approx(0.6683083809, rel=1e-10)
        assert abs(fine_local[1e-8] - 2.0 / 3.0) <= 1e-6
        local = [coarse.local_exponents[e] for e in (1e-2, 1e-3, 1e-4)]
        assert local[0] > local[1] > local[2] > 2.0 / 3.0

    @pytest.mark.parametrize(
        "mu,qdot0",
        [
            (-0.001, 0.0), (-0.002, 0.01), (-0.001, -0.03),  # bound
            (-0.001, -0.5), (-0.0015, -0.3),  # inward unbound
            (-0.0008, -0.04), (-0.02, -0.2),  # e_eff = 0 to 1e-14
        ],
    )
    def test_local_exponents_match_mpmath(self, mu, qdot0):
        # (T - t)|qdot|/q of the 50-digit orbit at each passage time, down to
        # q = 1e-6; collapse_time reports the first three exactly so
        est = collapse_time(mu, qdot0)
        big_t, times, local = passages(mu, qdot0, (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
        assert est.time == big_t and tuple(est.threshold_times) == COLLAPSE_THRESHOLDS
        assert est.threshold_times == {eps: times[eps] for eps in COLLAPSE_THRESHOLDS}
        assert est.local_exponents == {eps: local[eps] for eps in COLLAPSE_THRESHOLDS}
        for eps, t in times.items():
            q, qd, mp_big_t = mp_amplitude(mu, qdot0, t)
            exact = float((mp_big_t - t) * abs(qd) / q)
            assert local[eps] == pytest.approx(exact, rel=1e-11)

    def test_not_collapsing(self):
        with pytest.raises(NotCollapsing):
            collapse_time(0.001, 0.0)


class TestAssembleMotion:
    def test_mismatched_mu_rejected(self, reference_profile):
        prof = reference_profile(brho=1.0, mu=0.0)
        temporal = evolve_q(0.001, 0.0, 1.0, 0.01)
        with pytest.raises(ValueError, match="mu"):
            assemble_motion(prof, temporal, 0.5)

    def test_reference_state(self, reference_profile):
        prof = reference_profile(brho=2.0)
        temporal = evolve_q(0.0, 0.3, 1.0, 0.01)
        snap = assemble_motion(prof, temporal, 0.0)
        assert snap.q == 1.0
        assert np.max(np.abs(snap.rho - 2.0)) <= 1e-14
        assert np.max(np.abs(snap.u - 0.3 * prof.grid.nodes)) <= 1e-15
        assert np.max(np.abs(snap.phi - prof.grid.nodes)) <= 1e-15

    def test_expansion_dilutes_density(self, reference_profile):
        prof = reference_profile(brho=1.0)
        temporal = evolve_q(0.0, 0.5, 2.0, 0.01)
        snap = assemble_motion(prof, temporal, 2.0)
        assert snap.q == 2.0
        assert np.max(np.abs(snap.rho - 1.0 / 8.0)) <= 1e-14

    def test_mass_conservation(self, model, box, solution_mu0):
        temporal = evolve_q(0.0, 0.1, 2.0, 0.01)
        expected = 4 * math.pi / 3 * solution_mu0.brho0
        for t in (0.0, 0.95, 2.0):
            snap = assemble_motion(solution_mu0, temporal, t)
            assert snap.mass == pytest.approx(expected, rel=1e-6)
            assert np.all(snap.rho > 0)

    def test_interpolation_between_samples(self, reference_profile):
        # off the sample points assemble_motion evaluates the closed form
        prof = reference_profile(brho=1.0, mu=0.001)
        temporal = evolve_q(0.001, 0.0, 1.0, 0.01)
        snap = assemble_motion(prof, temporal, 0.2505)
        q_rk, qd_rk = rk4_amplitude(0.001, 0.0, 0.2505, 501)
        assert snap.q == pytest.approx(q_rk, abs=1e-14)
        assert snap.qdot == pytest.approx(qd_rk, abs=1e-14)
        on_sample = assemble_motion(prof, temporal, float(temporal.t[25]))
        assert on_sample.q == temporal.q[25]

    def test_out_of_range(self, reference_profile):
        prof = reference_profile(brho=1.0)
        temporal = evolve_q(0.0, 0.5, 1.0, 0.01)
        with pytest.raises(OutOfRange):
            assemble_motion(prof, temporal, 2.0)

    @pytest.mark.parametrize("mu,qdot0", [(0.0, 0.1), (-0.001, 0.01)])
    def test_nan_time_rejected(self, reference_profile, mu, qdot0):
        # NaN passed the range check: NaN fields on a free orbit,
        # KeplerNotConverged on a conic one
        prof = reference_profile(brho=1.0, mu=mu)
        temporal = evolve_q(mu, qdot0, 1.0, 0.01)
        with pytest.raises(OutOfRange):
            assemble_motion(prof, temporal, math.nan)

    def test_past_collapse_rejected(self, reference_profile):
        prof = reference_profile(brho=1.0, mu=-0.0008)
        temporal = evolve_q(-0.0008, -0.04, 20.0, 1e-3)
        with pytest.raises(OutOfRange):
            assemble_motion(prof, temporal, 18.0)


def _start(mu, e_eff, sign):
    """qdot0 with sign(qdot0) = sign and qdot0**2/2 + mu = e_eff to rounding."""
    return sign * math.sqrt(2.0 * (e_eff - mu))


# One start per branch: bound outward, at the apex and inward; attractive
# unbound outward and inward; repulsive outward, at pericentre and inward;
# near-parabolic on both sides of e_eff = 0 in both directions.
BRANCHES = [
    (-0.002, 0.01), (-0.001, 0.0), (-0.001, -0.03),
    (-0.001, 0.3), (-0.001, -0.3),
    (0.001, 0.2), (0.002, 0.0), (0.001, -0.5),
] + [(-0.001, _start(-0.001, e, s)) for e in (1e-13, -1e-13, 1e-10, -1e-10) for s in (1, -1)]


class TestClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.one_of(st.just(0.0), st.floats(1e-4, 0.05), st.floats(-0.05, -1e-4)),
        qdot0=st.floats(-1.0, 1.0),
    )
    @example(mu=-0.02, qdot0=0.2)
    @example(mu=-0.002, qdot0=0.01)
    @example(mu=-0.002, qdot0=-0.01)
    @example(mu=-0.001, qdot0=0.5)
    @example(mu=-0.001, qdot0=-0.5)
    @example(mu=0.001, qdot0=0.5)
    @example(mu=0.001, qdot0=-0.5)
    @example(mu=0.0, qdot0=-0.5)
    def test_matches_fine_rk4(self, mu, qdot0):
        # while q >= 1/2 the speed is at most sqrt(qdot0**2 + 4|mu|)
        speed = math.sqrt(qdot0**2 + 4.0 * abs(mu))
        t_end = min(20.0, 0.5 / speed) if speed > 0 else 20.0
        q_rk, qd_rk = rk4_amplitude(mu, qdot0, t_end, 2000)
        q, qd = _amplitude(mu, qdot0, t_end)
        assert q == pytest.approx(q_rk, rel=1e-10)
        assert qd == pytest.approx(qd_rk, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("mu,qdot0", BRANCHES)
    def test_matches_mpmath(self, mu, qdot0):
        times = np.array([0.0, 0.1, 1.0, 3.0, 7.0, 12.0])
        q, qd = _amplitude(mu, qdot0, times)
        for t, qv, qdv in zip(times, q, qd):
            q_ref, qd_ref, big_t = mp_amplitude(mu, qdot0, t)
            if big_t is not None and t >= 0.9 * big_t:
                continue
            assert abs(qv - q_ref) <= 1e-12 * q_ref
            assert abs(qdv - qd_ref) <= 1e-12 * abs(qd_ref) + 1e-15 * math.sqrt(abs(mu))

    # Near-parabolic outward bound orbits collapse after ~1e12 or more, where
    # float times no longer resolve the approach; their T is checked below.
    @pytest.mark.parametrize(
        "mu,qdot0",
        [(m, v) for m, v in BRANCHES
         if classify(m, v) == REGIME_COLLAPSING and (v <= 0 or abs(e_effective(m, v)) > 1e-9)],
    )
    def test_collapse_matches_mpmath(self, mu, qdot0):
        est = collapse_time(mu, qdot0)
        big_t = mp_amplitude(mu, qdot0, 0.0)[2]
        assert abs(est.time - big_t) <= 1e-12 * big_t
        _, times, _ = passages(mu, qdot0, (1e-1, 1e-2, 1e-3, 1e-4, 1e-5))
        for t in times.values():
            q_ref, qd_ref, _ = mp_amplitude(mu, qdot0, t)
            q, qd = _amplitude(mu, qdot0, t)
            # near collapse q is ill-conditioned in t: t qdot/q reaches ~1e7
            # at q ~ 1e-5, so no float t pins q to better than cond * eps
            rel = 1e-12 + 8 * EPS * float(abs(t * qd_ref / q_ref))
            assert abs(q - q_ref) <= rel * q_ref
            assert abs(qd - qd_ref) <= rel * abs(qd_ref)

    def test_long_unbound_orbit_to_full_accuracy(self):
        # q is about x times as sensitive as the sinh branch's anomaly x (6.7
        # at t = 19): a Newton stop relative to x alone left 2.4e-15 here
        mu, qdot0 = -1.129e-3, 0.290
        times = np.linspace(0.5, 40.0, 200)
        q, _ = _amplitude(mu, qdot0, times)
        worst = max(float(abs(qv / mp_amplitude(mu, qdot0, t)[0] - 1)) for t, qv in zip(times, q))
        assert worst <= 1e-15

    @pytest.mark.parametrize("e_eff", [-1e-13, -1e-10])
    def test_long_bound_orbit_collapse_time(self, e_eff):
        # outward near-parabolic: T ~ |e_eff|**-1.5 needs e_eff to a few ulps
        mu, qdot0 = -0.001, _start(-0.001, e_eff, 1)
        big_t = mp_amplitude(mu, qdot0, 0.0)[2]
        assert abs(collapse_time(mu, qdot0).time - big_t) <= 1e-12 * big_t

    @pytest.mark.parametrize("e_eff", [1e-13, -1e-13, 1e-10, -1e-10])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_near_parabolic_against_parabolic_form(self, e_eff, sign):
        mu = -0.001
        qdot0 = _start(mu, e_eff, sign)
        assert classify(mu, qdot0) != REGIME_SELF_SIMILAR
        t = np.linspace(1.0, 14.0 if sign < 0 else 30.0, 40)
        q, _ = _amplitude(mu, qdot0, t)
        q_par = (1.0 + 1.5 * qdot0 * t) ** (2.0 / 3.0)
        # First order in e_eff. q_par is the e_eff = 0 orbit with the same
        # qdot0, so a stronger attraction: q stays above it iff e_eff > 0.
        dev = (q - q_par) / q_par
        assert np.all(np.abs(dev) <= 5.0 * abs(e_eff) / abs(mu))
        assert np.all(np.sign(dev) == np.sign(e_eff))


class TestHalfAngle:
    """The bound branch forms sin x, 1 - cos x, q and qdot from t = tan(x/2).

    Against 50-digit mpmath on an outward bound orbit, at samples with x >= 1
    and near the apex, where x meets pi and t reaches 1e16: q within ULPS of
    itself, and qdot within ULPS of max(|qdot|, v). Near the apex one ulp of
    the clock moves qdot = v/t by about v eps/2, so no float formula does
    better in relative terms there.
    """

    ULPS = 16
    MU, QDOT0 = -0.001, 0.01

    @classmethod
    def _worst(cls, refs, q, qd):
        """Largest errors of q and qdot against refs, in ulps as above."""
        v = math.sqrt(-2.0 * e_effective(cls.MU, cls.QDOT0))
        q_ref, qd_ref = (np.array([float(r[i]) for r in refs]) for i in (0, 1))
        return (float(np.max(np.abs(q - q_ref) / np.spacing(q_ref))),
                float(np.max(np.abs(qd - qd_ref) / np.spacing(np.maximum(np.abs(qd_ref), v)))))

    def test_matches_mpmath_to_16_ulp(self, monkeypatch):
        inner, anomalies = temporal_mod._kepler_invert, []

        def capture(S, slopes, y, x0):
            anomalies.append(inner(S, slopes, y, x0))
            return anomalies[-1]

        monkeypatch.setattr(temporal_mod, "_kepler_invert", capture)
        big_t = mp_amplitude(self.MU, self.QDOT0, 0.0)[2]
        e = e_effective(self.MU, self.QDOT0)
        k = -self.MU / (2.0 * abs(e)) ** 1.5
        t_apex = float(big_t - k * mp.pi)  # the last half-orbit takes k pi
        near = t_apex + np.concatenate([
            np.arange(-4, 5) * np.spacing(t_apex),
            np.ravel([(-d, d) for d in 10.0 ** -np.arange(2, 14, 2)])])
        times = np.concatenate([np.linspace(0.0, 0.95 * float(big_t), 41), near])
        q, qd = _amplitude(self.MU, self.QDOT0, times)
        x = anomalies[0]
        assert np.min(x[41:]) >= 3.14 and np.max(np.tan(0.5 * x)) >= 1e15
        mid = x >= 1.0
        assert mid.sum() >= 60
        refs = [mp_amplitude(self.MU, self.QDOT0, t) for t in times[mid]]
        q_ulps, qd_ulps = self._worst(refs, q[mid], qd[mid])
        assert q_ulps <= self.ULPS
        assert qd_ulps <= self.ULPS

        # the check can fail: the 1 + cos identities, 1 - cos x = sin(x)**2/(1 + cos x)
        # and cot(x/2) = (1 + cos x)/sin x, cancel to nothing near the apex
        a = self.MU / (2.0 * e)
        with np.errstate(divide="ignore"):
            q_cos = a * np.sin(x) ** 2 / (1.0 + np.cos(x))
        qd_cos = np.sign(qd) * math.sqrt(-2.0 * e) * (1.0 + np.cos(x)) / np.sin(x)
        assert self._worst(refs, q_cos[mid], qd[mid])[0] > self.ULPS
        assert self._worst(refs, q[mid], qd_cos[mid])[1] > self.ULPS


class TestSeriesSplit:
    """x - sin x and sinh x - x: a sample's value comes from its own side of
    SERIES_CUTOFF, whether the other side has samples or not, and 0-d too."""

    @pytest.mark.parametrize("fn", [temporal_mod._x_minus_sin, temporal_mod._sinh_minus_x])
    def test_sides_do_not_interact(self, fn):
        x = np.linspace(0.0, 2.0 * temporal_mod.SERIES_CUTOFF, 101)
        whole = fn(x)
        small = x < temporal_mod.SERIES_CUTOFF
        assert 0 < small.sum() < x.size
        assert np.array_equal(whole[small], fn(x[small]))
        assert np.array_equal(whole[~small], fn(x[~small]))
        assert [fn(v) for v in x] == list(whole)


class TestStarters:
    """Newton's start on each branch lies within 1e-5 relative of the mpmath root."""

    RTOL = 1e-5

    @staticmethod
    def _clocks(top, switch):
        # dense over the domain, 0, tiny, the switch between the fitted and the
        # refined piece, and large
        edges = [0.0, 5e-324, 1e-300, 1e-30, top]
        if switch is not None:
            edges += [np.nextafter(switch, 0.0), switch, np.nextafter(switch, math.inf)]
        return np.unique(np.concatenate([
            np.linspace(0.0, min(top, 2.0 * (switch or top)), 300),
            np.geomspace(1e-20, top, 300), edges]))

    @staticmethod
    def _max_rel_error(branch, y, x):
        return max(float(abs(xi / mp_anomaly(branch, yi) - 1)) for yi, xi in zip(y, x) if yi > 0)

    # branch -> (y -> x0, the largest clock, the switch to refinement)
    BRANCHES = {
        "bound": (temporal_mod._bound_start, math.pi, None),
        "unbound": (temporal_mod._unbound_start, 1e300, temporal_mod._UNBOUND_FIT_MAX),
        "repulsive": (temporal_mod._repulsive_start, 1e300, temporal_mod._REPULSIVE_FIT_MAX),
    }

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_within_bound_of_mpmath_root(self, branch):
        start, top, switch = self.BRANCHES[branch]
        y = self._clocks(top, switch)
        if branch == "repulsive":  # y/2 underflows the smallest subnormal to 0
            y = y[y != 5e-324]
        x0 = start(y)
        assert x0[0] == 0.0 and np.all(x0[1:] > 0)
        assert self._max_rel_error(branch, y, x0) <= self.RTOL
        # the check can fail: a start off by twice the bound is rejected
        assert self._max_rel_error(branch, y, x0 * (1 + 2 * self.RTOL)) > self.RTOL


def _whole_array(mu, qdot0, t_end, dt, q_min_stop):
    """evolve_q's samples from one _amplitude call on every sample time."""
    times = temporal_mod._sample_times(t_end, dt)
    q, qd = _amplitude(mu, qdot0, times)
    below = np.flatnonzero(q < q_min_stop)
    n = int(below[0]) if below.size else times.size
    return times[:n], q[:n], qd[:n], bool(below.size)


def _assert_equals_whole_array(mu, qdot0, t_end, dt):
    sol = evolve_q(mu, qdot0, t_end, dt)
    t, q, qd, stopped = _whole_array(mu, qdot0, t_end, dt, temporal_mod.Q_MIN_STOP)
    assert sol.stopped_early == stopped
    assert np.array_equal(sol.t, t)
    assert np.array_equal(sol.q, q)
    assert np.array_equal(sol.qdot, qd)
    assert np.array_equal(sol.energy_drift, 0.5 * qd * qd + mu / q - sol.e_eff)
    return sol


class TestBlocks:
    """evolve_q evaluates its samples in blocks and stops after the block
    holding the first q < Q_MIN_STOP; the blocks must not show."""

    BLOCK = temporal_mod.SAMPLE_BLOCK

    @pytest.mark.parametrize("mu,qdot0", BRANCHES)
    def test_equals_one_whole_array_call(self, mu, qdot0):
        # 30,001 samples: three full blocks and a partial one
        _assert_equals_whole_array(mu, qdot0, 30.0, 1e-3)

    @pytest.mark.parametrize("stop", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                      2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1])
    def test_stop_at_block_edges(self, monkeypatch, stop):
        # inward unbound, q falls strictly from 1 to collapse near t = 3.21:
        # with Q_MIN_STOP = q[stop - 1] the first sample below it is `stop`
        mu, qdot0, t_end, dt = -0.001, -0.3, 4.0, 1e-4
        _, q, _, _ = _whole_array(mu, qdot0, t_end, dt, 0.0)
        monkeypatch.setattr(temporal_mod, "Q_MIN_STOP", 2.0 if stop == 0 else float(q[stop - 1]))
        sol = _assert_equals_whole_array(mu, qdot0, t_end, dt)
        assert sol.stopped_early
        assert sol.t.size == stop

    @pytest.mark.parametrize("dt", [1e-3, 2.5e-4])
    def test_no_sample_past_the_stop_block(self, monkeypatch, dt):
        # Samples are evaluated up to one guard sample past the closed-form
        # stop time and no further, in blocks of at most SAMPLE_BLOCK. The stop
        # index may sit one sample before or after that time by rounding.
        inner = temporal_mod._kepler_invert
        evaluated = []

        def counting(S, slopes, y, x0):
            evaluated.append(y.size)
            return inner(S, slopes, y, x0)

        monkeypatch.setattr(temporal_mod, "_kepler_invert", counting)
        for mu, qdot0 in [(-0.001, -0.3), PORTRAIT_BOUND]:
            evaluated.clear()
            sol = evolve_q(mu, qdot0, 30.0, dt)
            assert sol.stopped_early
            assert 0 < sum(evaluated) <= sol.t.size + 2
            assert max(evaluated) <= self.BLOCK
            if dt == 1e-3 and (mu, qdot0) == PORTRAIT_BOUND:
                assert sol.t.size == 22518
            _assert_equals_whole_array(mu, qdot0, 30.0, dt)

    def test_no_closed_form_stop_falls_back_to_blocks(self):
        # repulsive, so no collapse time, yet q passes below Q_MIN_STOP near
        # its pericentre at t = 1
        assert temporal_mod._orbit(1e-9, -1.0).to_collapse is None
        sol = _assert_equals_whole_array(1e-9, -1.0, 3.0, 1e-3)
        assert sol.stopped_early
        assert sol.t.size == 1000

    def test_nan_closed_form_stop_falls_back_to_blocks(self, monkeypatch):
        # the bound orbit's apex 2A = 1.04 lies below q = 2: no passage, so the
        # closed-form stop is NaN, while q(0) = 1 is already below
        monkeypatch.setattr(temporal_mod, "Q_MIN_STOP", 2.0)
        with np.errstate(invalid="ignore"):
            big_t, to_go = temporal_mod._orbit(*PORTRAIT_BOUND).to_collapse(2.0)
        assert math.isnan(big_t - to_go)
        sol = _assert_equals_whole_array(*PORTRAIT_BOUND, 30.0, 1e-3)
        assert sol.stopped_early
        assert sol.t.size == 0

    def test_early_closed_form_stop_falls_back_to_blocks(self, monkeypatch):
        # a closed-form stop that no evaluated sample confirms continues block
        # by block: here t = 0, so only q(0) = 1 and the guard q(dt) come first
        inner = temporal_mod._orbit

        def early(mu, qdot0):
            orbit = inner(mu, qdot0)
            return dataclasses.replace(orbit, to_collapse=lambda q: (0.0, 0.0))

        monkeypatch.setattr(temporal_mod, "_orbit", early)
        for mu, qdot0 in [(-0.001, -0.3), PORTRAIT_BOUND]:
            sol = _assert_equals_whole_array(mu, qdot0, 30.0, 1e-3)
            assert sol.stopped_early
            assert sol.t.size > 1


class TestOneDecision:
    """_orbit decides a start's branch and computes e_eff once per public call."""

    @pytest.fixture
    def e_eff_calls(self, monkeypatch):
        inner, calls = temporal_mod.e_effective, []

        def counting(mu, qdot0):
            calls.append((mu, qdot0))
            return inner(mu, qdot0)

        monkeypatch.setattr(temporal_mod, "e_effective", counting)
        return calls

    @pytest.mark.parametrize("mu,qdot0", BRANCHES + [(0.0, -0.5), (0.0, 0.5), (-0.02, 0.2)])
    def test_e_eff_computed_once_per_call(self, e_eff_calls, reference_profile, mu, qdot0):
        calls = [lambda: classify(mu, qdot0), lambda: evolve_q(mu, qdot0, 1.0, 0.01)]
        if classify(mu, qdot0) == REGIME_COLLAPSING:
            calls.append(lambda: collapse_time(mu, qdot0))
        temporal = evolve_q(mu, qdot0, 1.0, 0.01)
        prof = reference_profile(brho=1.0, mu=mu, n=16)
        calls.append(lambda: assemble_motion(prof, temporal, 0.5))
        for call in calls:
            e_eff_calls.clear()
            call()
            assert e_eff_calls == [(mu, qdot0)]
