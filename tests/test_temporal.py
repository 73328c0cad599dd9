import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from kepler_oracles import mp_amplitude, mp_anomaly, rk4_amplitude

from gravelast import temporal as temporal_mod
from gravelast.errors import KeplerNotConverged, NotCollapsing, OutOfRange
from gravelast.temporal import (
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
        for mu, qdot0 in starts:
            assert evolve_q(mu, qdot0, 3.0, 0.01).t[-1] > 2.0
        # two Newton steps from the starters pass the check, here and on the
        # four orbits of scripts/bench.py
        monkeypatch.setattr(temporal_mod, "NEWTON_MAX_ITER", 2)
        for mu, qdot0 in starts:
            assert evolve_q(mu, qdot0, 3.0, 0.01).t[-1] > 2.0
        for mu, qdot0 in BENCH_ORBITS:
            assert evolve_q(mu, qdot0, 30.0, 1e-3).t.size > 3000
        # the starters alone fail it
        monkeypatch.setattr(temporal_mod, "NEWTON_MAX_ITER", 0)
        for mu, qdot0 in starts:
            with pytest.raises(KeplerNotConverged):
                evolve_q(mu, qdot0, 3.0, 0.01)

    def test_bisection_never_stops_a_sample(self):
        # a derivative of the wrong sign sends every Newton step out of the
        # bracket, so only bisection moves the samples: it must run on until
        # they pass the residual check, not stop at a step of STOP_REL
        y = np.linspace(0.1, 3.0, 7)
        x = temporal_mod._kepler_invert(
            temporal_mod._x_minus_sin, lambda s: -1.0 - s, y, *temporal_mod._bound_start(y))
        assert np.all(np.abs(temporal_mod._x_minus_sin(x) - y) <= temporal_mod.KEPLER_RTOL * y)

    def test_two_newton_steps_per_sample(self, monkeypatch):
        # every sample of the bench orbits stops within two steps: each block's
        # inversion evaluates S at most three times, the last for the residual
        inner, calls = temporal_mod._kepler_invert, []

        def counting(S, dS, y, *args):
            def counted(x):
                calls[-1] += 1
                return S(x)
            calls.append(0)
            return inner(counted, dS, y, *args)

        monkeypatch.setattr(temporal_mod, "_kepler_invert", counting)
        for mu, qdot0 in BENCH_ORBITS:
            calls.clear()
            evolve_q(mu, qdot0, 30.0, 1e-3)
            assert calls and max(calls) <= 3

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
        fine = collapse_time(-0.001, -0.5, thresholds=(1e-6, 1e-7, 1e-8))
        assert fine.time == coarse.time
        assert coarse.exponent == fine.exponent == 2.0 / 3.0
        assert coarse.prefactor == 0.0045 ** (1.0 / 3.0)
        assert coarse.local_exponents[1e-4] == pytest.approx(0.6683083809, rel=1e-10)
        assert abs(fine.local_exponents[1e-8] - 2.0 / 3.0) <= 1e-6
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
        # (T - t)|qdot|/q of the 50-digit orbit at each reported passage time
        thresholds = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        est = collapse_time(mu, qdot0, thresholds)
        for eps in thresholds:
            t = est.threshold_times[eps]
            q, qd, big_t = mp_amplitude(mu, qdot0, t)
            exact = float((big_t - t) * abs(qd) / q)
            assert est.local_exponents[eps] == pytest.approx(exact, rel=1e-11)

    def test_thresholds_must_lie_below_one(self):
        with pytest.raises(ValueError):
            collapse_time(-0.001, 0.0, thresholds=(2.0, 1e-3))
        with pytest.raises(ValueError):
            collapse_time(-0.001, 0.0, thresholds=(1e-2, 0.0))

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
        est = collapse_time(mu, qdot0, thresholds=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5))
        big_t = mp_amplitude(mu, qdot0, 0.0)[2]
        assert abs(est.time - big_t) <= 1e-12 * big_t
        for t in est.threshold_times.values():
            q_ref, qd_ref, _ = mp_amplitude(mu, qdot0, t)
            q, qd = _amplitude(mu, qdot0, t)
            # near collapse q is ill-conditioned in t: t qdot/q reaches ~1e7
            # at q ~ 1e-5, so no float t pins q to better than cond * eps
            rel = 1e-12 + 8 * EPS * float(abs(t * qd_ref / q_ref))
            assert abs(q - q_ref) <= rel * q_ref
            assert abs(qd - qd_ref) <= rel * abs(qd_ref)

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

    # branch -> (y -> (hi, x0), the largest clock, the switch to refinement)
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
        hi, x0 = start(y)
        assert x0[0] == hi[0] == 0.0 and np.all(x0[1:] > 0)
        assert self._max_rel_error(branch, y, x0) <= self.RTOL
        # the check can fail: the bracket's upper bound, Newton's start before
        # the starters, is rejected
        assert self._max_rel_error(branch, y, hi) > self.RTOL


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
        inner = temporal_mod._kepler_invert
        evaluated = []

        def counting(S, dS, y, *args):
            evaluated.append(y.size)
            return inner(S, dS, y, *args)

        mu, qdot0, t_end = -0.001, -0.3, 30.0
        n_times = temporal_mod._sample_times(t_end, dt).size
        monkeypatch.setattr(temporal_mod, "_kepler_invert", counting)
        sol = evolve_q(mu, qdot0, t_end, dt)
        assert sol.stopped_early
        stop_block = sol.t.size // self.BLOCK
        assert stop_block < n_times // self.BLOCK - 1  # blocks remain unevaluated
        assert evaluated == [self.BLOCK] * (stop_block + 1)


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
