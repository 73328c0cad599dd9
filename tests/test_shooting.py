import dataclasses
import inspect
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravelast import constitutive, fixed_point, shooting
from gravelast.constitutive import EIGHT_PI_3, FOUR_PI_3, V, make_builtin_model
from gravelast.errors import ParameterOutOfRange
from gravelast.fixed_point import picard_solve
from gravelast.parameters import build_parameter_box, k_minimum, mu_ceiling
from gravelast.radial import RadialGrid, reconstruct_geometry, y_at_boundary
from gravelast.shooting import (
    TOL_BC,
    SolutionProfile,
    boundary_mismatch,
    brent_steps,
    solve_separable,
    sweep,
)
from operator_oracles import K

EPS = np.finfo(float).eps


def bisect_oracle(fn, lo, hi, iters=200):
    f_lo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (fn(mid) < 0) == (f_lo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brent_root(fn, a, b, fa, fb, **stops):
    """brent_steps with fn evaluated at each trial: (x, evaluations of fn)."""
    steps = brent_steps(a, b, fa, fb, **stops)
    try:
        x = next(steps)
        while True:
            x = steps.send(fn(x))
    except StopIteration as stop:
        return stop.value


class TestBrentRoot:
    def test_cubic(self):
        # Brent's own example: the real root of x**3 - 2x - 5.  With ftol = 0
        # only the float resolution of the bracket, 4 eps |x| wide, stops it.
        fn = lambda x: x**3 - 2.0 * x - 5.0  # noqa: E731
        root, evals = brent_root(fn, 2.0, 3.0, fn(2.0), fn(3.0), ftol=0.0, max_evals=100)
        assert fn(root) != 0.0
        assert root == pytest.approx(bisect_oracle(fn, 2.0, 3.0), rel=4 * EPS, abs=0.0)
        assert evals <= 10

    def test_step_falls_back_to_bisection(self):
        # No interpolation helps on a jump; the safeguard still shrinks the
        # bracket at least as fast as bisection, give or take a few steps,
        # down to its float resolution.
        fn = lambda x: -1.0 if x < 0.3 else 1.0  # noqa: E731
        root, evals = brent_root(fn, 0.0, 1.0, -1.0, 1.0, ftol=0.0, max_evals=200)
        assert abs(root - 0.3) <= 4 * EPS * root
        assert evals <= 2 * math.ceil(math.log2(1.0 / EPS))

    def test_stops_at_ftol_and_max_evals(self):
        fn = lambda x: x - 0.1  # noqa: E731
        root, evals = brent_root(fn, -1.0, 1.0, fn(-1.0), fn(1.0), ftol=1e-3, max_evals=50)
        assert abs(fn(root)) < 1e-3
        _, evals = brent_root(fn, -1.0, 1.0, fn(-1.0), fn(1.0), ftol=0.0, max_evals=1)
        assert evals == 1

    def test_requires_sign_change(self):
        with pytest.raises(ValueError, match="brent_steps needs a sign change"):
            brent_root(lambda x: 1.0, 0.0, 1.0, 1.0, 1.0, ftol=0.0, max_evals=10)


class TestForcingScaleInverse:
    @pytest.mark.parametrize("frac", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_round_trip_and_upper_root(self, box, frac):
        # 50-digit oracle: the largest real root of (4 pi/3) G u**3 - w u + mu.
        # The lower end is left out of the root comparison: for mu > 0,
        # dw/dbrho = 0 there and the cubic's root moves like sqrt(w - w_lo).
        mu = frac * box.mu0
        lo, hi = box.brho_lower(mu), box.brho_plus
        brhos = np.geomspace(lo, hi, 33)
        brhos[0], brhos[-1] = lo, hi
        w_all = [V(b, mu, 1.0, 1.0) for b in brhos]
        assert all(np.diff(w_all) > 0.0)
        for brho, w in zip(brhos, w_all):
            back = shooting._brho_from_w(w, mu, 1.0, lo, hi, w_all[0], w_all[-1])
            assert lo <= back <= hi
            assert back == pytest.approx(brho, rel=1e-14, abs=0.0)
            if brho == lo:
                continue
            with mp.workdps(50):
                roots = mp.polyroots([mp.mpf(FOUR_PI_3), 0, -mp.mpf(w), mp.mpf(mu)])
                upper = max(r.real for r in roots if abs(r.imag) < mp.mpf(10) ** -30) ** 3
            assert back == pytest.approx(float(upper), rel=1e-14, abs=0.0)


class TestParameterBox:
    def test_brho_plus_matches_bisection_oracle(self, box):
        # oracle: solve (4 pi/3) brho^(2/3) = 10 by bisection
        root = bisect_oracle(lambda r: FOUR_PI_3 * r ** (2 / 3) - 10.0, 1.0, 10.0)
        assert box.brho_plus == pytest.approx(root, rel=1e-10)
        assert FOUR_PI_3 * box.brho_plus ** (2 / 3) == pytest.approx(10.0, abs=1e-12)

    def test_mu0_closed_form(self, box):
        cond2 = 30.0 ** -1.5 / math.sqrt(EIGHT_PI_3)
        assert cond2 == pytest.approx(2.10e-3, rel=5e-3)
        cond1 = min(0.5 * box.brho_plus ** (1 / 3), EIGHT_PI_3 * box.brho_plus)
        assert cond1 == pytest.approx(0.7726, rel=1e-3)
        assert box.mu0 == pytest.approx(0.99 * min(cond1, cond2), rel=1e-14)

    def test_mu0_condition2_matches_numeric_minimum(self, box):
        # numerically minimize K over brho at mu = mu0/0.99 and check ~1/20
        mu = box.mu0 / 0.99
        rs = np.geomspace(1e-8, box.brho_plus, 20001)
        k_min_numeric = min(K(r, mu, 1.0) for r in rs)
        assert k_min_numeric == pytest.approx(1.0 / 20.0, rel=1e-4)
        assert k_minimum(mu, 1.0) == pytest.approx(1.0 / 20.0, rel=1e-12)

    def test_brho_minus_at_zero(self, box):
        assert box.brho_minus(0.0) == 0.0

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_floor_binds_only_near_mu_zero(self, box, sign):
        # at G = 1 the floor is 3.69e-6 and brho_minus(mu0) = 2.48e-4; the
        # floor takes over from brho_minus below |mu| = 0.0148 mu0
        assert box.brho_lower(0.0) == pytest.approx(3.6886e-6, rel=1e-4)
        for frac in (0.02, 0.5, 1.0):
            mu = sign * frac * box.mu0
            assert box.brho_lower(mu) == box.brho_minus(mu)
        assert box.brho_lower(sign * 0.01 * box.mu0) == box.brho_lower(0.0)

    @pytest.mark.parametrize("frac", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_box_inequalities(self, box, frac):
        mu = frac * box.mu0
        assert box.brho_minus(mu) < box.brho_plus
        assert k_minimum(mu, box.G) < 1.0 / 20.0
        assert K(box.brho_plus, mu, box.G) < 21.0 / 2.0
        eps = FOUR_PI_3 * box.brho_plus ** (2 / 3) + mu * box.brho_plus ** (-1 / 3)
        assert eps > 19.0 / 2.0

    def test_invalid_G(self, model):
        with pytest.raises(ValueError):
            build_parameter_box(model, 0.0)

    def test_mu_ceiling_scales_with_G(self):
        assert mu_ceiling(4.0) < mu_ceiling(1.0)


class TestBoundaryMismatch:
    @pytest.mark.parametrize("frac", [-0.5, 0.0, 0.5])
    def test_bracket_signs_and_windows(self, model, box, frac):
        grid = RadialGrid(256)
        mu = frac * box.mu0
        delta = model.delta
        hi = boundary_mismatch(model, box.brho_plus, mu, 1.0, grid)
        lo = boundary_mismatch(model, box.brho_lower(mu), mu, 1.0, grid)
        assert hi.value > 0 > lo.value
        assert y_at_boundary(grid, hi.zeta) - 1.0 > delta / 27
        assert y_at_boundary(grid, lo.zeta) - 1.0 < delta / 33

    def test_gprime_sign_structure(self, model):
        # g' < 0 below the lower window edge, > 0 above the upper one
        d = model.delta
        assert model.dg(1.0 - d) < 0
        assert model.dg(1.0 + d / 33 * 0.999) < 0
        assert model.dg(1.0 + d / 27 * 1.001) > 0


class TestSolve:
    def test_mu0_solution(self, model, box, solution_mu0):
        sol = solution_mu0
        d = model.delta
        assert abs(sol.boundary_residual) <= 1e-10
        assert d / 33 <= sol.y[-1] - 1.0 <= d / 27
        assert box.brho_lower(0.0) < sol.brho0 < box.brho_plus
        assert abs(sol.f[-1] - 1.0) <= 1e-12
        assert np.max(np.abs(sol.zeta)) <= d

    def test_grid_refinement_stability(self, model, solution_mu0):
        sol2 = solve_separable(model, 0.0, 1.0, RadialGrid(1024))
        assert abs(sol2.brho0 - solution_mu0.brho0) / solution_mu0.brho0 <= 1e-4

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_nonzero_mu(self, model, box, sign):
        mu = sign * box.mu0 / 2
        sol = solve_separable(model, mu, 1.0, RadialGrid(256))
        assert abs(sol.boundary_residual) <= 1e-10
        assert box.brho_minus(mu) < sol.brho0 < box.brho_plus

    def test_root_evaluation_bound(self, solution_mu0):
        assert solution_mu0.root_evaluations <= 6

    @pytest.mark.parametrize("frac", [-1.0, 0.0, 1.0])
    def test_few_root_evaluations(self, model, box, grid512, frac):
        sol = solve_separable(model, frac * box.mu0, 1.0, grid512)
        assert sol.root_evaluations <= 6
        assert abs(sol.boundary_residual) < 1e-10

    @pytest.mark.parametrize("frac", [-1.0, 0.0, 1.0])
    def test_few_apply_F_calls(self, model, box, grid512, frac, monkeypatch):
        # An exact count, so a costlier search shows without any timing.
        calls = []
        original = fixed_point.apply_F
        monkeypatch.setattr(
            fixed_point, "apply_F", lambda *args: calls.append(1) or original(*args)
        )
        solve_separable(model, frac * box.mu0, 1.0, grid512)
        assert len(calls) <= 16

    @pytest.mark.parametrize("frac", [-1.0, 0.0, 1.0])
    def test_brho0_matches_bisection_oracle(self, model, box, frac):
        # 200 halvings of the bracket reach the float resolution of brho;
        # the oracle and the solver see the same mismatch on the same grid.
        grid = RadialGrid(256)
        mu = frac * box.mu0
        sol = solve_separable(model, mu, 1.0, grid)
        root = bisect_oracle(
            lambda r: boundary_mismatch(model, r, mu, 1.0, grid).value,
            box.brho_lower(mu), box.brho_plus,
        )
        assert sol.brho0 == pytest.approx(root, rel=1e-9)

    @pytest.mark.parametrize("frac", [-1.0, 0.0, 1.0])
    def test_width_stop_matches_bisection_oracle(self, model, box, frac, monkeypatch):
        # TOL_BC = 0 leaves the rounding floor g''(1) eps/2 of the mismatch
        # as the stop, which a search reaches in a few evaluations.
        monkeypatch.setattr(shooting, "TOL_BC", 0.0)
        grid = RadialGrid(256)
        mu = frac * box.mu0
        sol = solve_separable(model, mu, 1.0, grid)
        assert sol.root_evaluations <= 5
        root = bisect_oracle(
            lambda r: boundary_mismatch(model, r, mu, 1.0, grid).value,
            box.brho_lower(mu), box.brho_plus,
        )
        assert sol.brho0 == pytest.approx(root, rel=1e-9)

    @pytest.mark.parametrize("kappa", [3100.0, 20000.0, 1e7])
    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("frac", [-0.9, 0.0, 0.9])
    def test_rounding_floor_stops_the_search(self, kappa, n, frac, monkeypatch):
        # g'(y(1)) moves in steps of about g''(1) eps; with TOL_BC = 0 the
        # search stops within half a step, in a few evaluations.  TOL_BC is
        # read at call time, else the patch would not reach the search.
        monkeypatch.setattr(shooting, "TOL_BC", 0.0)
        model = make_builtin_model(kappa)
        mu = frac * build_parameter_box(model, 1.0).mu0
        sol = solve_separable(model, mu, 1.0, RadialGrid(n))
        assert sol.root_evaluations <= 5
        assert abs(sol.boundary_residual) <= 0.5 * model.validation.g2_at_1 * EPS

    @pytest.mark.parametrize("frac", [-0.9, 0.0, 0.9])
    def test_rounding_floor_above_default_tolerance(self, frac):
        # At kappa = 1e7 half a step, ~1.1e-9, exceeds TOL_BC = 1e-10 itself.
        model = make_builtin_model(1e7)
        assert 0.5 * model.validation.g2_at_1 * EPS > TOL_BC
        mu = frac * build_parameter_box(model, 1.0).mu0
        sol = solve_separable(model, mu, 1.0, RadialGrid(64))
        assert sol.root_evaluations <= 5

    @pytest.mark.parametrize("kappa, max_evals", [(1e5, 4), (1e6, 5)])
    def test_boundary_tolerance_value(self, kappa, max_evals):
        # TOL_BC = 1e-9 stops kappa = 1e6 at |g'(y(1))| = 1.3e-10, above the
        # floor 1.1e-10; TOL_BC = 1e-11 spends a fifth evaluation at kappa = 1e5.
        model = make_builtin_model(kappa)
        sol = solve_separable(model, 0.0, 1.0, RadialGrid(512))
        assert abs(sol.boundary_residual) < max(1e-10, 0.5 * model.validation.g2_at_1 * EPS)
        assert sol.root_evaluations <= max_evals

    def test_validates_model_once(self, monkeypatch):
        # The session model is validated already; fresh ones show the calls.
        calls = []
        original = constitutive.validate_model
        monkeypatch.setattr(
            constitutive, "validate_model", lambda m: calls.append(m) or original(m)
        )
        fresh = make_builtin_model(3100.0)
        sol = solve_separable(fresh, 0.0, 1.0, RadialGrid(64))
        assert sol.root_evaluations > 2
        assert len(calls) == 1 and calls[0] is fresh
        other = make_builtin_model(3100.0)
        mus = np.linspace(-sol.box.mu0 / 2, sol.box.mu0 / 2, 9)
        rows = sweep(other, 1.0, mus, RadialGrid(64))
        assert all(isinstance(row, SolutionProfile) for row in rows)
        assert len(calls) == 2 and calls[1] is other

    def test_box_must_be_that_of_model_and_G(self, model, box):
        grid = RadialGrid(64)
        sol = solve_separable(model, 0.0, 1.0, grid, box=build_parameter_box(model, 1.0))
        assert sol.box == box
        # |mu| = 2.5e-3 is inside the box of G = 0.5, outside that of G = 1.
        wide = build_parameter_box(model, 0.5)
        assert box.mu0 < 2.5e-3 < wide.mu0
        with pytest.raises(ValueError, match="not the box"):
            solve_separable(model, 2.5e-3, 1.0, grid, box=wide)

    def test_derived_state_not_stored(self, model, solution_mu0):
        # box and fprime0 follow from (model, G) and fprime, so no copy drifts
        sol = solution_mu0
        assert {"box", "fprime0"}.isdisjoint(f.name for f in dataclasses.fields(sol))
        assert sol.box == build_parameter_box(model, 1.0)
        assert sol.fprime0 == reconstruct_geometry(sol.grid, sol.zeta).fprime[0]
        with pytest.raises(TypeError):
            dataclasses.replace(sol, box=build_parameter_box(model, 0.5))
        assert dataclasses.replace(sol, G=0.5).box == build_parameter_box(model, 0.5)

    @pytest.mark.parametrize("fn", [picard_solve, boundary_mismatch])
    def test_no_caller_supplied_box(self, model, fn):
        # No argument can widen the range a Picard run accepts.
        assert {"box", "validate"}.isdisjoint(inspect.signature(fn).parameters)
        with pytest.raises(ParameterOutOfRange, match="mu outside proven range"):
            fn(model, 3.0, 2.5e-3, 1.0, RadialGrid(64))

    @settings(max_examples=20, deadline=None)
    @given(
        kappa=st.floats(3053.0, 20000.0),
        frac=st.floats(-1.0, 1.0),
        n=st.sampled_from([32, 64, 128, 256]),
    )
    def test_solve_properties(self, kappa, frac, n):
        model = make_builtin_model(kappa)
        box = build_parameter_box(model, 1.0)
        mu = frac * box.mu0
        grid = RadialGrid(n)
        lo = boundary_mismatch(model, box.brho_lower(mu), mu, 1.0, grid)
        hi = boundary_mismatch(model, box.brho_plus, mu, 1.0, grid)
        assert lo.value < 0.0 < hi.value
        sol = solve_separable(model, mu, 1.0, grid)
        assert abs(sol.f[-1] - 1.0) <= 1e-12
        assert np.all(sol.fprime > 0.0) and np.all(sol.lam > 0.0)
        assert abs(sol.boundary_residual) < TOL_BC

    def test_rejects_mu_beyond_range(self, model, box):
        with pytest.raises(ParameterOutOfRange, match="mu outside proven range"):
            solve_separable(model, 2 * box.mu0, 1.0, RadialGrid(64))

    def test_rejects_nan_mu(self, model, box):
        # abs(nan) > mu0 is False: the check must not let NaN through to the bracket
        with pytest.raises(ParameterOutOfRange, match="mu outside proven range"):
            box.check_mu(math.nan)
        with pytest.raises(ParameterOutOfRange, match="mu outside proven range"):
            solve_separable(model, math.nan, 1.0, RadialGrid(64))

    @pytest.mark.parametrize("kappa", [3100.0, 20000.0])
    @pytest.mark.parametrize("frac", [-0.9, 0.0, 0.9])
    def test_tighter_picard_tolerance_keeps_brho0(self, kappa, frac, monkeypatch):
        # fixed_point.TOL sits below what the brho0 search resolves
        model = make_builtin_model(kappa)
        mu = frac * build_parameter_box(model, 1.0).mu0
        grid = RadialGrid(64)
        brho0 = solve_separable(model, mu, 1.0, grid).brho0
        monkeypatch.setattr(fixed_point, "TOL", fixed_point.TOL / 100)
        assert solve_separable(model, mu, 1.0, grid).brho0 == brho0


class TestSweep:
    def test_single_mu_matches_solve(self, model):
        grid = RadialGrid(128)
        rows = sweep(model, 1.0, [0.0], grid)
        sol = solve_separable(model, 0.0, 1.0, grid)
        row = rows[0]
        assert isinstance(row, SolutionProfile)
        assert row.brho0 == sol.brho0
        assert row.y[-1] == sol.y[-1]
        assert row.fprime0 == sol.fprime0

    def test_empty(self, model):
        assert sweep(model, 1.0, [], RadialGrid(64)) == []

    def test_continuity_in_mu(self, model, box):
        grid = RadialGrid(128)
        mus = np.linspace(-box.mu0 / 2, box.mu0 / 2, 11)
        rows = sweep(model, 1.0, mus, grid)
        assert all(isinstance(r, SolutionProfile) for r in rows)
        brhos = np.array([r.brho0 for r in rows])
        jumps = np.abs(np.diff(brhos))
        assert np.max(jumps) <= 10 * np.mean(jumps)

    def test_row_error_capture(self, model, box):
        rows = sweep(model, 1.0, [0.0, 5 * box.mu0], RadialGrid(64))
        assert isinstance(rows[0], SolutionProfile)
        assert isinstance(rows[1], ParameterOutOfRange)

    def test_nan_row_error(self, model):
        rows = sweep(model, 1.0, [math.nan], RadialGrid(64))
        assert isinstance(rows[0], ParameterOutOfRange)
        assert str(rows[0]).startswith("mu outside proven range")

    def test_non_solver_error_propagates(self, model, monkeypatch):
        # Injected inside the batched round: any row with mu > 0 hits a bug.
        original = fixed_point.apply_F

        def broken(model_, brho, mu, *args):
            if np.any(np.asarray(mu) > 0):
                raise RuntimeError("bug in a row")
            return original(model_, brho, mu, *args)

        monkeypatch.setattr(fixed_point, "apply_F", broken)
        assert isinstance(sweep(model, 1.0, [0.0], RadialGrid(64))[0], SolutionProfile)
        with pytest.raises(RuntimeError, match="bug in a row"):
            sweep(model, 1.0, [0.0, 1e-4], RadialGrid(64))
