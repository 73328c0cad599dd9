"""Stacked rows equal their one-row computations bit for bit.

The sweep solves its rows in lockstep: every radial function, apply_F and
the Picard kernel take a (rows, N+1) stack, and each round of the root
searches is one batched Picard run. Each test here compares a stacked
result with the 1-D call or the single solve of every row, with ==, and
checks that one row's SolverError stays that row's. The kernel keeps every
stack in the Picard ball, so rows fail only in picard_rows; the radial
functions and apply_F raise for the whole call on a bad input.
"""

import math

import numpy as np
import pytest

from gravelast import fixed_point, parameters, shooting
from gravelast.errors import DegenerateGeometry, DomainExit, SolverError
from gravelast.fixed_point import apply_F, picard_rows, picard_solve
from gravelast.radial import (
    RadialGrid,
    apply_L_inverse,
    moment_integral,
    reconstruct_geometry,
    y_at_boundary,
)
from gravelast.shooting import SolutionProfile, solve_separable, sweep
from gravelast.verify import verdict

N = 64


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(N)


@pytest.fixture(scope="module")
def stack(model, box, grid):
    """Fixed points at 32 seeded (brho, mu) pairs, each perturbed by seeded
    noise; enough rows that a cube root in V rounding a stacked brho unlike
    a scalar one would show."""
    rng = np.random.default_rng(12)
    mus = [-box.mu0, box.mu0, *rng.uniform(-box.mu0, box.mu0, 30)]
    brhos = [float(rng.uniform(box.brho_lower(mu), box.brho_plus)) for mu in mus]
    rows = [picard_solve(model, b, m, 1.0, grid)[0] for b, m in zip(brhos, mus)]
    zeta = np.array(rows) * (1.0 + 1e-3 * rng.standard_normal((len(rows), N + 1)))
    return brhos, [float(m) for m in mus], zeta


def error_text(exc):
    return f"{type(exc).__name__}: {exc}"


class TestStackedRadial:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_moment_integral(self, grid, stack, p):
        zeta = stack[2]
        out = moment_integral(grid, zeta, p)
        for i, row in enumerate(zeta):
            assert np.array_equal(out[i], moment_integral(grid, row, p))

    def test_apply_L_inverse(self, grid, stack):
        zeta = stack[2]
        out = apply_L_inverse(grid, zeta)
        for i, row in enumerate(zeta):
            assert np.array_equal(out[i], apply_L_inverse(grid, row))

    def test_reconstruct_geometry(self, grid, stack):
        zeta = stack[2]
        geo = reconstruct_geometry(grid, zeta)
        for i, row in enumerate(zeta):
            one = reconstruct_geometry(grid, row)
            for name in ("f", "fprime", "lam", "y", "moment2"):
                assert np.array_equal(getattr(geo, name)[i], getattr(one, name)), name

    def test_y_at_boundary(self, grid, stack):
        zeta = stack[2]
        assert y_at_boundary(grid, zeta).tolist() == [y_at_boundary(grid, row) for row in zeta]

    def test_rejects_other_shapes(self, grid):
        with pytest.raises(ValueError):
            moment_integral(grid, np.zeros((2, 3, N + 1)), 2)
        with pytest.raises(ValueError):
            moment_integral(grid, np.zeros((2, N)), 2)

    def test_degenerate_row_is_that_rows_error(self, grid, stack):
        # The stack raises the error of its degenerate row; without that row it stands.
        zeta = stack[2].copy()
        zeta[1] = -20.0
        with pytest.raises(DegenerateGeometry):
            reconstruct_geometry(grid, zeta[1])
        with pytest.raises(DegenerateGeometry):
            reconstruct_geometry(grid, zeta)
        reconstruct_geometry(grid, np.delete(zeta, 1, axis=0))

    def test_nonfinite_row_raises(self, grid, stack):
        zeta = stack[2].copy()
        zeta[2, 5] = math.nan
        with pytest.raises(ValueError, match="finite"):
            reconstruct_geometry(grid, zeta)


class TestStackedApplyF:
    def test_rows_equal_one_row_calls(self, model, grid, stack):
        brhos, mus, zeta = stack
        out = apply_F(model, brhos, mus, 1.0, grid, zeta)
        for i, row in enumerate(zeta):
            assert np.array_equal(out[i], apply_F(model, brhos[i], mus[i], 1.0, grid, row))

    def test_failing_rows_are_their_own_errors(self, model, grid, stack):
        brhos, mus, zeta = stack
        zeta = zeta.copy()
        zeta[3] = 4 * model.delta  # strain ratio outside the window
        with pytest.raises(DomainExit) as one:
            apply_F(model, brhos[3], mus[3], 1.0, grid, zeta[3])
        with pytest.raises(DomainExit) as stacked:
            apply_F(model, brhos, mus, 1.0, grid, zeta)
        # the stacked message names row 3's (brho, mu)
        assert f"brho={brhos[3]:.6g}, mu={mus[3]:.6g}" in str(one.value)
        assert error_text(stacked.value) == error_text(one.value)
        zeta[1] = -20.0  # degenerate geometry, found before the window
        with pytest.raises(DegenerateGeometry):
            apply_F(model, brhos, mus, 1.0, grid, zeta)


class TestPicardRows:
    def test_rows_equal_picard_solve(self, model, box, grid, stack):
        brhos, mus, zeta = stack
        # Row 0 starts outside the ball, row 1 outside the bracket.
        brhos = [brhos[0], 10 * box.brho_plus, *brhos[2:]]
        starts = [np.full(N + 1, 4 * model.delta), *zeta[1:]]
        rows, outcomes = picard_rows(model, brhos, mus, 1.0, grid, box, starts)
        for i, (b, m, z0) in enumerate(zip(brhos, mus, starts)):
            try:
                one, diag = picard_solve(model, b, m, 1.0, grid, zeta0=z0)
            except SolverError as exc:
                assert error_text(outcomes[i]) == error_text(exc)
                continue
            assert np.array_equal(rows[i], one)
            assert outcomes[i] == diag
        failed = [isinstance(o, SolverError) for o in outcomes]
        assert failed == [True, True] + [False] * (len(brhos) - 2)


def solve_rows(model, mus, grid):
    """What sweep returns for each mu, from one solve_separable per mu."""
    out = []
    for mu in mus:
        try:
            out.append(solve_separable(model, mu, 1.0, grid))
        except SolverError as exc:
            out.append(exc)
    return out


def assert_same_rows(got, want):
    """Each row is the same whole profile, or a SolverError of the same type and message."""
    assert len(got) == len(want)
    for i, (row, ref) in enumerate(zip(got, want)):
        if isinstance(ref, SolverError):
            assert type(row) is type(ref) and str(row) == str(ref), i
            continue
        assert isinstance(row, SolutionProfile), i
        for name in ("zeta", "f", "fprime", "lam", "y"):
            assert np.array_equal(getattr(row, name), getattr(ref, name)), (i, name)
        for name in ("brho0", "boundary_residual", "diagnostics", "root_evaluations", "mu", "G"):
            assert getattr(row, name) == getattr(ref, name), (i, name)
        assert row.model is ref.model and row.grid == ref.grid, i


@pytest.fixture(scope="module")
def seeded_mus(box):
    rng = np.random.default_rng(7)
    return [box.mu0, -box.mu0, 3 * box.mu0, math.nan, *rng.uniform(-box.mu0, box.mu0, 6)]


class TestLockstepSweep:
    def test_rows_equal_single_solves(self, model, grid, seeded_mus):
        got = sweep(model, 1.0, seeded_mus, grid)
        assert_same_rows(got, solve_rows(model, seeded_mus, grid))
        failed = [isinstance(row, SolverError) for row in got]
        assert failed == [False, False, True, True] + [False] * 6

    def test_solved_rows_pass_verify(self, model, grid, seeded_mus):
        # Every solved row passes verify's verdict.
        rows = [row for row in sweep(model, 1.0, seeded_mus, grid)
                if isinstance(row, SolutionProfile)]
        assert len(rows) == 8
        for row in rows:
            text, ok = verdict(row)
            assert ok, text

    def test_rows_make_their_own_evaluations(self, model, grid, seeded_mus, monkeypatch):
        # Each row's trials and Picard updates, round by round, are those of
        # its single solve: the updates show where each Picard run started.
        solved = seeded_mus[:2] + seeded_mus[4:]
        in_sweep, in_solves = {mu: [] for mu in solved}, {mu: [] for mu in solved}
        rows_kernel, solve_kernel = shooting.picard_rows, shooting.picard_solve

        def record_rows(model_, brho, mu, *args):
            zeta, outcomes = rows_kernel(model_, brho, mu, *args)
            for b, m, diag in zip(brho, mu, outcomes):
                in_sweep[m].append((b, diag.updates))
            return zeta, outcomes

        def record_solve(model_, brho, mu, *args, **kwargs):
            zeta, diag = solve_kernel(model_, brho, mu, *args, **kwargs)
            in_solves[mu].append((brho, diag.updates))
            return zeta, diag

        monkeypatch.setattr(shooting, "picard_rows", record_rows)
        monkeypatch.setattr(shooting, "picard_solve", record_solve)
        sweep(model, 1.0, seeded_mus, grid)
        solve_rows(model, seeded_mus, grid)
        assert in_sweep == in_solves
        assert all(len(evals) > 2 for evals in in_sweep.values())

    def test_injected_error_stays_in_its_row(self, model, box, grid, seeded_mus, monkeypatch):
        # One row's iterate is pushed out of the ball: that row fails, the others stand.
        clean = sweep(model, 1.0, seeded_mus, grid)
        original = fixed_point.apply_F
        seen = []

        def record(model_, brho, mu, *args):
            seen.extend(zip(np.atleast_1d(brho).tolist(), np.atleast_1d(mu).tolist()))
            return original(model_, brho, mu, *args)

        monkeypatch.setattr(fixed_point, "apply_F", record)
        sweep(model, 1.0, seeded_mus, grid)
        # A Brent trial of row 5, not a bracket end: only row 5 evaluates it.
        row, mu = 5, seeded_mus[5]
        ends = (box.brho_lower(mu), box.brho_plus)
        target = next(b for b, m in seen if m == mu and b not in ends)

        def inject(model_, brho, mu, G, grid_, zeta):
            out = original(model_, brho, mu, G, grid_, zeta)
            for k, b in enumerate(np.atleast_1d(brho).tolist()):
                if b == target:
                    out[k] = 10 * model.delta  # Linv maps it to 6 delta
            return out

        monkeypatch.setattr(fixed_point, "apply_F", inject)
        got = sweep(model, 1.0, seeded_mus, grid)
        assert error_text(got[row]) == (
            f"DomainExit: iterate left the ball: ||z|| = {6 * model.delta:.3e}"
            f" > delta = {model.delta:.3e}")
        assert_same_rows(got[:row] + got[row + 1:], clean[:row] + clean[row + 1:])

    def test_builds_the_box_once(self, model, grid, box, monkeypatch):
        calls = []
        original = parameters.build_parameter_box

        def counted(*args):
            calls.append(1)
            return original(*args)

        for module in (parameters, fixed_point, shooting):
            monkeypatch.setattr(module, "build_parameter_box", counted)
        rows = sweep(model, 1.0, np.linspace(-box.mu0, box.mu0, 9), grid)
        assert all(isinstance(row, SolutionProfile) for row in rows)
        assert len(calls) == 1

    def test_no_solve_per_row(self, model, grid, box, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sweep solved a row on its own")

        for name in ("solve_separable", "boundary_mismatch", "picard_solve"):
            monkeypatch.setattr(shooting, name, forbidden)
        monkeypatch.setattr(fixed_point, "picard_solve", forbidden)
        rows = sweep(model, 1.0, [0.0, box.mu0 / 2], grid)
        assert all(isinstance(row, SolutionProfile) for row in rows)


def test_every_kernel_step_gets_a_stack(model, box, grid, monkeypatch):
    # A lone row is a stack of one: no step of the Picard kernel hands
    # apply_F a 1-D profile, for picard_solve or for a single solve.
    original = fixed_point.apply_F
    ndims = []

    def record(model_, brho, mu, G, grid_, zeta, *args):
        ndims.append(np.ndim(zeta))
        return original(model_, brho, mu, G, grid_, zeta, *args)

    monkeypatch.setattr(fixed_point, "apply_F", record)
    mu = 0.3 * box.mu0
    picard_solve(model, 0.5 * box.brho_plus, mu, 1.0, grid)
    from_picard = len(ndims)
    solve_separable(model, mu, 1.0, grid)
    assert from_picard > 0 and len(ndims) > from_picard
    assert set(ndims) == {2}
