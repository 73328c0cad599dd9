"""Acceptance criteria, one test per criterion.

Each test pins the advertised tolerance, asserts the stated runtime budget,
and prints a single PASS line with the measured numbers (run with -s to see
them on success).
"""

import math
import time

import numpy as np
import pytest
from kepler_oracles import rk4_amplitude
from operator_oracles import K, apply_L

from gravelast.cli import main
from gravelast.fixed_point import picard_solve
from gravelast.io import sha256_of
from gravelast.radial import (
    RadialGrid,
    apply_L_inverse,
    reconstruct_geometry,
    y_at_boundary,
)
from gravelast.shooting import boundary_mismatch, solve_separable
from gravelast.temporal import assemble_motion, collapse_time, evolve_q
from gravelast.verify import residual_report, stress_profiles

GRIDS = (128, 256, 512, 1024)


def test_operator_facts():
    t0 = time.perf_counter()
    grid = RadialGrid(512)
    inv_one = apply_L_inverse(grid, np.ones(513))
    dev = float(np.max(np.abs(inv_one - 0.6)))
    assert dev <= 1e-12

    eta = -1.0 + 2.0 * grid.nodes**200
    at_one = float(apply_L_inverse(grid, eta)[-1])
    assert 1.35 <= at_one <= 1.40

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS operator-facts: |Linv[1]-3/5|={dev:.2e}, "
          f"Linv(eta_200)(1)={at_one:.5f} ({elapsed:.2f}s < 1s)")


def test_monomial_eigen_action():
    t0 = time.perf_counter()
    errs = []
    for cells in GRIDS:
        grid = RadialGrid(cells)
        worst = 0.0
        for n in (1, 2, 3):
            exact = grid.nodes**n * (n + 5) / (n + 3)
            worst = max(worst, float(np.max(np.abs(apply_L(grid, grid.nodes**n) - exact))))
        errs.append(worst)
        assert worst <= 1.0 * grid.h**2
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(1.8 <= o <= 2.2 for o in orders)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS monomial-eigen-action: errs={['%.2e' % e for e in errs]}, "
          f"orders={['%.2f' % o for o in orders]} ({elapsed:.2f}s < 5s)")


@pytest.fixture(scope="module")
def bracket_runs(model, box, grid512):
    runs = []
    for mu in (-box.mu0 / 2, 0.0, box.mu0 / 2):
        for brho in np.linspace(box.brho_lower(mu), box.brho_plus, 5):
            zeta, diag = picard_solve(model, float(brho), mu, 1.0, grid512)
            runs.append((mu, float(brho), zeta, diag))
    return runs


def test_contraction(bracket_runs):
    t0 = time.perf_counter()
    worst_ratio, worst_iters = 0.0, 0
    for _, _, _, diag in bracket_runs:
        assert diag.updates[-1] <= 1e-13
        assert diag.iterations <= 25
        worst_iters = max(worst_iters, diag.iterations)
        if diag.ratios:
            worst_ratio = max(worst_ratio, max(diag.ratios))
    assert worst_ratio <= 0.13

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS contraction: 15 runs, max ratio={worst_ratio:.4f} <= 0.13, "
          f"max iters={worst_iters} <= 25 ({elapsed:.2f}s < 30s)")


def test_ball_and_pointwise_bounds(model, grid512, bracket_runs):
    t0 = time.perf_counter()
    delta = model.delta
    r2 = grid512.nodes**2
    for mu, brho, zeta, diag in bracket_runs:
        norm = float(np.max(np.abs(zeta)))
        assert norm <= (3.0 / 40.0 * K(brho, mu, 1.0) + 7.0 / 80.0) * delta
        geo = reconstruct_geometry(grid512, zeta)
        assert np.all(np.abs(geo.y - 1.0) <= r2 * delta + 1e-15)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS ball-and-pointwise-bounds: 15 fixed points inside "
          f"((3/40)K + 7/80)*delta and |y-1| <= R^2 delta ({elapsed:.2f}s)")


def test_bracketing(model, box, grid512):
    t0 = time.perf_counter()
    delta = model.delta
    for mu in (-box.mu0 / 2, 0.0, box.mu0 / 2):
        hi = boundary_mismatch(model, box.brho_plus, mu, 1.0, grid512)
        lo = boundary_mismatch(model, box.brho_lower(mu), mu, 1.0, grid512)
        assert lo.value < 0.0 < hi.value
        assert y_at_boundary(grid512, hi.zeta) - 1.0 > delta / 27
        assert y_at_boundary(grid512, lo.zeta) - 1.0 < delta / 33

    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    print(f"PASS bracketing: signs (-,+) and y(1) windows at both ends for "
          f"mu in {{-mu0/2, 0, +mu0/2}} ({elapsed:.2f}s < 20s)")


def test_full_solve(model, box, solution_mu0):
    t0 = time.perf_counter()
    sol = solution_mu0
    delta = model.delta
    assert abs(sol.boundary_residual) <= 1e-10
    assert delta / 33 <= sol.y[-1] - 1.0 <= delta / 27
    assert box.brho_lower(0.0) < sol.brho0 < box.brho_plus

    sol_fine = solve_separable(model, 0.0, 1.0, RadialGrid(1024))
    rel = abs(sol_fine.brho0 - sol.brho0) / sol.brho0
    assert rel <= 1e-4

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS full-solve: |g'(y(1))|={abs(sol.boundary_residual):.2e}, "
          f"y(1)-1={sol.y[-1] - 1:.4e} in [{delta / 33:.4e}, {delta / 27:.4e}], "
          f"brho0={sol.brho0:.8f}, refinement drift={rel:.2e} ({elapsed:.2f}s < 60s)")


def test_residual_verification(model):
    t0 = time.perf_counter()
    sups, gaps = [], []
    for cells in GRIDS:
        sol = solve_separable(model, 0.0, 1.0, RadialGrid(cells))
        rep = residual_report(sol)
        sups.append(rep.residual_separated)
        gaps.append(rep.equivalence_gap / (1.0 + rep.residual_separated))
    orders = [math.log2(sups[i] / sups[i + 1]) for i in range(len(sups) - 1)]
    assert all(1.8 <= o <= 2.2 for o in orders)
    assert all(g <= 1e-8 for g in gaps)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS residual-verification: sups={['%.2e' % s for s in sups]}, "
          f"orders={['%.2f' % o for o in orders]}, max equivalence gap="
          f"{max(gaps):.2e} <= 1e-8 ({elapsed:.2f}s < 60s)")


def test_temporal():
    t0 = time.perf_counter()
    # mu = 0: exact free motion
    free = evolve_q(0.0, 0.5, 2.0, 1e-2)
    assert free.q[-1] == 2.0

    # bound orbit: the closed form against the RK4 oracle at t = 10, dt = 1e-3
    rk_q, _ = rk4_amplitude(-0.001, 0.0, 10.0, 10_000)
    err_rk = abs(evolve_q(-0.001, 0.0, 10.0, 1e-3).q[-1] - rk_q)
    assert err_rk <= 1e-10

    # energy drift over [0, 10]
    drifts = []
    for mu, qdot0 in ((0.001, 0.0), (-0.001, 0.0)):
        sol = evolve_q(mu, qdot0, 10.0, 1e-3)
        drifts.append(sol.max_energy_drift / (1.0 + abs(sol.e_eff)))
        assert drifts[-1] <= 1e-8

    # collapse time, closed form case
    est = collapse_time(-0.0008, -0.04)
    rel_T = abs(est.time - 50.0 / 3.0) / (50.0 / 3.0)
    assert rel_T <= 1e-6

    # collapse exponent, e_eff < 0 case
    est_neg = collapse_time(-0.001, 0.0)
    assert abs(est_neg.exponent - 2.0 / 3.0) <= 1e-3

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS temporal: closed-vs-rk4={err_rk:.2e} <= 1e-10, "
          f"drift={max(drifts):.2e} <= 1e-8, T err={rel_T:.2e} <= 1e-6, "
          f"exponent={est_neg.exponent:.4f} within 1e-3 of 2/3 ({elapsed:.2f}s < 30s)")


def test_physics_bookkeeping(model, solution_mu0, reference_profile):
    t0 = time.perf_counter()
    temporal = evolve_q(0.0, 0.1, 2.0, 1e-2)
    expected_mass = 4.0 * math.pi / 3.0 * solution_mu0.brho0
    worst = 0.0
    for t in (0.0, 1.0, 2.0):
        snap = assemble_motion(solution_mu0, temporal, t)
        worst = max(worst, abs(snap.mass - expected_mass) / expected_mass)
    assert worst <= 1e-6

    c1, _ = stress_profiles(solution_mu0)
    scale = solution_mu0.brho0 ** (4.0 / 3.0)
    assert abs(c1[-1]) <= 1e-10 * scale

    # reference state: -c1 is the residual pressure brho^(4/3)/3
    ref_c1, _ = stress_profiles(reference_profile(brho=2.0))
    assert float(-ref_c1[0]) == pytest.approx(2.0 ** (4.0 / 3.0) / 3.0, rel=1e-14)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS physics-bookkeeping: mass drift={worst:.2e} <= 1e-6, "
          f"|c1(1)|/brho^(4/3)={abs(c1[-1]) / scale:.2e} ({elapsed:.2f}s < 10s)")


def test_reproducibility(tmp_path):
    t0 = time.perf_counter()
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["solve", "--model", "builtin:kappa=3100", "--mu", "0",
                     "--N", "256", "--out", str(out)])
        assert code == 0
        hashes.append(sha256_of(out / "profile.csv"))
    assert hashes[0] == hashes[1]

    elapsed = time.perf_counter() - t0
    print(f"PASS reproducibility: identical profile hashes "
          f"{hashes[0][:16]}... ({elapsed:.2f}s)")
