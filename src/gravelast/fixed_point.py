"""Picard iteration for the curvature density of the spatial profile.

The profile equation is recast as z = Linv F[z] on the sup-norm ball of
radius delta = 10/g''(1), where

    F[z](R) = -(1/R**2) (f' - lambda) U(y) + V(lambda)/g''(y)

and (f, f', lambda, y) are rebuilt from z at every application.  Inside the
admissible (mu, brho) box the composition shrinks sup-distances by roughly
(7/5) (1/16 + K/400) < 0.126, so the ratio of successive updates is a live
health check; plain iteration from z = 0 took 2 to 4 steps over the box for
kappa = 3100 and 20000, the ratio at most 3.2e-4 (at brho_plus, kappa 3100).
A run's record is its update history: PicardDiagnostics keeps the sup-norm
updates and derives the step count and the ratios from them.
The ball is the kernel's invariant: the moment weights are nonnegative and
sum to int t**p, so ||z|| <= delta gives f' >= 1 - 4 delta/3, lambda >=
1 - 5 delta/3 and |y - 1| <= delta/(3 (1 - 5 delta/3)) < delta (validation
forces delta <= 0.004).  picard_rows checks each start against the ball and
drops each iterate that leaves it, so no stack reaching apply_F degenerates
or leaves the strain window.
picard_solve checks (brho, mu) against build_parameter_box(model, G), the
box of the model and G it is given; no caller can substitute another.  It
is the one-row case of picard_rows, the kernel that iterates a stack of
rows in lockstep and takes that box from the lockstep sweep, which builds
it once.  A lone row is a stack of one: every step makes one apply_F call
on a (rows, N+1) stack, whatever the number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import ConstitutiveModel, V
from .errors import DomainExit, MaxIterExceeded, NotContracting, SolverError
from .parameters import ParameterBox, build_parameter_box
from .radial import RadialGrid, apply_L_inverse, reconstruct_geometry

# Read at call time; TOL / 100 leaves every brho0 the same, bit for bit.
TOL = 1e-13  # a run stops once its sup-norm update is below this
MAX_ITER = 60  # cap on the Picard steps of one run


@dataclass
class PicardDiagnostics:
    """Convergence record of one fixed-point run: its sup-norm updates."""

    updates: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.updates)

    @property
    def ratios(self) -> list[float]:
        """Each update over the one before it, where both are positive."""
        u = self.updates
        return [b / a for a, b in zip(u, u[1:]) if a > 0 and b > 0]


def apply_F(
    model: ConstitutiveModel, brho, mu, G: float, grid: RadialGrid, zeta: np.ndarray
) -> np.ndarray:
    """One application of F.  The first term uses the identity
    (f' - lambda)/R**2 = (1/R**3) int_0^R t**2 z dt, which is exact and
    cancellation-free; at R = 0 it vanishes because U(1) = 0.

    zeta is one profile with scalar brho and mu, or a (rows, N+1) stack with
    one brho and one mu per row; both shapes take the same path, brho and mu
    becoming columns along the last axis.  Outside the ball, where
    picard_rows never calls it, zeta may degenerate (DegenerateGeometry) or
    leave the strain window (DomainExit naming that row's brho and mu);
    either raises for the whole call.
    """
    brho, mu = np.asarray(brho, dtype=float)[..., None], np.asarray(mu, dtype=float)[..., None]
    geo = reconstruct_geometry(grid, zeta)
    delta = model.delta
    strain = np.abs(geo.y - 1.0)
    if strain.max() > delta:
        row = np.flatnonzero(strain.max(axis=-1) > delta)[0]
        raise DomainExit(
            f"strain ratio left the window |y-1| <= {delta:.3e} "
            f"(brho={brho.flat[row]:.6g}, mu={mu.flat[row]:.6g})"
        )
    d2g = model.d2g(geo.y)
    out = V(brho, mu, G, geo.lam) / d2g
    y = geo.y[..., 1:]
    u = 2.0 * (y - 1.0) + model.E(y) / d2g[..., 1:]  # U(y), window checked above
    out[..., 1:] -= geo.moment2[..., 1:] / grid.interior_powers[3] * u
    return out


def picard_rows(
    model: ConstitutiveModel,
    brho: list[float],
    mu: list[float],
    G: float,
    grid: RadialGrid,
    box: ParameterBox,
    zeta0: list[np.ndarray] | None,
) -> tuple[np.ndarray, list[PicardDiagnostics | SolverError]]:
    """The Picard kernel: one run per row (brho[i], mu[i]), all in lockstep.

    Each step applies Linv F to the rows of the (rows, N+1) array zeta still
    running; a row leaves when its update drops below TOL or when it fails.
    Returns (zeta, outcomes): row i ends as zeta[i] with its diagnostics in
    outcomes[i], or as the SolverError in outcomes[i], with the checks and
    messages of picard_solve; one failing row never stops the others.  A
    row outside the box or starting outside the ball fails before any step,
    so every stack apply_F sees lies in the ball.  zeta0 holds one start per
    row (None: z = 0).  box must be build_parameter_box(model, G).
    """
    brho, mu = np.array(brho, dtype=float), np.array(mu, dtype=float)
    zeta = np.zeros((len(brho), grid.n + 1)) if zeta0 is None else np.array(zeta0, dtype=float)
    delta = model.delta
    outcomes: list[PicardDiagnostics | SolverError] = []
    starts = np.abs(zeta).max(axis=-1).tolist()
    for b, m, norm in zip(brho.tolist(), mu.tolist(), starts):
        try:
            box.check_brho(b, m)
        except SolverError as exc:
            outcomes.append(exc)
            continue
        if norm > delta:  # a NaN start runs on into the finiteness check
            outcomes.append(DomainExit(
                f"start outside the ball: ||z0|| = {norm:.3e} > delta = {delta:.3e}"
            ))
        else:
            outcomes.append(PicardDiagnostics())

    active = [i for i, o in enumerate(outcomes) if isinstance(o, PicardDiagnostics)]
    for _ in range(MAX_ITER):
        if not active:
            break
        z = zeta[active]
        nxt = apply_L_inverse(grid, apply_F(model, brho[active], mu[active], G, grid, z))
        zeta[active] = nxt
        updates = np.abs(nxt - z).max(axis=-1).tolist()
        norms = np.abs(nxt).max(axis=-1).tolist()
        running = []
        for i, update, norm in zip(active, updates, norms):
            u = outcomes[i].updates
            u.append(update)
            # A growth (u[-1]/u[-2] >= 1) ends the run if the ratio before it grew too; that
            # one skips zero updates (TOL = 0 only), so ratios is built on a growth alone.
            grew = len(u) > 1 and 0.0 < u[-2] <= u[-1]
            if grew and len(r := outcomes[i].ratios) > 1 and r[-2] >= 1.0:
                outcomes[i] = NotContracting("updates grew twice in a row "
                                             f"(last ratio {u[-1] / u[-2]:.3g})")
            elif norm > delta:
                outcomes[i] = DomainExit(
                    f"iterate left the ball: ||z|| = {norm:.3e} > delta = {delta:.3e}"
                )
            elif not update < TOL:  # a NaN update runs on into the finiteness check
                running.append(i)
        active = running
    for i in active:
        outcomes[i] = MaxIterExceeded(f"no convergence to {TOL:g} in {MAX_ITER} iterations")
    return zeta, outcomes


def picard_solve(
    model: ConstitutiveModel,
    brho: float,
    mu: float,
    G: float,
    grid: RadialGrid,
    zeta0: np.ndarray | None = None,
) -> tuple[np.ndarray, PicardDiagnostics]:
    """Iterate z <- Linv F[z] from zeta0 (default z = 0) until the sup-norm
    update < TOL: the one-row case of picard_rows.

    Raises ParameterOutOfRange if (brho, mu) lies outside the box of
    (model, G), NotContracting on two consecutive non-shrinking updates,
    MaxIterExceeded past MAX_ITER, DomainExit if the start lies outside the
    ball or an iterate leaves it.
    The model's validation is cached on it, so repeated calls are cheap.
    """
    box = build_parameter_box(model, G)
    zeta, (outcome,) = picard_rows(
        model, [brho], [mu], G, grid, box, None if zeta0 is None else [zeta0]
    )
    if isinstance(outcome, SolverError):
        raise outcome
    return zeta[0], outcome
