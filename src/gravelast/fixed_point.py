"""Picard iteration for the curvature density of the spatial profile.

The profile equation is recast as z = Linv F[z] on the sup-norm ball of
radius delta = 10/g''(1), where

    F[z](R) = -(1/R**2) (f' - lambda) U(y) + V(lambda)/g''(y)

and (f, f', lambda, y) are rebuilt from z at every application.  Inside the
admissible (mu, brho) box the composition shrinks sup-distances by roughly
(7/5) (1/16 + K/400) < 0.126, so the ratio of successive updates is a live
health check and plain iteration from z = 0 converges in a dozen steps;
started from a nearby fixed point (a neighbouring brho) it needs fewer.
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

from .constitutive import ConstitutiveModel, K, V
from .errors import DomainExit, MaxIterExceeded, NotContracting, SolverError, fail_row
from .parameters import ParameterBox, build_parameter_box
from .radial import RadialGrid, apply_L_inverse, reconstruct_geometry

DEFAULT_TOL = 1e-13
DEFAULT_MAX_ITER = 60


@dataclass
class PicardDiagnostics:
    """Convergence record of one fixed-point run."""

    iterations: int = 0
    updates: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    k_value: float = 0.0


def apply_F(
    model: ConstitutiveModel,
    brho,
    mu,
    G: float,
    grid: RadialGrid,
    zeta: np.ndarray,
    errors: list | None = None,
) -> np.ndarray:
    """One application of F.  The first term uses the identity
    (f' - lambda)/R**2 = (1/R**3) int_0^R t**2 z dt, which is exact and
    cancellation-free; at R = 0 it vanishes because U(1) = 0.

    zeta is one profile with scalar brho and mu, or a (rows, N+1) stack with
    one brho and one mu per row; both shapes take the same path, brho and mu
    becoming columns along the last axis.  A row whose geometry degenerates
    or whose strain ratio leaves the window raises; given errors, one slot
    per row, its SolverError goes into that slot instead and its output row
    is meaningless.
    """
    brho, mu = np.asarray(brho, dtype=float)[..., None], np.asarray(mu, dtype=float)[..., None]
    geo = reconstruct_geometry(grid, zeta, errors)
    delta = model.delta
    strain = np.abs(geo.y - 1.0)
    if strain.max() > delta:
        for row in np.flatnonzero(strain.max(axis=-1) > delta):
            if errors is None or errors[row] is None:  # a degenerate row keeps that error
                fail_row(errors, row, DomainExit(
                    f"strain ratio left the window |y-1| <= {delta:.3e} "
                    f"(brho={brho.flat[row]:.6g}, mu={mu.flat[row]:.6g})"
                ))
    y = geo.y
    failed = [e is not None for e in errors or ()]
    if any(failed):  # a failed row goes on at y = 1, where U and g'' are finite
        y = np.where(np.reshape(failed, y.shape[:-1] + (1,)), 1.0, y)
    d2g, big_e = model.strain_terms(y)
    out = V(brho, mu, G, geo.lam) / d2g
    u = 2.0 * (y[..., 1:] - 1.0) + big_e[..., 1:] / d2g[..., 1:]  # U(y), window checked above
    out[..., 1:] -= geo.moment2[..., 1:] / grid.interior_powers[3] * u
    return out


def picard_rows(
    model: ConstitutiveModel,
    brho: list[float],
    mu: list[float],
    G: float,
    grid: RadialGrid,
    box: ParameterBox,
    tol: float,
    max_iter: int,
    zeta0: list[np.ndarray] | None,
) -> tuple[list[np.ndarray], list[PicardDiagnostics | None], list[SolverError | None]]:
    """The Picard kernel: one run per row (brho[i], mu[i]), all in lockstep.

    Each step applies Linv F to the stack of the rows still running; a row
    leaves the stack when its update drops below tol or when it fails.
    Row i returns zeta[i] and its diagnostics, or its SolverError in
    errors[i], with the checks and messages of picard_solve; one failing
    row never stops the others.  zeta0 holds one start per row (None:
    z = 0).  box must be build_parameter_box(model, G).
    """
    rows = len(brho)
    errors: list[SolverError | None] = [None] * rows
    diags: list[PicardDiagnostics | None] = [None] * rows
    for i in range(rows):
        try:
            box.check_brho(brho[i], mu[i])
        except SolverError as exc:
            errors[i] = exc
        else:
            diags[i] = PicardDiagnostics(k_value=K(brho[i], mu[i], G))
    if zeta0 is None:
        zeta = [np.zeros(grid.n + 1)] * rows
    else:
        zeta = [np.asarray(z, dtype=float) for z in zeta0]

    delta = model.delta
    growth_streak = [0] * rows
    active = [i for i in range(rows) if errors[i] is None]
    for _ in range(max_iter):
        if not active:
            break
        step_errors: list[SolverError | None] = [None] * len(active)
        z = np.array([zeta[i] for i in active])
        nxt = apply_L_inverse(grid, apply_F(
            model, [brho[i] for i in active], [mu[i] for i in active], G, grid, z, step_errors
        ))
        updates = np.abs(nxt - z).max(axis=-1).tolist()
        norms = np.abs(nxt).max(axis=-1).tolist()
        running = []
        for i, row, exc, update, norm in zip(active, nxt, step_errors, updates, norms):
            zeta[i] = row
            diag = diags[i]
            if exc is None and diag.updates and diag.updates[-1] > 0 and update > 0:
                ratio = update / diag.updates[-1]
                diag.ratios.append(ratio)
                if ratio >= 1.0:
                    growth_streak[i] += 1
                    if growth_streak[i] >= 2:
                        exc = NotContracting(
                            f"updates grew twice in a row (last ratio {ratio:.3g})"
                        )
                else:
                    growth_streak[i] = 0
            if exc is None:
                diag.updates.append(update)
                diag.iterations += 1
                if norm > delta:
                    exc = DomainExit(
                        f"iterate left the ball: ||z|| = {norm:.3e} > delta = {delta:.3e}"
                    )
            if exc is not None:
                errors[i] = exc
            elif not update < tol:  # a NaN update runs on into the finiteness check
                running.append(i)
        active = running
    for i in active:
        errors[i] = MaxIterExceeded(f"no convergence to {tol:g} in {max_iter} iterations")
    return zeta, diags, errors


def picard_solve(
    model: ConstitutiveModel,
    brho: float,
    mu: float,
    G: float,
    grid: RadialGrid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    zeta0: np.ndarray | None = None,
) -> tuple[np.ndarray, PicardDiagnostics]:
    """Iterate z <- Linv F[z] from zeta0 (default z = 0) until the sup-norm
    update < tol: the one-row case of picard_rows.

    Raises ParameterOutOfRange if (brho, mu) lies outside the box of
    (model, G), NotContracting on two consecutive non-shrinking updates,
    MaxIterExceeded past the cap, DomainExit if an iterate leaves the ball.
    The model's validation is cached on it, so repeated calls are cheap.
    """
    box = build_parameter_box(model, G)
    zeta, (diag,), (error,) = picard_rows(
        model, [brho], [mu], G, grid, box, tol, max_iter, None if zeta0 is None else [zeta0]
    )
    if error is not None:
        raise error
    return zeta[0], diag
