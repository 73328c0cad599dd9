"""Picard iteration for the curvature density of the spatial profile.

The profile equation is recast as z = Linv F[z] on the sup-norm ball of
radius delta = 10/g''(1), where

    F[z](R) = -(1/R**2) (f' - lambda) U(y) + V(lambda)/g''(y)

and (f, f', lambda, y) are rebuilt from z at every application.  Inside the
admissible (mu, brho) box the composition shrinks sup-distances by roughly
(7/5) (1/16 + K/400) < 0.126, so the ratio of successive updates is a live
health check and plain iteration from z = 0 converges in a dozen steps;
started from a nearby fixed point (a neighbouring brho) it needs fewer.
Every entry point checks (brho, mu) against build_parameter_box(model, G),
the box of the model and G it is given; no caller can substitute another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import ConstitutiveModel, K, V
from .errors import DomainExit, MaxIterExceeded, NotContracting
from .parameters import build_parameter_box
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
    brho: float,
    mu: float,
    G: float,
    grid: RadialGrid,
    zeta: np.ndarray,
) -> np.ndarray:
    """One application of F.  The first term uses the identity
    (f' - lambda)/R**2 = (1/R**3) int_0^R t**2 z dt, which is exact and
    cancellation-free; at R = 0 it vanishes because U(1) = 0.
    """
    geo = reconstruct_geometry(grid, zeta)
    delta = model.delta
    if np.max(np.abs(geo.y - 1.0)) > delta:
        raise DomainExit(
            f"strain ratio left the window |y-1| <= {delta:.3e} "
            f"(brho={brho:.6g}, mu={mu:.6g})"
        )
    r = grid.nodes
    d2g, big_e = model.strain_terms(geo.y)
    out = V(brho, mu, G, geo.lam) / d2g
    u = 2.0 * (geo.y[1:] - 1.0) + big_e[1:] / d2g[1:]  # U(y), window checked above
    out[1:] -= geo.moment2[1:] / r[1:] ** 3 * u
    return out


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
    update < tol.

    Raises ParameterOutOfRange if (brho, mu) lies outside the box of
    (model, G), NotContracting on two consecutive non-shrinking updates,
    MaxIterExceeded past the cap, DomainExit if an iterate leaves the ball.
    The model's validation is cached on it, so repeated calls are cheap.
    """
    build_parameter_box(model, G).check_brho(brho, mu)

    delta = model.delta
    diag = PicardDiagnostics(k_value=K(brho, mu, G))
    zeta = np.zeros(grid.n + 1) if zeta0 is None else np.asarray(zeta0, dtype=float)
    growth_streak = 0
    for _ in range(max_iter):
        nxt = apply_L_inverse(grid, apply_F(model, brho, mu, G, grid, zeta))
        update = float(np.max(np.abs(nxt - zeta)))
        if diag.updates and diag.updates[-1] > 0 and update > 0:
            ratio = update / diag.updates[-1]
            diag.ratios.append(ratio)
            if ratio >= 1.0:
                growth_streak += 1
                if growth_streak >= 2:
                    raise NotContracting(
                        f"updates grew twice in a row (last ratio {ratio:.3g})"
                    )
            else:
                growth_streak = 0
        diag.updates.append(update)
        diag.iterations += 1
        zeta = nxt
        norm = float(np.max(np.abs(zeta)))
        if norm > delta:
            raise DomainExit(
                f"iterate left the ball: ||z|| = {norm:.3e} > delta = {delta:.3e}"
            )
        if update < tol:
            break
    else:
        raise MaxIterExceeded(f"no convergence to {tol:g} in {max_iter} iterations")

    return zeta, diag


def lipschitz_probe(
    model: ConstitutiveModel,
    brho: float,
    mu: float,
    G: float,
    grid: RadialGrid,
    trials: int = 100,
    seed: int = 0,
) -> float:
    """Empirical Lipschitz constant of Linv F over random pairs in the ball.

    Node values are drawn i.i.d. uniform in [-delta, delta]; such profiles
    are rougher than actual iterates, which makes the estimate conservative.
    Coincident pairs (zero denominator) are skipped.
    """
    build_parameter_box(model, G).check_brho(brho, mu)

    delta = model.delta
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        z1 = rng.uniform(-delta, delta, grid.n + 1)
        z2 = rng.uniform(-delta, delta, grid.n + 1)
        gap = float(np.max(np.abs(z1 - z2)))
        if gap == 0.0:
            continue
        im1 = apply_L_inverse(grid, apply_F(model, brho, mu, G, grid, z1))
        im2 = apply_L_inverse(grid, apply_F(model, brho, mu, G, grid, z2))
        best = max(best, float(np.max(np.abs(im1 - im2))) / gap)
    return best
