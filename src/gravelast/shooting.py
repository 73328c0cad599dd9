"""Root search in the reference density for the stress-free boundary.

For fixed mu the fixed point z(brho, mu) exists on the whole bracket
[brho_lower, brho_plus] and the boundary mismatch brho -> g'(y(1)) is
negative at the lower end and positive at the upper end, so a sign-change
search lands on a root brho0(mu) with g'(y(1)) = 0.  The search is Brent's
method (Brent, Algorithms for Minimization without Derivatives, 1973):
secant and inverse quadratic interpolation steps on the smooth mismatch,
safeguarded by bisection so the bracket always shrinks around a sign
change.  Monotonicity of the mismatch is not guaranteed; the search
returns one root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constitutive import ConstitutiveModel
from .errors import BracketFailure, SolverError
from .fixed_point import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    PicardDiagnostics,
    picard_solve,
)
from .parameters import ParameterBox, build_parameter_box
from .radial import RadialGrid, reconstruct_geometry, y_at_boundary

DEFAULT_TOL_BC = 1e-10
DEFAULT_TOL_BRHO = 1e-12
# Cap on the mismatch evaluations of one solve, the two bracket ends included.
MAX_ROOT_EVALUATIONS = 200

_EPS = np.finfo(float).eps


@dataclass
class MismatchResult:
    """Boundary mismatch g'(y(1)) together with the fixed point behind it."""

    value: float
    y1: float
    zeta: np.ndarray
    diagnostics: PicardDiagnostics


@dataclass
class SolutionProfile:
    """Converged separable spatial profile and its diagnostics."""

    model: ConstitutiveModel
    mu: float
    brho0: float
    G: float
    grid: RadialGrid
    zeta: np.ndarray
    f: np.ndarray
    fprime: np.ndarray
    lam: np.ndarray
    y: np.ndarray
    boundary_residual: float
    # Picard record of the returned bracket point; None for a profile
    # loaded from disk, which carries no solver history.
    diagnostics: PicardDiagnostics | None
    # Mismatch evaluations of the root search, the two bracket ends included.
    root_evaluations: int

    @property
    def fprime0(self) -> float:
        return float(self.fprime[0])

    @property
    def box(self) -> ParameterBox:
        return build_parameter_box(self.model, self.G)

    def residual_report(self):
        from .verify import residual_report

        return residual_report(self.model, self)


def boundary_mismatch(
    model: ConstitutiveModel,
    brho: float,
    mu: float,
    G: float,
    grid: RadialGrid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    zeta0: np.ndarray | None = None,
) -> MismatchResult:
    """g'(y(1)) at the fixed point for (brho, mu), from one picard_solve
    (which checks the pair against the box of (model, G)) started at zeta0."""
    zeta, diag = picard_solve(model, brho, mu, G, grid, tol=tol, max_iter=max_iter, zeta0=zeta0)
    y1 = y_at_boundary(grid, zeta)
    return MismatchResult(value=float(model.dg(y1)), y1=y1, zeta=zeta, diagnostics=diag)


def brent_root(
    fn: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fb: float,
    xtol: float,
    ftol: float,
    max_evals: int,
) -> tuple[float, int]:
    """Brent's method on a bracket [a, b] with fa, fb of opposite signs.

    Returns (x, evaluations of fn).  Stops once |fn(x)| < ftol, once the
    bracket around the sign change is narrower than xtol (plus a few ulps
    of x), or after max_evals evaluations.  x is the bracket end with the
    smaller |fn|.
    """
    if not fa * fb < 0.0:
        raise ValueError("brent_root needs a sign change between the bracket ends")
    # b: current iterate; c: the other end of the bracket; a: previous b.
    c, fc = a, fa
    d = e = b - a
    evals = 0
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(fb) < ftol or abs(m) <= tol1 or evals >= max_evals:
            return b, evals
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * m * s
                q = 1.0 - s
            else:  # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # Accept the interpolation only if it lands well inside the
            # bracket and shrinks faster than the step before last.
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = fn(b)
        evals += 1


def solve_separable(
    model: ConstitutiveModel,
    mu: float,
    G: float = 1.0,
    grid: RadialGrid | None = None,
    tol_bc: float = DEFAULT_TOL_BC,
    tol_brho: float = DEFAULT_TOL_BRHO,
    tol_picard: float = DEFAULT_TOL,
    box: ParameterBox | None = None,
) -> SolutionProfile:
    """Find brho0(mu) with |g'(y(1))| < tol_bc and assemble the profile.

    tol_brho is relative to brho_plus and bounds the final bracket width if
    the boundary tolerance is not hit first.  The box is
    build_parameter_box(model, G); a box passed in must equal it, else
    ValueError.  Every Picard run after the two bracket ends starts from
    the fixed point of the best bracket point so far.
    """
    if grid is None:
        grid = RadialGrid(512)
    derived = build_parameter_box(model, G)
    if box is not None and box != derived:
        raise ValueError(f"{box} is not the box of (model, G = {G:g}): {derived}")
    box = derived
    box.check_mu(mu)

    def evaluate(brho: float, zeta0: np.ndarray | None = None) -> MismatchResult:
        return boundary_mismatch(model, brho, mu, G, grid, tol=tol_picard, zeta0=zeta0)

    lo = box.brho_lower(mu)
    hi = box.brho_plus
    res_lo = evaluate(lo)
    res_hi = evaluate(hi)
    if not (res_lo.value < 0.0 < res_hi.value):
        raise BracketFailure(
            f"mismatch signs at bracket ends are ({res_lo.value:+.3e}, "
            f"{res_hi.value:+.3e}); expected (-, +)"
        )

    best_brho, best = min((lo, res_lo), (hi, res_hi), key=lambda pair: abs(pair[1].value))

    def mismatch(brho: float) -> float:
        nonlocal best_brho, best
        res = evaluate(brho, best.zeta)
        if abs(res.value) < abs(best.value):
            best_brho, best = brho, res
        return res.value

    _, evals = brent_root(
        mismatch, lo, hi, res_lo.value, res_hi.value,
        xtol=tol_brho * box.brho_plus, ftol=tol_bc, max_evals=MAX_ROOT_EVALUATIONS - 2,
    )

    geo = reconstruct_geometry(grid, best.zeta)
    return SolutionProfile(
        model=model,
        mu=mu,
        brho0=best_brho,
        G=G,
        grid=grid,
        zeta=best.zeta,
        f=geo.f,
        fprime=geo.fprime,
        lam=geo.lam,
        y=geo.y,
        boundary_residual=best.value,
        diagnostics=best.diagnostics,
        root_evaluations=2 + evals,
    )


@dataclass
class SweepRow:
    mu: float
    brho0: float = math.nan
    y1: float = math.nan
    fprime0: float = math.nan
    zeta_norm: float = math.nan
    iterations: int = 0
    bc_residual: float = math.nan
    error: str | None = None


def sweep(
    model: ConstitutiveModel,
    G: float,
    mu_values,
    grid: RadialGrid | None = None,
    tol_bc: float = DEFAULT_TOL_BC,
    tol_brho: float = DEFAULT_TOL_BRHO,
    tol_picard: float = DEFAULT_TOL,
) -> list[SweepRow]:
    """One solve per mu, in input order.

    A row whose solve raises a SolverError records the error and the sweep
    goes on; any other exception is a bug and propagates.
    """
    if grid is None:
        grid = RadialGrid(512)
    build_parameter_box(model, G)  # a bad model or G aborts before any row

    def run(mu: float) -> SweepRow:
        try:
            sol = solve_separable(
                model, mu, G, grid, tol_bc=tol_bc, tol_brho=tol_brho, tol_picard=tol_picard
            )
        except SolverError as exc:  # a failed row is data, not an abort
            return SweepRow(mu=mu, error=f"{type(exc).__name__}: {exc}")
        return SweepRow(
            mu=mu,
            brho0=sol.brho0,
            y1=float(sol.y[-1]),
            fprime0=sol.fprime0,
            zeta_norm=float(np.max(np.abs(sol.zeta))),
            iterations=sol.diagnostics.iterations,
            bc_residual=sol.boundary_residual,
        )

    return [run(float(mu)) for mu in mu_values]
