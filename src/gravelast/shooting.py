"""Root search for the stress-free boundary, in the forcing scale w.

For fixed mu the fixed point z(brho, mu) exists on the whole bracket
[brho_lower, brho_plus] and the boundary mismatch brho -> g'(y(1)) is
negative at the lower end and positive at the upper end, so a sign-change
search lands on a root brho0(mu) with g'(y(1)) = 0.  The search is Brent's
method (Brent, Algorithms for Minimization without Derivatives, 1973):
secant and inverse quadratic interpolation steps on the smooth mismatch,
safeguarded by bisection so the bracket always shrinks around a sign
change.  Monotonicity of the mismatch is not guaranteed; the search
returns one root.

The mismatch is concave in brho, which costs Brent several bisection-like
steps.  The search variable is therefore the forcing scale

    w(brho) = brho**(-1/3) ((4 pi/3) G brho + mu),

which is V at lam = 1, the scale that drives F; against w the mismatch is
nearly linear.  w increases on the bracket for every admissible mu,
because the bracket starts at brho_minus(mu), where dw/dbrho = 0 for
mu > 0.  Each trial w maps back to brho = u**3 through the upper root u of
the cubic (4 pi/3) G u**3 - w u + mu = 0 (_brho_from_w).

sweep runs one search per mu in lockstep (_find_roots): brent_steps yields
each row's trials one at a time, and each round evaluates the trials of
all rows still searching in one picard_rows run.  A row sees the same
arithmetic as a search of its own, so it is the SolutionProfile of
solve_separable, the batch of one, bit for bit; a SolverError ends only
its own row.  Both assemble their profiles in _profiles and differ only in
how a round is evaluated.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator
from dataclasses import dataclass

import numpy as np

from .constitutive import FOUR_PI_3, ConstitutiveModel, V
from .errors import BracketFailure, SolverError
from .fixed_point import PicardDiagnostics, picard_rows, picard_solve
from .parameters import ParameterBox, build_parameter_box
from .radial import RadialGrid, reconstruct_geometry, y_at_boundary

# Read at call time; a search stops once |g'(y(1))| < max(TOL_BC, g''(1) eps/2).
# 1e-11 or 0 costs some solves a mismatch evaluation, 1e-9 leaves 1.3e-10 at kappa = 1e6.
TOL_BC = 1e-10
# Cap on the mismatch evaluations of one solve, the two bracket ends included.
MAX_ROOT_EVALUATIONS = 200

_EPS = np.finfo(float).eps


@dataclass
class MismatchResult:
    """Boundary mismatch g'(y(1)) together with the fixed point behind it."""

    value: float
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


def boundary_mismatch(
    model: ConstitutiveModel,
    brho: float,
    mu: float,
    G: float,
    grid: RadialGrid,
    zeta0: np.ndarray | None = None,
) -> MismatchResult:
    """g'(y(1)) at the fixed point for (brho, mu), from one picard_solve
    (which checks the pair against the box of (model, G)) started at zeta0."""
    zeta, diag = picard_solve(model, brho, mu, G, grid, zeta0=zeta0)
    value = float(model.dg(y_at_boundary(grid, zeta)))
    return MismatchResult(value=value, zeta=zeta, diagnostics=diag)


def brent_steps(
    a: float,
    b: float,
    fa: float,
    fb: float,
    ftol: float,
    max_evals: int,
) -> Generator[float, float, tuple[float, int]]:
    """Brent's method on a bracket [a, b] with fa, fb of opposite signs, one
    trial at a time: yields each trial x and takes fn(x) back by send().

    Returns (x, evaluations of fn).  Stops once |fn(x)| < ftol, once the
    bracket around the sign change is a few ulps of x wide, or after
    max_evals evaluations.  x is the bracket end with the smaller |fn|.
    """
    if not fa * fb < 0.0:
        raise ValueError("brent_steps needs a sign change between the bracket ends")
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
        tol1 = 2.0 * _EPS * abs(b)
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
        fb = yield b
        evals += 1


def _brho_from_w(
    w: float, mu: float, G: float, lo: float, hi: float, w_lo: float, w_hi: float
) -> float:
    """Inverse of the forcing scale w = V(brho, mu, G, 1) on the bracket
    [lo, hi] = [brho_lower(mu), brho_plus]: brho = u**3 for the root
    u >= lo**(1/3) of

        c(u) = (4 pi/3) G u**3 - w u + mu = u (w(u**3) - w).

    For mu > 0 the cubic has two positive roots, one on each side of
    brho_minus(mu)**(1/3), where dw/dbrho = 0; the bracket is the upper
    branch.  c is convex for u > 0 and c(hi**(1/3)) >= 0, so Newton steps
    from hi**(1/3) decrease monotonically onto the largest root below it,
    the upper one; the loop ends when c, the slope or the step stops being
    positive.
    w at or beyond the value of an end (w_lo = V(lo, mu, G, 1), w_hi =
    V(hi, mu, G, 1)) returns that end exactly, and the result is clamped to
    [lo, hi], so rounding never leaves the bracket.
    """
    if w <= w_lo:
        return lo
    if w >= w_hi:
        return hi
    a = FOUR_PI_3 * G
    u = hi ** (1.0 / 3.0)
    while True:
        c = (a * u * u - w) * u + mu
        slope = 3.0 * a * u * u - w
        if not (c > 0.0 and slope > 0.0):  # a NaN ends the loop too
            break
        nxt = u - c / slope
        if nxt >= u:
            break
        u = nxt
    return min(max(u**3, lo), hi)


class _Search:
    """One row's Brent search in w, advanced a trial at a time.

    brho0 and best are the bracket point with the smallest |mismatch| so
    far; trial is the brho awaiting evaluation, None once the search ended.
    """

    def __init__(self, mu, G, lo, hi, res_lo, res_hi, ftol):
        self.mu, self.G, self.lo, self.hi = mu, G, lo, hi
        self.w_lo, self.w_hi = V(lo, mu, G, 1.0), V(hi, mu, G, 1.0)
        self.brho0, self.best = min((lo, res_lo), (hi, res_hi), key=lambda pair: abs(pair[1].value))
        self._steps = brent_steps(self.w_lo, self.w_hi, res_lo.value, res_hi.value,
                                  ftol=ftol, max_evals=MAX_ROOT_EVALUATIONS - 2)
        self.evaluations = 2
        self._advance(None)

    def _advance(self, value: float | None) -> None:
        try:
            w = self._steps.send(value)
        except StopIteration as stop:
            self.evaluations += stop.value[1]
            self.trial = None
        else:
            self.trial = _brho_from_w(w, self.mu, self.G, self.lo, self.hi, self.w_lo, self.w_hi)

    def record(self, res: MismatchResult) -> None:
        if abs(res.value) < abs(self.best.value):
            self.brho0, self.best = self.trial, res
        self._advance(res.value)


def _find_roots(
    model: ConstitutiveModel,
    mus: list[float],
    G: float,
    box: ParameterBox,
    evaluate: Callable[..., list[MismatchResult | SolverError]],
) -> list[_Search | SolverError]:
    """brho0 for every mu by Brent searches run in lockstep, each stopping
    once |g'(y(1))| < max(TOL_BC, g''(1) eps/2), the rounding floor of the
    mismatch (see solve_separable).

    evaluate(brho, mu, zeta0) is one round: lists with one entry per row in
    (zeta0 None: every run starts from z = 0), a MismatchResult or the
    row's SolverError per row out.  The first round evaluates both bracket
    ends of every row from z = 0; each later round evaluates the pending
    trial of every row still searching, started from the fixed point of
    that row's own best bracket point.  So each row makes the evaluations a
    search of its own would make.  A row ends as its finished search or as
    its SolverError: mu outside the box, BracketFailure, or the first
    failed evaluation.
    """
    out: list[_Search | SolverError | None] = [None] * len(mus)
    rows = []
    for i, mu in enumerate(mus):
        try:
            box.check_mu(mu)
        except SolverError as exc:
            out[i] = exc
        else:
            rows.append(i)
    ftol = max(TOL_BC, 0.5 * model.validation.g2_at_1 * _EPS)
    hi = box.brho_plus
    lows = [box.brho_lower(mus[i]) for i in rows]
    ends = evaluate(lows + [hi] * len(rows), [mus[i] for i in rows] * 2, None)
    searches = {}
    for i, lo, res_lo, res_hi in zip(rows, lows, ends, ends[len(rows):]):
        if isinstance(res_lo, SolverError) or isinstance(res_hi, SolverError):
            out[i] = res_lo if isinstance(res_lo, SolverError) else res_hi
        elif not (res_lo.value < 0.0 < res_hi.value):
            out[i] = BracketFailure(
                f"mismatch signs at bracket ends are ({res_lo.value:+.3e}, "
                f"{res_hi.value:+.3e}); expected (-, +)"
            )
        else:
            out[i] = searches[i] = _Search(mus[i], G, lo, hi, res_lo, res_hi, ftol)
    while pending := [(i, s) for i, s in searches.items() if s.trial is not None]:
        results = evaluate(
            [s.trial for _, s in pending], [s.mu for _, s in pending],
            [s.best.zeta for _, s in pending],
        )
        for (i, search), res in zip(pending, results):
            if isinstance(res, SolverError):
                out[i] = res
                del searches[i]
            else:
                search.record(res)
    return out


def _profiles(
    model: ConstitutiveModel,
    mus: list[float],
    G: float,
    grid: RadialGrid,
    roots: list[_Search | SolverError],
) -> list[SolutionProfile | SolverError]:
    """roots with each finished search replaced, in place, by its profile,
    from one reconstruct_geometry call on the stack of their best fixed
    points; a SolverError stays."""
    found = [i for i, root in enumerate(roots) if isinstance(root, _Search)]
    zeta = np.array([roots[i].best.zeta for i in found]).reshape(len(found), grid.n + 1)
    geo = reconstruct_geometry(grid, zeta)  # converged iterates lie in the ball
    for k, i in enumerate(found):
        root = roots[i]
        roots[i] = SolutionProfile(
            model=model,
            mu=mus[i],
            brho0=root.brho0,
            G=G,
            grid=grid,
            zeta=zeta[k],
            f=geo.f[k],
            fprime=geo.fprime[k],
            lam=geo.lam[k],
            y=geo.y[k],
            boundary_residual=root.best.value,
            diagnostics=root.best.diagnostics,
            root_evaluations=root.evaluations,
        )
    return roots


def solve_separable(
    model: ConstitutiveModel,
    mu: float,
    G: float,
    grid: RadialGrid,
    box: ParameterBox | None = None,
) -> SolutionProfile:
    """Find brho0(mu), where g'(y(1)) = 0, and assemble the profile.

    Brent's method runs on the forcing scale w = V(brho, mu, G, 1) between
    the images of the bracket ends brho_lower(mu) and brho_plus; each trial
    w maps back to brho through _brho_from_w.  The search stops once
    |g'(y(1))| < max(TOL_BC, g''(1) eps/2), once Brent's bracket is a few
    ulps of w wide, or at MAX_ROOT_EVALUATIONS.  g''(1) eps/2 is half a
    step of the mismatch in floats: the root y* of g' lies in (1, 1 + delta),
    where consecutive floats are eps apart, so g'(y(1)) moves in steps of
    about g''(1) eps, and the float nearest y* leaves up to half of one.
    A tolerance below that floor cannot be met by a closer brho, only by a
    lucky step, and would spend evaluations on the plateaus of that
    staircase.  The box is build_parameter_box(model, G); a box passed in
    must equal it, else ValueError.  Every Picard run after the two bracket
    ends starts from the fixed point of the best bracket point so far.

    This is the one-row case of the lockstep search of sweep; each of its
    evaluations is one boundary_mismatch call.
    """
    derived = build_parameter_box(model, G)
    if box is not None and box != derived:
        raise ValueError(f"{box} is not the box of (model, G = {G:g}): {derived}")

    def evaluate(brho, mus, zeta0):
        results = []
        for b, m, z0 in zip(brho, mus, zeta0 or [None] * len(brho)):
            try:
                results.append(boundary_mismatch(model, b, m, G, grid, zeta0=z0))
            except SolverError as exc:
                results.append(exc)
        return results

    roots = _find_roots(model, [mu], G, derived, evaluate)
    (sol,) = _profiles(model, [mu], G, grid, roots)
    if isinstance(sol, SolverError):
        raise sol
    return sol


def sweep(
    model: ConstitutiveModel,
    G: float,
    mu_values,
    grid: RadialGrid,
) -> list[SolutionProfile | SolverError]:
    """Solve every mu, in input order, as one lockstep batch.

    Each round of the root searches is one picard_rows run over the rows
    still searching, so a row is the SolutionProfile that solve_separable
    returns at its mu, bit for bit, or the SolverError it raises.  A failed
    row is data: the other rows go on.  Any other exception is a bug and
    propagates.
    """
    box = build_parameter_box(model, G)  # a bad model or G aborts before any row
    mus = [float(mu) for mu in mu_values]

    def evaluate(brho, mus, zeta0):  # boundary_mismatch of every row from one picard_rows run
        zeta, rows = picard_rows(model, brho, mus, G, grid, box, zeta0)
        ok = [i for i, row in enumerate(rows) if isinstance(row, PicardDiagnostics)]
        for i, y1 in zip(ok, y_at_boundary(grid, zeta[ok]).tolist()):
            rows[i] = MismatchResult(value=float(model.dg(y1)), zeta=zeta[i], diagnostics=rows[i])
        return rows

    roots = _find_roots(model, mus, G, box, evaluate)
    return _profiles(model, mus, G, grid, roots)
