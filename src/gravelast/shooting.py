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
arithmetic as a search of its own, so it equals solve_separable, the
batch of one, bit for bit; a SolverError ends only its own row.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator
from dataclasses import dataclass

import numpy as np

from .constitutive import FOUR_PI_3, ConstitutiveModel, V
from .errors import BracketFailure, SolverError
from .fixed_point import DEFAULT_TOL, PicardDiagnostics, picard_rows, picard_solve
from .parameters import ParameterBox, build_parameter_box, check_tolerance
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
    tol: float = DEFAULT_TOL,
    zeta0: np.ndarray | None = None,
) -> MismatchResult:
    """g'(y(1)) at the fixed point for (brho, mu), from one picard_solve
    (which checks the pair against the box of (model, G)) started at zeta0."""
    zeta, diag = picard_solve(model, brho, mu, G, grid, tol=tol, zeta0=zeta0)
    value = float(model.dg(y_at_boundary(grid, zeta)))
    return MismatchResult(value=value, zeta=zeta, diagnostics=diag)


def brent_steps(
    a: float,
    b: float,
    fa: float,
    fb: float,
    xtol: float,
    ftol: float,
    max_evals: int,
) -> Generator[float, float, tuple[float, int]]:
    """Brent's method on a bracket [a, b] with fa, fb of opposite signs, one
    trial at a time: yields each trial x and takes fn(x) back by send().

    Returns (x, evaluations of fn).  Stops once |fn(x)| < ftol, once the
    bracket around the sign change is narrower than xtol (plus a few ulps
    of x), or after max_evals evaluations.  x is the bracket end with the
    smaller |fn|.
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

    def __init__(self, mu, G, lo, hi, res_lo, res_hi, tol_bc, tol_brho):
        self.mu, self.G, self.lo, self.hi = mu, G, lo, hi
        self.w_lo, self.w_hi = V(lo, mu, G, 1.0), V(hi, mu, G, 1.0)
        self.brho0, self.best = min((lo, res_lo), (hi, res_hi), key=lambda pair: abs(pair[1].value))
        # dw/dbrho at brho_plus converts the brho width into a w width
        dw_hi = (2.0 * FOUR_PI_3 * G * hi - mu) / (3.0 * hi ** (4.0 / 3.0))
        self._steps = brent_steps(
            self.w_lo, self.w_hi, res_lo.value, res_hi.value,
            xtol=tol_brho * hi * dw_hi, ftol=tol_bc, max_evals=MAX_ROOT_EVALUATIONS - 2,
        )
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


def _check_tolerances(tol_bc: float, tol_brho: float, tol_picard: float) -> None:
    for name, value in (("tol_bc", tol_bc), ("tol_brho", tol_brho), ("tol_picard", tol_picard)):
        check_tolerance(value, name)


def _find_roots(
    mus: list[float],
    G: float,
    box: ParameterBox,
    tol_bc: float,
    tol_brho: float,
    evaluate: Callable[..., list[MismatchResult | SolverError]],
) -> list[_Search | SolverError]:
    """brho0 for every mu by Brent searches run in lockstep.

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
            out[i] = searches[i] = _Search(mus[i], G, lo, hi, res_lo, res_hi, tol_bc, tol_brho)
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


def solve_separable(
    model: ConstitutiveModel,
    mu: float,
    G: float,
    grid: RadialGrid,
    tol_bc: float = DEFAULT_TOL_BC,
    tol_brho: float = DEFAULT_TOL_BRHO,
    tol_picard: float = DEFAULT_TOL,
    box: ParameterBox | None = None,
) -> SolutionProfile:
    """Find brho0(mu) with |g'(y(1))| < tol_bc and assemble the profile.

    Brent's method runs on the forcing scale w = V(brho, mu, G, 1) between
    the images of the bracket ends brho_lower(mu) and brho_plus; each trial
    w maps back to brho through _brho_from_w.  If the boundary tolerance is
    not hit first, the search stops once the final bracket is narrower than
    tol_brho * brho_plus in brho.  Brent sees that width in w, converted as
    tol_brho * brho_plus * dw/dbrho at brho_plus: for mu <= 0 dw/dbrho
    decreases along the bracket, so that w width is no wider in brho
    anywhere; for mu > 0 the same holds wherever dw/dbrho is at least its
    value at brho_plus, that is everywhere but below about
    1.043 brho_minus(mu), where dw/dbrho falls to 0.  The box is
    build_parameter_box(model, G); a box passed in must equal it, else
    ValueError.  Every Picard run after the two bracket ends starts from
    the fixed point of the best bracket point so far.  A tolerance that is
    not finite and >= 0 raises ValueError.

    This is the one-row case of the lockstep search of sweep; each of its
    evaluations is one boundary_mismatch call.
    """
    _check_tolerances(tol_bc, tol_brho, tol_picard)
    derived = build_parameter_box(model, G)
    if box is not None and box != derived:
        raise ValueError(f"{box} is not the box of (model, G = {G:g}): {derived}")

    def evaluate(brho, mus, zeta0):
        results = []
        for k, (b, m) in enumerate(zip(brho, mus)):
            try:
                results.append(boundary_mismatch(
                    model, b, m, G, grid, tol=tol_picard,
                    zeta0=None if zeta0 is None else zeta0[k],
                ))
            except SolverError as exc:
                results.append(exc)
        return results

    (root,) = _find_roots([mu], G, derived, tol_bc, tol_brho, evaluate)
    if isinstance(root, SolverError):
        raise root
    best = root.best
    geo = reconstruct_geometry(grid, best.zeta)
    return SolutionProfile(
        model=model,
        mu=mu,
        brho0=root.brho0,
        G=G,
        grid=grid,
        zeta=best.zeta,
        f=geo.f,
        fprime=geo.fprime,
        lam=geo.lam,
        y=geo.y,
        boundary_residual=best.value,
        diagnostics=best.diagnostics,
        root_evaluations=root.evaluations,
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


def _mismatch_rows(
    model: ConstitutiveModel,
    brho: list[float],
    mu: list[float],
    G: float,
    grid: RadialGrid,
    box: ParameterBox,
    tol: float,
    zeta0: list[np.ndarray] | None,
) -> list[MismatchResult | SolverError]:
    """boundary_mismatch for every row from one picard_rows run."""
    zeta, diags, errors = picard_rows(model, brho, mu, G, grid, box, tol, zeta0)
    ok = [i for i, exc in enumerate(errors) if exc is None]
    results: list[MismatchResult | SolverError] = list(errors)
    y1s = y_at_boundary(grid, np.array([zeta[i] for i in ok])).tolist() if ok else []
    for i, y1 in zip(ok, y1s):
        results[i] = MismatchResult(value=float(model.dg(y1)), zeta=zeta[i], diagnostics=diags[i])
    return results


def sweep(
    model: ConstitutiveModel,
    G: float,
    mu_values,
    grid: RadialGrid,
    tol_bc: float = DEFAULT_TOL_BC,
    tol_brho: float = DEFAULT_TOL_BRHO,
    tol_picard: float = DEFAULT_TOL,
) -> list[SweepRow]:
    """Solve every mu, in input order, as one lockstep batch.

    Each round of the root searches is one picard_rows run over the rows
    still searching, so a row equals solve_separable at its mu bit for bit.
    A row that meets a SolverError records the error and the other rows go
    on; any other exception is a bug and propagates.  A tolerance that is
    not finite and >= 0 raises ValueError before any row.
    """
    _check_tolerances(tol_bc, tol_brho, tol_picard)
    box = build_parameter_box(model, G)  # a bad model or G aborts before any row
    mus = [float(mu) for mu in mu_values]

    def evaluate(brho, mus, zeta0):
        return _mismatch_rows(model, brho, mus, G, grid, box, tol_picard, zeta0)

    roots = _find_roots(mus, G, box, tol_bc, tol_brho, evaluate)
    found = [i for i, root in enumerate(roots) if isinstance(root, _Search)]
    geo_errors: list[SolverError | None] = [None] * len(found)
    zeta = np.array([roots[i].best.zeta for i in found]).reshape(len(found), grid.n + 1)
    geo = reconstruct_geometry(grid, zeta, geo_errors)
    for k, i in enumerate(found):
        root = roots[i]
        roots[i] = geo_errors[k] or SweepRow(
            mu=mus[i],
            brho0=root.brho0,
            y1=float(geo.y[k, -1]),
            fprime0=float(geo.fprime[k, 0]),
            zeta_norm=float(np.max(np.abs(zeta[k]))),
            iterations=root.best.diagnostics.iterations,
            bc_residual=root.best.value,
        )
    # a failed row is data, not an abort
    return [SweepRow(mu=mu, error=f"{type(row).__name__}: {row}")
            if isinstance(row, SolverError) else row for mu, row in zip(mus, roots)]
