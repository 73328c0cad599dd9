"""Amplitude dynamics q**2 qddot = mu, q(0) = 1, qdot(0) = qdot0, in closed form.

This is the radial Kepler problem (Battin, An Introduction to the Mathematics
and Methods of Astrodynamics, radial orbits). The energy E = qdot**2/2 + mu/q
is conserved at e_eff = qdot0**2/2 + mu, and every trajectory is one branch
of a conic, parametrised by an anomaly x with A = |mu|/(2|e_eff|) and the
clock unit k = sqrt(A**3/|mu|):

* mu = 0 (to 1e-300): free linear motion, q = 1 + qdot0 t;
* e_eff = 0 (to 1e-14): the self-similar q = (1 + 1.5 qdot0 t)**(2/3);
* mu < 0, e_eff < 0: q = A(1 - cos x) = 2A sin(x/2)**2, t = k(x - sin x) + c;
* mu < 0, e_eff > 0: q = A(cosh x - 1) = 2A sinh(x/2)**2, t = k(sinh x - x) + c;
* mu > 0:            q = A(cosh x + 1) = 2A cosh(x/2)**2, t = k(sinh x + x) + c.

A time sample is found by Newton's method on Kepler's equation, vectorised
over the samples and safeguarded by a bracket. Newton starts from a closed
form of the root per branch, a fitted polynomial in a smooth function of the
clock, or a short fixed-point refinement at large clocks, within 1e-5
relative of the root. Convergence is quadratic, so a sample stops after its
first Newton step of at most STOP_REL = 1e-8 relative, two steps from the
starter, and a residual check certifies every returned anomaly to
KEPLER_RTOL. Each sample stops iterating on its own, so its value does not
depend on the other samples evaluated with it.
evolve_q evaluates its samples in blocks of SAMPLE_BLOCK and evaluates none
past the block that holds its stop. q = eps inverts to x with no iteration, so
collapse times, threshold passages and rates are closed forms. _orbit decides
a start's branch once, with its e_eff, regime tag and collapse clock, and
every public function reads that decision.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import KeplerNotConverged, NotCollapsing, OutOfRange
from .radial import moment_integral
from .shooting import SolutionProfile

E_EFF_ZERO_TOL = 1e-14
# Below this |mu| the motion is free: gravity moves q by about |mu| t**2/2,
# lost to rounding for any t under 1e142, while the conic's clock t/k and
# scale A leave the float range.
MU_FREE = 1e-300
Q_MIN_STOP = 1e-6  # evolve_q stops before the first sample with q below this
NEWTON_MAX_ITER = 60  # Newton needs two steps from a starter; the cap bounds bisection
KEPLER_RTOL = 1e-12
# A sample stops after a Newton step that moves it by at most this, relative:
# convergence is quadratic, so its error is then of order STOP_REL**2.
STOP_REL = 1e-8
# Below this anomaly x - sin x and sinh x - x are summed from their Taylor
# series: the direct differences lose every digit as x -> 0 (near-parabolic
# orbits and samples near collapse).
SERIES_CUTOFF = 1.0
# (sinh x - x) / (x**3/6) = sum_j c_j x**(2j), c_j = 3!/(2j + 3)!; ten terms
# reach roundoff for |x| <= 1. Highest power first, for Horner's rule.
_SERIES = np.array([6.0 / math.factorial(2 * j + 3) for j in range(10)])[::-1]

# evolve_q evaluates its samples in blocks of this many. A block's
# temporaries are 64 KiB of float64, below glibc's 128 KiB mmap threshold,
# so the heap reuses them; at 30,001 samples each temporary is a fresh mmap
# whose pages fault in on first touch (2,072 minor faults per evaluation of
# a bound orbit, against 96 per block of 8192).
SAMPLE_BLOCK = 8192

# Newton's start on each branch: x0 = v P(v**2), P interpolating the root's
# x/v at Chebyshev nodes of v**2, within 1e-5 relative of the root over the
# branch's whole domain. scripts/kepler_starters.py fits these (highest power
# first) to mpmath roots and checks them. x - sin x = y: v = cbrt(6y) on all
# of [0, pi]. sinh x - x = y: v = asinh(cbrt(6y)) below _UNBOUND_FIT_MAX, and
# above it two steps of x <- asinh(y + x). sinh x + x = y: v = asinh(y/2)
# below _REPULSIVE_FIT_MAX, and above it two steps of x <- asinh(y - x).
_UNBOUND_FIT_MAX = 200.0
_REPULSIVE_FIT_MAX = 60.0
_START_BOUND = (
    1.3795836991698573e-07,
    -1.6103542396497257e-06,
    1.2761662551783257e-05,
    1.1511067954061868e-05,
    0.0007495504354116874,
    0.01665058785562893,
    1.0000011687077262,
)
_START_UNBOUND = (
    -6.333251051615312e-09,
    3.020335444440495e-07,
    -5.806135485778072e-06,
    5.322487273602226e-05,
    -0.0001613049720091677,
    -0.0008439983540293169,
    0.000535992798752899,
    0.1500603525925125,
    0.999996539928543,
)
_START_REPULSIVE = (
    7.977245639042485e-14,
    -8.948192401070489e-12,
    4.4645897203882204e-10,
    -1.305417883937108e-08,
    2.478332952401295e-07,
    -3.1898853214575483e-06,
    2.8005315053373405e-05,
    -0.00016025722558616321,
    0.00047097748830370034,
    0.0008351848334266067,
    -0.0167284968872551,
    0.08335619441239578,
    0.9999988239374281,
)

REGIME_LINEAR = "linear-expanding"
REGIME_SELF_SIMILAR = "self-similar-expanding"
REGIME_STATIONARY = "stationary"
REGIME_COLLAPSING = "collapsing"


def e_effective(mu: float, qdot0: float) -> float:
    """qdot0**2/2 + mu, correctly rounded.

    Near-parabolic starts cancel the two terms, and the collapse time of a
    long bound orbit, T ~ |e_eff|**-1.5, needs e_eff to the last bit.
    """
    return float(Fraction(qdot0) ** 2 / 2 + Fraction(mu))


def classify(mu: float, qdot0: float) -> str:
    """Regime tag of the branch _orbit evaluates the trajectory on. Free and
    parabolic starts expand, collapse or stay at q = 1 by the sign of qdot0; the
    others collapse if e_eff < 0, or mu < 0 with qdot0 < 0, else expand linearly."""
    return _orbit(mu, qdot0).regime


@dataclass
class TemporalSolution:
    mu: float
    qdot0: float
    e_eff: float
    regime: str
    t: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    energy_drift: np.ndarray
    max_energy_drift: float
    stopped_early: bool


def _horner(coefs, w):
    """sum_j coefs[j] w**(n - j), in place: the same floats as np.polyval."""
    s = np.full_like(w, coefs[0])
    for c in coefs[1:]:
        s *= w
        s += c
    return s


def _piecewise(mask, inside, outside, *arrays):
    """inside(*arrays) where mask holds, outside(*arrays) elsewhere.

    Each sample is computed by one function only, on the samples it gets;
    when every sample falls on one side, the arrays pass whole and the
    other function is not called.
    """
    if mask.all():
        return inside(*arrays)
    if not mask.any():
        return outside(*arrays)
    out = np.empty(mask.shape)
    out[mask] = inside(*(a[mask] for a in arrays))
    rest = ~mask
    out[rest] = outside(*(a[rest] for a in arrays))
    return out


def _series_split(x, series_sign: float, direct):
    """x**3/6 * sum_j c_j (series_sign x**2)**j below SERIES_CUTOFF, direct(x) above."""
    x = np.asarray(x, dtype=float)

    def series(xs):
        return xs**3 / 6 * _horner(_SERIES, series_sign * xs * xs)
    return _piecewise(x < SERIES_CUTOFF, series, direct, x)


def _x_minus_sin(x):
    return _series_split(x, -1.0, lambda b: b - np.sin(b))


def _sinh_minus_x(x):
    return _series_split(x, 1.0, lambda b: np.sinh(b) - b)


def _bound_start(y):
    """(hi, x0) for x - sin x = y on [0, pi]: x**3/6 >= x - sin x >= x**3/12
    bounds the root by hi = min(cbrt(12y), pi), and x0 is its starter."""
    s = np.cbrt(6.0 * y)
    return np.minimum(2.0 ** (1.0 / 3.0) * s, math.pi), s * _horner(_START_BOUND, s * s)


def _unbound_start(y):
    """(hi, x0) for sinh x - x = y: sinh x - x >= x**3/6 bounds the root by
    cbrt(6y), so sinh x = y + x by hi = min(cbrt(6y), asinh(y + cbrt(6y)))."""
    cube = np.cbrt(6.0 * y)
    hi = np.minimum(cube, np.arcsinh(y + cube))

    def fitted(y, cube, hi):
        u = np.arcsinh(cube)
        return u * _horner(_START_UNBOUND, u * u)

    def refined(y, cube, hi):  # x <- asinh(y + x) contracts by about 1/y
        return np.arcsinh(y + np.arcsinh(y + hi))
    return hi, _piecewise(y < _UNBOUND_FIT_MAX, fitted, refined, y, cube, hi)


def _repulsive_start(y):
    """(hi, x0) for sinh x + x = y: hi = min(asinh(y), y/2) bounds the root."""
    hi = np.minimum(np.arcsinh(y), 0.5 * y)

    def fitted(y, hi):
        u = np.arcsinh(0.5 * y)
        return u * _horner(_START_REPULSIVE, u * u)

    def refined(y, hi):  # x <- asinh(y - x) contracts by about 1/y
        return np.arcsinh(y - np.arcsinh(y - hi))
    return hi, _piecewise(y < _REPULSIVE_FIT_MAX, fitted, refined, y, hi)


def _kepler_invert(S, dS, y: np.ndarray, hi: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """The x in [0, hi] with S(x) = y, for S increasing and convex, S(0) = 0.

    Newton's method starts from x0, a starter that reads only the sample's y,
    clipped into the bracket [0, hi]; a step that leaves the bracket bisects
    it instead. Each sample stops on its own, after the first Newton step
    that moves it by at most STOP_REL relative, or at S(x) = y exactly; a
    bisection never stops a sample. Only samples still moving are iterated,
    so a sample's x depends on nothing but its own y, hi and x0, whatever
    other samples are passed with it. From the starters' 1e-5, quadratic
    convergence stops a sample after two steps, and the residual check
    certifies the last one: KeplerNotConverged is raised unless the Kepler
    equation holds to KEPLER_RTOL at every returned x.
    """
    shape = y.shape
    y, hi = y.ravel(), hi.ravel()
    x_out = np.empty_like(y)
    # the samples still moving: their indices, iterates, brackets and clocks
    idx, x, lo, ya = np.arange(y.size), np.clip(x0.ravel(), 0.0, hi), np.zeros_like(y), y
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            f = S(x) - ya
            lo = np.where(f < 0, x, lo)
            hi = np.where(f > 0, x, hi)
            x_new = x - f / dS(x)
            newton = (x_new >= lo) & (x_new <= hi)
            x_new = np.where(newton, x_new, 0.5 * (lo + hi))
            done = (newton & (np.abs(x_new - x) <= STOP_REL * x_new)) | (f == 0)
            x = x_new
            if done.all():
                break
            if done.any():
                x_out[idx[done]] = x[done]
                moving = ~done
                idx, x, lo, hi, ya = idx[moving], x[moving], lo[moving], hi[moving], ya[moving]
        x_out[idx] = x
        excess = np.abs(S(x_out) - y) - KEPLER_RTOL * y
    if not np.all(excess <= 0):  # NaN too: a clock beyond the float range
        raise KeplerNotConverged(
            f"Kepler equation residual exceeds {KEPLER_RTOL:g} * clock by "
            f"{float(np.max(excess)):.3e} after {NEWTON_MAX_ITER} Newton steps"
        )
    return x_out.reshape(shape)


@dataclass(frozen=True)
class _Orbit:
    """A start's branch as _orbit decides it: e_eff, the regime tag, t -> (q, qdot)
    (q = 0 at and past collapse) and, if collapsing, q -> (T, T - t at the last
    passage through q) and the (exponent, prefactor) of q ~ prefactor (T - t)**exponent."""

    e: float
    regime: str
    amplitude: Callable
    to_collapse: Callable | None = None
    law: tuple[float, float] | None = None


def _orbit(mu: float, qdot0: float) -> _Orbit:
    """The branch of (mu, qdot0), its constants and e_eff, each decided here once.
    ValueError unless e_eff is finite and a conic's A, v and k are normal floats
    (parameters.check_G's test): past that range they cannot carry the orbit."""
    try:
        e = e_effective(mu, qdot0)
    except (OverflowError, ValueError) as exc:  # a start or e_eff beyond the float range
        raise ValueError(f"(mu, qdot0) = ({mu!r}, {qdot0!r}): e_eff not a finite float") from exc
    speed = -qdot0  # of an inward start
    if abs(mu) < MU_FREE:
        def free(t):
            return np.maximum(1.0 + qdot0 * t, 0.0), np.full_like(t, qdot0)
        if qdot0 < 0:
            return _Orbit(e, REGIME_COLLAPSING, free,
                          lambda q: (1.0 / speed, q / speed), (1.0, speed))
        return _Orbit(e, REGIME_LINEAR if qdot0 > 0 else REGIME_STATIONARY, free)

    law = (2.0 / 3.0, (4.5 * abs(mu)) ** (1.0 / 3.0))
    if abs(e) <= E_EFF_ZERO_TOL:
        def parabolic(t):
            base = np.maximum(1.0 + 1.5 * qdot0 * t, 0.0)
            with np.errstate(divide="ignore"):
                return base ** (2.0 / 3.0), qdot0 * base ** (-1.0 / 3.0)
        if qdot0 < 0:
            rate = 1.5 * speed
            return _Orbit(e, REGIME_COLLAPSING, parabolic,
                          lambda q: (1.0 / rate, q**1.5 / rate), law)
        return _Orbit(e, REGIME_SELF_SIMILAR if qdot0 > 0 else REGIME_STATIONARY, parabolic)

    # A conic. v = sqrt(2|e_eff|) = sqrt(|mu|/A) is the speed scale, y0 the clock
    # t/k + const at t = 0: from the nearer q = 0 (mu < 0) or pericentre (mu > 0).
    a = abs(mu) / (2.0 * abs(e))
    v = math.sqrt(2.0 * abs(e))
    k = a / v
    if not all(sys.float_info.min <= c < math.inf for c in (a, v, k)):
        raise ValueError(f"(mu, qdot0) = ({mu!r}, {qdot0!r}): A, v or k not a normal float")

    if mu > 0:  # sinh(x/2)**2 = cosh(x/2)**2 - 1 = qdot0**2/(2 mu) at q = 1
        x0 = 2.0 * math.asinh(qdot0 / math.sqrt(2.0 * mu))
        y0 = float(np.sinh(x0) + x0)

        def repulsive(t):
            clock = y0 + t / k
            y = np.abs(clock)
            x = np.sign(clock) * _kepler_invert(
                lambda s: np.sinh(s) + s, lambda s: np.cosh(s) + 1.0, y, *_repulsive_start(y)
            )
            return 2.0 * a * np.cosh(0.5 * x) ** 2, v * np.tanh(0.5 * x)
        return _Orbit(e, REGIME_LINEAR, repulsive)

    if e > 0:  # sinh(x/2)**2 = 1/(2A) at q = 1
        y0 = float(_sinh_minus_x(2.0 * math.asinh(math.sqrt(1.0 / (2.0 * a)))))
        sign = 1.0 if qdot0 > 0 else -1.0

        def unbound(t):
            y = np.maximum(y0 + sign * t / k, 0.0)
            x = _kepler_invert(
                _sinh_minus_x, lambda s: 2.0 * np.sinh(0.5 * s) ** 2, y, *_unbound_start(y)
            )
            with np.errstate(divide="ignore"):
                return 2.0 * a * np.sinh(0.5 * x) ** 2, sign * v / np.tanh(0.5 * x)
        if qdot0 > 0:
            return _Orbit(e, REGIME_LINEAR, unbound)
        return _Orbit(e, REGIME_COLLAPSING, unbound, lambda q: (
            k * y0, k * _sinh_minus_x(2.0 * np.arcsinh(np.sqrt(q / (2.0 * a))))), law)

    # Bound: cot(x/2) = |qdot0|/v at q = 1 (well conditioned at the apex, unlike asin). x
    # rises to pi at the apex, then counts down to collapse at 0; the clock is then (T - t)/k.
    y0 = float(_x_minus_sin(2.0 * math.atan2(v, abs(qdot0))))
    apex_to_collapse = 2.0 * math.pi - y0 if qdot0 >= 0 else y0

    def bound(t):
        rising = (qdot0 > 0) & (y0 + t / k < math.pi)
        falling = np.maximum(apex_to_collapse - t / k, 0.0)
        y = np.where(rising, y0 + t / k, falling)
        x = _kepler_invert(
            _x_minus_sin, lambda s: 2.0 * np.sin(0.5 * s) ** 2, y, *_bound_start(y)
        )
        with np.errstate(divide="ignore"):
            return 2.0 * a * np.sin(0.5 * x) ** 2, np.where(rising, v, -v) / np.tan(0.5 * x)
    return _Orbit(e, REGIME_COLLAPSING, bound, lambda q: (
        k * apex_to_collapse, k * _x_minus_sin(2.0 * np.arcsin(np.sqrt(q / (2.0 * a))))), law)


def _amplitude(mu: float, qdot0: float, t) -> tuple[np.ndarray, np.ndarray]:
    """q(t) and qdot(t) in closed form; samples at or past collapse get q = 0."""
    return _orbit(mu, qdot0).amplitude(np.asarray(t, dtype=float))


def _sample_times(t_end: float, dt: float) -> np.ndarray:
    n = int(math.floor(t_end / dt + 1e-12))
    times = dt * np.arange(n + 1)
    if times[-1] < t_end - 1e-12 * max(1.0, t_end):
        times = np.append(times, t_end)
    return times


def evolve_q(mu: float, qdot0: float, t_end: float, dt: float) -> TemporalSolution:
    """Sample q(t), qdot(t) on t = 0, dt, 2 dt, ..., t_end.

    The samples stop early (recorded, not an error) before the first one
    with q < Q_MIN_STOP; the ODE is singular at q = 0. energy_drift is the
    roundoff of the energy invariant along the samples. The samples are
    evaluated in blocks of SAMPLE_BLOCK, and none past the block holding
    the stop; each equals its value in one whole-array _amplitude call.
    """
    if not (0 < dt < math.inf and 0 < t_end / dt < math.inf):
        raise ValueError(f"t_end, dt and t_end/dt must be finite and > 0, got {t_end!r}, {dt!r}")
    orbit = _orbit(mu, qdot0)
    times = _sample_times(t_end, dt)
    blocks = []
    for start in range(0, times.size, SAMPLE_BLOCK):
        q, qd = orbit.amplitude(times[start:start + SAMPLE_BLOCK])
        below = np.flatnonzero(q < Q_MIN_STOP)
        stopped = below.size > 0
        if stopped:
            q, qd, times = q[:below[0]], qd[:below[0]], times[:start + below[0]]
        blocks.append((q, qd, 0.5 * qd * qd + mu / q - orbit.e))
        if stopped:
            break

    q, qd, drift = (np.concatenate(parts) for parts in zip(*blocks))
    return TemporalSolution(
        mu=mu,
        qdot0=qdot0,
        e_eff=orbit.e,
        regime=orbit.regime,
        t=times,
        q=q,
        qdot=qd,
        energy_drift=drift,
        max_energy_drift=float(np.max(np.abs(drift))) if drift.size else 0.0,
        stopped_early=stopped,
    )


@dataclass
class CollapseEstimate:
    """Collapse time T, last passages through each threshold q = eps, the exact
    law q ~ prefactor (T - t)**exponent ((9|mu|/2)**(1/3), 2/3; free: |qdot0|, 1)
    and the local exponent d ln q / d ln(T - t) = (T - t)|qdot|/q at each eps."""

    time: float
    exponent: float
    prefactor: float
    threshold_times: dict[float, float]
    local_exponents: dict[float, float]


def collapse_time(
    mu: float,
    qdot0: float,
    thresholds: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
) -> CollapseEstimate:
    """CollapseEstimate of (mu, qdot0) at thresholds in (0, 1)."""
    orbit = _orbit(mu, qdot0)
    if orbit.regime != REGIME_COLLAPSING:
        raise NotCollapsing(f"(mu={mu:g}, qdot0={qdot0:g}) does not collapse")
    thresholds = tuple(sorted(thresholds, reverse=True))
    if not 0.0 < thresholds[-1] <= thresholds[0] < 1.0:
        raise ValueError(f"thresholds must lie in (0, 1), got {thresholds}")

    eps = np.array(thresholds)
    big_t, to_go = orbit.to_collapse(eps)
    # |qdot| at q = eps from the energy integral qdot**2/2 + mu/q = e_eff
    local = to_go * np.sqrt(2.0 * (orbit.e - mu / eps)) / eps
    return CollapseEstimate(
        float(big_t), *orbit.law,
        threshold_times={th: float(big_t - w) for th, w in zip(thresholds, to_go)},
        local_exponents={th: float(a) for th, a in zip(thresholds, local)},
    )


@dataclass
class MotionSnapshot:
    t: float
    q: float
    qdot: float
    phi: np.ndarray
    u: np.ndarray
    rho: np.ndarray
    mass: float


def assemble_motion(
    profile: SolutionProfile, temporal: TemporalSolution, t: float
) -> MotionSnapshot:
    """Radial fields of the motion phi(t, R) = q(t) f(R) at one time.

    profile and temporal must share mu exactly (else ValueError), and t must
    lie within the trajectory's samples. The density comes from mass
    conservation through the deformation determinant, rho = brho / (q**3 f'
    lambda**2); the total mass equals (4 pi/3) brho independent of t.
    """
    if profile.mu != temporal.mu:
        raise ValueError(f"profile mu {profile.mu!r} != trajectory mu {temporal.mu!r}")
    tiny = 1e-12 * max(1.0, abs(float(temporal.t[-1])))
    if not temporal.t[0] - tiny <= t <= temporal.t[-1] + tiny:  # NaN fails too
        raise OutOfRange(
            f"t = {t:g} outside computed samples [{temporal.t[0]:g}, {temporal.t[-1]:g}]"
        )
    q, qd = (float(v) for v in _amplitude(temporal.mu, temporal.qdot0, float(t)))
    if q <= 0:
        raise OutOfRange(f"q(t) = {q:g} not positive at t = {t:g}")

    phi = q * profile.f
    u = qd * profile.f
    rho = profile.brho0 / (q**3 * profile.fprime * profile.lam**2)
    # Total mass in reference coordinates: 4 pi q^3 int rho lambda^2 f' R^2 dR.
    integrand = rho * profile.lam**2 * profile.fprime
    mass = 4.0 * math.pi * q**3 * float(moment_integral(profile.grid, integrand, 2)[-1])
    return MotionSnapshot(t=float(t), q=q, qdot=qd, phi=phi, u=u, rho=rho, mass=mass)
