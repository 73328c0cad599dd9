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

A time sample is found by one Halley step on Kepler's equation S(x) = y,
vectorised over the samples, certified by the residual. The starter is a
closed form of the root per branch, a fitted polynomial in a smooth function
of the clock, or a short fixed-point refinement at large clocks, within 1e-5
relative of the root; Halley's convergence is cubic, so one step reaches
roundoff, and a residual check certifies every returned anomaly to
KEPLER_RTOL. Every sample takes the same step, so its value does not depend
on the other samples evaluated with it. Each branch forms the step's S' and
S'' from one transcendental: tan(x/2) (bound), sinh(x/2) (unbound and
repulsive, with cosh(x/2) = sqrt(1 + sinh(x/2)**2)).

The bound branch takes its trig from one half-angle tangent t = tan(x/2):
sin x = 2t/(1 + t*t) in x - sin x and as S'', 1 - cos x = 2t*t/(1 + t*t) as
S', q = 2A t*t/(1 + t*t) and qdot = +-v/t. numpy's float64 tan is about 4x
faster than its sin (25 against 110 us per 8192 samples, numpy 2.4 on
x86-64), and on [0, pi] t stays finite, at most 1.6e16 at x = pi.

q = eps inverts to x with no iteration, so collapse times, threshold
passages and rates are closed forms. evolve_q evaluates its samples in
blocks of SAMPLE_BLOCK, and a collapsing orbit's only up to one guard sample
past the closed-form time of its last passage through Q_MIN_STOP. Without
that time, or if no sample up to the guard fell below Q_MIN_STOP, it goes on
block by block until one does. _orbit decides a start's branch once, with
its e_eff, regime tag and collapse clock, and every public function reads
that decision.
"""

from __future__ import annotations

import functools
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
COLLAPSE_THRESHOLDS = (1e-2, 1e-3, 1e-4)  # the q = eps passages collapse_time reports
KEPLER_RTOL = 1e-12
# Below this anomaly x - sin x and sinh x - x are summed from their Taylor
# series: the direct differences lose every digit as x -> 0 (near-parabolic
# orbits and samples near collapse).
SERIES_CUTOFF = 1.0
# (sinh x - x) / (x**3/6) = sum_j c_j x**(2j), c_j = 3!/(2j + 3)!; ten terms
# reach roundoff for |x| <= 1. Highest power first, for Horner's rule.
_SERIES = np.array([6.0 / math.factorial(2 * j + 3) for j in range(10)])[::-1]

# evolve_q evaluates its samples in blocks of at most this many, up to the
# guard sample past the closed-form stop and then, if no sample fell below
# Q_MIN_STOP, on from there. A block's temporaries are 64 KiB of float64,
# below glibc's 128 KiB mmap threshold, so the heap reuses them; at 30,001
# samples each temporary is a fresh mmap whose pages fault in on first touch
# (2,072 minor faults per evaluation of a bound orbit, against 96 per block
# of 8192). Only t, q and qdot span all samples: the energy drift is formed
# from them when it is first read.
SAMPLE_BLOCK = 8192

# Halley's start on each branch: x0 = v P(v**2), P interpolating the root's
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
    """The samples of evolve_q. energy_drift, the roundoff of the energy
    invariant along them, and its largest magnitude are formed on first read."""

    mu: float
    qdot0: float
    e_eff: float
    regime: str
    t: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    stopped_early: bool

    @functools.cached_property
    def energy_drift(self) -> np.ndarray:
        return 0.5 * self.qdot * self.qdot + self.mu / self.q - self.e_eff

    @functools.cached_property
    def max_energy_drift(self) -> float:
        d = self.energy_drift
        return float(max(d.max(), -d.min())) if d.size else 0.0


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
        return xs * (xs * xs) / 6 * _horner(_SERIES, series_sign * xs * xs)
    return _piecewise(x < SERIES_CUTOFF, series, direct, x)


def _x_minus_sin(x):
    def direct(b):  # sin b = 2t/(1 + t*t), t = tan(b/2)
        t = np.tan(0.5 * b)
        return b - 2.0 * t / (1.0 + t * t)
    return _series_split(x, -1.0, direct)


def _bound_slopes(x):
    """S' = 1 - cos x and S'' = sin x of x - sin x, from t = tan(x/2)."""
    t = np.tan(0.5 * x)
    tt = t * t
    scale = 2.0 / (1.0 + tt)
    return scale * tt, scale * t


def _sinh_minus_x(x):
    return _series_split(x, 1.0, lambda b: np.sinh(b) - b)


def _unbound_slopes(x):
    """S' = cosh x - 1 = 2s*s and S'' = sinh x = 2s c of sinh x - x, from
    s = sinh(x/2) and c = cosh(x/2) = sqrt(1 + s*s)."""
    s = np.sinh(0.5 * x)
    return 2.0 * s * s, 2.0 * s * np.sqrt(1.0 + s * s)


def _sinh_plus_x(x):
    return np.sinh(x) + x


def _repulsive_slopes(x):
    """S' = cosh x + 1 = 2c*c and S'' = sinh x = 2s c of sinh x + x, from
    s = sinh(x/2) and c = cosh(x/2) = sqrt(1 + s*s)."""
    s = np.sinh(0.5 * x)
    cc = 1.0 + s * s
    return 2.0 * cc, 2.0 * s * np.sqrt(cc)


def _bound_start(y):
    """Halley's start for x - sin x = y on [0, pi]."""
    s = np.cbrt(6.0 * y)
    return s * _horner(_START_BOUND, s * s)


def _unbound_start(y):
    """Halley's start for sinh x - x = y."""
    def fitted(y):
        u = np.arcsinh(np.cbrt(6.0 * y))
        return u * _horner(_START_UNBOUND, u * u)

    def refined(y):  # x <- asinh(y + x) contracts by about 1/y, from x <= cbrt(6y)
        return np.arcsinh(y + np.arcsinh(y + np.arcsinh(y + np.cbrt(6.0 * y))))
    return _piecewise(y < _UNBOUND_FIT_MAX, fitted, refined, y)


def _repulsive_start(y):
    """Halley's start for sinh x + x = y."""
    def fitted(y):
        u = np.arcsinh(0.5 * y)
        return u * _horner(_START_REPULSIVE, u * u)

    def refined(y):  # x <- asinh(y - x) contracts by about 1/y, from x <= asinh(y)
        return np.arcsinh(y - np.arcsinh(y - np.arcsinh(y)))
    return _piecewise(y < _REPULSIVE_FIT_MAX, fitted, refined, y)


def _kepler_invert(S, slopes, y: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """The x with S(x) = y, for S increasing and convex, S(0) = 0: one Halley
    step from the starter, certified by the residual.

    slopes(x) gives S'(x) and S''(x). Every sample takes the step
    x0 - 2 f S'/(2 S'**2 - f S''), f = S(x0) - y, from x0, a starter that
    reads only the sample's y, so its x depends on nothing but its own y and
    x0, whatever other samples are passed with it. The step is taken as
    f/(S' - f (S''/S')/2), which does not overflow where S' and S'' near the
    float range at large clocks. A sample with S(x) = y exactly (y = 0 at and
    past collapse, where the step would be 0/0) stays where it is. From the
    starters' 1e-5, cubic convergence reaches roundoff in one step, and the
    residual check certifies it: KeplerNotConverged is raised unless the
    Kepler equation holds to KEPLER_RTOL at every returned x.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        f = S(x0) - y
        d1, d2 = slopes(x0)
        x = np.where(f == 0, x0, x0 - f / (d1 - 0.5 * f * (d2 / d1)))
        excess = np.abs(S(x) - y) - KEPLER_RTOL * y
    if not np.all(excess <= 0):  # NaN too: a clock beyond the float range
        raise KeplerNotConverged(
            f"Kepler equation residual exceeds {KEPLER_RTOL:g} * clock by "
            f"{float(np.max(excess)):.3e} after one Halley step"
        )
    return x


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
            x = np.sign(clock) * _kepler_invert(_sinh_plus_x, _repulsive_slopes, y,
                                                _repulsive_start(y))
            return 2.0 * a * np.cosh(0.5 * x) ** 2, v * np.tanh(0.5 * x)
        return _Orbit(e, REGIME_LINEAR, repulsive)

    if e > 0:  # sinh(x/2)**2 = 1/(2A) at q = 1
        y0 = float(_sinh_minus_x(2.0 * math.asinh(math.sqrt(1.0 / (2.0 * a)))))
        sign = 1.0 if qdot0 > 0 else -1.0

        def unbound(t):
            y = np.maximum(y0 + sign * t / k, 0.0)
            x = _kepler_invert(_sinh_minus_x, _unbound_slopes, y, _unbound_start(y))
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
        t_half = np.tan(0.5 * _kepler_invert(_x_minus_sin, _bound_slopes, y, _bound_start(y)))
        tt = t_half * t_half
        with np.errstate(divide="ignore"):
            return 2.0 * a * tt / (1.0 + tt), np.where(rising, v, -v) / t_half
    return _Orbit(e, REGIME_COLLAPSING, bound, lambda q: (
        k * apex_to_collapse, k * _x_minus_sin(2.0 * np.arcsin(np.sqrt(q / (2.0 * a))))), law)


def _amplitude(mu: float, qdot0: float, t) -> tuple[np.ndarray, np.ndarray]:
    """q(t) and qdot(t) in closed form; samples at or past collapse get q = 0."""
    return _orbit(mu, qdot0).amplitude(np.asarray(t, dtype=float))


def _sample_times(t_end: float, dt: float) -> np.ndarray:
    n = int(math.floor(t_end / dt + 1e-12))
    times = np.arange(n + 1, dtype=float)
    times *= dt
    if times[-1] < t_end - 1e-12 * max(1.0, t_end):
        times = np.append(times, t_end)
    return times


def evolve_q(mu: float, qdot0: float, t_end: float, dt: float) -> TemporalSolution:
    """Sample q(t), qdot(t) on t = 0, dt, 2 dt, ..., t_end.

    The samples stop early (recorded, not an error) before the first one
    with q < Q_MIN_STOP; the ODE is singular at q = 0. The samples are
    evaluated in blocks of SAMPLE_BLOCK and, where the closed-form stop time
    T - to_go(Q_MIN_STOP) exists, only up to one guard sample past it unless
    none of them falls below Q_MIN_STOP; each equals its value in one
    whole-array _amplitude call.
    """
    if not (0 < dt < math.inf and 0 < t_end / dt < math.inf):
        raise ValueError(f"t_end, dt and t_end/dt must be finite and > 0, got {t_end!r}, {dt!r}")
    orbit = _orbit(mu, qdot0)
    times = _sample_times(t_end, dt)
    guard = times.size  # one sample past the closed-form stop, if there is one
    if orbit.to_collapse is not None:
        with np.errstate(invalid="ignore"):  # no passage through Q_MIN_STOP: NaN
            big_t, to_go = orbit.to_collapse(Q_MIN_STOP)
        t_stop = float(big_t - to_go)
        if math.isfinite(t_stop):
            guard = min(guard, int(np.searchsorted(times, t_stop, side="right")) + 1)
    # blocks up to the guard, then on to the end if no sample there fell below
    edges = [*range(0, guard, SAMPLE_BLOCK), *range(guard, times.size, SAMPLE_BLOCK), times.size]
    blocks = []
    for start, end in zip(edges, edges[1:]):
        q, qd = orbit.amplitude(times[start:end])
        below = np.flatnonzero(q < Q_MIN_STOP)
        stopped = below.size > 0
        if stopped:
            q, qd, times = q[:below[0]], qd[:below[0]], times[:start + below[0]]
        blocks.append((q, qd))
        if stopped:
            break

    q, qd = (np.concatenate(parts) for parts in zip(*blocks))
    return TemporalSolution(
        mu=mu,
        qdot0=qdot0,
        e_eff=orbit.e,
        regime=orbit.regime,
        t=times,
        q=q,
        qdot=qd,
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


def collapse_time(mu: float, qdot0: float) -> CollapseEstimate:
    """CollapseEstimate of (mu, qdot0) at the thresholds COLLAPSE_THRESHOLDS."""
    orbit = _orbit(mu, qdot0)
    if orbit.regime != REGIME_COLLAPSING:
        raise NotCollapsing(f"(mu={mu:g}, qdot0={qdot0:g}) does not collapse")
    eps = np.array(COLLAPSE_THRESHOLDS)
    big_t, to_go = orbit.to_collapse(eps)
    # |qdot| at q = eps from the energy integral qdot**2/2 + mu/q = e_eff
    local = to_go * np.sqrt(2.0 * (orbit.e - mu / eps)) / eps
    return CollapseEstimate(
        float(big_t), *orbit.law,
        threshold_times={th: float(big_t - w) for th, w in zip(COLLAPSE_THRESHOLDS, to_go)},
        local_exponents={th: float(a) for th, a in zip(COLLAPSE_THRESHOLDS, local)},
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
