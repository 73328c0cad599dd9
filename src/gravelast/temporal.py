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
over the samples and safeguarded by a bracket; q = eps inverts to x with no
iteration, so collapse times, threshold passages and rates are closed forms.
"""

from __future__ import annotations

import math
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
Q_MIN_STOP = 1e-6
NEWTON_MAX_ITER = 60  # Newton needs a handful; the cap bounds bisection
KEPLER_RTOL = 1e-12
# Below this anomaly x - sin x and sinh x - x are summed from their Taylor
# series: the direct differences lose every digit as x -> 0 (near-parabolic
# orbits and samples near collapse).
SERIES_CUTOFF = 1.0
# (sinh x - x) / (x**3/6) = sum_j c_j x**(2j), c_j = 3!/(2j + 3)!; ten terms
# reach roundoff for |x| <= 1. Highest power first, for np.polyval.
_SERIES = np.array([6.0 / math.factorial(2 * j + 3) for j in range(10)])[::-1]

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
    """Regime tag of the trajectory, decided as _amplitude decides its branch.

    Free motion (|mu| < MU_FREE) goes by the sign of qdot0 alone: linear
    expansion, collapse, or the stationary state q = 1. Otherwise
    "collapsing" for every start that reaches q = 0: e_eff < 0, or mu < 0
    with qdot0 < 0 (e_eff = 0 decided with absolute tolerance 1e-14).
    Other starts expand: self-similarly at e_eff = 0 with qdot0 > 0,
    linearly for e_eff > 0; e_eff = 0 with qdot0 = 0 is stationary.
    """
    free = abs(mu) < MU_FREE
    e = e_effective(mu, qdot0)
    if free or abs(e) <= E_EFF_ZERO_TOL:
        if qdot0 > 0:
            return REGIME_LINEAR if free else REGIME_SELF_SIMILAR
        return REGIME_COLLAPSING if qdot0 < 0 else REGIME_STATIONARY
    if e < 0 or (mu < 0 and qdot0 < 0):
        return REGIME_COLLAPSING
    return REGIME_LINEAR


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


def _x_minus_sin(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < SERIES_CUTOFF, x**3 / 6 * np.polyval(_SERIES, -x * x), x - np.sin(x))


def _sinh_minus_x(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < SERIES_CUTOFF, x**3 / 6 * np.polyval(_SERIES, x * x), np.sinh(x) - x)


def _kepler_invert(S, dS, y: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The x in [0, hi] with S(x) = y, for S increasing and convex, S(0) = 0.

    Newton's method from the upper bound hi descends monotonically onto the
    root; a step that leaves the bracket, which only roundoff can cause,
    bisects it instead. KeplerNotConverged is raised unless the Kepler
    equation holds to KEPLER_RTOL when the iteration stops.
    """
    lo = np.zeros_like(y)
    x = hi
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            f = S(x) - y
            lo = np.where(f < 0, x, lo)
            hi = np.where(f > 0, x, hi)
            x_new = x - f / dS(x)
            x_new = np.where((x_new >= lo) & (x_new <= hi), x_new, 0.5 * (lo + hi))
            done = np.all(np.abs(x_new - x) <= 4.0 * np.finfo(float).eps * x_new)
            x = x_new
            if done:
                break
    excess = np.abs(S(x) - y) - KEPLER_RTOL * y
    if not np.all(excess <= 0):  # NaN too: a clock beyond the float range
        raise KeplerNotConverged(
            f"Kepler equation residual exceeds {KEPLER_RTOL:g} * clock by "
            f"{float(np.max(excess)):.3e} after {NEWTON_MAX_ITER} Newton steps"
        )
    return x


def _conic(mu: float, qdot0: float) -> tuple[float, float, float, float]:
    """(A, k, v, y0) of the conic branch through q = 1, qdot = qdot0 (e_eff != 0).

    v = sqrt(2|e_eff|) = sqrt(|mu|/A) is the speed scale, y0 the Kepler clock
    t/k + const at t = 0: from the nearer q = 0 (mu < 0) or pericentre (mu > 0).
    """
    e = e_effective(mu, qdot0)
    a = abs(mu) / (2.0 * abs(e))
    v = math.sqrt(2.0 * abs(e))
    if mu > 0:  # sinh(x/2)**2 = cosh(x/2)**2 - 1 = qdot0**2/(2 mu) at q = 1
        x0 = 2.0 * math.asinh(qdot0 / math.sqrt(2.0 * mu))
        y0 = float(np.sinh(x0) + x0)  # inf, caught by the residual check
    elif e > 0:  # sinh(x/2)**2 = 1/(2A) at q = 1
        y0 = float(_sinh_minus_x(2.0 * math.asinh(math.sqrt(1.0 / (2.0 * a)))))
    else:  # cot(x/2) = |qdot|/v; well conditioned at the apex, unlike asin
        y0 = float(_x_minus_sin(2.0 * math.atan2(v, abs(qdot0))))
    return a, a / v, v, y0


def _amplitude(mu: float, qdot0: float, t) -> tuple[np.ndarray, np.ndarray]:
    """q(t) and qdot(t) in closed form; samples at or past collapse get q = 0."""
    t = np.asarray(t, dtype=float)
    e = e_effective(mu, qdot0)
    if abs(mu) < MU_FREE:
        return np.maximum(1.0 + qdot0 * t, 0.0), np.full_like(t, qdot0)
    if abs(e) <= E_EFF_ZERO_TOL:
        base = np.maximum(1.0 + 1.5 * qdot0 * t, 0.0)
        with np.errstate(divide="ignore"):
            return base ** (2.0 / 3.0), qdot0 * base ** (-1.0 / 3.0)

    a, k, v, y0 = _conic(mu, qdot0)
    if mu > 0:
        clock = y0 + t / k
        y = np.abs(clock)
        x = np.sign(clock) * _kepler_invert(
            lambda s: np.sinh(s) + s, lambda s: np.cosh(s) + 1.0, y,
            np.minimum(np.arcsinh(y), 0.5 * y),
        )
        return 2.0 * a * np.cosh(0.5 * x) ** 2, v * np.tanh(0.5 * x)

    if e > 0:
        sign = 1.0 if qdot0 > 0 else -1.0
        y = np.maximum(y0 + sign * t / k, 0.0)
        cube = np.cbrt(6.0 * y)  # sinh x - x >= x**3/6
        x = _kepler_invert(
            _sinh_minus_x, lambda s: 2.0 * np.sinh(0.5 * s) ** 2, y,
            np.minimum(cube, np.arcsinh(y + cube)),
        )
        with np.errstate(divide="ignore"):
            return 2.0 * a * np.sinh(0.5 * x) ** 2, sign * v / np.tanh(0.5 * x)

    # Bound orbit: x rises to pi at the apex, then counts down to collapse
    # at 0, where the clock is (T - t)/k.
    rising = (qdot0 > 0) & (y0 + t / k < math.pi)
    falling = np.maximum((2.0 * math.pi - y0 if qdot0 >= 0 else y0) - t / k, 0.0)
    y = np.where(rising, y0 + t / k, falling)
    # x**3/6 >= x - sin x >= x**3/12 on [0, pi]
    x = _kepler_invert(
        _x_minus_sin, lambda s: 2.0 * np.sin(0.5 * s) ** 2, y,
        np.minimum(np.cbrt(12.0 * y), math.pi),
    )
    with np.errstate(divide="ignore"):
        return 2.0 * a * np.sin(0.5 * x) ** 2, np.where(rising, v, -v) / np.tan(0.5 * x)


def _sample_times(t_end: float, dt: float) -> np.ndarray:
    n = int(math.floor(t_end / dt + 1e-12))
    times = dt * np.arange(n + 1)
    if times[-1] < t_end - 1e-12 * max(1.0, t_end):
        times = np.append(times, t_end)
    return times


def evolve_q(
    mu: float,
    qdot0: float,
    t_end: float,
    dt: float,
    q_min_stop: float = Q_MIN_STOP,
) -> TemporalSolution:
    """Sample q(t), qdot(t) on t = 0, dt, 2 dt, ..., t_end.

    The samples stop early (recorded, not an error) before the first one
    with q < q_min_stop; the ODE is singular at q = 0. energy_drift is the
    roundoff of the energy invariant along the samples.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("t_end and dt must be positive")
    e_eff = e_effective(mu, qdot0)
    times = _sample_times(t_end, dt)
    q, qd = _amplitude(mu, qdot0, times)
    below = q < q_min_stop
    stopped = bool(below.any())
    if stopped:
        n = int(np.argmax(below))
        times, q, qd = times[:n], q[:n], qd[:n]

    drift = 0.5 * qd * qd + mu / q - e_eff
    return TemporalSolution(
        mu=mu,
        qdot0=qdot0,
        e_eff=e_eff,
        regime=classify(mu, qdot0),
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


def _time_to_collapse(mu: float, qdot0: float, q: np.ndarray) -> tuple[float, np.ndarray]:
    """Collapse time T, and T - t at the last passage through each 0 < q < 1."""
    e = e_effective(mu, qdot0)
    speed = -qdot0
    if abs(mu) < MU_FREE:
        return 1.0 / speed, q / speed
    if abs(e) <= E_EFF_ZERO_TOL:
        return 1.0 / (1.5 * speed), q**1.5 / (1.5 * speed)
    a, k, _, y0 = _conic(mu, qdot0)
    half = np.sqrt(q / (2.0 * a))
    if e > 0:
        return k * y0, k * _sinh_minus_x(2.0 * np.arcsinh(half))
    big_t = k * (y0 if qdot0 < 0 else 2.0 * math.pi - y0)
    return big_t, k * _x_minus_sin(2.0 * np.arcsin(half))


def collapse_time(
    mu: float,
    qdot0: float,
    thresholds: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
) -> CollapseEstimate:
    """CollapseEstimate of (mu, qdot0) at thresholds in (0, 1)."""
    if classify(mu, qdot0) != REGIME_COLLAPSING:
        raise NotCollapsing(f"(mu={mu:g}, qdot0={qdot0:g}) does not collapse")
    thresholds = tuple(sorted(thresholds, reverse=True))
    if not 0.0 < thresholds[-1] <= thresholds[0] < 1.0:
        raise ValueError(f"thresholds must lie in (0, 1), got {thresholds}")

    eps = np.array(thresholds)
    big_t, to_go = _time_to_collapse(mu, qdot0, eps)
    # |qdot| at q = eps from the energy integral qdot**2/2 + mu/q = e_eff
    local = to_go * np.sqrt(2.0 * (e_effective(mu, qdot0) - mu / eps)) / eps
    free = abs(mu) < MU_FREE
    return CollapseEstimate(
        time=float(big_t),
        exponent=1.0 if free else 2.0 / 3.0,
        prefactor=abs(qdot0) if free else (4.5 * abs(mu)) ** (1.0 / 3.0),
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
    if t < temporal.t[0] - tiny or t > temporal.t[-1] + tiny:
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
