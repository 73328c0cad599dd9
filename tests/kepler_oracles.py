"""Independent references for the amplitude q**2 qddot = mu, q(0) = 1.

The library evaluates the radial Kepler orbit in closed form. These oracles
share none of its code: a classical RK4 integration of the ODE in plain
floats, and the textbook parametrisation q = A(1 - cos eta), A(cosh eta - 1),
A(cosh eta + 1) solved by bisection in 50-digit mpmath, which needs none of
the half-angle, series or compensated-sum care of the float version.
"""

import mpmath as mp


def rk4_step(mu, q, qd, dt):
    def acc(qv):
        return mu / (qv * qv)

    k1q, k1v = qd, acc(q)
    k2q, k2v = qd + 0.5 * dt * k1v, acc(q + 0.5 * dt * k1q)
    k3q, k3v = qd + 0.5 * dt * k2v, acc(q + 0.5 * dt * k2q)
    k4q, k4v = qd + dt * k3v, acc(q + dt * k3q)
    return (
        q + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q),
        qd + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


def rk4_amplitude(mu, qdot0, t_end, steps):
    """(q, qdot) at t_end after `steps` equal RK4 steps from (1, qdot0)."""
    q, qd = 1.0, qdot0
    dt = t_end / steps
    for _ in range(steps):
        q, qd = rk4_step(mu, q, qd, dt)
    return q, qd


def _bisect(f, lo, hi, iterations=200):
    f_lo = f(lo)
    if f_lo == 0:
        return lo
    for _ in range(iterations):
        mid = (lo + hi) / 2
        f_mid = f(mid)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def mp_amplitude(mu, qdot0, t, dps=50):
    """(q, qdot, T) at float time t < T, as mpf; T is None for no collapse.

    Needs mu != 0 and e_eff != 0, both exact in the binary inputs.
    """
    with mp.workdps(dps):
        mu, qd, t = mp.mpf(mu), mp.mpf(qdot0), mp.mpf(t)
        e = qd**2 / 2 + mu
        m = abs(mu)
        a = m / (2 * abs(e))
        k = mp.sqrt(a**3 / m)
        if mu < 0 and e < 0:
            kepler = lambda x: x - mp.sin(x)  # noqa: E731
            eta0 = mp.acos(1 - 1 / a)
            if qd < 0:
                eta0 = 2 * mp.pi - eta0
            big_t = k * (2 * mp.pi - kepler(eta0))
            eta = _bisect(lambda x: k * (kepler(x) - kepler(eta0)) - t, eta0, 2 * mp.pi)
            q = a * (1 - mp.cos(eta))
            return q, mp.sqrt(m / a) * mp.sin(eta) / (1 - mp.cos(eta)), big_t
        if mu < 0:
            kepler = lambda x: mp.sinh(x) - x  # noqa: E731
            eta0 = mp.acosh(1 + 1 / a)
            sign = 1 if qd > 0 else -1
            big_t = None if sign > 0 else k * kepler(eta0)
            lo, hi = (eta0, eta0 + 60) if sign > 0 else (mp.mpf(0), eta0)
            eta = _bisect(lambda x: sign * k * (kepler(x) - kepler(eta0)) - t, lo, hi)
            q = a * (mp.cosh(eta) - 1)
            return q, sign * mp.sqrt(m / a) * mp.sinh(eta) / (mp.cosh(eta) - 1), big_t
        kepler = lambda x: mp.sinh(x) + x  # noqa: E731
        eta0 = mp.acosh(1 / a - 1) * (1 if qd >= 0 else -1)
        eta = _bisect(lambda x: k * (kepler(x) - kepler(eta0)) - t, eta0 - 60, eta0 + 60)
        q = a * (mp.cosh(eta) + 1)
        return q, mp.sqrt(m / a) * mp.sinh(eta) / (mp.cosh(eta) + 1), None

