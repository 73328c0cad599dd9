"""Fit the Kepler starters of gravelast.temporal to mpmath roots, or check them.

Run:  python scripts/kepler_starters.py [--check] [--points N]

temporal starts Newton on each conic branch's Kepler equation S(x) = y from
x0 = v P(v**2), with v a smooth function of the clock y. This script finds
the root x at the degree + 1 Chebyshev nodes of w = v**2 on the fitted range
in 50-digit mpmath, interpolates x/v there by the polynomial P in w, and
prints P's coefficients (highest power first) as temporal's constants.

With --check it refits and exits 1 unless the committed constants equal the
fit and every starter lies within STARTER_RTOL relative of the mpmath root
on N clocks per branch: evenly spaced and log-spaced, the switch between
fitted and refined pieces, 0, the smallest normal float and 1e300.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable
from typing import NamedTuple

import mpmath as mp
import numpy as np

from gravelast import temporal

STARTER_RTOL = 1e-5


def _root(S, dS, x, y):
    """The root of S(x) = y by Newton's method from an upper bound x, in mpmath."""
    for _ in range(500):
        step = (S(x) - y) / dS(x)
        x -= step
        if abs(step) <= x * mp.mpf(10) ** (8 - mp.mp.dps):
            return x
    raise RuntimeError(f"no mpmath root for y = {y}")


class Branch(NamedTuple):
    const: str  # temporal's name for P's coefficients
    degree: int
    S: Callable  # the Kepler equation S(x) = y, S' and an upper bound on the root, in mpmath
    dS: Callable
    upper: Callable
    y_of_v: Callable
    width: object  # the fitted range of w = v**2 is [0, width]
    start: Callable  # temporal's y -> (hi, x0)
    top: float  # the largest clock checked: pi, or 1e300 on the unbounded domains
    switch: float | None  # the clock past which the starter refines, not fits


def branches() -> dict[str, Branch]:
    cube = lambda y: mp.cbrt(6 * y)  # noqa: E731
    unbound_max, repulsive_max = temporal._UNBOUND_FIT_MAX, temporal._REPULSIVE_FIT_MAX
    return {
        "bound": Branch(
            "_START_BOUND", 6, lambda x: x - mp.sin(x), lambda x: 1 - mp.cos(x),
            lambda y: min(mp.cbrt(12 * y), mp.pi), lambda v: v**3 / 6, cube(mp.pi) ** 2,
            temporal._bound_start, math.pi, None),
        "unbound": Branch(
            "_START_UNBOUND", 8, lambda x: mp.sinh(x) - x, lambda x: mp.cosh(x) - 1,
            lambda y: min(cube(y), mp.asinh(y + cube(y))), lambda v: mp.sinh(v) ** 3 / 6,
            mp.asinh(cube(unbound_max)) ** 2, temporal._unbound_start, 1e300, unbound_max),
        "repulsive": Branch(
            "_START_REPULSIVE", 12, lambda x: mp.sinh(x) + x, lambda x: mp.cosh(x) + 1,
            lambda y: min(mp.asinh(y), y / 2), lambda v: 2 * mp.sinh(v),
            mp.asinh(mp.mpf(repulsive_max) / 2) ** 2, temporal._repulsive_start, 1e300,
            repulsive_max),
    }


def root(branch: Branch, y: float):
    """The root of the branch's S(x) = y in mpmath, with the digits that
    x - sin x and sinh x - x cancel as y -> 0 added to the precision."""
    if y == 0:
        return mp.mpf(0)
    with mp.workdps(30 + max(0, int(-math.log10(y)))):
        y = mp.mpf(y)
        return _root(branch.S, branch.dS, branch.upper(y), y)


def fit(branch: Branch) -> tuple[float, ...]:
    """P's coefficients, highest power first, interpolating x/v at the
    Chebyshev nodes of w = v**2 on [0, width]."""
    n = branch.degree + 1
    with mp.workdps(50):
        ws = [branch.width / 2 * (1 + mp.cos((2 * j + 1) * mp.pi / (2 * n))) for j in range(n)]
        g = []
        for w in ws:
            v = mp.sqrt(w)
            y = branch.y_of_v(v)
            g.append(_root(branch.S, branch.dS, branch.upper(y), y) / v)
        vandermonde = mp.matrix([[w ** (n - 1 - i) for i in range(n)] for w in ws])
        return tuple(float(c) for c in mp.lu_solve(vandermonde, mp.matrix(g)))


def clocks(branch: Branch, points: int) -> np.ndarray:
    """points clocks over the branch's domain, evenly and log-spaced, and its edge cases."""
    edges = [0.0, sys.float_info.min, 1e-300, 1e-30, branch.top]
    if branch.switch is not None:
        edges += [float(np.nextafter(branch.switch, 0.0)), branch.switch,
                  float(np.nextafter(branch.switch, math.inf))]
    return np.unique(np.concatenate([
        np.linspace(0.0, min(branch.top, 2.0 * (branch.switch or branch.top)), points // 2),
        np.geomspace(1e-20, branch.top, points - points // 2),
        edges,
    ]))


def max_rel_error(branch: Branch, y: np.ndarray, x0: np.ndarray) -> float:
    """The largest |x0 - x| / x over the clocks y, x the mpmath root; |x0| at x = 0."""
    worst = 0.0
    for yi, xi in zip(y, x0):
        x = root(branch, float(yi))
        worst = max(worst, float(abs(xi) if x == 0 else abs(mp.mpf(float(xi)) / x - 1)))
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless the committed constants equal the fit and hold the bound")
    p.add_argument("--points", type=int, default=2000, help="clocks per branch for --check")
    args = p.parse_args(argv)
    failed = False
    for name, branch in branches().items():
        coefs = fit(branch)
        if not args.check:
            print(f"{branch.const} = (\n" + "".join(f"    {c!r},\n" for c in coefs) + ")")
            continue
        y = clocks(branch, args.points)
        err = max_rel_error(branch, y, branch.start(y)[1])
        same = coefs == tuple(getattr(temporal, branch.const))
        ok = same and err <= STARTER_RTOL
        failed |= not ok
        print(f"{name}: {len(y)} clocks, max rel. error {err:.2e} (bound {STARTER_RTOL:g}), "
              f"constants {'equal' if same else 'differ from'} the fit: {'ok' if ok else 'FAILED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    if main():
        sys.exit(1)
