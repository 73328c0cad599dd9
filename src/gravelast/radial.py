"""Uniform radial grid, cumulative moment integrals, L and its inverse.

Profiles live on the reference ball, radius coordinate R in [0, 1].  The
central objects are

    (L z)(R)      = z(R) + (2/R**3) * int_0^R t**2 z(t) dt
    (Linv e)(R)   = e(R) - (2/R**5) * int_0^R t**4 e(t) dt

with analytic limits (5/3) z(0) and (3/5) e(0) at the origin, plus the
reconstruction of the geometry (f, f', lambda, y) from the curvature
density z, where f''(R) = R z(R).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometry

MOMENT_POWERS = (1, 2, 4)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes R_i = i/n, i = 0..n, n even and >= 16."""

    n: int

    def __post_init__(self):
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError("grid size must be even and >= 16")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        r = np.arange(self.n + 1, dtype=float) / self.n
        r.setflags(write=False)
        return r

    @cached_property
    def moment_weights(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Product-quadrature cell weights (w_left, w_right) for p in {1, 2, 4}.

        The linear interpolant of v on cell [a, b] integrated exactly against
        t**p gives w_left v(a) + w_right v(b); the weights depend only on the
        grid and p, so they are built once per grid.
        """
        r = self.nodes
        a, b = r[:-1], r[1:]
        dr = b - a
        weights = {}
        for p in MOMENT_POWERS:
            i1 = (b ** (p + 1) - a ** (p + 1)) / (p + 1)
            i2 = (b ** (p + 2) - a ** (p + 2)) / (p + 2)
            w_left = (b * i1 - i2) / dr
            w_right = (i2 - a * i1) / dr
            w_left.setflags(write=False)
            w_right.setflags(write=False)
            weights[p] = (w_left, w_right)
        return weights


def moment_integral(grid: RadialGrid, values: np.ndarray, p: int) -> np.ndarray:
    """Cumulative m_i = int_0^{R_i} t**p v(t) dt for all nodes.

    Product rule: v is replaced by its piecewise-linear interpolant and the
    moment weight t**p integrated exactly on each cell.  Exact whenever v is
    linear (any p), second-order accurate otherwise, and free of the
    near-origin order loss a plain trapezoid on t**p v would suffer under
    the 1/R**(p+1) weightings of L and its inverse.
    """
    if p not in MOMENT_POWERS:
        raise ValueError("moment power must be one of 1, 2, 4")
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n + 1,):
        raise ValueError("values must be sampled on the grid nodes")
    w_left, w_right = grid.moment_weights[p]
    out = np.empty(grid.n + 1)
    out[0] = 0.0
    np.cumsum(w_left * v[:-1] + w_right * v[1:], out=out[1:])
    return out


def apply_L(grid: RadialGrid, zeta: np.ndarray) -> np.ndarray:
    z = np.asarray(zeta, dtype=float)
    m2 = moment_integral(grid, z, 2)
    r = grid.nodes
    out = np.empty_like(z)
    out[0] = (5.0 / 3.0) * z[0]
    out[1:] = z[1:] + 2.0 * m2[1:] / r[1:] ** 3
    return out


def apply_L_inverse(grid: RadialGrid, eta: np.ndarray) -> np.ndarray:
    e = np.asarray(eta, dtype=float)
    m4 = moment_integral(grid, e, 4)
    r = grid.nodes
    out = np.empty_like(e)
    out[0] = (3.0 / 5.0) * e[0]
    out[1:] = e[1:] - 2.0 * m4[1:] / r[1:] ** 5
    return out


@dataclass(frozen=True)
class GeometryProfile:
    """Spatial profile reconstructed from a curvature density z.

    moment2 is the cumulative int_0^R t**2 z dt, kept because both the
    fixed-point operator and the boundary value y(1) reuse it verbatim.
    """

    f: np.ndarray
    fprime: np.ndarray
    lam: np.ndarray
    y: np.ndarray
    moment2: np.ndarray


def reconstruct_geometry(grid: RadialGrid, zeta: np.ndarray) -> GeometryProfile:
    """Build (f, f', lambda, y) from z with the boundary normalization f(1) = 1.

    f(R) = R f'(0) + int_0^R (R - t) t z dt and
    f'(0) = 1 - int_0^1 (1 - t) t z dt, so f(1) = 1 holds by construction.
    y is evaluated through the integral identity
    y = 1 + (int_0^R t**2 z dt)/(lambda R), which is cancellation-safe for
    small z; y(0) = 1 exactly.
    """
    z = np.asarray(zeta, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("zeta must be finite at every node")
    r = grid.nodes
    m1 = moment_integral(grid, z, 1)
    m2 = moment_integral(grid, z, 2)
    fprime0 = 1.0 - (m1[-1] - m2[-1])

    f = r * fprime0 + (r * m1 - m2)
    fprime = fprime0 + m1
    lam = np.empty_like(f)
    lam[0] = fprime0
    lam[1:] = fprime0 + m1[1:] - m2[1:] / r[1:]
    y = np.empty_like(f)
    y[0] = 1.0
    y[1:] = 1.0 + m2[1:] / (lam[1:] * r[1:])

    if np.any(fprime <= 0) or np.any(lam <= 0):
        raise DegenerateGeometry("f' or lambda not strictly positive")
    return GeometryProfile(f=f, fprime=fprime, lam=lam, y=y, moment2=m2)


def y_at_boundary(grid: RadialGrid, zeta: np.ndarray) -> float:
    """y(1) = 1 + int_0^1 t**2 z dt."""
    return 1.0 + float(moment_integral(grid, np.asarray(zeta, dtype=float), 2)[-1])
