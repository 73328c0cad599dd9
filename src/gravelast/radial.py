"""Uniform radial grid, cumulative moment integrals, L and its inverse.

Profiles live on the reference ball, radius coordinate R in [0, 1].  The
central objects are

    (L z)(R)      = z(R) + (2/R**3) * int_0^R t**2 z(t) dt
    (Linv e)(R)   = e(R) - (2/R**5) * int_0^R t**4 e(t) dt

with analytic limits (5/3) z(0) and (3/5) e(0) at the origin, plus the
reconstruction of the geometry (f, f', lambda, y) from the curvature
density z, where f''(R) = R z(R).

Every function takes one profile of shape (N+1,) or a stack of rows of
shape (rows, N+1) and works along the last axis; a row of a stacked call
equals the 1-D call on that row bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometry, fail_row

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
    def interior_powers(self) -> dict[int, np.ndarray]:
        """R**p at the nodes R > 0 for p in {3, 5}, the divisors of F and Linv."""
        powers = {p: self.nodes[1:] ** p for p in (3, 5)}
        for value in powers.values():
            value.setflags(write=False)
        return powers

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
    """Cumulative m_i = int_0^{R_i} t**p v(t) dt for all nodes, per row.

    Product rule: v is replaced by its piecewise-linear interpolant and the
    moment weight t**p integrated exactly on each cell.  Exact whenever v is
    linear (any p), second-order accurate otherwise, and free of the
    near-origin order loss a plain trapezoid on t**p v would suffer under
    the 1/R**(p+1) weightings of L and its inverse.
    """
    if p not in MOMENT_POWERS:
        raise ValueError("moment power must be one of 1, 2, 4")
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != grid.n + 1:
        raise ValueError("values must be sampled on the grid nodes")
    w_left, w_right = grid.moment_weights[p]
    out = np.empty(v.shape)
    out[..., 0] = 0.0
    np.add(w_left * v[..., :-1], w_right * v[..., 1:], out=out[..., 1:])
    return out.cumsum(axis=-1, out=out)


def apply_L_inverse(grid: RadialGrid, eta: np.ndarray) -> np.ndarray:
    e = np.asarray(eta, dtype=float)
    m4 = moment_integral(grid, e, 4)
    out = np.empty_like(e)
    out[..., 0] = (3.0 / 5.0) * e[..., 0]
    out[..., 1:] = e[..., 1:] - 2.0 * m4[..., 1:] / grid.interior_powers[5]
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


def reconstruct_geometry(
    grid: RadialGrid, zeta: np.ndarray, errors: list | None = None
) -> GeometryProfile:
    """Build (f, f', lambda, y) from z with the boundary normalization f(1) = 1.

    f(R) = R f'(0) + int_0^R (R - t) t z dt and
    f'(0) = 1 - int_0^1 (1 - t) t z dt, so f(1) = 1 holds by construction.
    y is evaluated through the integral identity
    y = 1 + (int_0^R t**2 z dt)/(lambda R), which is cancellation-safe for
    small z; y(0) = 1 exactly.

    A row whose f' or lambda is not strictly positive raises
    DegenerateGeometry; given errors, a list with one slot per row, the
    error goes into that row's slot instead and the other rows stand.
    """
    z = np.asarray(zeta, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("zeta must be finite at every node")
    r = grid.nodes
    m1 = moment_integral(grid, z, 1)
    m2 = moment_integral(grid, z, 2)
    fprime0 = 1.0 - (m1[..., -1] - m2[..., -1])
    if z.ndim == 2:
        fprime0 = fprime0[:, None]  # one per row, broadcast along R

    f = r * fprime0 + (r * m1 - m2)
    fprime = fprime0 + m1
    lam = np.empty_like(f)
    lam[..., :1] = fprime0
    lam[..., 1:] = fprime0 + m1[..., 1:] - m2[..., 1:] / r[1:]
    y = np.empty_like(f)
    y[..., 0] = 1.0
    y[..., 1:] = 1.0 + m2[..., 1:] / (lam[..., 1:] * r[1:])

    if (fprime <= 0).any() or (lam <= 0).any():
        degenerate = (fprime <= 0).any(axis=-1) | (lam <= 0).any(axis=-1)
        for row in np.flatnonzero(degenerate):
            fail_row(errors, row, DegenerateGeometry("f' or lambda not strictly positive"))
    return GeometryProfile(f=f, fprime=fprime, lam=lam, y=y, moment2=m2)


def y_at_boundary(grid: RadialGrid, zeta: np.ndarray):
    """y(1) = 1 + int_0^1 t**2 z dt: a float, or an array with one per row."""
    y1 = 1.0 + moment_integral(grid, zeta, 2)[..., -1]
    return y1 if y1.ndim else float(y1)
