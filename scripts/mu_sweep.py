"""Sweep the eigenvalue across the admissible interval and tabulate brho0(mu).

Run:  python scripts/mu_sweep.py [steps] [N]
"""

import sys

import numpy as np

from gravelast.constitutive import make_builtin_model
from gravelast.errors import SolverError
from gravelast.parameters import build_parameter_box
from gravelast.radial import RadialGrid
from gravelast.shooting import sweep


def main():
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 21
    cells = int(sys.argv[2]) if len(sys.argv) > 2 else 256
    model = make_builtin_model(3100.0)
    box = build_parameter_box(model, 1.0)

    mus = np.linspace(-box.mu0, box.mu0, steps)
    rows = sweep(model, 1.0, mus, RadialGrid(cells))

    print(f"mu0 = {box.mu0:.6e}, brho_plus = {box.brho_plus:.6f}, N = {cells}")
    print(f"{'mu':>14} {'brho0':>16} {'y(1)-1':>12} {'iters':>6} {'bc residual':>12}")
    for mu, r in zip(mus, rows):
        if isinstance(r, SolverError):
            print(f"{mu:14.6e}  FAILED: {type(r).__name__}: {r}")
        else:
            print(
                f"{mu:14.6e} {r.brho0:16.10f} {r.y[-1] - 1:12.4e} "
                f"{r.diagnostics.iterations:6d} {r.boundary_residual:12.3e}"
            )
    ok = [r for r in rows if not isinstance(r, SolverError)]
    if len(ok) > 1:
        slope = (ok[-1].brho0 - ok[0].brho0) / (ok[-1].mu - ok[0].mu)
        print(f"\n{len(ok)}/{len(rows)} rows ok; d(brho0)/d(mu) ~ {slope:.4f}")


if __name__ == "__main__":
    main()
