"""Grid refinement study: operator accuracy, fixed-point drift, residuals.

Run:  python scripts/convergence_study.py [kappa]
"""

import math
import sys

import numpy as np

from gravelast.constitutive import make_builtin_model
from gravelast.radial import RadialGrid, apply_L
from gravelast.shooting import solve_separable
from gravelast.verify import residual_report

GRIDS = (64, 128, 256, 512, 1024)


def main():
    kappa = float(sys.argv[1]) if len(sys.argv) > 1 else 3100.0
    model = make_builtin_model(kappa)

    print("== monomial eigen-action  L(R^n) vs R^n (n+5)/(n+3), max over n in {1,2,3} ==")
    prev = None
    for cells in GRIDS:
        grid = RadialGrid(cells)
        err = max(
            float(np.max(np.abs(apply_L(grid, grid.nodes**n) - grid.nodes**n * (n + 5) / (n + 3))))
            for n in (1, 2, 3)
        )
        order = "" if prev is None else f"order {math.log2(prev / err):5.2f}"
        print(f"  N={cells:5d}  err={err:.3e}  {order}")
        prev = err

    print("== separable solve at mu = 0: residuals under refinement ==")
    prev = None
    for cells in GRIDS:
        sol = solve_separable(model, 0.0, 1.0, RadialGrid(cells))
        rep = residual_report(sol)
        sup = rep.residual_separated
        order = "" if prev is None else f"order {math.log2(prev / sup):5.2f}"
        print(
            f"  N={cells:5d}  brho0={sol.brho0:.12f}  residual={sup:.3e}  "
            f"equiv-gap={rep.equivalence_gap:.1e}  {order}"
        )
        prev = sup


if __name__ == "__main__":
    main()
