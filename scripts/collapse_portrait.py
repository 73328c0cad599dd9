"""Portrait of the amplitude dynamics across the (mu, qdot0) regimes.

Run:  python scripts/collapse_portrait.py
"""

import math

from gravelast.temporal import classify, collapse_time, e_effective, evolve_q

CASES = [
    (0.001, 0.0),
    (0.001, -0.5),
    (0.0, 0.0),
    (0.0, 0.3),
    (0.0, -0.5),      # free inward start: q = 0 at T = 2, exponent 1
    (-0.02, 0.2),     # e_eff = 0, expanding branch
    (-0.0008, -0.04), # e_eff = 0, collapsing branch
    (-0.001, 0.0),
    (-0.002, 0.01),
    (-0.001, -0.5),   # e_eff > 0, inward unbound: still collapses
]


def main():
    print(f"{'mu':>10} {'qdot0':>8} {'e_eff':>12} {'regime':>24} {'T':>12} {'exponent':>9}")
    for mu, qdot0 in CASES:
        tag = classify(mu, qdot0)
        t_col, alpha = "", ""
        if tag == "collapsing":
            est = collapse_time(mu, qdot0)
            t_col, alpha = f"{est.time:12.6f}", f"{est.exponent:9.5f}"
        print(f"{mu:10.4f} {qdot0:8.3f} {e_effective(mu, qdot0):12.4e} {tag:>24} {t_col:>12} {alpha:>9}")

    print("\nfree-fall check: mu = -0.001 from rest vs pi/(2 sqrt(2|mu|))")
    est = collapse_time(-0.001, 0.0)
    print(f"  T = {est.time:.6f}  vs  {math.pi / (2 * math.sqrt(0.002)):.6f}")
    sol = evolve_q(-0.001, 0.0, 30.0, 1e-3)
    print(f"  energy drift over [0, 30]: {sol.max_energy_drift:.2e}")


if __name__ == "__main__":
    main()
