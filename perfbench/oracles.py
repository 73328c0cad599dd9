"""Output checks of the benchmark, independent of the solver's own checks.

Each check raises OracleFailure with a message naming what is wrong. The
CSV reader and the collapse-time formula live here on purpose: an oracle
that called back into gravelast would share the defects it is meant to
catch.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Tolerances, fixed before measuring.
F_BOUNDARY_TOL = 1e-12
SWEEP_BC_TOL = 1e-8
COLLAPSE_REL_TOL = 1e-8
MASS_REL_TOL = 1e-12


class OracleFailure(Exception):
    """An output failed one of the benchmark's correctness checks."""


def read_csv(path: Path) -> dict[str, list[str]]:
    """Columns of a gravelast CSV as strings: '#' comment lines, then a header."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    if not lines:
        raise OracleFailure(f"{path} has no header row")
    header = lines[0].split(",")
    cols: dict[str, list[str]] = {name: [] for name in header}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise OracleFailure(f"{path}: row has {len(parts)} fields, header {len(header)}")
        for name, val in zip(header, parts):
            cols[name].append(val)
    return cols


def float_column(cols: dict[str, list[str]], name: str) -> list[float]:
    if name not in cols:
        raise OracleFailure(f"missing column {name!r}")
    return [float(v) for v in cols[name]]


def check_manifest_hash(out_dir: Path, file_name: str) -> str:
    """Re-hash an emitted file and compare with the manifest's sha256."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    recorded = manifest["files"][file_name]["sha256"]
    actual = hashlib.sha256((out_dir / file_name).read_bytes()).hexdigest()
    if actual != recorded:
        raise OracleFailure(f"{file_name}: sha256 {actual} != manifest {recorded}")
    return actual


def check_verify_verdict(report_text: str) -> None:
    """The verify report, run at the CLI's default thresholds, says pass."""
    verdicts = [ln for ln in report_text.splitlines() if ln.startswith("verdict = ")]
    if verdicts != ["verdict = pass"]:
        raise OracleFailure(f"verify verdict lines {verdicts!r}, expected ['verdict = pass']")


def check_profile(f: list[float], fprime: list[float]) -> None:
    """f(1) = 1 to F_BOUNDARY_TOL and f' > 0 at every node."""
    if not abs(f[-1] - 1.0) <= F_BOUNDARY_TOL:
        raise OracleFailure(f"f(1) = {f[-1]!r}, expected 1 within {F_BOUNDARY_TOL:g}")
    bad = [i for i, v in enumerate(fprime) if not v > 0.0]
    if bad:
        raise OracleFailure(f"f' <= 0 at {len(bad)} nodes, first at index {bad[0]}")


def check_sweep_rows(cols: dict[str, list[str]], mu_expected: list[float]) -> None:
    """Every row solved (empty error) with |bc_residual| <= SWEEP_BC_TOL, in mu order."""
    mus = float_column(cols, "mu")
    if mus != mu_expected:
        raise OracleFailure(f"sweep mu column {mus!r} != requested {mu_expected!r}")
    for mu, err, bc in zip(mus, cols["error"], float_column(cols, "bc_residual")):
        if err:
            raise OracleFailure(f"sweep row mu={mu!r} failed: {err}")
        if not abs(bc) <= SWEEP_BC_TOL:
            raise OracleFailure(f"sweep row mu={mu!r}: |bc_residual| = {abs(bc):.3e}")


def kepler_collapse_time(mu: float, qdot0: float) -> float:
    """Time at which q**2 qddot = mu, q(0) = 1, qdot(0) = qdot0 reaches q = 0.

    Radial Kepler orbit with attraction |mu| (mu < 0) and energy
    e = qdot0**2/2 + mu. For e < 0, q = A(1 - cos eta) and
    t = sqrt(A**3/|mu|)(eta - sin eta) with A = |mu|/(2|e|); q = 0 again at
    eta = 2 pi. For e > 0 and qdot0 < 0, q = A(cosh eta - 1) and
    t_collapse - t = sqrt(A**3/|mu|)(sinh eta - eta) with A = |mu|/(2e).
    """
    e = 0.5 * qdot0 * qdot0 + mu
    m = -mu
    if m <= 0.0 or e == 0.0 or (e > 0.0 and qdot0 >= 0.0):
        raise ValueError(f"(mu={mu!r}, qdot0={qdot0!r}) never reaches q = 0 on a Kepler orbit")
    if e < 0.0:
        a = m / (-2.0 * e)
        eta = math.acos(1.0 - 1.0 / a)
        if qdot0 < 0.0:
            eta = 2.0 * math.pi - eta
        return math.sqrt(a**3 / m) * (2.0 * math.pi - (eta - math.sin(eta)))
    a = m / (2.0 * e)
    eta = math.acosh(1.0 + 1.0 / a)
    return math.sqrt(a**3 / m) * (math.sinh(eta) - eta)


def check_collapse_time(estimate: float, mu: float, qdot0: float) -> None:
    """collapse_time agrees with the Kepler closed form to COLLAPSE_REL_TOL."""
    exact = kepler_collapse_time(mu, qdot0)
    rel = abs(estimate - exact) / exact
    if not rel <= COLLAPSE_REL_TOL:
        raise OracleFailure(
            f"collapse time {estimate!r} vs Kepler {exact!r} (rel {rel:.2e}) "
            f"at mu={mu!r}, qdot0={qdot0!r}"
        )


def check_inward_stop(stopped_early: bool, t_last: float, mu: float, qdot0: float) -> None:
    """An inward unbound trajectory stops before it reaches q = 0."""
    exact = kepler_collapse_time(mu, qdot0)
    if not stopped_early or not t_last < exact:
        raise OracleFailure(
            f"inward trajectory mu={mu!r}, qdot0={qdot0!r}: stopped_early={stopped_early}, "
            f"last sample t={t_last!r}, Kepler T={exact!r}"
        )


def check_full_span(stopped_early: bool, t_last: float, t_end: float) -> None:
    """A trajectory that never reaches q = 0 covers the whole requested span."""
    if stopped_early or not abs(t_last - t_end) <= 1e-9 * t_end:
        raise OracleFailure(
            f"non-collapsing trajectory stopped at t={t_last!r} of {t_end!r}"
        )


def check_mass(mass: float, brho0: float) -> None:
    """Total mass of a snapshot equals (4 pi/3) brho0 at any time."""
    exact = 4.0 * math.pi / 3.0 * brho0
    rel = abs(mass - exact) / exact
    if not rel <= MASS_REL_TOL:
        raise OracleFailure(f"snapshot mass {mass!r} vs (4 pi/3) brho0 = {exact!r} (rel {rel:.2e})")
