"""Command-line driver: solve, sweep, evolve, verify.

Exit codes: 0 success, 2 usage/corrupt input, 3 solver error, 4 sweep with
no successful row, 5 verification threshold exceeded.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .constitutive import ConstitutiveModel
from .errors import SolverError
from .io import (
    MANIFEST_FILE,
    PROFILE_COLUMNS,
    PROFILE_FILE,
    PROFILE_UNITS,
    REPORT_FILE,
    SNAPSHOT_COLUMNS,
    SNAPSHOT_UNITS,
    SWEEP_COLUMNS,
    SWEEP_UNITS,
    TEMPORAL_COLUMNS,
    TEMPORAL_UNITS,
    file_entry,
    fmt,
    parse_model_spec,
    read_config,
    read_float_columns,
    read_manifest,
    sha256_of,
    write_csv,
    write_manifest,
)
from .parameters import build_parameter_box
from .radial import RadialGrid
from .shooting import SolutionProfile, solve_separable, sweep as sweep_rows
from .temporal import REGIME_COLLAPSING, assemble_motion, collapse_time, evolve_q
from .verify import residual_report, stress_profiles

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_SWEEP_EMPTY = 4
EXIT_VERIFY = 5

DEFAULTS = {
    "model": "builtin:kappa=3100",
    "G": 1.0,
    "N": 512,
    "tol_picard": 1e-13,
    "tol_bc": 1e-10,
    "tol_brho": 1e-12,
    "qdot0": 0.0,
    "dt": 1e-3,
    "max_residual": 1e-6,
    "max_equivalence": 1e-8,
    "max_boundary": 1e-8,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Accept scientific notation like -1e-3 as a value, not an option.
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = re.compile(r"^-\d*\.?\d+(?:[eE][-+]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument("--model", help="model spec, e.g. builtin:kappa=3100")
    shared.add_argument("--G", type=float, help="gravitational constant (default 1)")
    shared.add_argument("--N", type=int, help="grid cells, even and >= 16 (default 512)")
    shared.add_argument("--tol-picard", type=float, dest="tol_picard")
    shared.add_argument("--tol-bc", type=float, dest="tol_bc")
    shared.add_argument("--tol-brho", type=float, dest="tol_brho")
    shared.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    shared.add_argument("--config", type=Path, help="flat key = value config file")

    p = _Parser(prog="gravelast", description=__doc__)
    p.add_argument("--version", action="version", version=f"gravelast {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    solve = sub.add_parser("solve", parents=[shared], help="solve one (mu, brho0) profile")
    solve.add_argument("--mu", type=float, help="separation eigenvalue (default 0)")

    swp = sub.add_parser("sweep", parents=[shared], help="solve a family of mu values")
    swp.add_argument("--mu-min", type=float, dest="mu_min", required=True)
    swp.add_argument("--mu-max", type=float, dest="mu_max", required=True)
    swp.add_argument("--steps", type=int, required=True)

    ev = sub.add_parser("evolve", parents=[shared], help="sample the amplitude q(t)")
    ev.add_argument("--mu", type=float, help="eigenvalue (default: profile's, else 0)")
    ev.add_argument("--qdot0", type=float, help="initial amplitude rate (default 0)")
    ev.add_argument("--t-end", type=float, dest="t_end", required=True)
    ev.add_argument("--dt", type=float, help="sample step (default 1e-3)")
    ev.add_argument("--snapshot-times", dest="snapshot_times",
                    help="comma-separated times for radial field snapshots")
    ev.add_argument("--profile", type=Path, help="directory of a solved profile")

    ver = sub.add_parser("verify", parents=[shared], help="residual-check a solved profile")
    ver.add_argument("--profile", type=Path, required=True)
    ver.add_argument("--max-residual", type=float, dest="max_residual")
    ver.add_argument("--max-equivalence", type=float, dest="max_equivalence")
    ver.add_argument("--max-boundary", type=float, dest="max_boundary")
    return p


def _resolve(args, config: dict, name: str, cast):
    val = getattr(args, name, None)
    if val is not None:
        return val
    if name in config:
        try:
            return cast(config[name])
        except ValueError as exc:
            raise UsageError(f"config value for {name!r} is not valid: {config[name]!r}") from exc
    return DEFAULTS[name]


def _load_config(args) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    path = Path(args.config)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    return read_config(path)


def _tolerances(args, config) -> dict[str, float]:
    names = ("tol_picard", "tol_bc", "tol_brho")
    return {k: float(_resolve(args, config, k, float)) for k in names}


def _grid(args, config) -> RadialGrid:
    n = int(_resolve(args, config, "N", int))
    try:
        return RadialGrid(n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _model(args, config) -> ConstitutiveModel:
    spec = _resolve(args, config, "model", str)
    try:
        return parse_model_spec(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _manifest_skeleton(argv) -> dict:
    return {
        "tool": {"name": "gravelast", "version": __version__},
        "command": "gravelast " + " ".join(argv),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }


def _profile_csv_arrays(sol: SolutionProfile):
    c1, c2 = stress_profiles(sol)
    rho_t0 = sol.brho0 / (sol.fprime * sol.lam**2)
    return (sol.grid.nodes, sol.zeta, sol.f, sol.fprime, sol.lam, sol.y, c1, c2, rho_t0)


def _write_solution(out: Path, sol: SolutionProfile, manifest: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / PROFILE_FILE, PROFILE_UNITS, PROFILE_COLUMNS, _profile_csv_arrays(sol))
    manifest["results"] = {
        "brho0": sol.brho0,
        "boundary_residual": sol.boundary_residual,
        "y1": float(sol.y[-1]),
        "fprime0": sol.fprime0,
        "zeta_norm": float(np.max(np.abs(sol.zeta))),
        "picard_iterations": sol.diagnostics.iterations,
        "root_evaluations": sol.root_evaluations,
        "delta": sol.model.delta,
        "box": {
            "mu0": sol.box.mu0,
            "brho_plus": sol.box.brho_plus,
            "brho_lower": sol.box.brho_lower(sol.mu),
        },
    }
    manifest["files"] = {PROFILE_FILE: file_entry(out / PROFILE_FILE)}
    write_manifest(out / MANIFEST_FILE, manifest)


def cmd_solve(args, argv) -> int:
    config = _load_config(args)
    model = _model(args, config)
    grid = _grid(args, config)
    G = float(_resolve(args, config, "G", float))
    mu = float(args.mu if args.mu is not None else config.get("mu", 0.0))
    tols = _tolerances(args, config)

    t0 = time.perf_counter()
    sol = solve_separable(model, mu, G, grid, **tols)
    wall = time.perf_counter() - t0

    manifest = _manifest_skeleton(argv)
    manifest.update(
        model=model.spec_string(), G=G, mu=mu, N=grid.n,
        tolerances={"picard": tols["tol_picard"], "bc": tols["tol_bc"], "brho": tols["tol_brho"]},
        wall_time_s=wall,
    )
    _write_solution(args.out, sol, manifest)
    print(f"solved mu={mu:g}: brho0={sol.brho0:.12g}, "
          f"|g'(y(1))|={abs(sol.boundary_residual):.3e} -> {args.out / PROFILE_FILE}")
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    config = _load_config(args)
    model = _model(args, config)
    grid = _grid(args, config)
    G = float(_resolve(args, config, "G", float))
    tols = _tolerances(args, config)
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    mu_values = np.linspace(args.mu_min, args.mu_max, args.steps) if args.steps else []

    t0 = time.perf_counter()
    rows = sweep_rows(model, G, mu_values, grid, **tols)
    wall = time.perf_counter() - t0

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    cols = (
        [r.mu for r in rows],
        [r.brho0 for r in rows],
        [r.y1 for r in rows],
        [r.fprime0 for r in rows],
        [r.zeta_norm for r in rows],
        [r.iterations for r in rows],
        [r.bc_residual for r in rows],
        [(r.error or "").replace(",", ";") for r in rows],
    )
    write_csv(out / "sweep.csv", SWEEP_UNITS, SWEEP_COLUMNS, cols)

    n_ok = sum(1 for r in rows if r.error is None)
    manifest = _manifest_skeleton(argv)
    manifest.update(
        model=model.spec_string(), G=G, N=grid.n,
        mu_min=args.mu_min, mu_max=args.mu_max, steps=args.steps,
        tolerances={"picard": tols["tol_picard"], "bc": tols["tol_bc"], "brho": tols["tol_brho"]},
        wall_time_s=wall,
        results={"rows": len(rows), "succeeded": n_ok,
                 "errors": [r.error for r in rows if r.error]},
        files={"sweep.csv": file_entry(out / "sweep.csv")},
    )
    write_manifest(out / MANIFEST_FILE, manifest)
    print(f"sweep: {n_ok}/{len(rows)} rows ok -> {out / 'sweep.csv'}")
    if args.steps > 0 and n_ok == 0:
        return EXIT_SWEEP_EMPTY
    return EXIT_OK


def _load_profile_dir(path: Path) -> tuple[SolutionProfile, dict]:
    manifest_path = path / MANIFEST_FILE
    csv_path = path / PROFILE_FILE
    if not manifest_path.exists():
        raise UsageError(f"missing manifest: {manifest_path}")
    if not csv_path.exists():
        raise UsageError(f"missing profile: {csv_path}")
    try:
        manifest = read_manifest(manifest_path)
        if sha256_of(csv_path) != manifest["files"][PROFILE_FILE]["sha256"]:
            raise UsageError(f"{csv_path} does not match the sha256 in {manifest_path}")
        model = parse_model_spec(manifest["model"])
        G = float(manifest["G"])
        mu = float(manifest["mu"])
        grid = RadialGrid(int(manifest["N"]))
        brho0 = float(manifest["results"]["brho0"])
        cols = read_float_columns(csv_path, PROFILE_COLUMNS[:6])
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"corrupt profile directory {path}: {exc}") from exc
    if len(cols["R"]) != grid.n + 1 or np.any(cols["R"] != grid.nodes):
        raise UsageError(f"profile radius column does not match an N={grid.n} grid")
    box = build_parameter_box(model, G)
    profile = SolutionProfile(
        model=model, mu=mu, brho0=brho0, G=G, grid=grid,
        zeta=cols["zeta"], f=cols["f"], fprime=cols["fprime"],
        lam=cols["lambda"], y=cols["y"], fprime0=float(cols["fprime"][0]),
        boundary_residual=float(model.dg(cols["y"][-1])),
        diagnostics=None, root_evaluations=0, box=box,
    )
    return profile, manifest


def cmd_evolve(args, argv) -> int:
    config = _load_config(args)
    qdot0 = float(_resolve(args, config, "qdot0", float))
    dt = float(_resolve(args, config, "dt", float))
    if args.t_end <= 0 or dt <= 0:
        raise UsageError("--t-end and --dt must be positive")

    profile = None
    if args.profile is not None:
        profile, _ = _load_profile_dir(args.profile)
        mu = profile.mu
        if args.mu is not None and abs(args.mu - mu) > 1e-15 * max(1.0, abs(mu)):
            raise UsageError(
                f"--mu {args.mu:g} disagrees with profile mu {mu:g}"
            )
    else:
        mu = float(args.mu if args.mu is not None else config.get("mu", 0.0))
    if not (math.isfinite(mu) and math.isfinite(qdot0)):
        raise UsageError("mu and qdot0 must be finite")

    snapshot_times = []
    if args.snapshot_times:
        try:
            snapshot_times = [float(s) for s in args.snapshot_times.split(",") if s.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --snapshot-times: {args.snapshot_times!r}") from exc
        if profile is None:
            model = _model(args, config)
            grid = _grid(args, config)
            G = float(_resolve(args, config, "G", float))
            profile = solve_separable(model, mu, G, grid, **_tolerances(args, config))

    t0 = time.perf_counter()
    temporal = evolve_q(mu, qdot0, args.t_end, dt)
    collapse = None
    if temporal.regime == REGIME_COLLAPSING:
        est = collapse_time(mu, qdot0)
        collapse = {"T": est.time, "exponent": est.exponent, "prefactor": est.prefactor}
    wall = time.perf_counter() - t0

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "temporal.csv", TEMPORAL_UNITS, TEMPORAL_COLUMNS,
        (temporal.t, temporal.q, temporal.qdot, temporal.energy_drift),
    )
    files = {"temporal.csv": file_entry(out / "temporal.csv")}
    snapshots = {}
    for idx, t_snap in enumerate(snapshot_times):
        snap = assemble_motion(profile, temporal, t_snap)
        name = f"snapshot_{idx:03d}.csv"
        write_csv(out / name, SNAPSHOT_UNITS, SNAPSHOT_COLUMNS,
                  (profile.grid.nodes, snap.phi, snap.u, snap.rho))
        files[name] = file_entry(out / name)
        snapshots[name] = {"t": snap.t, "q": snap.q, "mass": snap.mass}

    manifest = _manifest_skeleton(argv)
    manifest.update(
        mu=mu, qdot0=qdot0, t_end=args.t_end, dt=dt, wall_time_s=wall,
        results={
            "regime": temporal.regime,
            "e_eff": temporal.e_eff,
            "max_energy_drift": temporal.max_energy_drift,
            "stopped_early": temporal.stopped_early,
            "samples": int(len(temporal.t)),
            "collapse": collapse,
            "snapshots": snapshots,
        },
        files=files,
    )
    write_manifest(out / MANIFEST_FILE, manifest)
    msg = f"evolve mu={mu:g} qdot0={qdot0:g}: regime={temporal.regime}"
    if collapse:
        msg += f", T={collapse['T']:.6g}"
    print(msg + f" -> {out / 'temporal.csv'}")
    return EXIT_OK


def cmd_verify(args, argv) -> int:
    config = _load_config(args)
    max_res = float(_resolve(args, config, "max_residual", float))
    max_equiv = float(_resolve(args, config, "max_equivalence", float))
    max_bc = float(_resolve(args, config, "max_boundary", float))

    profile, _ = _load_profile_dir(args.profile)
    r = profile.grid.nodes

    # Column consistency: lambda and y must match what f and f' imply.
    checks = {
        "f_boundary": abs(float(profile.f[-1]) - 1.0),
        "lambda_consistency": float(
            max(
                np.max(np.abs(profile.lam[1:] - profile.f[1:] / r[1:])),
                abs(profile.lam[0] - profile.fprime[0]),
            )
        ),
        "y_consistency": float(np.max(np.abs(profile.y - profile.fprime / profile.lam))),
    }
    consistent = all(v <= 1e-9 for v in checks.values())

    lines = [f"{k} = {fmt(v)}" for k, v in checks.items()]
    ok = consistent
    if consistent:
        report = residual_report(profile.model, profile)
        passed = {
            "residual_separated": report.residual_separated <= max_res,
            "residual_reformulation": report.residual_reformulation <= max_res,
            "equivalence_gap": report.equivalence_gap
            <= max_equiv * (1.0 + report.residual_separated),
            "boundary_residual": abs(report.boundary_residual) <= max_bc,
        }
        ok = all(passed.values())
        lines += [
            f"residual_separated = {fmt(report.residual_separated)}",
            f"residual_reformulation = {fmt(report.residual_reformulation)}",
            f"equivalence_gap = {fmt(report.equivalence_gap)}",
            f"boundary_residual = {fmt(report.boundary_residual)}",
            f"grid_n = {report.grid_n}",
            f"stencil_order = {report.stencil_order}",
            f"max_residual = {fmt(max_res)}",
            f"max_equivalence = {fmt(max_equiv)}",
            f"max_boundary = {fmt(max_bc)}",
        ] + [f"pass_{k} = {v}" for k, v in passed.items()]
    else:
        lines.append("pass_consistency = False")
    lines.append(f"verdict = {'pass' if ok else 'fail'}")

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / REPORT_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFY


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    handler = {
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "evolve": cmd_evolve,
        "verify": cmd_verify,
    }[args.cmd]
    try:
        return handler(args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
