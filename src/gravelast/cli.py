"""Command-line driver: solve, sweep, evolve, verify.

Exit codes: 0 success, 2 usage/corrupt input, 3 solver error, 4 sweep with
no successful row, 5 verification threshold exceeded.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
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
from .fixed_point import DEFAULT_TOL
from .parameters import build_parameter_box, check_G, check_tolerance
from .radial import RadialGrid
from .shooting import (
    DEFAULT_TOL_BC,
    DEFAULT_TOL_BRHO,
    SolutionProfile,
    solve_separable,
    sweep as sweep_rows,
)
from .temporal import REGIME_COLLAPSING, assemble_motion, collapse_time, evolve_q
from .verify import residual_report, stress_profiles

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_SWEEP_EMPTY = 4
EXIT_VERIFY = 5

# The keys a --config file may set; each names an option's dest.
CONFIG_KEYS = (
    "model", "G", "N", "tol_picard", "tol_bc", "tol_brho",
    "mu", "qdot0", "dt", "max_residual", "max_equivalence", "max_boundary",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Accept scientific notation like -1e-3 as a value, not an option.
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = re.compile(r"^-\d*\.?\d+(?:[eE][-+]?\d+)?$")


def _checked(convert):
    """An argparse type whose ValueError message becomes the usage error."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _positive(text: str) -> float:
    if not 0 < (value := float(text)) < math.inf:
        raise ValueError(f"must be finite and positive, got {value!r}")
    return value


_tolerance = _checked(lambda text: check_tolerance(float(text)))


def _snapshot_times(text: str) -> list[float]:
    times = [float(t) for t in text.split(",") if t.strip()]
    if not all(math.isfinite(t) for t in times):
        raise ValueError(f"times must be finite, got {text!r}")
    return times


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # String defaults of --model and --N pass through their type, as a flag would.
    shared = _Parser(add_help=False)
    shared.add_argument("--model", type=_checked(parse_model_spec), default="builtin:kappa=3100",
                        help="model spec (default %(default)s)")
    shared.add_argument("--G", type=_checked(lambda s: check_G(float(s))), default=1.0,
                        help="gravitational constant (default %(default)s)")
    shared.add_argument("--N", type=_checked(lambda s: RadialGrid(int(s))), default="512",
                        help="grid cells, even and >= 16 (default %(default)s)")
    shared.add_argument("--tol-picard", type=_tolerance, dest="tol_picard", default=DEFAULT_TOL,
                        help="Picard update tolerance (default %(default)s)")
    shared.add_argument("--tol-bc", type=_tolerance, dest="tol_bc", default=DEFAULT_TOL_BC,
                        help="boundary mismatch tolerance (default %(default)s)")
    shared.add_argument("--tol-brho", type=_tolerance, dest="tol_brho", default=DEFAULT_TOL_BRHO,
                        help="brho0 tolerance relative to brho_plus (default %(default)s)")
    shared.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default %(default)s)")
    shared.add_argument("--config", type=Path,
                        help="flat key = value file of option defaults; flags win")

    p = _Parser(prog="gravelast", description=__doc__)
    p.add_argument("--version", action="version", version=f"gravelast {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    solve = sub.add_parser("solve", parents=[shared], help="solve one (mu, brho0) profile")
    solve.add_argument("--mu", type=float, default=0.0,
                       help="separation eigenvalue (default %(default)s)")

    swp = sub.add_parser("sweep", parents=[shared], help="solve a family of mu values")
    swp.add_argument("--mu-min", type=float, dest="mu_min", required=True)
    swp.add_argument("--mu-max", type=float, dest="mu_max", required=True)
    swp.add_argument("--steps", type=int, required=True)

    ev = sub.add_parser("evolve", parents=[shared], help="sample the amplitude q(t)")
    ev.add_argument("--mu", type=float, help="eigenvalue (default: profile's, else 0)")
    ev.add_argument("--qdot0", type=float, default=0.0,
                    help="initial amplitude rate (default %(default)s)")
    ev.add_argument("--t-end", type=_checked(_positive), dest="t_end", required=True)
    ev.add_argument("--dt", type=_checked(_positive), default=1e-3,
                    help="sample step (default %(default)s)")
    ev.add_argument("--snapshot-times", dest="snapshot_times", default=(),
                    type=_checked(_snapshot_times),
                    help="comma-separated times for radial field snapshots")
    ev.add_argument("--profile", type=Path, help="directory of a solved profile")

    ver = sub.add_parser("verify", parents=[shared], help="residual-check a solved profile")
    ver.add_argument("--profile", type=Path, required=True)
    ver.add_argument("--max-residual", type=_tolerance, dest="max_residual", default=1e-6,
                     help="residual threshold (default %(default)s)")
    ver.add_argument("--max-equivalence", type=_tolerance, dest="max_equivalence", default=1e-8,
                     help="equivalence gap threshold (default %(default)s)")
    ver.add_argument("--max-boundary", type=_tolerance, dest="max_boundary", default=1e-8,
                     help="|g'(y(1))| threshold (default %(default)s)")
    return p


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv with the process's one parser, which is never changed.

    A --config file's values are parsed again as `--key=value` flags placed
    right after the command, ahead of its own flags. Each is cast exactly as
    the flag, so a bad one exits 2 naming the option, and a flag given on the
    command line wins, being the last value seen. Keys outside CONFIG_KEYS or
    outside the command's options are ignored.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        config = read_config(args.config)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in config.items()
             if k in CONFIG_KEYS and hasattr(args, k)]
    i = argv.index(args.cmd) + 1
    return parser.parse_args(argv[:i] + flags + argv[i:])


def _tolerances(args) -> dict[str, float]:
    return {"tol_picard": args.tol_picard, "tol_bc": args.tol_bc, "tol_brho": args.tol_brho}


def _solver_settings(args) -> dict:
    """Manifest fields of the model, grid and tolerances a solve ran with."""
    return {
        "model": args.model.spec_string(), "G": args.G, "N": args.N.n,
        "tolerances": {k.removeprefix("tol_"): v for k, v in _tolerances(args).items()},
    }


def _write_manifest(args, argv, wall: float, results: dict, files, **inputs) -> None:
    """manifest.json in args.out: the command, its inputs, results and file hashes."""
    manifest = {
        "tool": {"name": "gravelast", "version": __version__},
        "command": "gravelast " + " ".join(argv),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": wall,
        "results": results,
        "files": {name: file_entry(args.out / name) for name in files},
        **inputs,
    }
    write_manifest(args.out / MANIFEST_FILE, manifest)


def _profile_csv_arrays(sol: SolutionProfile):
    c1, c2 = stress_profiles(sol)
    rho_t0 = sol.brho0 / (sol.fprime * sol.lam**2)
    return (sol.grid.nodes, sol.zeta, sol.f, sol.fprime, sol.lam, sol.y, c1, c2, rho_t0)


def cmd_solve(args, argv) -> int:
    t0 = time.perf_counter()
    sol = solve_separable(args.model, args.mu, args.G, args.N, **_tolerances(args))
    wall = time.perf_counter() - t0

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / PROFILE_FILE, PROFILE_UNITS, PROFILE_COLUMNS, _profile_csv_arrays(sol))
    results = {
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
    _write_manifest(args, argv, wall, results, [PROFILE_FILE],
                    mu=args.mu, **_solver_settings(args))
    print(f"solved mu={args.mu:g}: brho0={sol.brho0:.12g}, "
          f"|g'(y(1))|={abs(sol.boundary_residual):.3e} -> {out / PROFILE_FILE}")
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    if not all(map(math.isfinite, (args.mu_min, args.mu_max, args.mu_max - args.mu_min))):
        raise UsageError("--mu-min, --mu-max and their difference must be finite")
    mu_values = np.linspace(args.mu_min, args.mu_max, args.steps) if args.steps else []

    t0 = time.perf_counter()
    rows = sweep_rows(args.model, args.G, mu_values, args.N, **_tolerances(args))
    wall = time.perf_counter() - t0

    def column(name, dtype=float):
        return np.array([getattr(r, name) for r in rows], dtype=dtype)

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    cols = (
        *map(column, ("mu", "brho0", "y1", "fprime0", "zeta_norm")),
        column("iterations", int),
        column("bc_residual"),
        [(r.error or "").replace(",", ";") for r in rows],
    )
    write_csv(out / "sweep.csv", SWEEP_UNITS, SWEEP_COLUMNS, cols)

    n_ok = sum(1 for r in rows if r.error is None)
    results = {"rows": len(rows), "succeeded": n_ok, "errors": [r.error for r in rows if r.error]}
    _write_manifest(args, argv, wall, results, ["sweep.csv"], mu_min=args.mu_min,
                    mu_max=args.mu_max, steps=args.steps, **_solver_settings(args))
    print(f"sweep: {n_ok}/{len(rows)} rows ok -> {out / 'sweep.csv'}")
    if args.steps > 0 and n_ok == 0:
        return EXIT_SWEEP_EMPTY
    return EXIT_OK


def _load_profile_dir(path: Path) -> SolutionProfile:
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
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu!r}")
        brho0 = float(manifest["results"]["brho0"])
        if not 0 < brho0 < math.inf:
            raise ValueError(f"brho0 must be finite and positive, got {brho0!r}")
        if type(manifest["N"]) is not int:
            raise ValueError(f"N must be an integer, got {manifest['N']!r}")
        grid = RadialGrid(manifest["N"])
        cols = read_float_columns(csv_path, PROFILE_COLUMNS[:6])
        if len(cols["R"]) != grid.n + 1 or np.any(cols["R"] != grid.nodes):
            raise UsageError(f"profile radius column does not match an N={grid.n} grid")
        build_parameter_box(model, G)  # a bad G exits 2, a failing model 3
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"corrupt profile directory {path}: {exc}") from exc
    return SolutionProfile(
        model=model, mu=mu, brho0=brho0, G=G, grid=grid,
        zeta=cols["zeta"], f=cols["f"], fprime=cols["fprime"],
        lam=cols["lambda"], y=cols["y"],
        boundary_residual=float(model.dg(cols["y"][-1])),
        diagnostics=None, root_evaluations=0,
    )


def cmd_evolve(args, argv) -> int:
    profile = None
    if args.profile is not None:
        profile = _load_profile_dir(args.profile)
        mu = profile.mu
        if args.mu is not None and abs(args.mu - mu) > 1e-15 * max(1.0, abs(mu)):
            raise UsageError(f"--mu {args.mu:g} disagrees with profile mu {mu:g}")
    else:
        mu = 0.0 if args.mu is None else args.mu
    if not (math.isfinite(mu) and math.isfinite(args.qdot0)):
        raise UsageError("mu and qdot0 must be finite")

    if args.snapshot_times and profile is None:
        profile = solve_separable(args.model, mu, args.G, args.N, **_tolerances(args))

    t0 = time.perf_counter()
    try:
        temporal = evolve_q(mu, args.qdot0, args.t_end, args.dt)
    except ValueError as exc:  # t_end/dt beyond the float range
        raise UsageError(str(exc)) from exc
    collapse = None
    if temporal.regime == REGIME_COLLAPSING:
        est = collapse_time(mu, args.qdot0)
        collapse = {"T": est.time, "exponent": est.exponent, "prefactor": est.prefactor,
                    "local_exponents": est.local_exponents}
    wall = time.perf_counter() - t0

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "temporal.csv", TEMPORAL_UNITS, TEMPORAL_COLUMNS,
        (temporal.t, temporal.q, temporal.qdot, temporal.energy_drift),
    )
    files = ["temporal.csv"]
    snapshots = {}
    for idx, t_snap in enumerate(args.snapshot_times):
        snap = assemble_motion(profile, temporal, t_snap)
        name = f"snapshot_{idx:03d}.csv"
        write_csv(out / name, SNAPSHOT_UNITS, SNAPSHOT_COLUMNS,
                  (profile.grid.nodes, snap.phi, snap.u, snap.rho))
        files.append(name)
        snapshots[name] = {"t": snap.t, "q": snap.q, "mass": snap.mass}

    results = {
        "regime": temporal.regime,
        "e_eff": temporal.e_eff,
        "max_energy_drift": temporal.max_energy_drift,
        "stopped_early": temporal.stopped_early,
        "samples": int(len(temporal.t)),
        "collapse": collapse,
        "snapshots": snapshots,
    }
    _write_manifest(args, argv, wall, results, files,
                    mu=mu, qdot0=args.qdot0, t_end=args.t_end, dt=args.dt)
    msg = f"evolve mu={mu:g} qdot0={args.qdot0:g}: regime={temporal.regime}"
    if collapse:
        msg += f", T={collapse['T']:.6g}"
    print(msg + f" -> {out / 'temporal.csv'}")
    return EXIT_OK


def cmd_verify(args, argv) -> int:
    profile = _load_profile_dir(args.profile)
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
        report = residual_report(profile)
        passed = {
            "residual_separated": report.residual_separated <= args.max_residual,
            "residual_reformulation": report.residual_reformulation <= args.max_residual,
            "equivalence_gap": report.equivalence_gap
            <= args.max_equivalence * (1.0 + report.residual_separated),
            "boundary_residual": abs(report.boundary_residual) <= args.max_boundary,
        }
        ok = all(passed.values())
        lines += [f"{k} = {fmt(v)}" for k, v in asdict(report).items()]
        lines += [f"{k} = {fmt(getattr(args, k))}"
                  for k in ("max_residual", "max_equivalence", "max_boundary")]
        lines += [f"pass_{k} = {v}" for k, v in passed.items()]
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
    handlers = {
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "evolve": cmd_evolve,
        "verify": cmd_verify,
    }
    try:
        args = _parse_args(argv)
        return handlers[args.cmd](args, argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
