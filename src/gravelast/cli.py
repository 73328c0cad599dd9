"""Command-line driver: solve, sweep, evolve, verify.

Exit codes: 0 success, 2 usage error (a bad option, a corrupt or unreadable
input, an unwritable output, a size beyond memory), 3 solver error, 4 sweep
with no successful row, 5 verification threshold exceeded.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import shlex
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ParameterOutOfRange, SolverError
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
    write_csv,
    write_manifest,
)
from .parameters import build_parameter_box, check_G
from .radial import RadialGrid
from .shooting import SolutionProfile, solve_separable, sweep as sweep_rows
from .temporal import REGIME_COLLAPSING, assemble_motion, collapse_time, evolve_q
from .verify import residual_report, stress_profiles

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_SWEEP_EMPTY = 4
EXIT_VERIFY = 5

# The keys a --config file may set; each names an option's dest.
CONFIG_KEYS = (
    "model", "G", "N", "mu", "qdot0", "dt", "max_residual", "max_equivalence", "max_boundary",
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


@_checked
def _tolerance(text: str) -> float:
    # a NaN threshold would pass nothing and an infinite one everything
    if not (math.isfinite(value := float(text)) and value >= 0):
        raise ValueError(f"must be finite and >= 0, got {value!r}")
    return value


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
    command line wins, being the last value seen. A key outside CONFIG_KEYS
    exits 2 naming it; a listed key outside the command's options is ignored.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        config = read_config(args.config)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    if unknown := [k for k in config if k not in CONFIG_KEYS]:
        raise UsageError(f"unknown config key {', '.join(map(repr, unknown))} in "
                         f"{args.config}; known keys: {', '.join(CONFIG_KEYS)}")
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in config.items() if hasattr(args, k)]
    i = argv.index(args.cmd) + 1
    return parser.parse_args(argv[:i] + flags + argv[i:])


def _solver_settings(args) -> dict:
    """Manifest fields of the model and grid a solve ran with."""
    return {"model": args.model.spec_string(), "G": args.G, "N": args.N.n}


def _write_outputs(args, argv, wall: float, results: dict, tables: dict, **inputs) -> None:
    """Each CSV of tables, {name: (units, header, columns)}, then manifest.json
    (the command, its inputs, results and file hashes) into args.out.

    A failed write removes the files written, and what it left under a name
    that was free, then re-raises: a failed run leaves no half of its output.
    """
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    ours = [name for name in (*tables, MANIFEST_FILE) if not (out / name).exists()]
    try:
        for name, table in tables.items():
            write_csv(out / name, *table)
            ours.append(name)
        write_manifest(out / MANIFEST_FILE, {
            "tool": {"name": "gravelast", "version": __version__},
            "command": shlex.join(["gravelast", *argv]),
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": wall,
            "results": results,
            "files": {name: file_entry(out / name) for name in tables},
            **inputs,
        })
    except BaseException:
        for name in ours:
            (out / name).unlink(missing_ok=True)
        raise


def _profile_csv_arrays(sol: SolutionProfile):
    c1, c2 = stress_profiles(sol)
    rho_t0 = sol.brho0 / (sol.fprime * sol.lam**2)
    return (sol.grid.nodes, sol.zeta, sol.f, sol.fprime, sol.lam, sol.y, c1, c2, rho_t0)


def _summary(sol: SolutionProfile) -> dict:
    """The scalars of a solved profile that the solve manifest and its
    sweep.csv row report."""
    return {
        "brho0": sol.brho0,
        "y1": float(sol.y[-1]),
        "fprime0": sol.fprime0,
        "zeta_norm": float(np.max(np.abs(sol.zeta))),
        "picard_iterations": sol.diagnostics.iterations,
        "boundary_residual": sol.boundary_residual,
    }


def cmd_solve(args, argv) -> int:
    t0 = time.perf_counter()
    sol = solve_separable(args.model, args.mu, args.G, args.N)
    wall = time.perf_counter() - t0

    results = {
        **_summary(sol),
        "root_evaluations": sol.root_evaluations,
        "delta": sol.model.delta,
        "box": {
            "mu0": sol.box.mu0,
            "brho_plus": sol.box.brho_plus,
            "brho_lower": sol.box.brho_lower(sol.mu),
        },
    }
    _write_outputs(args, argv, wall, results,
                   {PROFILE_FILE: (PROFILE_UNITS, PROFILE_COLUMNS, _profile_csv_arrays(sol))},
                   mu=args.mu, **_solver_settings(args))
    print(f"solved mu={args.mu:g}: brho0={sol.brho0:.12g}, "
          f"|g'(y(1))|={abs(sol.boundary_residual):.3e} -> {args.out / PROFILE_FILE}")
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    if not all(map(math.isfinite, (args.mu_min, args.mu_max, args.mu_max - args.mu_min))):
        raise UsageError("--mu-min, --mu-max and their difference must be finite")
    mu_values = np.linspace(args.mu_min, args.mu_max, args.steps) if args.steps else []

    t0 = time.perf_counter()
    rows = sweep_rows(args.model, args.G, mu_values, args.N)
    wall = time.perf_counter() - t0

    # A failed row reports nan, 0 iterations and its error text. Only these
    # scalars outlive the rows: holding the rows' arrays while the files are
    # written cost about 200 more page faults per 9-row sweep at N = 512.
    summaries = [None if isinstance(r, SolverError) else _summary(r) for r in rows]
    errors = [f"{type(r).__name__}: {r}" if isinstance(r, SolverError) else "" for r in rows]
    del rows

    def column(key, failed=math.nan):
        return np.array([failed if s is None else s[key] for s in summaries], dtype=float)

    cols = (
        np.array(mu_values, dtype=float),
        *map(column, ("brho0", "y1", "fprime0", "zeta_norm")),
        column("picard_iterations", 0.0),
        column("boundary_residual"),
        # the CSV's own separators must not appear in a cell
        [e.replace(",", ";").replace("\r", " ").replace("\n", " ") for e in errors],
    )
    n_ok = errors.count("")
    results = {"rows": len(errors), "succeeded": n_ok, "errors": [e for e in errors if e]}
    _write_outputs(args, argv, wall, results, {"sweep.csv": (SWEEP_UNITS, SWEEP_COLUMNS, cols)},
                   mu_min=args.mu_min, mu_max=args.mu_max, steps=args.steps,
                   **_solver_settings(args))
    print(f"sweep: {n_ok}/{len(errors)} rows ok -> {args.out / 'sweep.csv'}")
    if args.steps > 0 and n_ok == 0:
        return EXIT_SWEEP_EMPTY
    return EXIT_OK


def _number(value, name: str) -> float:
    """A manifest field that must be a JSON number: not a bool or a string."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _load_profile_dir(path: Path) -> tuple[SolutionProfile, str]:
    """The profile saved in path and the sha256 of its profile.csv."""
    manifest_path = path / MANIFEST_FILE
    csv_path = path / PROFILE_FILE
    try:  # a missing or unreadable file raises OSError, which main reports
        manifest = read_manifest(manifest_path)
        sha256 = manifest["files"][PROFILE_FILE]["sha256"]
        if type(sha256) is not str:  # None would skip the check
            raise ValueError(f"sha256 must be a string, got {sha256!r}")
        cols = read_float_columns(csv_path, PROFILE_COLUMNS[:6], sha256)
        if bad := [name for name, col in cols.items() if not np.all(np.isfinite(col))]:
            raise ValueError(f"column {bad[0]} has a non-finite value")
        model = parse_model_spec(manifest["model"])
        G = _number(manifest["G"], "G")
        mu = _number(manifest["mu"], "mu")
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu!r}")
        brho0 = _number(manifest["results"]["brho0"], "brho0")
        if not 0 < brho0 < math.inf:
            raise ValueError(f"brho0 must be finite and positive, got {brho0!r}")
        if type(manifest["N"]) is not int:
            raise ValueError(f"N must be an integer, got {manifest['N']!r}")
        grid = RadialGrid(manifest["N"])
        if len(cols["R"]) != grid.n + 1 or np.any(cols["R"] != grid.nodes):
            raise UsageError(f"profile radius column does not match an N={grid.n} grid")
        # a bad G or a (brho0, mu) outside the box exits 2, a failing model 3
        build_parameter_box(model, G).check_brho(brho0, mu)
    except (KeyError, ValueError, TypeError, OverflowError, ParameterOutOfRange) as exc:
        raise UsageError(f"corrupt profile directory {path}: {exc}") from exc
    return SolutionProfile(
        model=model, mu=mu, brho0=brho0, G=G, grid=grid,
        zeta=cols["zeta"], f=cols["f"], fprime=cols["fprime"],
        lam=cols["lambda"], y=cols["y"],
        boundary_residual=float(model.dg(cols["y"][-1])),
        diagnostics=None, root_evaluations=0,
    ), sha256


def cmd_evolve(args, argv) -> int:
    profile = source = None
    if args.profile is not None:
        profile, sha256 = _load_profile_dir(args.profile)
        source = {"sha256": sha256}
        mu = profile.mu
        if args.mu is not None and abs(args.mu - mu) > 1e-15 * max(1.0, abs(mu)):
            raise UsageError(f"--mu {args.mu:g} disagrees with profile mu {mu:g}")
    else:
        mu = 0.0 if args.mu is None else args.mu
    if not (math.isfinite(mu) and math.isfinite(args.qdot0)):
        raise UsageError("mu and qdot0 must be finite")

    if args.snapshot_times and profile is None:
        profile = solve_separable(args.model, mu, args.G, args.N)
        source = {**_solver_settings(args), "brho0": profile.brho0}

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
    # every snapshot before any file: a failing one leaves the output empty
    snaps = [assemble_motion(profile, temporal, t_snap) for t_snap in args.snapshot_times]

    tables = {"temporal.csv": (TEMPORAL_UNITS, TEMPORAL_COLUMNS,
                               (temporal.t, temporal.q, temporal.qdot, temporal.energy_drift))}
    snapshots = {}
    for idx, snap in enumerate(snaps):
        name = f"snapshot_{idx:03d}.csv"
        tables[name] = (SNAPSHOT_UNITS, SNAPSHOT_COLUMNS,
                        (profile.grid.nodes, snap.phi, snap.u, snap.rho))
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
    _write_outputs(args, argv, wall, results, tables,
                   mu=mu, qdot0=args.qdot0, t_end=args.t_end, dt=args.dt, profile=source)
    msg = f"evolve mu={mu:g} qdot0={args.qdot0:g}: regime={temporal.regime}"
    if collapse:
        msg += f", T={collapse['T']:.6g}"
    print(msg + f" -> {args.out / 'temporal.csv'}")
    return EXIT_OK


def cmd_verify(args, argv) -> int:
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
        # a run that fails leaves no output, so a blocked --out stops it before any work
        if blocked := [p for p in (args.out, *args.out.parents) if p.exists() and not p.is_dir()]:
            raise UsageError(f"--out {args.out}: {blocked[0]} exists and is not a directory")
        return handlers[args.cmd](args, argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (UsageError, OSError, MemoryError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
