"""The benchmark's three workloads, driven only through gravelast's public API and CLI.

Each workload is one closed-loop client in one thread. Construction is the
set-up (model, parameter box, fixtures); ``draw`` makes the next op's input
from the seeded generator; ``run`` is the timed op; ``check`` applies the
oracles to its output and returns a fingerprint of the result, which the
traced run compares bit for bit with the untraced one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

# Calls go through module attributes (cli.main, temporal.evolve_q, ...) so
# that the tracer, which swaps those attributes, sees them.
from gravelast import cli, temporal
from gravelast.constitutive import make_builtin_model
from gravelast.parameters import build_parameter_box
from gravelast.radial import RadialGrid
from gravelast.shooting import solve_separable

import oracles

# The CLI's default model and G; every CLI op below runs with them.
KAPPA = 3100.0
G = 1.0


class OpFailed(Exception):
    """The op itself reported failure (a non-zero CLI exit code)."""


def _run_cli(argv: list[str]) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"gravelast {' '.join(argv)} exited {code}")


class _Workload:
    def __init__(self, seed: int, scratch: Path):
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.model = make_builtin_model(KAPPA)
        self.box = build_parameter_box(self.model, G)
        self.mu0 = self.box.mu0

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch / "op", ignore_errors=True)


class SolveVerifyFine(_Workload):
    """``gravelast solve --N 8192`` then ``gravelast verify``, in-process via cli.main.

    The user's real path at the finest grid of ROADMAP aim 1. Measured split
    (cProfile, one op): io.write_csv ~37%, CSV read ~12%, the solver ~47%
    (moment_integral self ~18%). It is the only workload with io writes and
    reads alongside large-array kernels, so io, radial and fixed_point
    changes show here.
    """

    name = "solve_verify_fine"
    N = 8192

    def draw(self) -> dict:
        return {"mu": float(self.rng.uniform(-self.mu0, self.mu0))}

    def run(self, inp: dict) -> Path:
        out = self.scratch / "op"
        _run_cli(["solve", "--N", str(self.N), "--mu", repr(inp["mu"]), "--out", str(out)])
        _run_cli(["verify", "--profile", str(out), "--out", str(out / "verify")])
        return out

    def check(self, inp: dict, out: Path) -> tuple:
        oracles.check_verify_verdict((out / "verify" / "report.txt").read_text(encoding="utf-8"))
        digest = oracles.check_manifest_hash(out, "profile.csv")
        cols = oracles.read_csv(out / "profile.csv")
        oracles.check_profile(oracles.float_column(cols, "f"), oracles.float_column(cols, "fprime"))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        return digest, manifest["results"]["brho0"]


class SweepCoarse(_Workload):
    """``gravelast sweep --steps 9 --N 512`` over a seeded mu interval.

    Per-call overhead dominates: ~35 boundary_mismatch calls x ~4 Picard
    steps per row on 513-node arrays, and validate_model repeated in every
    picard_solve (~6.5%); io is below 1%. Root-finder, warm-start,
    validate-once and batching changes (ROADMAP items 2-3) show here.
    """

    name = "sweep_coarse"
    N = 512
    STEPS = 9

    def draw(self) -> dict:
        lo, hi = sorted(float(m) for m in self.rng.uniform(-self.mu0, self.mu0, 2))
        return {"mu_min": lo, "mu_max": hi}

    def run(self, inp: dict) -> Path:
        out = self.scratch / "op"
        _run_cli([
            "sweep", "--steps", str(self.STEPS), "--N", str(self.N),
            "--mu-min", repr(inp["mu_min"]), "--mu-max", repr(inp["mu_max"]),
            "--out", str(out),
        ])
        return out

    def check(self, inp: dict, out: Path) -> tuple:
        digest = oracles.check_manifest_hash(out, "sweep.csv")
        expected = [float(m) for m in np.linspace(inp["mu_min"], inp["mu_max"], self.STEPS)]
        oracles.check_sweep_rows(oracles.read_csv(out / "sweep.csv"), expected)
        return (digest,)


class RegimePortrait(_Workload):
    """Four RK4-path amplitude trajectories, one per regime, plus field snapshots.

    Modelled on scripts/collapse_portrait.py but through the library: each
    op runs evolve_q over t_end = 30 at dt = 1e-3 (30k samples) for a bound
    collapse, a repulsive expansion, an attractive outward unbound and an
    inward unbound trajectory (tagged linear-expanding, yet it reaches
    q = 0), collapse_time wherever classify says collapsing, and three
    assemble_motion snapshots of the bound collapse on an N = 512 profile
    solved at set-up. temporal takes >99% of the time and radial, io and
    shooting ~0, so ROADMAP item 4 (Kepler closed form) moves this
    workload and every solver change predicts no change here.
    """

    name = "regime_portrait"
    N = 512
    T_END = 30.0
    DT = 1e-3
    SNAPSHOTS = 3

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        # The snapshots combine this profile with a trajectory at the same mu.
        mu = -float(self.rng.uniform(0.5, 1.0)) * self.mu0
        self.profile = solve_separable(self.model, mu, G, RadialGrid(self.N), box=self.box)

    def draw(self) -> dict:
        u = self.rng.uniform
        m = lambda: float(u(0.5, 1.0)) * self.mu0  # noqa: E731
        mu_b = self.profile.mu
        mu_r, mu_o, mu_i = m(), -m(), -m()
        return {
            # e_eff = mu (1 - s**2) with |s| <= 1/2: bound, T between ~13 and ~40.
            "cases": [
                ("bound", mu_b, float(u(-0.5, 0.5)) * math.sqrt(-2.0 * mu_b)),
                ("repulsive", mu_r, float(u(0.0, 0.2))),
                ("outward", mu_o, float(u(0.1, 0.3))),
                ("inward", mu_i, -float(u(0.1, 0.5))),
            ],
            "snapshot_fractions": sorted(float(x) for x in u(0.0, 1.0, self.SNAPSHOTS)),
        }

    def run(self, inp: dict) -> dict:
        trajectories, collapses = {}, {}
        for label, mu, qdot0 in inp["cases"]:
            trajectories[label] = temporal.evolve_q(mu, qdot0, self.T_END, self.DT)
            if temporal.classify(mu, qdot0) == temporal.REGIME_COLLAPSING:
                collapses[label] = temporal.collapse_time(mu, qdot0)
        bound = trajectories["bound"]
        t_last = float(bound.t[-1])
        snapshots = [temporal.assemble_motion(self.profile, bound, frac * t_last)
                     for frac in inp["snapshot_fractions"]]
        return {"trajectories": trajectories, "collapses": collapses, "snapshots": snapshots}

    def check(self, inp: dict, res: dict) -> tuple:
        trajectories, collapses = res["trajectories"], res["collapses"]
        for label, mu, qdot0 in inp["cases"]:
            traj = trajectories[label]
            t_last = float(traj.t[-1])
            if label == "bound":
                if label not in collapses:
                    raise oracles.OracleFailure(f"bound case mu={mu!r}, qdot0={qdot0!r} not collapsing")
                oracles.check_collapse_time(collapses[label].time, mu, qdot0)
            elif label == "inward":
                oracles.check_inward_stop(traj.stopped_early, t_last, mu, qdot0)
            else:
                oracles.check_full_span(traj.stopped_early, t_last, self.T_END)
        for snap in res["snapshots"]:
            oracles.check_mass(snap.mass, self.profile.brho0)
        digest = hashlib.sha256()
        for label, _, _ in inp["cases"]:
            traj = trajectories[label]
            digest.update(traj.t.tobytes() + traj.q.tobytes() + traj.qdot.tobytes())
        for snap in res["snapshots"]:
            digest.update(snap.phi.tobytes() + snap.rho.tobytes())
        return (digest.hexdigest(), tuple(c.time for c in collapses.values()),
                tuple(s.mass for s in res["snapshots"]))


WORKLOADS = {w.name: w for w in (SolveVerifyFine, SweepCoarse, RegimePortrait)}
