"""Time the solver's public functions: medians and quartiles per case.

Run:  python scripts/bench.py [--quick] [--label NAME] [--into FILE] [--commit SHA]

Times solve_separable at N = 512, 2048 and 8192, a 9-point sweep at
N = 512, the same sweep through cli.main (parsing, solving and writing
sweep.csv and manifest.json into a temporary directory), evolve_q over 30k
samples on four named orbits (mu, qdot0), one per regime of the
benchmark's regime_portrait: bound (-0.001, 0.01), repulsive
(0.001, 0.1), attractive outward unbound (-0.001, 0.3) and inward unbound
(-0.001, -0.3), which collapses near t = 3.2 and so stops early,
collapse_time on the bound orbit, one call each of
moment_integral, apply_F, picard_solve and boundary_mismatch at N = 512,
and the root search alone: brent_steps replaying the mismatch values of
one N = 512 solve, so no Picard run is timed.  Each case is warmed up, then
timed a fixed number of times; a sample of a fast case times a loop of
calls and reports the time per call.

gravelast is imported from sys.path, so PYTHONPATH chooses the tree to time.
The run's median and quartiles per case print as JSON, after env: the
commit timed and "dirty", true when git shows uncommitted changes to
tracked files of the timed tree's src/ (or cannot tell), so that commit
does not name the code timed.  With --into FILE,
the run is appended to FILE under --label and FILE's summary is
recomputed: per label, the median and quartiles of its run medians and
the sweep-to-solve ratio at N = 512; against the first label, the ratio
of medians and how many paired runs were faster.  Alternate the labels
run by run to pair them.  --quick shrinks every case for a smoke test.
"""

from __future__ import annotations

import os

# One BLAS thread before numpy loads, as a single-threaded client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import gravelast  # noqa: E402
from gravelast import cli, shooting  # noqa: E402
from gravelast.constitutive import V, make_builtin_model  # noqa: E402
from gravelast.fixed_point import apply_F, picard_solve  # noqa: E402
from gravelast.parameters import build_parameter_box  # noqa: E402
from gravelast.radial import RadialGrid, moment_integral  # noqa: E402
from gravelast.temporal import collapse_time, evolve_q  # noqa: E402

KAPPA, G = 3100.0, 1.0
ORBIT = (-0.001, 0.01)  # (mu, qdot0): bound, collapses near t = 34
# evolve_q case name -> (mu, qdot0); "evolve_q_30k" is the bound ORBIT
EVOLVE_ORBITS = {
    "evolve_q_30k": ORBIT,
    "evolve_q_30k_repulsive": (0.001, 0.1),
    "evolve_q_30k_outward": (-0.001, 0.3),
    "evolve_q_30k_inward": (-0.001, -0.3),
}
WARMUP = 2


def _time(fn, repeats: int, inner: int = 1) -> list[float]:
    """repeats samples of the per-call time of fn in ms, each over inner calls."""
    for _ in range(WARMUP):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        samples.append(1e3 * (perf_counter() - t0) / inner)
    return samples


def _replayed_root_search(model, box, grid, mu):
    """brent_steps fed the mismatch values one real solve at mu evaluated."""
    values = []
    real = shooting.boundary_mismatch

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        values.append(res.value)
        return res

    shooting.boundary_mismatch = recording
    try:
        shooting.solve_separable(model, mu, G, grid)
    finally:
        shooting.boundary_mismatch = real
    fa, fb, *trials = values
    a, b = V(box.brho_lower(mu), mu, G, 1.0), V(box.brho_plus, mu, G, 1.0)

    def search():
        steps = shooting.brent_steps(a, b, fa, fb, xtol=0.0, ftol=shooting.DEFAULT_TOL_BC,
                                     max_evals=len(trials))
        try:
            for value in [None, *trials]:
                steps.send(value)
        except StopIteration as stop:
            return stop.value

    return search


def _quiet_cli(argv: list[str]):
    """cli.main(argv) with its stdout discarded; raises unless it exits 0."""
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            if (code := cli.main(argv)) != 0:
                raise RuntimeError(f"gravelast {' '.join(argv)} exited {code}")
    return call


def cases(quick: bool, tmp: Path) -> dict:
    """name -> (fn, repeats, inner); the CLI case writes into tmp."""
    model = make_builtin_model(KAPPA)
    box = build_parameter_box(model, G)
    mu = 0.3 * box.mu0
    sizes = (64, 128, 256) if quick else (512, 2048, 8192)
    grid = RadialGrid(sizes[0])
    brho = 0.5 * (box.brho_lower(mu) + box.brho_plus)
    zeta, _ = picard_solve(model, brho, mu, G, grid)
    mus = np.linspace(-box.mu0, box.mu0, 9)
    t_end = 3.0 if quick else 30.0
    r = 2 if quick else 1
    out = {f"solve_separable_N{n}": (lambda n=n: shooting.solve_separable(
        model, mu, G, RadialGrid(n)), 30 // r // (1 + i), 1) for i, n in enumerate(sizes)}
    out.update({
        f"sweep9_N{sizes[0]}": (lambda: shooting.sweep(model, G, mus, grid), 20 // r, 1),
        f"cli_sweep9_N{sizes[0]}": (_quiet_cli(
            ["sweep", "--steps", "9", f"--N={sizes[0]}", f"--mu-min={-box.mu0!r}",
             f"--mu-max={box.mu0!r}", f"--out={tmp}"]), 20 // r, 1),
        **{name: (lambda orbit=orbit: evolve_q(*orbit, t_end, 1e-3), 10 // r, 1)
           for name, orbit in EVOLVE_ORBITS.items()},
        "collapse_time": (lambda: collapse_time(*ORBIT), 20 // r, 10),
        "moment_integral": (lambda: moment_integral(grid, zeta, 2), 30 // r, 200),
        "apply_F": (lambda: apply_F(model, brho, mu, G, grid, zeta), 30 // r, 20),
        "picard_solve": (lambda: picard_solve(model, brho, mu, G, grid), 30 // r, 5),
        "boundary_mismatch": (lambda: shooting.boundary_mismatch(model, brho, mu, G, grid),
                              30 // r, 5),
        "root_search": (_replayed_root_search(model, box, grid, mu), 30 // r, 50),
    })
    return out


def _stats(samples: list[float]) -> dict:
    if len(samples) < 2:
        return {"median_ms": samples[0], "q1_ms": samples[0], "q3_ms": samples[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": q2, "q1_ms": q1, "q3_ms": q3, "n": len(samples)}


def _git(*args: str) -> str | None:
    """stdout of git run in the timed tree's src/, None if git fails there."""
    try:
        return subprocess.run(["git", *args], capture_output=True, text=True, check=True,
                              cwd=Path(gravelast.__file__).parent.parent).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run(quick: bool, commit: str | None) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        timed = {name: _stats(_time(fn, repeats, inner))
                 for name, (fn, repeats, inner) in cases(quick, Path(tmp)).items()}
    changes = _git("status", "--porcelain", "--untracked-files=no", "--", ".")
    return {
        "env": {"cpu_count": os.cpu_count(), "numpy": np.__version__,
                "python": platform.python_version(), "commit": commit or _git("rev-parse", "HEAD"),
                "dirty": changes != ""},
        "cases": timed,
    }


def summarize(runs: dict) -> dict:
    """Per label and case: median and quartiles of the run medians.  Against the
    first label: the ratio of medians and the share of paired runs (the k-th
    run of each label) in which the label's median is lower."""
    medians = {label: {name: [one["cases"][name]["median_ms"] for one in label_runs]
                       for name in label_runs[0]["cases"]}
               for label, label_runs in runs.items()}
    base_label, base = next(iter(medians.items()))
    summary = {}
    for label, cases_ in medians.items():
        stats = {name: _stats(values) for name, values in cases_.items()}
        sweep = next(name for name in stats if name.startswith("sweep9_N"))
        solve = "solve_separable_N" + sweep.removeprefix("sweep9_N")
        summary[label] = {"cases": stats,
                          "sweep_over_solve": stats[sweep]["median_ms"] / stats[solve]["median_ms"]}
        if label != base_label:
            summary[label][f"over_{base_label}"] = {
                name: {"median_ratio": stats[name]["median_ms"] / _stats(base[name])["median_ms"],
                       "pairs_faster": f"{sum(v < b for v, b in zip(values, base[name]))}"
                                       f"/{min(len(values), len(base[name]))}"}
                for name, values in cases_.items() if name in base}
    return summary


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--quick", action="store_true", help="tiny cases, for a smoke test")
    p.add_argument("--label", default="run", help="name of this run in --into")
    p.add_argument("--into", type=Path, help="JSON file collecting labelled runs")
    p.add_argument("--commit", help="commit to record (default: git HEAD of gravelast)")
    args = p.parse_args(argv)
    result = run(args.quick, args.commit)
    if args.into:
        doc = json.loads(args.into.read_text()) if args.into.exists() else {"runs": {}}
        doc["runs"].setdefault(args.label, []).append(result)
        doc["summary"] = summarize(doc["runs"])
        args.into.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
