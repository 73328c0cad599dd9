"""gravelast benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload solve_verify_fine --seed 1 --seconds 36 --trace 0

The program is imported from ``src/`` of the checkout. After ``--seconds``
of ops the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced. With ``--trace 1`` untraced
and traced ops alternate on the same inputs, the traced results must be
bit-identical to the untraced ones, and the metrics are the per-layer
ones from tracer.py plus the tracing overhead. Every op's output goes
through the oracles in oracles.py; an op that raises, exits non-zero or
fails an oracle counts as failed.
"""

from __future__ import annotations

import os

# One thread per BLAS pool before numpy loads: nproc is small, and a
# workload is a single-threaded client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WARMUP_OPS = 2
# Set-up is timed in this process and in SETUP_PROBES fresh ones, spread
# evenly over the measured span; setup_s is the median.
SETUP_PROBES = 10
# op_tail_ms is this fixed percentile of op latency, so runs at different
# speeds compare the same percentile. A run with fewer than TAIL_BEYOND
# samples beyond it fails: at TAIL_PCT = 80 that is fewer than 50 ops.
TAIL_PCT = 80
TAIL_BEYOND = 10


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import gravelast from src/ of this checkout, and nowhere else."""
    if not (SRC / "gravelast" / "__init__.py").is_file():
        raise SystemExit(f"error: no gravelast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gravelast

    if Path(gravelast.__file__).resolve().parent != SRC / "gravelast":
        raise SystemExit(f"error: gravelast imported from {gravelast.__file__}, not {SRC}")
    import workloads

    return workloads


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read as files; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


def _setup_probe(args) -> float:
    """Set-up time of this workload in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class _Loop:
    """Closed loop: draw an input, time the op, check it, clean up, repeat."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self, inp, call):
        """Time call(inp); return (seconds, fingerprint), or None if the op failed."""
        self.attempted += 1
        try:
            t0 = perf_counter()
            result = call(inp)
            elapsed = perf_counter() - t0
            return elapsed, self.workload.check(inp, result)
        except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc(limit=3))
            return None
        finally:
            self.workload.cleanup()


def _tail(samples: list[float]) -> float:
    """TAIL_PCT percentile of samples; fails with too few samples beyond it."""
    if len(samples) * (100 - TAIL_PCT) < 100 * TAIL_BEYOND:
        raise SystemExit(f"error: {len(samples)} ops leave fewer than {TAIL_BEYOND} "
                         f"beyond p{TAIL_PCT}, too few for op_tail_ms")
    return statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PCT - 1]


def _measure_e2e(workload, loop: _Loop, seconds: float, probe) -> tuple[dict, list[float]]:
    """Run ops for ``seconds``, pausing at even intervals for a set-up probe."""
    latencies, setup_samples = [], []
    start = perf_counter()
    paused = 0.0
    while (measured := perf_counter() - start - paused) < seconds:
        if len(setup_samples) < SETUP_PROBES and (
                measured >= len(setup_samples) * seconds / SETUP_PROBES):
            t0 = perf_counter()
            setup_samples.append(probe())
            paused += perf_counter() - t0
            continue
        got = loop.one(workload.draw(), workload.run)
        if got is not None:
            latencies.append(got[0])
    tail = _tail(latencies)
    # Reported, not gated: on a host with contention episodes the median and
    # mean swing with the share of fast episodes in a run (see README.md).
    print(f"op_tail_ms: p{TAIL_PCT} of {len(latencies)} ops; "
          f"op_p50_ms: {1e3 * statistics.median(latencies)!r}; "
          f"ops_per_s: {len(latencies) / sum(latencies)!r}")
    print(f"op_ms: {json.dumps([1e3 * x for x in latencies])}")
    metrics = {
        "op_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, setup_samples


def _measure_traced(workload, loop: _Loop, seconds: float) -> tuple[dict, bool]:
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    identical = True
    t_end = perf_counter() + seconds
    op_id = 0
    while perf_counter() < t_end:
        inp = workload.draw()
        a = loop.one(inp, workload.run)
        tracer.install()
        try:
            op_id += 1
            b = loop.one(inp, lambda x, i=op_id: tracer.run_op(i, workload.run, x))
        finally:
            tracer.uninstall()
        if a is None or b is None:
            continue
        plain.append(a[0])
        traced.append(b[0])
        if a[1] != b[1]:
            identical = False
            loop.errors.append(f"traced result differs from untraced: {a[1]!r} vs {b[1]!r}")
    metrics = tracer.metrics()
    p_plain, p_traced = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_pct"] = 100.0 * (p_traced - p_plain) / p_plain
    metrics = {name: (value, tracing.unit(name)) for name, value in metrics.items()}
    print(f"traced ops: {len(traced)}, p50 {1e3 * p_traced:.3f} ms traced vs "
          f"{1e3 * p_plain:.3f} ms untraced")
    return metrics, identical


def main(argv=None) -> int:
    args = _parse(argv)
    # A terminated run still removes its scratch directory (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    t0 = perf_counter()
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        setup_s = perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        loop = _Loop(workload)
        for _ in range(WARMUP_OPS):
            if loop.one(workload.draw(), workload.run) is None:
                break
        warm_failed = loop.failed
        if args.trace:
            metrics, identical = _measure_traced(workload, loop, args.seconds)
        else:
            metrics, probes = _measure_e2e(workload, loop, args.seconds,
                                           lambda: _setup_probe(args))
            identical = True
            setup_samples = [setup_s] + probes
            print(f"setup_s samples: {setup_samples}")
            metrics["setup_s"] = (statistics.median(setup_samples), "s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    for err in loop.errors:
        print(err, file=sys.stderr)
    attempted, failed = loop.attempted, loop.failed
    print(f"env: {json.dumps(_environment(), sort_keys=True)}")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted!r}"
          + (f" ({warm_failed} in warm-up)" if warm_failed else ""))
    result = {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
