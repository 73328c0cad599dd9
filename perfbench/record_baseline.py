"""Run every workload on the baseline seeds, untraced and traced, and save the results.

Run from the repository root:

    python3 perfbench/record_baseline.py --out perfbench/baseline.json

Each run is ``perfbench/run.py`` with ``run_seconds`` from BENCHMARK.json.
The file records, per workload and seed, the end-to-end metrics, the
per-layer metrics, the informational lines run.py prints (tail percentile
and sample count, error rate, tracing p50s) and the environment.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Later claims are checked on seeds other than these.
SEEDS = (1, 2)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    *info, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    env = next(json.loads(ln[len("env: "):]) for ln in info if ln.startswith("env: "))
    return {"result": result, "env": env,
            "info": [ln for ln in info if not ln.startswith("env: ")]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, default=ROOT / "perfbench" / "baseline.json")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs, env = {}, None
    for w in spec["workloads"]:
        for seed in SEEDS:
            for trace in (0, 1):
                got = _run(w["name"], seed, spec["run_seconds"], trace)
                env = got.pop("env")
                runs.setdefault(w["name"], {}).setdefault(str(seed), {})[
                    "per_layer" if trace else "end_to_end"] = got
                print(f"{w['name']} seed {seed} trace {trace}: "
                      f"correct={got['result']['correct']}", file=sys.stderr)
    args.out.write_text(json.dumps({"run_seconds": spec["run_seconds"], "env": env,
                                    "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
