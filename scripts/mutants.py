"""Run the mutation catalogue: named edits that a check of the program must catch.

Run:  python scripts/mutants.py [--list] [NAME ...]

Each entry of MUTANTS is a (name, file, old, new) edit, where old occurs
exactly once in file, a path from the repository root. For each mutant
named (all by default) the script copies src/, tests/ and pyproject.toml to
a temporary directory, applies the edit there and runs the tier-1 pytest
command with -x on TEST_FILES. A mutant is killed when a test fails, and
its line names the first failing test; it survives when every test passes.
The exit status is 1 if any mutant survived.

With --list it checks that each edit applies, prints the catalogue and runs
no tests.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TEST_FILES = ["tests/test_constitutive.py", "tests/test_parameter_space.py"]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str


CONSTITUTIVE = "src/gravelast/constitutive.py"
MUTANTS = [
    Mutant("normalization-tol-x1000", CONSTITUTIVE,
           "NORMALIZATION_TOL = 1e-12", "NORMALIZATION_TOL = 1e-9"),
    Mutant("largeness-margin-1.00", CONSTITUTIVE,
           "if not g2_1 >= 1.01 * threshold:", "if not g2_1 >= 1.00 * threshold:"),
    Mutant("E-reference-without-g3-term", CONSTITUTIVE,
           "d2h = 7.0 * model.d2g(ys) + 3.0 * ys * model.d3g(ys)", "d2h = 7.0 * model.d2g(ys)"),
    Mutant("E-rtol-1e-5", CONSTITUTIVE, "E_RTOL = 1e-9", "E_RTOL = 1e-5"),
]


def edited(mutant: Mutant) -> str:
    """The text of mutant.file with the edit made; ValueError unless old
    occurs exactly once."""
    text = (ROOT / mutant.file).read_text()
    if (count := text.count(mutant.old)) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def first_failure(mutant: Mutant) -> str | None:
    """The first failing test with the mutant applied, or None if all pass."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / mutant.file).write_text(edited(mutant))
        path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", *TEST_FILES]
        run = subprocess.run(cmd, cwd=copy, env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True)
    if run.returncode == 0:
        return None
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"pytest exit status {run.returncode}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("names", nargs="*", help="mutants to run (default: all)")
    p.add_argument("--list", action="store_true", help="check and print the catalogue only")
    args = p.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    if unknown := [n for n in args.names if n not in known]:
        p.error(f"unknown mutant {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] if args.names else MUTANTS
    if args.list:
        for m in chosen:
            edited(m)
            print(f"{m.name}: {m.file}: {m.old!r} -> {m.new!r}")
        return 0
    survived = 0
    for m in chosen:
        failure = first_failure(m)
        survived += failure is None
        print(f"{m.name}: " + ("survived" if failure is None else f"killed by {failure}"),
              flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    if main():
        sys.exit(1)
