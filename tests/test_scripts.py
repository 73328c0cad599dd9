"""Each example script in scripts/ runs to completion, on small arguments.

A script that an API change breaks fails here instead of at its next user.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

from gravelast import temporal

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# Arguments that keep a script under a second; a script not listed runs bare.
ARGS = {"mu_sweep.py": ["5", "64"], "bench.py": ["--quick"],
        "kepler_starters.py": ["--check", "--points", "40"], "mutants.py": ["--list"]}


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_runs(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path), *ARGS.get(path.name, [])])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out and "FAILED" not in out


def test_bench_env_records_dirty(monkeypatch, capsys):
    # env.commit alone named the parent commit for runs of an uncommitted change
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / "bench.py"), "--quick"])
    runpy.run_path(str(SCRIPTS / "bench.py"), run_name="__main__")
    env = json.loads(capsys.readouterr().out)["env"]
    assert isinstance(env["dirty"], bool)


@pytest.mark.parametrize("const,change", [
    ("_START_BOUND", lambda c: (c[0] * (1 + 1e-15),) + c[1:]),  # not the fit, within the bound
    ("_START_REPULSIVE", lambda c: c[:-1] + (c[-1] + 1e-4,)),  # breaks the bound
])
def test_kepler_starters_check_fails(monkeypatch, capsys, const, change):
    monkeypatch.setattr(temporal, const, change(getattr(temporal, const)))
    argv = [str(SCRIPTS / "kepler_starters.py"), "--check", "--points", "40"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(argv[0], run_name="__main__")
    assert exc.value.code == 1
    assert capsys.readouterr().out.count("FAILED") == 1


def test_each_mutant_edit_occurs_once():
    catalogue = runpy.run_path(str(SCRIPTS / "mutants.py"))["MUTANTS"]
    names = [m.name for m in catalogue]
    assert len(set(names)) == len(names)
    for m in catalogue:
        assert (SCRIPTS.parent / m.file).read_text().count(m.old) == 1, m.name


def test_one_mutant_is_killed(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / "mutants.py"), "E-rtol-1e-5"])
    runpy.run_path(str(SCRIPTS / "mutants.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.startswith("E-rtol-1e-5: killed by tests/test_constitutive.py::")
    assert out.endswith("1 of 1 killed\n")
