"""Each example script in scripts/ runs to completion, on small arguments.

A script that an API change breaks fails here instead of at its next user.
"""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# Arguments that keep a script under a second; a script not listed runs bare.
ARGS = {"mu_sweep.py": ["5", "64"], "bench.py": ["--quick"]}


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_runs(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path), *ARGS.get(path.name, [])])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out and "FAILED" not in out
