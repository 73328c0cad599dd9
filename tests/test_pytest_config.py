"""The repository's pytest configuration reports every failure, property tests included.

``filterwarnings = ["error"]`` also applies inside plugin hooks. The
hypothesis plugin's report hook, on a failing property, meets a
DeprecationWarning from mypy_extensions; without the one ignore entry in
pyproject.toml pytest aborts with INTERNALERROR and reports nothing after it.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_FAILURES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
'''


def test_failing_property_does_not_abort_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_FAILURES)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out  # tests failed; 3 would be an internal error
    assert "test_two.py::test_property_fails" in out
    assert "test_two.py::test_plain_fails" in out
    assert "INTERNALERROR" not in out
