"""The suite's own pytest settings: a failing property must be reported, and
the tests after it must still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CHILD_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_deliberately_failing_property(x):
    assert x < 0


def test_after_the_failure():
    pass
"""


def test_failing_property_is_reported_without_internal_error(tmp_path):
    (tmp_path / "test_child.py").write_text(CHILD_TESTS)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in output
