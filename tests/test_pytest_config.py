"""The suite's own pytest settings: a failing property must be reported, a
test that never ends must fail, and the tests after either must still run."""

import signal
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
CONFTEST = Path(__file__).resolve().parent / "conftest.py"

CHILD_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_deliberately_failing_property(x):
    assert x < 0


def test_after_the_failure():
    pass
"""


# a hypothesis body, so the limit must pass through hypothesis's own
# failure handling, which would otherwise replay the endless example
ENDLESS_TESTS = """
import conftest
from hypothesis import given, strategies as st

conftest.TIME_LIMIT_S = 1


@given(st.integers())
def test_deliberately_endless(x):
    while True:
        pass


def test_after_the_hang():
    pass
"""


def run_child(tmp_path, tests, **kwargs):
    (tmp_path / "test_child.py").write_text(tests)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        **kwargs,
    )
    return proc, proc.stdout + proc.stderr


def test_failing_property_is_reported_without_internal_error(tmp_path):
    proc, output = run_child(tmp_path, CHILD_TESTS)
    assert "INTERNALERROR" not in output
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in output


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_a_test_past_the_time_limit_fails(tmp_path):
    # the suite's own conftest, with the limit lowered to 1 s by the child
    (tmp_path / "conftest.py").write_text(CONFTEST.read_text())
    proc, output = run_child(tmp_path, ENDLESS_TESTS, timeout=30)
    assert proc.returncode == 1
    assert "TimeLimitExceeded: test still running after 1 s" in output
    assert "1 failed, 1 passed" in output
