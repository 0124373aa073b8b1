"""Checks of the pytest configuration in ``pyproject.toml``."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # before: reporting the failure imported libcst, whose DeprecationWarning
    # the "error" filter raised inside a pytest hook: INTERNALERROR, exit 3,
    # and test_passes never ran.  tmp_path is the working directory, so
    # hypothesis writes its .hypothesis/ there
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
