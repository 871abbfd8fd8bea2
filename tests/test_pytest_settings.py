"""The suite's own pytest settings: a failing property test is reported as a failure."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_runs_after():
    pass
'''


def test_failing_property_test_shows_its_falsifying_example(tmp_path):
    # with warnings as errors, Hypothesis's report hook raised a DeprecationWarning:
    # pytest stopped with INTERNALERROR (exit 3), ran no later test and showed no example
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", PYPROJECT,
         "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output
    assert "1 failed, 1 passed" in output
