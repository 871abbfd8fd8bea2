import glob
import os
import subprocess
import sys

import pytest

import vqechem

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=[os.path.basename(d) for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # the child imports the same package as this test; demos write their CSVs to cwd
    src = os.path.dirname(os.path.dirname(vqechem.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, os.path.abspath(demo)], capture_output=True,
                            text=True, timeout=300, cwd=tmp_path, env=env)
    assert result.returncode == 0, result.stderr


def test_demos_found():
    assert DEMOS
