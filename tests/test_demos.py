import glob
import json
import os
import subprocess
import sys

import pytest

import vqechem
from vqechem.integrals import Molecule
from vqechem.workflows import load_manifest

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
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


def test_readme_library_quickstart_runs(capsys):
    # the README's quickstart block, run as written, so its calls follow the library
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quickstart", "exec"), {})
    e_vqe, e_fci = (float(word) for word in capsys.readouterr().out.split())
    assert e_fci - 1e-9 <= e_vqe < e_fci + 1.6e-3


def readme_json(heading: str):
    """The JSON block under ``heading`` in the README, parsed."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split(f"### {heading}\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_json_examples_load():
    # the documented keys and values pass the checks; the manifest example held
    # "atoms": [...], which is not JSON
    molecule = Molecule.from_geometry_dict(readme_json("Geometry JSON"))
    assert molecule.n_electrons == 2
    manifest = load_manifest(readme_json("Scan manifest JSON"), base_dir="")
    assert [p.label for p in manifest.points] == ["0.70", "eq"]
    assert Molecule.from_geometry_dict(manifest.points[0].geometry).n_electrons == 2
