import glob
import hashlib
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


# sha256 of each demo's stdout and of each file it writes: every output of the
# demos is byte-stable for its fixed seeds and inputs
DEMO_DIGESTS = {
    "01_h2_potential_curve.py": {
        "stdout": "d96f546d3da9f4c19600e03044d01b89bdc34ab3ba1bf238659c5a40559893a6",
        "h2_curve.csv": "b4246f8feec71fa86a3f312713df3baf476893a6114567c60fa7462251909151",
    },
    "02_h3_exchange_barrier.py": {
        "stdout": "ed7a1a782eaaded65b623d0c178a836352fcbc99358bf96cd4e3e31d168aaeee",
    },
    "03_measurement_grouping.py": {
        "stdout": "e0faa2ea291f763ce779aaf0828ccd80af93f148b7650097663af66b167eeb71",
    },
    "04_optimizer_comparison.py": {
        "stdout": "1356b9698f17d2b9eef21308850a0ba0d53160ab1ea5e3ff5ff68404c5360bba",
        "trace_spsa.csv": "c1253f9627672eb577854c1e30ee4ac04268d3f9a17ff8b189a17c0798cf40b8",
        "trace_simplex.csv": "fbe91829a0b5d5f6f2b4dba6d567e87abd679a9eb438958f84e414682c583463",
    },
    "05_relativistic_shift.py": {
        "stdout": "758a176051e75d1b40bfc07d77b4922e52be88ecf7cef36d51c7bc0e18520fa0",
    },
}


@pytest.mark.parametrize("demo", DEMOS, ids=[os.path.basename(d) for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # the child imports the same package as this test; demos write their CSVs to cwd
    src = os.path.dirname(os.path.dirname(vqechem.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, os.path.abspath(demo)], capture_output=True,
                            timeout=300, cwd=tmp_path, env=env)
    assert result.returncode == 0, result.stderr.decode()
    digests = {"stdout": hashlib.sha256(result.stdout).hexdigest()}
    for path in sorted(tmp_path.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == DEMO_DIGESTS[os.path.basename(demo)]


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
