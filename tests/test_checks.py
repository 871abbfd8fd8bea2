import math

import numpy as np
import pytest

from vqechem.ansatz import build_hardware_efficient, build_uccsd
from vqechem.exceptions import ManifestError, ShapeError, checked_int, checked_real
from vqechem.integrals import Molecule
from vqechem.optimize import OptimizerConfig
from vqechem.simulator import prepare_hf
from vqechem.workflows import ScanManifest, ScanPoint, load_manifest


def h2_geometry(charge=0, z=1.4) -> dict:
    return {"atoms": [{"symbol": "H", "xyz_bohr": [0.0, 0.0, 0.0]},
                      {"symbol": "H", "xyz_bohr": [0.0, 0.0, z]}], "charge": charge}


# every integer read from outside: site -> (call with the value, its boundary's error)
INTEGER_SITES = {
    "manifest-reps": (lambda v: ScanManifest(reps=v), ManifestError),
    "manifest-shots": (lambda v: ScanManifest(shots=v), ManifestError),
    "manifest-seed": (lambda v: ScanManifest(seed=v), ManifestError),
    "manifest-restarts": (lambda v: ScanManifest(restarts=v), ManifestError),
    "manifest-freeze": (lambda v: ScanManifest(freeze=(v,)), ManifestError),
    "manifest-max-iterations": (lambda v: load_manifest({"optimizer": {"max_iterations": v}}),
                                ManifestError),
    "optimizer-max-iterations": (lambda v: OptimizerConfig(max_iterations=v), ShapeError),
    "optimizer-spsa-window": (lambda v: OptimizerConfig(spsa_window=v), ShapeError),
    "geometry-charge": (lambda v: Molecule.from_geometry_dict(h2_geometry(charge=v)), ShapeError),
    "molecule-electrons": (lambda v: Molecule((), v), ShapeError),
    "hardware-size": (lambda v: build_hardware_efficient(v, 1), ShapeError),
    "hardware-reps": (lambda v: build_hardware_efficient(4, v), ShapeError),
    "uccsd-occupied": (lambda v: build_uccsd(4, [0, v]), ShapeError),
    "uccsd-size": (lambda v: build_uccsd(v, [0]), ShapeError),
    "hf-size": (lambda v: prepare_hf(v, [0]), ShapeError),
    "hf-occupied": (lambda v: prepare_hf(4, [0, v]), ShapeError),
}
# every real number read from outside
REAL_SITES = {
    "manifest-threshold": (
        lambda v: load_manifest({"optimizer": {"convergence_threshold": v}}), ManifestError),
    "manifest-xtol": (lambda v: load_manifest({"optimizer": {"simplex_xtol": v}}), ManifestError),
    "manifest-coordinate": (
        lambda v: load_manifest({"points": [{"label": "a", "coordinate": v, "geometry": {}}]}),
        ManifestError),
    "optimizer-threshold": (lambda v: OptimizerConfig(convergence_threshold=v), ShapeError),
    "optimizer-xtol": (lambda v: OptimizerConfig(simplex_xtol=v), ShapeError),
    "geometry-position": (lambda v: Molecule.from_geometry_dict(h2_geometry(z=v)), ShapeError),
    "scan-point-coordinate": (lambda v: ScanPoint("a", v, geometry={}), ManifestError),
}
VALUES = {"true": True, "fraction": 1.5, "string": "2", "int64": np.int64(2)}
CASES = ([(site, name, name == "int64") for site in INTEGER_SITES for name in VALUES]
         + [(site, name, name in ("fraction", "int64"))
            for site in REAL_SITES for name in [*VALUES, "nan", "numeric-string"]])


@pytest.mark.parametrize("site, value, accepted", CASES,
                         ids=[f"{site}-{value}" for site, value, _ in CASES])
def test_outside_integers_and_numbers_follow_one_rule(site, value, accepted):
    # reps=True built 8 parameters, "1.4" ran as a position, a NaN coordinate and
    # a true threshold were scanned, and np.int64 was refused in a manifest only
    build, error = {**INTEGER_SITES, **REAL_SITES}[site]
    value = {**VALUES, "nan": math.nan, "numeric-string": "1.4"}[value]
    if accepted:
        build(value)
    else:
        with pytest.raises(error):
            build(value)


@pytest.mark.parametrize("value", [10**400, -math.inf, np.float64("nan"), None, [1.0]])
def test_checked_real_refuses_what_is_not_a_finite_float(value):
    with pytest.raises(ManifestError, match="x must be a finite number"):
        checked_real(value, "x", ManifestError)


def test_checked_int_bounds_only_when_asked():
    assert checked_int(np.int64(-3), "n") == -3 and type(checked_int(np.int64(-3), "n")) is int
    with pytest.raises(ShapeError, match="n must be >= 0, got -3"):
        checked_int(-3, "n", 0)
