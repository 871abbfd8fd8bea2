import os

import numpy as np
import pytest
from hypothesis import settings

from vqechem.fermions import build_second_quantized, jordan_wigner
from vqechem.integrals import Molecule, compute_ao_integrals, run_rhf, transform_to_mo
from vqechem.units import ANGSTROM_TO_BOHR

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

# Property tests draw the same examples on every run and keep no example database.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def h2_molecule(r_bohr: float) -> Molecule:
    return Molecule(
        (
            ("H", 1, np.array([0.0, 0.0, 0.0])),
            ("H", 1, np.array([0.0, 0.0, r_bohr])),
        ),
        2,
    )


def h2_mo_integrals(r_bohr: float):
    ao = compute_ao_integrals(h2_molecule(r_bohr))
    rhf = run_rhf(ao, 2)
    return transform_to_mo(ao, rhf), rhf


@pytest.fixture(scope="session")
def h2_integrals_074():
    """MO integrals for H2 at 0.74 Angstrom."""
    integrals, _ = h2_mo_integrals(0.74 * ANGSTROM_TO_BOHR)
    return integrals


@pytest.fixture(scope="session")
def h2_hamiltonian_074(h2_integrals_074):
    return jordan_wigner(build_second_quantized(h2_integrals_074))


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURE_DIR
