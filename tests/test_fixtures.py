"""The bundled H2S FCIDUMP fixtures: reproducible, and physical in their sector."""

import hashlib
import importlib.util
import os

import numpy as np
import pytest

from conftest import FIXTURE_DIR
from oracles import lowest_energy_of_every_block
from vqechem.exactdiag import ground_state_energy
from vqechem.fcidump import parse_fcidump
from vqechem.fermions import build_second_quantized, jordan_wigner
from vqechem.workflows import ScanPoint, integrals_for_point

STEMS = ("h2s_sto3g_nonrel_eq", "h2s_sto3g_nonrel_stretch",
         "h2s_sto3g_rel_eq", "h2s_sto3g_rel_stretch")


def read(stem: str) -> str:
    with open(os.path.join(FIXTURE_DIR, stem + ".fcidump"), encoding="utf-8") as fh:
        return fh.read()


def test_generator_reproduces_the_committed_files():
    spec = importlib.util.spec_from_file_location(
        "generate_h2s_fixtures", os.path.join(FIXTURE_DIR, "generate_h2s_fixtures.py"))
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    texts = generator.render()
    assert sorted(texts) == sorted(STEMS)
    for stem, text in texts.items():
        assert text == read(stem), f"{stem}.fcidump differs from its generator"


@pytest.mark.parametrize("freeze", [(0, 1), ()], ids=["frozen_core", "full"])
@pytest.mark.parametrize("stem", STEMS)
def test_fock_space_minimum_holds_nelec_electrons(stem, freeze):
    # the fixtures' chemical potential puts the lowest of all (N_alpha, N_beta)
    # blocks in the NELEC electrons' Hartree-Fock sector, which the solve takes
    path = os.path.join(FIXTURE_DIR, stem + ".fcidump")
    integrals = integrals_for_point(ScanPoint(stem, 0.0, fcidump_path=path), freeze)
    hamiltonian = jordan_wigner(build_second_quantized(integrals))
    energies = lowest_energy_of_every_block(hamiltonian)
    n_electrons = integrals.n_electrons
    reference = ((n_electrons + 1) // 2, n_electrons // 2)
    assert min(energies, key=energies.get) == reference
    assert abs(energies[reference] - ground_state_energy(hamiltonian).energy) < 1e-10


# sha256 of h, g and the constant of each fixture's (0, 1) frozen core, as bytes: the
# order of the core sums moves their last bits, which no printed energy shows
FROZEN_CORE_DIGESTS = {
    "h2s_sto3g_nonrel_eq": "65934497db966f8ec6f8e3c03a4f19b1cc8a6925fd3586f87d94cb53f3f90959",
    "h2s_sto3g_nonrel_stretch": "5af729be4610ef25dfb0f5f742ebe16c8eaed03ec20bdece10cc09d0ddbff5b9",
    "h2s_sto3g_rel_eq": "5404623fa05ba77524d3ae980492a579acf9f1ba23643da669b51140ec866710",
    "h2s_sto3g_rel_stretch": "e47593c657f203b468d96e430f2422b08842df946c81c89df171d8ec23ca7e9e",
}


@pytest.mark.parametrize("freeze", [(0, 1), (1, 0)], ids=["ascending", "descending"])
@pytest.mark.parametrize("stem", STEMS)
def test_frozen_core_integrals_are_pinned_bit_for_bit(stem, freeze):
    path = os.path.join(FIXTURE_DIR, stem + ".fcidump")
    x = integrals_for_point(ScanPoint(stem, 0.0, fcidump_path=path), freeze)
    data = x.h.tobytes() + x.g.tobytes() + np.float64(x.constant_energy).tobytes()
    assert hashlib.sha256(data).hexdigest() == FROZEN_CORE_DIGESTS[stem]


@pytest.mark.parametrize("geometry", ["eq", "stretch"])
def test_relativistic_one_body_part_differs(geometry):
    nonrel = parse_fcidump(read(f"h2s_sto3g_nonrel_{geometry}"))
    rel = parse_fcidump(read(f"h2s_sto3g_rel_{geometry}"))
    assert np.abs(rel.h - nonrel.h).max() > 0.3  # the deepened inner orbital
    assert np.array_equal(rel.g, nonrel.g)
