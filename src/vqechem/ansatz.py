"""Trial-state circuit families: hardware-efficient layers and UCCSD.

Both act on a Hartree-Fock reference prepared separately. Spin orbitals
follow the interleaved convention of :mod:`vqechem.fermions`, so a spin
orbital index doubles as a qubit index after Jordan-Wigner mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import ShapeError, checked_int
from .fermions import FermionOperator, jordan_wigner_expansions
from .paulis import QubitHamiltonian
from .simulator import Circuit, Gate

JW_REAL_RESIDUE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ExcitationSet:
    """Spin-conserving singles (i, a) and doubles (i, j, a, b)."""

    singles: tuple
    doubles: tuple


def build_hardware_efficient(n_qubits: int, reps: int) -> Circuit:
    """RotY layer, then ``reps`` (an integer >= 0) blocks of [linear CZ chain, RotY layer].

    Parameter count is (reps + 1) * n_qubits. CZ entanglers act on
    computational basis states by phase only, so the all-zero parameter
    vector fixes any reference determinant (up to global phase).
    """
    n_qubits = checked_int(n_qubits, "n_qubits", 2)  # the CZ chain needs two
    reps = checked_int(reps, "reps", 0)
    gates = []
    slot = 0
    for q in range(n_qubits):
        gates.append(Gate("ry", (q,), slot=slot))
        slot += 1
    for _ in range(reps):
        for q in range(n_qubits - 1):
            gates.append(Gate("cz", (q, q + 1)))
        for q in range(n_qubits):
            gates.append(Gate("ry", (q,), slot=slot))
            slot += 1
    return Circuit(n_qubits, tuple(gates), n_parameters=slot)


def enumerate_excitations(n_spin_orbitals: int, occupied) -> ExcitationSet:
    """All spin-conserving excitations from occupied (integer) into virtual orbitals.

    Ordering is lexicographic, so circuits built from the result are
    deterministic. Spin of orbital p is p % 2 (interleaved convention).
    """
    occupied = sorted({checked_int(p, "occupied orbital") for p in occupied})
    if not occupied:
        raise ShapeError("occupied set must be nonempty")
    for p in occupied:
        if not 0 <= p < n_spin_orbitals:
            raise ShapeError(f"occupied orbital {p} outside 0..{n_spin_orbitals - 1}")
    virtual = [p for p in range(n_spin_orbitals) if p not in set(occupied)]

    singles = tuple((i, a) for i in occupied for a in virtual if i % 2 == a % 2)
    doubles = []
    for ii, i in enumerate(occupied):
        for j in occupied[ii + 1:]:
            for ai, a in enumerate(virtual):
                for b in virtual[ai + 1:]:
                    if (i % 2 + j % 2) == (a % 2 + b % 2):
                        doubles.append((i, j, a, b))
    return ExcitationSet(singles, tuple(doubles))


def _excitation_generators(n_modes: int, moves) -> list[FermionOperator]:
    """Anti-Hermitian generator tau - tau^+ for each (annihilate, create) move."""
    def tau(annihilate, create):  # tau^+ is tau(create, annihilate)
        return tuple((m, True) for m in create) + tuple((m, False) for m in reversed(annihilate))
    return FermionOperator.from_term_dicts(
        n_modes, [{tau(a, c): 1.0, tau(c, a): -1.0} for a, c in moves])


def _excitation_gates(n_modes: int, moves, first_slot: int = 0) -> list[Gate]:
    """One exact rotation per (annihilate, create) move, in slots from ``first_slot``.

    The Jordan-Wigner image of a generator tau - tau^+ is i * G with
    G = sum_m c_m P_m and real c_m. The strings of one excitation share one
    x-mask and G^3 = G (Yordanov, Arvidsson-Shukur & Barnes, PRA 102, 062612),
    so exp(i theta G) is the rotation about G at angle -2 theta. All
    generators are expanded in one call.
    """
    expansions = jordan_wigner_expansions(_excitation_generators(n_modes, moves))
    gates = []
    for slot, (x, z, coeffs) in enumerate(expansions, start=first_slot):
        large = np.flatnonzero(np.abs(coeffs.real) > JW_REAL_RESIDUE_TOLERANCE)
        if large.size:
            raise ShapeError(
                f"excitation generator mapped to non-imaginary coefficient {coeffs[large[0]]}")
        generator = QubitHamiltonian.from_arrays(n_modes, x, z, coeffs.imag)
        gates.append(Gate("pauli_rot", (), slot=slot, angle=-2.0, generator=generator))
    return gates


def build_uccsd(n_spin_orbitals: int, occupied) -> Circuit:
    """Trotterized UCCSD over the spin-conserving excitation set.

    One first-order step in enumeration order; one gate and one amplitude
    per excitation. The circuit conserves particle number exactly because
    each gate is the exact exponential of its number-conserving generator.
    The same arguments return the last build, so a scan shares one circuit.
    """
    return _build_uccsd(checked_int(n_spin_orbitals, "n_spin_orbitals"),
                        tuple(sorted({checked_int(p, "occupied orbital") for p in occupied})))


@lru_cache(maxsize=1)
def _build_uccsd(n_spin_orbitals: int, occupied: tuple) -> Circuit:
    excitations = enumerate_excitations(n_spin_orbitals, occupied)
    moves = [((i,), (a,)) for i, a in excitations.singles]
    moves += [((i, j), (a, b)) for i, j, a, b in excitations.doubles]
    gates = tuple(_excitation_gates(n_spin_orbitals, moves))
    return Circuit(n_spin_orbitals, gates, n_parameters=len(gates))
