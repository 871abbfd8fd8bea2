"""Qubit-wise commuting measurement groups and sampled energy estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError
from .paulis import QubitHamiltonian, _bit_parity, commutes_qubitwise
from .simulator import Statevector, apply_single_qubit, sample_counts

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# rotate the measurement axis onto Z: H for X, H S^+ for Y
_BASIS_CHANGE = {
    "X": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=np.complex128),
    "Y": np.array([[_SQRT_HALF, -1j * _SQRT_HALF], [_SQRT_HALF, 1j * _SQRT_HALF]], dtype=np.complex128),
}


@dataclass(frozen=True)
class MeasurementGroup:
    """Indices of mutually qubit-wise commuting Hamiltonian terms.

    ``basis`` holds one letter per qubit: the unique non-identity letter
    the group's strings use there, or I when no string touches the qubit.
    """

    term_indices: tuple
    basis: str


@dataclass(frozen=True)
class EnergyEstimate:
    energy: float
    standard_error: float
    shots_used: int


def group_commuting(hamiltonian: QubitHamiltonian) -> list[MeasurementGroup]:
    """Greedy coloring of the anti-compatibility graph.

    Vertices are terms; edges join pairs that fail qubit-wise commutation.
    Vertices are colored in order of decreasing degree (ties by term
    index), each taking the smallest color absent from its neighbors.
    """
    if hamiltonian.n_terms == 0:
        raise ShapeError("cannot group an empty Hamiltonian")
    strings = [p for _, p in hamiltonian.terms]
    n = len(strings)
    adjacency = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if not commutes_qubitwise(strings[i], strings[j]):
                adjacency[i].add(j)
                adjacency[j].add(i)

    order = sorted(range(n), key=lambda i: (-len(adjacency[i]), i))
    color = {}
    for vertex in order:
        taken = {color[u] for u in adjacency[vertex] if u in color}
        c = 0
        while c in taken:
            c += 1
        color[vertex] = c

    groups = []
    for c in range(max(color.values()) + 1):
        members = tuple(i for i in range(n) if color[i] == c)
        letters = []
        for q in range(hamiltonian.n_qubits):
            letter = "I"
            for i in members:
                candidate = strings[i].to_letters()[q]
                if candidate != "I":
                    letter = candidate
                    break
            letters.append(letter)
        groups.append(MeasurementGroup(members, "".join(letters)))
    return groups


def grouping_report_csv(groups) -> str:
    """CSV report ``group_id,n_terms,basis_string`` for overhead analysis."""
    rows = ["group_id,n_terms,basis_string"]
    for gid, group in enumerate(groups):
        rows.append(f"{gid},{len(group.term_indices)},{group.basis}")
    return "\n".join(rows) + "\n"


def _group_probabilities(state: Statevector, basis: str) -> np.ndarray:
    amplitudes = state.amplitudes
    for q, letter in enumerate(basis):
        if letter in _BASIS_CHANGE:
            amplitudes = apply_single_qubit(amplitudes, q, _BASIS_CHANGE[letter])
    return np.abs(amplitudes) ** 2


def estimate_energy_sampled(
    state: Statevector,
    hamiltonian: QubitHamiltonian,
    groups,
    shots_per_group: int,
    seed: int,
) -> EnergyEstimate:
    """Monte-Carlo energy estimate from per-group basis measurements.

    Each group's qubits are rotated into its shared product basis and
    sampled with an independent generator seeded ``seed + group index``.
    <P> for each term is the mean +/-1 parity over the term's support;
    the quoted standard error treats all terms as independent.
    """
    if shots_per_group < 1:
        raise ShapeError("shots_per_group must be >= 1")
    if hamiltonian.n_qubits != state.n_qubits:
        raise ShapeError("Hamiltonian and state qubit counts differ")
    covered = sorted(i for g in groups for i in g.term_indices)
    if covered != list(range(hamiltonian.n_terms)):
        raise ShapeError("groups do not partition the Hamiltonian terms")

    dim = 1 << hamiltonian.n_qubits
    indices = np.arange(dim, dtype=np.uint32)

    energy = 0.0
    variance = 0.0
    shots_used = 0
    for gid, group in enumerate(groups):
        weights_strings = [hamiltonian.terms[i] for i in group.term_indices]
        sampled = [(w, p) for w, p in weights_strings if not p.is_identity]
        energy += sum(w for w, p in weights_strings if p.is_identity)
        if not sampled:
            continue
        counts = sample_counts(
            _group_probabilities(state, group.basis), shots_per_group, seed + gid
        )
        shots_used += shots_per_group
        occupied = np.nonzero(counts)[0]
        for weight, pauli in sampled:
            support = np.uint32(pauli.support_mask)
            parity = 1.0 - 2.0 * _bit_parity(indices[occupied] & support)
            mean = float(np.dot(counts[occupied], parity)) / shots_per_group
            energy += weight * mean
            variance += weight**2 * max(0.0, 1.0 - mean**2) / shots_per_group
    return EnergyEstimate(float(energy), math.sqrt(variance), shots_used)

