"""Qubit-wise commuting measurement groups and sampled energy estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError
from .paulis import PauliString, QubitHamiltonian, sign_table
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
    n_qubits = hamiltonian.n_qubits
    dtype = np.min_scalar_type((1 << n_qubits) - 1)
    x = np.array([p.x_mask for _, p in hamiltonian.terms], dtype=dtype)
    z = np.array([p.z_mask for _, p in hamiltonian.terms], dtype=dtype)
    support = x | z
    # two strings fail qubit-wise commutation where both act and the letters differ
    conflict = (((x[:, None] ^ x) | (z[:, None] ^ z)) & (support[:, None] & support)) != 0

    order = np.argsort(-conflict.sum(axis=1), kind="stable")
    color = np.full(hamiltonian.n_terms, -1)
    n_colors = 0
    for vertex in order:
        neighbors = color[conflict[vertex]]
        taken = np.zeros(n_colors + 1, dtype=bool)
        taken[neighbors[neighbors >= 0]] = True
        c = int(np.argmin(taken))  # the first color not taken
        color[vertex] = c
        n_colors = max(n_colors, c + 1)

    groups = []
    for c in range(n_colors):
        members = np.flatnonzero(color == c)
        # members commute qubit-wise, so OR-ing their masks keeps each qubit's letter
        basis = PauliString(n_qubits, int(np.bitwise_or.reduce(x[members])),
                            int(np.bitwise_or.reduce(z[members])))
        groups.append(MeasurementGroup(tuple(members.tolist()), basis.to_letters()))
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


@dataclass(frozen=True, eq=False)
class GroupTables:
    """Measurement groups with the per-term tables the estimator reads.

    Per group: its basis string, its identity weight (None without one),
    the weights of its other terms and their +/-1 parity over each term's
    support at every basis index, one row per term.
    """

    groups: tuple  # (basis, identity weight, weights, parity table) per group


def group_tables(hamiltonian: QubitHamiltonian, groups) -> GroupTables:
    """Build the estimator's tables once for a Hamiltonian and its grouping."""
    covered = sorted(i for g in groups for i in g.term_indices)
    if covered != list(range(hamiltonian.n_terms)):
        raise ShapeError("groups do not partition the Hamiltonian terms")
    tables = []
    for group in groups:
        terms = [hamiltonian.terms[i] for i in group.term_indices]
        identity = next((w for w, p in terms if p.is_identity), None)
        sampled = [(w, p) for w, p in terms if not p.is_identity]
        weights = np.array([w for w, _ in sampled], dtype=float)
        parity = sign_table([p.support_mask for _, p in sampled], hamiltonian.n_qubits)
        tables.append((group.basis, identity, weights, parity))
    return GroupTables(tuple(tables))


def _running_sum(parts) -> float:
    """Left-to-right sum, rounded exactly as a scalar ``+=`` loop would be."""
    if not parts:
        return 0.0
    return float(np.cumsum(np.concatenate(parts))[-1])


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
    ``groups`` is a list of :class:`MeasurementGroup` or, to build the
    tables once for many calls, the :class:`GroupTables` of
    :func:`group_tables`.
    """
    if shots_per_group < 1:
        raise ShapeError("shots_per_group must be >= 1")
    if hamiltonian.n_qubits != state.n_qubits:
        raise ShapeError("Hamiltonian and state qubit counts differ")
    tables = groups if isinstance(groups, GroupTables) else group_tables(hamiltonian, groups)

    energy_parts, variance_parts = [], []
    shots_used = 0
    for gid, (basis, identity, weights, parity) in enumerate(tables.groups):
        if identity is not None:
            energy_parts.append([identity])
        if not weights.size:
            continue
        counts = sample_counts(_group_probabilities(state, basis), shots_per_group, seed + gid)
        shots_used += shots_per_group
        occupied = np.nonzero(counts)[0]
        means = (parity[:, occupied] @ counts[occupied]) / shots_per_group
        energy_parts.append(weights * means)
        variance_parts.append(weights**2 * np.maximum(0.0, 1.0 - means**2) / shots_per_group)
    return EnergyEstimate(
        _running_sum(energy_parts), math.sqrt(_running_sum(variance_parts)), shots_used
    )
