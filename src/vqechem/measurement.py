"""Qubit-wise commuting measurement groups and sampled energy estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError, checked_int
from .paulis import PauliString, QubitHamiltonian, letter_strings, sign_table
from .simulator import (Statevector, check_allocation, checked_seed, sample_counts,
                        seed_words, update_qubit)

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# rotate the measurement axis onto Z: H for X, H S^+ for Y
_BASIS_CHANGE = {
    "X": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=np.complex128),
    "Y": np.array([[_SQRT_HALF, -1j * _SQRT_HALF], [_SQRT_HALF, 1j * _SQRT_HALF]], dtype=np.complex128),
}
# bytes per block: the sampled estimator stacks max(1, BLOCK_BYTES // (16 * 2**n))
# groups at once, 256 at 6 qubits and 4 at 12, and the conflict matrix is built
# max(1, BLOCK_BYTES // (mask itemsize * n_terms)) rows at once, 72 for the
# 1819 strings of the 12-qubit H2S fixture
BLOCK_BYTES = 1 << 18


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
    n_qubits, n = hamiltonian.n_qubits, hamiltonian.n_terms
    dtype = np.min_scalar_type((1 << n_qubits) - 1)
    rows = min(n, max(1, BLOCK_BYTES // (dtype.itemsize * n)))
    # two n x n bool matrices, the conflicts and the colors blocked at each
    # vertex, and two (rows x n) mask temporaries that build the conflicts
    check_allocation(2 * n ** 2 + 2 * dtype.itemsize * rows * n, f"conflict matrix of {n} strings")
    x, z = hamiltonian.x.astype(dtype), hamiltonian.z.astype(dtype)
    support = x | z
    # two strings fail qubit-wise commutation where both act and the letters differ
    conflict = np.empty((n, n), dtype=bool)
    work = np.empty((2, rows, n), dtype=dtype)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        t, u = work[:, :b - a]
        np.bitwise_xor(x[a:b, None], x, out=t)
        np.bitwise_xor(z[a:b, None], z, out=u)
        t |= u
        t &= support
        t &= support[a:b, None]
        np.not_equal(t, 0, out=conflict[a:b])

    # degrees as set bits of the packed rows: a third of the time of a bool row sum
    degrees = np.bitwise_count(np.packbits(conflict, axis=1)).sum(axis=1, dtype=np.intp)
    order = np.argsort(-degrees, kind="stable").tolist()
    blocked = np.zeros((n, n), dtype=bool)  # blocked[c, v]: v has a neighbor of color c
    color, n_colors = np.empty(n, dtype=np.intp), 0
    for vertex in order:
        # the first color not taken; row n_colors is still clear
        c = color[vertex] = int(blocked[:n_colors + 1, vertex].argmin())
        np.logical_or(blocked[c], conflict[vertex], out=blocked[c])
        n_colors += c == n_colors

    members = np.argsort(color, kind="stable")
    starts = np.flatnonzero(np.diff(color[members], prepend=-1))
    # members commute qubit-wise, so OR-ing their masks keeps each qubit's letter
    bases = letter_strings(n_qubits, *(np.bitwise_or.reduceat(m[members], starts)
                                       for m in (hamiltonian.x, hamiltonian.z)))
    ids, bounds = members.tolist(), [*starts.tolist(), n]
    return [MeasurementGroup(tuple(ids[a:b]), basis)
            for a, b, basis in zip(bounds, bounds[1:], bases)]


def grouping_report_csv(groups) -> str:
    """CSV report ``group_id,n_terms,basis_string`` for overhead analysis."""
    rows = ["group_id,n_terms,basis_string"]
    for gid, group in enumerate(groups):
        rows.append(f"{gid},{len(group.term_indices)},{group.basis}")
    return "\n".join(rows) + "\n"


# per stacked amplitude: 16 B of state, then either 48 B of basis-change
# temporaries (the gathered rows and two products) or 24 B of probabilities,
# their normalized copy and counts
_BYTES_PER_STACKED = 80


@dataclass(frozen=True, eq=False)
class _Block:
    """Consecutive sampled groups measured as one stack of state copies.

    ``updates`` holds one (qubit, rows, matrices) per qubit that some basis
    measures in X or Y: those rows and a (rows, 1, 2, 2) stack of their basis
    changes, H for X and H S^+ for Y, in qubit order. ``parity`` holds the
    +/-1 parity over each term's support at every basis index, one row per
    term; ``term_rows`` is the stack row of each term's group and ``terms``
    the block's slice of the sampled-term vector.
    """

    group_ids: tuple
    updates: tuple
    parity: np.ndarray
    term_rows: np.ndarray
    terms: slice


@dataclass(frozen=True, eq=False)
class GroupTables:
    """Measurement groups as the block tables the estimator reads.

    The energy is summed in group order, each group's identity weight
    before its other terms: ``constants`` holds that vector with the
    identity weights in place and ``slots`` the position of each sampled
    term, whose weights are ``weights`` (in the same order).
    """

    n_qubits: int
    blocks: tuple
    weights: np.ndarray
    constants: np.ndarray
    slots: np.ndarray


def _check_bases(hamiltonian: QubitHamiltonian, groups) -> None:
    """Each basis has one IXYZ letter per qubit and measures its terms' letters."""
    n_qubits = hamiltonian.n_qubits
    for gid, group in enumerate(groups):
        basis = group.basis
        if not isinstance(basis, str) or len(basis) != n_qubits or set(basis) - set("IXYZ"):
            raise ShapeError(f"group {gid} basis {basis!r} is not {n_qubits} letters from IXYZ")
        letters = PauliString.from_letters(basis)
        terms = np.array(group.term_indices, dtype=np.intp)
        x, z = hamiltonian.x[terms], hamiltonian.z[terms]
        missed = np.flatnonzero(((x ^ letters.x_mask) | (z ^ letters.z_mask)) & (x | z))
        if missed.size:
            k = missed[:1]
            raise ShapeError(f"group {gid} basis {basis} does not measure term "
                             f"{letter_strings(n_qubits, x[k], z[k])[0]}")


def _rows(rows: list):
    """Stack rows as a slice when they are consecutive, so updates act on views."""
    if rows[-1] - rows[0] == len(rows) - 1:
        return slice(rows[0], rows[-1] + 1)
    return np.array(rows)


def group_tables(hamiltonian: QubitHamiltonian, groups) -> GroupTables:
    """Build the estimator's block tables once for a Hamiltonian and its grouping."""
    covered = sorted(i for g in groups for i in g.term_indices)
    if covered != list(range(hamiltonian.n_terms)):
        raise ShapeError("groups do not partition the Hamiltonian terms")
    _check_bases(hamiltonian, groups)
    n_qubits = hamiltonian.n_qubits
    dim = 1 << n_qubits

    support = hamiltonian.x | hamiltonian.z
    constants, slots, weights, sampled = [], [], [], []
    for gid, group in enumerate(groups):
        terms = np.array(group.term_indices, dtype=np.intp)
        identity = support[terms] == 0
        constants.extend(hamiltonian.weights[terms[identity]].tolist())
        terms = terms[~identity]
        if terms.size:
            slots.extend(range(len(constants), len(constants) + terms.size))
            constants.extend([0.0] * terms.size)
            weights.extend(hamiltonian.weights[terms].tolist())
            sampled.append((gid, group.basis, support[terms]))

    block_rows = max(1, BLOCK_BYTES // (16 * dim))
    chunks = [sampled[i:i + block_rows] for i in range(0, len(sampled), block_rows)]
    if chunks:
        # the parity tables, one block's stack and its gathered counts
        block_terms = max(sum(len(masks) for _, _, masks in chunk) for chunk in chunks)
        check_allocation(
            dim * (len(weights) + _BYTES_PER_STACKED * len(chunks[0]) + 8 * block_terms),
            f"sampling tables of {len(weights)} terms on {n_qubits} qubits")

    blocks, start = [], 0
    for chunk in chunks:
        updates = []
        for q in range(n_qubits):
            letters = [(r, basis[q]) for r, (_, basis, _) in enumerate(chunk)
                       if basis[q] in _BASIS_CHANGE]
            if letters:
                matrices = np.array([_BASIS_CHANGE[letter] for _, letter in letters])
                updates.append((q, _rows([r for r, _ in letters]), matrices[:, None]))
        masks = np.concatenate([group_masks for _, _, group_masks in chunk])
        term_rows = np.repeat(np.arange(len(chunk)), [len(m) for _, _, m in chunk])
        blocks.append(_Block(
            tuple(gid for gid, _, _ in chunk), tuple(updates),
            sign_table(masks, np.arange(2**n_qubits)), term_rows, slice(start, start + len(masks)),
        ))
        start += len(masks)
    return GroupTables(
        n_qubits, tuple(blocks), np.array(weights, dtype=float),
        np.array(constants, dtype=float), np.array(slots, dtype=np.intp),
    )


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right sum, rounded exactly as a scalar ``+=`` loop would be."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def estimate_energy_sampled(
    state: Statevector,
    hamiltonian: QubitHamiltonian,
    groups,
    shots_per_group: int,
    seed: int,
) -> EnergyEstimate:
    """Monte-Carlo energy estimate from per-group basis measurements.

    Each group's qubits are rotated into its shared product basis and
    sampled with an independent generator seeded ``seed + group index``
    (``seed`` below 2**63). <P> for each term is the mean +/-1 parity over
    the term's support; the quoted standard error treats all terms as
    independent. ``groups`` is a list of :class:`MeasurementGroup` or, to
    build the tables once for many calls, the :class:`GroupTables` of
    :func:`group_tables`. Groups are measured a block at a time: the state
    is copied into one stack row per group, each qubit's basis changes
    update all its X and Y rows in one step, and the block is normalized at
    once before each row's draw. Every group's seed is hashed in one pass
    (``simulator.seed_words``), and each group's counts are exactly those of
    ``np.random.default_rng(seed + group index)``. ``state`` must hold the
    whole register.
    """
    shots = checked_int(shots_per_group, "shots_per_group", 1)
    seed = checked_seed(seed)
    if hamiltonian.n_qubits != state.n_qubits:
        raise ShapeError("Hamiltonian and state qubit counts differ")
    tables = groups if isinstance(groups, GroupTables) else group_tables(hamiltonian, groups)
    if tables.n_qubits != state.n_qubits:
        raise ShapeError("group tables and state qubit counts differ")
    if state.states is not None:
        raise ShapeError("sampled estimation needs a whole-register state, not a sector state")

    dim = 1 << state.n_qubits
    # the first block is the tallest
    stack = np.empty((len(tables.blocks[0].group_ids) if tables.blocks else 0, dim),
                     dtype=np.complex128)
    totals = np.empty(tables.weights.size, dtype=np.int64)
    # every sampled group's seed hashed at once; blocks take consecutive rows
    words = seed_words([seed + gid for block in tables.blocks for gid in block.group_ids])
    shots_used = 0
    for block in tables.blocks:
        height = len(block.group_ids)
        work = stack[:height]
        work[:] = state.amplitudes
        for update in block.updates:
            update_qubit(work, *update)
        counts = sample_counts(np.abs(work) ** 2, shots, words[:height])
        words = words[height:]
        # integer parity sums: exact, whatever the order of summation
        totals[block.terms] = np.einsum("td,td->t", block.parity, counts[block.term_rows])
        shots_used += shots * height

    means = totals / shots
    energy = tables.constants.copy()
    energy[tables.slots] = tables.weights * means
    variance = tables.weights**2 * np.maximum(0.0, 1.0 - means**2) / shots
    return EnergyEstimate(_running_sum(energy), math.sqrt(_running_sum(variance)), shots_used)
