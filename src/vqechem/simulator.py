"""Exact statevector simulation of parameterized circuits.

Amplitudes are indexed little-endian: qubit ``j`` is bit ``j`` of the
basis-state index. All operations are unitary on 2**n complex amplitudes;
Pauli rotations use the analytic cos/sin update rather than matrix
exponentials, so a single rotation carries no approximation error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ShapeError
from .paulis import CompiledOperator, PauliString, QubitHamiltonian, sign_table

MAX_QUBITS = 24  # 2**24 complex amplitudes = 256 MiB; hard memory guard
# 1 GiB: cap on the tables and workspace of one circuit or one exact solve,
# checked from the masks before anything is allocated
MAX_ALLOCATION_BYTES = 1 << 30

GATE_KINDS = ("ry", "cz", "pauli_rot")


@dataclass(frozen=True)
class Statevector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits > MAX_QUBITS:
            raise ShapeError(f"{self.n_qubits} qubits exceeds the {MAX_QUBITS}-qubit limit")
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ShapeError("amplitude count is not 2**n_qubits")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class Gate:
    """One circuit operation.

    ``slot`` selects a variational parameter; the rotation angle is then
    ``angle * parameters[slot]`` (so ``angle`` acts as a fixed multiplier,
    default 1). With ``slot=None`` the angle is bound directly.
    """

    kind: str
    qubits: tuple
    slot: int | None = None
    angle: float = 1.0
    pauli: PauliString | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ShapeError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ShapeError("gate qubits must be distinct")
        if self.kind == "pauli_rot" and self.pauli is None:
            raise ShapeError("pauli_rot gate requires a PauliString")

    def resolved_angle(self, parameters) -> float:
        if self.slot is None:
            return self.angle
        return self.angle * parameters[self.slot]


def _rotation_tables(n_qubits: int, gates) -> tuple:
    """(gather, phase) of each pauli_rot gate, None for the other kinds.

    P|b> = i^{#Y} (-1)^popcount(b & z) |b ^ x>, so exp(-i a/2 P) maps psi to
    cos(a/2) psi + sin(a/2) * phase * psi[gather] with gather[c] = c ^ x and
    phase[c] = -i * i^{#Y} * (-1)^popcount((c ^ x) & z). Gates with the
    same x-mask share one gather array.
    """
    rotations = [g for g in gates if g.kind == "pauli_rot"]
    if not rotations:
        return (None,) * len(gates)
    n_gathers = len({g.pauli.x_mask for g in rotations})
    needed = (len(rotations) * 16 + n_gathers * np.dtype(np.intp).itemsize) << n_qubits
    if needed > MAX_ALLOCATION_BYTES:
        raise ShapeError(
            f"rotation tables of {len(rotations)} gates on {n_qubits} qubits need "
            f"{needed / 2**30:.1f} GiB, above the {MAX_ALLOCATION_BYTES / 2**30:.0f} GiB limit"
        )
    index = np.arange(1 << n_qubits)
    signs = iter(sign_table([g.pauli.z_mask for g in rotations], n_qubits))
    gathers: dict[int, np.ndarray] = {}
    tables = []
    for gate in gates:
        if gate.kind != "pauli_rot":
            tables.append(None)
            continue
        p = gate.pauli
        if p.x_mask not in gathers:
            gathers[p.x_mask] = index ^ p.x_mask
        gather = gathers[p.x_mask]
        phase = -1j * 1j ** int(p.x_mask & p.z_mask).bit_count() * next(signs)[gather]
        tables.append((gather, phase))
    return tuple(tables)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple
    n_parameters: int = 0
    # per gate, built once with the circuit: see _rotation_tables
    rotations: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        used = set()
        for gate in self.gates:
            for q in gate.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ShapeError(f"gate qubit {q} outside register of {self.n_qubits}")
            if gate.pauli is not None and gate.pauli.n_qubits != self.n_qubits:
                raise ShapeError("gate Pauli string size differs from register")
            if gate.slot is not None:
                if not 0 <= gate.slot < self.n_parameters:
                    raise ShapeError(f"parameter slot {gate.slot} out of range")
                used.add(gate.slot)
        if used != set(range(self.n_parameters)):
            missing = sorted(set(range(self.n_parameters)) - used)
            raise ShapeError(f"parameter slots never referenced: {missing}")
        object.__setattr__(self, "rotations", _rotation_tables(self.n_qubits, self.gates))

    @property
    def depth(self) -> int:
        """Number of layers when gates on disjoint qubits are packed greedily."""
        frontier: dict[int, int] = {}
        depth = 0
        for gate in self.gates:
            qubits = gate.qubits if gate.kind != "pauli_rot" else tuple(
                q for q in range(self.n_qubits) if (gate.pauli.support_mask >> q) & 1
            )
            layer = 1 + max((frontier.get(q, 0) for q in qubits), default=0)
            for q in qubits:
                frontier[q] = layer
            depth = max(depth, layer)
        return depth


def prepare_hf(n_qubits: int, occupied) -> Statevector:
    """Computational basis state with 1s at the occupied qubit positions."""
    occupied = set(occupied)
    for q in occupied:
        if not 0 <= q < n_qubits:
            raise ShapeError(f"occupied index {q} outside register of {n_qubits}")
    index = sum(1 << q for q in occupied)
    amplitudes = np.zeros(1 << n_qubits, dtype=np.complex128)
    amplitudes[index] = 1.0
    return Statevector(n_qubits, amplitudes)


def apply_single_qubit(amplitudes: np.ndarray, qubit: int, matrix: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit of an amplitude vector."""
    n = amplitudes.shape[0]
    work = amplitudes.reshape(n >> (qubit + 1), 2, 1 << qubit)
    out = np.einsum("ab,ibj->iaj", matrix, work)
    return np.ascontiguousarray(out).reshape(n)


def _apply_gate(amplitudes: np.ndarray, gate: Gate, rotation, parameters) -> np.ndarray:
    if gate.kind == "ry":
        (q,) = gate.qubits
        half = 0.5 * gate.resolved_angle(parameters)
        c, s = np.cos(half), np.sin(half)
        return apply_single_qubit(amplitudes, q, np.array([[c, -s], [s, c]], dtype=np.complex128))
    if gate.kind == "cz":
        control, target = gate.qubits
        idx = np.arange(amplitudes.shape[0])
        both = ((idx >> control) & 1 == 1) & ((idx >> target) & 1 == 1)
        out = amplitudes.copy()
        out[both] *= -1.0
        return out
    # pauli_rot: exp(-i angle/2 P) = cos(angle/2) I - i sin(angle/2) P
    half = 0.5 * gate.resolved_angle(parameters)
    gather, phase = rotation
    return np.cos(half) * amplitudes + np.sin(half) * (phase * amplitudes[gather])


def apply_circuit(state: Statevector, circuit: Circuit, parameters=()) -> Statevector:
    """Run the circuit on a state, resolving parameter slots from ``parameters``."""
    if circuit.n_qubits != state.n_qubits:
        raise ShapeError("circuit and state qubit counts differ")
    parameters = np.asarray(parameters, dtype=float)
    if parameters.shape != (circuit.n_parameters,):
        raise ShapeError(
            f"expected {circuit.n_parameters} parameters, got {parameters.shape}"
        )
    amplitudes = state.amplitudes.astype(np.complex128, copy=True)
    for gate, rotation in zip(circuit.gates, circuit.rotations):
        amplitudes = _apply_gate(amplitudes, gate, rotation, parameters)
    return Statevector(state.n_qubits, amplitudes)


def expectation(state: Statevector, hamiltonian: QubitHamiltonian | CompiledOperator) -> float:
    """<psi|H|psi> from the compiled x-mask form; no dense matrix is built.

    Pass ``hamiltonian.compile()`` to evaluate many states against one
    compiled form; a plain Hamiltonian is compiled for this call only.
    """
    if hamiltonian.n_qubits != state.n_qubits:
        raise ShapeError("Hamiltonian and state qubit counts differ")
    value = hamiltonian.compile().expectation(state.amplitudes)
    if abs(value.imag) > 1e-10:
        raise ShapeError(f"expectation has imaginary part {value.imag:.3e}")
    return float(value.real)


def sample_counts(probabilities: np.ndarray, n_shots: int, seed: int) -> np.ndarray:
    """Seeded multinomial draw of ``n_shots`` outcomes; one count per index."""
    probabilities = probabilities / probabilities.sum()
    return np.random.default_rng(seed).multinomial(n_shots, probabilities)


def sample(state: Statevector, n_shots: int, seed: int) -> dict[str, int]:
    """Seeded computational-basis sampling; returns bitstring -> count.

    Bitstrings list qubit 0 first, matching the Pauli letter convention.
    """
    if n_shots < 1:
        raise ShapeError("n_shots must be >= 1")
    counts = sample_counts(state.probabilities(), n_shots, seed)
    n = state.n_qubits
    result = {}
    for index in np.nonzero(counts)[0]:
        bits = "".join(str((int(index) >> q) & 1) for q in range(n))
        result[bits] = int(counts[index])
    return result
