"""Exact statevector simulation of parameterized circuits.

Amplitudes are indexed little-endian: qubit ``j`` is bit ``j`` of the
basis-state index. ry and cz gates act on all 2**n amplitudes, Pauli
rotations on the basis states a circuit is restricted to (one (N_alpha,
N_beta) sector, or all); they use the analytic cos/sin update rather than matrix
exponentials, so a single rotation carries no approximation error. A small
real sector circuit runs its rotations on Python floats, where numpy's cost
per call would outweigh the arithmetic, with the operations of the array
update in its order, so both give the same bits.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .exceptions import ShapeError, checked_int
from .paulis import (COEFF_PRUNE_THRESHOLD, CompiledOperator, QubitHamiltonian, check_allocation,
                     real_if_exact)

MAX_QUBITS = 24  # 2**24 complex amplitudes = 256 MiB; hard memory guard
# seeds are hashed as uint64; a caller's seed stays below 2**63 so that the
# offsets added to it (per call, per group) keep it below 2**64
SEED_LIMIT = 1 << 63

GATE_KINDS = ("ry", "cz", "pauli_rot")
# a real sector circuit whose rotations move at most this many rows each, on
# average, runs on Python floats (Circuit.kernel). One rotation, min of 5 timings,
# arrays against floats: 6.4 / 2.7 us at 4 rows (H3), 5.7 / 4.0 at 13 (8 qubits),
# 5.3 / 6.4 at 28 (10 qubits), 5.0 / 9.7 at 47 (12 qubits); they cross near 20
SCALAR_MAX_ROWS = 20
_ONE = np.ones(1)  # the factor of a bound angle, after the parameters


@dataclass(frozen=True)
class Statevector:
    n_qubits: int
    amplitudes: np.ndarray
    # a sector state's ascending basis states, one per amplitude; None for the register
    states: np.ndarray | None = None

    def __post_init__(self):
        if self.n_qubits > MAX_QUBITS:
            raise ShapeError(f"{self.n_qubits} qubits exceeds the {MAX_QUBITS}-qubit limit")
        size = 1 << self.n_qubits if self.states is None else len(self.states)
        if self.amplitudes.shape != (size,):
            raise ShapeError("amplitude count is not 2**n_qubits or the sector size")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def on_register(self) -> Statevector:
        """This state on all 2**n_qubits basis states, complex, zero off its states."""
        if self.states is None:
            return self
        amplitudes = np.zeros(1 << self.n_qubits, dtype=np.complex128)
        amplitudes[self.states] = self.amplitudes
        return Statevector(self.n_qubits, amplitudes)


@dataclass(frozen=True)
class Gate:
    """One circuit operation.

    ``slot`` selects a variational parameter; the rotation angle is then
    ``angle * parameters[slot]`` (so ``angle`` acts as a fixed multiplier,
    default 1). With ``slot=None`` the angle is bound directly.

    A ``pauli_rot`` gate is exp(-i angle/2 H) about its ``generator`` H: strings
    that share one x-mask with H^3 = H, such as one Pauli string or the
    Jordan-Wigner image of one fermionic excitation divided by i.
    """

    kind: str
    qubits: tuple
    slot: int | None = None
    angle: float = 1.0
    generator: QubitHamiltonian | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ShapeError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ShapeError("gate qubits must be distinct")
        if self.kind == "pauli_rot" and not isinstance(self.generator, QubitHamiltonian):
            raise ShapeError("pauli_rot gate requires a QubitHamiltonian generator")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple
    n_parameters: int = 0
    # set by restrict alone: the basis states a sector circuit runs on, its rotation
    # tables there and, for a small real one, their (row, partner, phase) triples as
    # Python numbers; None for a register circuit of ry and cz gates
    states: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    tables: tuple | None = field(default=None, init=False, repr=False, compare=False)
    kernel: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        used = set()
        for gate in self.gates:
            for q in gate.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ShapeError(f"gate qubit {q} outside register of {self.n_qubits}")
            if gate.generator is not None:
                if gate.generator.n_qubits != self.n_qubits:
                    raise ShapeError("gate generator size differs from register")
                if len(gate.generator.x_masks()) != 1:
                    raise ShapeError(f"generator strings span x-masks {gate.generator.x_masks()}")
            if gate.slot is not None:
                if not 0 <= gate.slot < self.n_parameters:
                    raise ShapeError(f"parameter slot {gate.slot} out of range")
                used.add(gate.slot)
        if used != set(range(self.n_parameters)):
            missing = sorted(set(range(self.n_parameters)) - used)
            raise ShapeError(f"parameter slots never referenced: {missing}")

    @cached_property
    def angle_slots(self) -> tuple:
        """(per gate, the index of its parameter, or ``n_parameters`` for a bound
        angle; per gate, its angle): a gate turns by angle * [*parameters, 1][slot]."""
        slots = [self.n_parameters if g.slot is None else g.slot for g in self.gates]
        angles = [g.angle for g in self.gates]
        return np.array(slots, dtype=np.intp), np.array(angles, dtype=float)

    def restrict(self, states: np.ndarray) -> Circuit | None:
        """This circuit on the ascending basis ``states`` (all 2**n_qubits for the whole
        register), one (rows, partner, phase) table per rotation; None unless every gate
        is a pauli_rot whose rows in ``states`` all have their partner there.

        A generator compiles on ``states`` to H = X^x D, entries (c, c ^ x, D[c ^ x]),
        and H^3 = H makes exp(-i a/2 H) set psi[rows] to cos(a/2) psi[rows] + sin(a/2) *
        phase * psi[partner] on the targets of its entries of size 1 (a full slice when
        all states are), with partner their sources and phase = -i times their values,
        real where it can be. Real tables of at most ``SCALAR_MAX_ROWS`` rows per
        rotation, on average, also give the circuit its ``kernel``."""
        if any(g.kind != "pauli_rot" for g in self.gates):
            return None
        # 32 B of rows, partner and phase per state and rotation; each compile()
        # checks its own workspace
        check_allocation(32 * len(self.gates) * len(states),
                         f"gate tables of {len(self.gates)} rotations on {self.n_qubits} qubits")
        tables = []
        for gate in self.gates:
            compiled = gate.generator.compile(states)
            if compiled.leak > COEFF_PRUNE_THRESHOLD:
                return None
            size = np.abs(compiled.values)
            if not np.all((size < 1e-12) | (np.abs(size - 1.0) < 1e-12)):
                raise ShapeError("generator is not a two-level rotation: |diagonal| not in {0, 1}")
            moved = size > 0.5
            rows = compiled.targets[moved]
            if rows.size == len(states):
                rows = slice(None)
            tables.append((rows, compiled.sources[moved],
                           real_if_exact(-1j * compiled.values[moved])))
        sector = copy.copy(self)
        object.__setattr__(sector, "tables", tuple(tables))  # the dataclass is frozen
        object.__setattr__(sector, "states", states)
        if (all(phase.dtype == np.float64 for _, _, phase in tables)
                and sum(len(partner) for _, partner, _ in tables) <= SCALAR_MAX_ROWS * len(tables)):
            index = np.arange(len(states))
            kernel = tuple(tuple(zip(index[rows].tolist(), partner.tolist(), phase.tolist()))
                           for rows, partner, phase in tables)
            object.__setattr__(sector, "kernel", kernel)
        return sector


def prepare_hf(n_qubits: int, occupied) -> Statevector:
    """Register basis state with 1s at the occupied qubits, its size checked first."""
    occupied = {checked_int(q, "occupied index") for q in occupied}
    for q in occupied:
        if not 0 <= q < n_qubits:
            raise ShapeError(f"occupied index {q} outside register of {n_qubits}")
    index = np.array([sum(1 << q for q in occupied)])
    return Statevector(n_qubits, np.ones(1), index).on_register()


def sector_states(n_qubits: int, index: int) -> np.ndarray:
    """The ascending basis states with the (N_alpha, N_beta) of basis state ``index``.

    Every alpha occupation (N_alpha set even qubits) is combined with every
    beta one (N_beta set odd qubits), so only the sector's states are built.
    """
    if not 0 <= index < 1 << n_qubits:
        raise ShapeError(f"basis index {index} outside register of {n_qubits}")
    spin_states = []
    for first in (0, 1):  # alpha on the even qubits, beta on the odd
        qubits = range(first, n_qubits, 2)
        patterns = np.arange(1 << len(qubits), dtype=np.intp)
        patterns = patterns[np.bitwise_count(patterns) == sum((index >> q) & 1 for q in qubits)]
        spread = np.zeros_like(patterns)
        for bit, q in enumerate(qubits):
            spread |= ((patterns >> bit) & 1) << q
        spin_states.append(spread)
    alpha, beta = spin_states
    return np.sort((alpha[:, None] | beta).ravel())


def update_qubit(stack: np.ndarray, qubit: int, rows, matrix: np.ndarray) -> None:
    """Apply 2x2 matrices to ``qubit`` of the ``rows`` of a stack, in place.

    ``stack`` is a contiguous (height, 2**n) array of amplitude vectors.
    ``matrix`` is one 2x2 for every row or a (rows, 1, 2, 2) stack, one per
    row; each new amplitude is m[a, 0] * w0 + m[a, 1] * w1, two complex products.
    """
    height, dim = stack.shape
    pairs = stack.reshape((height, dim >> (qubit + 1), 2, 1 << qubit), copy=False)
    w = pairs[rows]
    out = matrix[..., :1] * w[..., :1, :]
    out += matrix[..., 1:] * w[..., 1:, :]
    pairs[rows] = out


def _check_same_states(states, other, what: str) -> None:
    """Refuse two objects on different basis states (None: the register); the same
    array object passes without a comparison."""
    if states is not other and not np.array_equal(states, other):
        raise ShapeError(f"{what} act on different basis states")


def apply_circuit(state: Statevector, circuit: Circuit, parameters=()) -> Statevector:
    """Run the circuit on a state, resolving parameter slots from ``parameters``: ry
    and cz gates on a register state, the rotations of a circuit restricted to a
    sector state's states on it. Real stays real.

    A real state runs a sector circuit's ``kernel``, if it has one, on a list of Python
    floats: each rotation computes c * a[row] + s * (phase * a[partner]) for all its
    rows, then stores them, the operations of the array update in its order, so the
    amplitudes are bit-identical to it. Below about 20 rows a rotation's seven array
    calls cost more than its scalar arithmetic."""
    if circuit.n_qubits != state.n_qubits:
        raise ShapeError("circuit and state qubit counts differ")
    _check_same_states(circuit.states, state.states, "circuit and state")
    try:  # a float64 array passes as it is; other real arrays are converted
        parameters = np.asarray(parameters)
        if parameters.dtype != np.float64:
            parameters = parameters.astype(float, casting="same_kind")
    except (TypeError, ValueError):  # complex, non-numeric or ragged
        raise ShapeError(f"parameters must be real numbers, got {parameters!r}") from None
    if parameters.shape != (circuit.n_parameters,):
        raise ShapeError(
            f"expected {circuit.n_parameters} parameters, got {parameters.shape}"
        )
    slots, angles = circuit.angle_slots
    half = 0.5 * (angles * np.concatenate((parameters, _ONE))[slots])
    cos, sin = np.cos(half).tolist(), np.sin(half).tolist()
    if circuit.tables is None:  # the register: ry and cz gates
        if any(g.kind == "pauli_rot" for g in circuit.gates):
            raise ShapeError("pauli_rot gates run on a sector: restrict the circuit first")
        amplitudes = state.amplitudes.copy()
        for gate, c, s in zip(circuit.gates, cos, sin):
            if gate.kind == "ry":
                update_qubit(amplitudes.reshape(1, -1), gate.qubits[0], 0,
                             np.array([[c, -s], [s, c]]))
            else:  # cz: negate where both bits are set, through a view whose axes 1, 3 are hi, lo
                lo, hi = sorted(gate.qubits)
                shape = (-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
                both = amplitudes.reshape(shape, copy=False)[:, 1, :, 1, :]
                np.negative(both, out=both)
        return Statevector(state.n_qubits, amplitudes)
    if circuit.kernel is not None and state.amplitudes.dtype == np.float64:
        a = state.amplitudes.tolist()
        for triples, c, s in zip(circuit.kernel, cos, sin):
            for row, value in [(row, c * a[row] + s * (phase * a[partner]))
                               for row, partner, phase in triples]:
                a[row] = value
        return Statevector(state.n_qubits, np.array(a), state.states)
    phases = [phase for _, _, phase in circuit.tables]
    amplitudes = state.amplitudes.astype(np.result_type(state.amplitudes, *phases), copy=True)
    for (rows, partner, phase), c, s in zip(circuit.tables, cos, sin):
        amplitudes[rows] = c * amplitudes[rows] + s * (phase * amplitudes[partner])
    return Statevector(state.n_qubits, amplitudes, state.states)


def expectation(state: Statevector, hamiltonian: QubitHamiltonian | CompiledOperator) -> float:
    """<psi|H|psi> from the compiled form's entries; no dense matrix is built.

    Pass ``hamiltonian.compile(state.states)`` to evaluate many states against
    one form (a form compiled on other basis states is refused, as a circuit is);
    a plain Hamiltonian is compiled on the state's basis states for this call only.
    """
    if hamiltonian.n_qubits != state.n_qubits:
        raise ShapeError("Hamiltonian and state qubit counts differ")
    if isinstance(hamiltonian, QubitHamiltonian):
        hamiltonian = hamiltonian.compile(state.states)
    _check_same_states(hamiltonian.states, state.states, "Hamiltonian form and state")
    value = hamiltonian.expectation(state.amplitudes)
    if abs(value.imag) > 1e-10:
        raise ShapeError(f"expectation has imaginary part {value.imag:.3e}")
    return float(value.real)


def checked_seed(value) -> int:
    """``value`` as an int seed in [0, SEED_LIMIT), else a ShapeError."""
    seed = checked_int(value, "seed", 0)
    if seed >= SEED_LIMIT:
        raise ShapeError(f"seed must be < 2**63, got {seed}")
    return seed


def _hash_schedule(init: int, mult: int, steps: int) -> list[int]:
    """A SeedSequence hash constant: its start and its value after each of ``steps``
    multiplications by ``mult``, mod 2**32."""
    values = [init]
    for _ in range(steps):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return values


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


# numpy's SeedSequence (NEP 19) on a 4-word pool. Its hash constants do not
# depend on the data, so each step's constants are fixed: step k of the 16
# hashmix steps xors with _A[k] and multiplies by _A[k + 1]; output word k of
# the 8 xors with _B[k] and multiplies by _B[k + 1].
_A = _hash_schedule(0x43B0D7E5, 0x931E8875, 16)
_B = _hash_schedule(0x8B51F9DD, 0x58F38DED, 8)
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_ENTROPY_STEP = (_column(_A[0:4]), _column(_A[1:5]))
_OUTPUT_STEP = (_column(_B[0:8]), _column(_B[1:9]))


def _mix_steps() -> list[tuple]:
    """Per source pool word, the hashmix constants of the three words it mixes
    into, in order; the source's own row holds 0 (it is restored after the step)."""
    steps, k = [], 4
    for src in range(4):
        xor, mult = [0] * 4, [0] * 4
        for dst in (d for d in range(4) if d != src):
            xor[dst], mult[dst] = _A[k], _A[k + 1]
            k += 1
        steps.append((src, _column(xor), _column(mult)))
    return steps


_MIX_STEPS = _mix_steps()


def seed_words(seeds) -> np.ndarray:
    """Per seed in [0, 2**64), the row ``np.random.SeedSequence(seed).generate_state(4,
    np.uint64)``: the words PCG64 is seeded with. All seeds are hashed in one pass.

    A seed enters the pool as its low and high 32-bit words and two zeros (a
    seed below 2**32 is one word, and SeedSequence pads with zeros); every
    step below is SeedSequence's on all pools at once, in uint32 arithmetic.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    pool[1] = (seeds >> np.uint64(32)).astype(np.uint32)
    pool ^= _ENTROPY_STEP[0]
    pool *= _ENTROPY_STEP[1]
    pool ^= pool >> _XSHIFT
    for src, xor, mult in _MIX_STEPS:
        # hashmix the source word, then mix(x, y) = L x - R y, xorshifted
        hashed = (pool[src] ^ xor) * mult
        hashed ^= hashed >> _XSHIFT
        source = pool[src].copy()
        pool *= _MIX_L
        hashed *= _MIX_R
        pool -= hashed
        pool ^= pool >> _XSHIFT
        pool[src] = source
    out = np.concatenate((pool, pool))  # 8 output words cycle through the pool
    out ^= _OUTPUT_STEP[0]
    out *= _OUTPUT_STEP[1]
    out ^= out >> _XSHIFT
    # word pairs, low word first, as uint64
    return np.ascontiguousarray(out.T).astype("<u4", copy=False).view("<u8").astype(np.uint64)


@cache
def _seed_words_type() -> type:
    """An ISeedSequence that hands PCG64 a row of ``seed_words``, defined on first
    use so that importing this package does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Precomputed seed words; PCG64 asks for 4 uint64 words only."""

        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def sample_counts(probabilities: np.ndarray, n_shots: int, words: np.ndarray) -> np.ndarray:
    """Seeded multinomial draws of ``n_shots`` outcomes; one count per index.

    ``probabilities`` is one row, or a (rows, dim) block; each row is
    normalized to its sum and drawn on its own by PCG64 seeded with its row
    of ``words``, the ``seed_words`` of its seed. So each row's counts are
    exactly ``np.random.default_rng(seed).multinomial(n_shots, row / row.sum())``.
    """
    totals = probabilities.sum(axis=-1, keepdims=True)
    if not np.all((totals > 0) & (totals < np.inf)):
        raise ShapeError("cannot sample a state of zero or non-finite norm")
    rows = (probabilities / totals).reshape(-1, probabilities.shape[-1])
    counts = np.empty(rows.shape, dtype=np.int64)
    from numpy.random import PCG64, Generator  # here, so importing the package does not load it

    seed_type = _seed_words_type()
    for row, (p, row_words) in enumerate(zip(rows, words, strict=True)):
        counts[row] = Generator(PCG64(seed_type(row_words))).multinomial(n_shots, p)
    return counts.reshape(probabilities.shape)

