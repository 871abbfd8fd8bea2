import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from oracles import (
    hamiltonian_from_term_dict,
    jordan_wigner_term_dict,
    number_operator,
    pauli_matrix,
    pauli_multiply,
)
from vqechem import ansatz
from vqechem.ansatz import (
    _excitation_gates,
    _excitation_generators,
    build_hardware_efficient,
    build_uccsd,
    enumerate_excitations,
)
from vqechem.exceptions import ShapeError
from vqechem.fermions import jordan_wigner
from vqechem.paulis import PauliString
from vqechem.simulator import (
    MAX_QUBITS,
    Circuit,
    Statevector,
    apply_circuit,
    expectation,
    prepare_hf,
)


def test_hardware_efficient_parameter_count_8q_2reps():
    circuit = build_hardware_efficient(8, 2)
    assert circuit.n_parameters == 24


def test_hardware_efficient_no_entanglers_at_zero_reps():
    circuit = build_hardware_efficient(2, 0)
    assert circuit.n_parameters == 2
    assert all(g.kind == "ry" for g in circuit.gates)


def test_hardware_efficient_zero_parameters_fix_reference():
    # RotY(0) is the identity; CZ layers only add phase on a basis state
    circuit = build_hardware_efficient(4, 2)
    hf = prepare_hf(4, {0, 1})
    out = apply_circuit(hf, circuit, np.zeros(circuit.n_parameters))
    assert abs(abs(np.vdot(hf.amplitudes, out.amplitudes)) - 1.0) < 1e-12


def test_uccsd_keeps_its_last_build_for_the_same_arguments_alone():
    # equal arguments, in any order or integer type, return the last build; other
    # arguments make a circuit equal, gate for gate, to an uncached build
    h3 = build_uccsd(6, range(3))
    assert build_uccsd(6, [2, 0, 1, 1]) is h3 and build_uccsd(6, {np.int64(0), 1, 2}) is h3
    h2 = build_uccsd(4, {0, 1})
    fresh = ansatz._build_uccsd.__wrapped__(4, (0, 1))
    assert h2 is not fresh and h2.n_parameters == fresh.n_parameters == 3
    assert len(h2.gates) == len(fresh.gates) and all(
        a == b for a, b in zip(h2.gates, fresh.gates, strict=True))
    assert build_uccsd(6, range(3)) is not h3 and build_uccsd(6, range(3)) == h3


def test_enumerate_smallest_case():
    excitations = enumerate_excitations(4, {0, 1})
    assert excitations.singles == ((0, 2), (1, 3))
    assert excitations.doubles == ((0, 1, 2, 3),)


def test_enumerate_fully_occupied_is_empty():
    excitations = enumerate_excitations(4, {0, 1, 2, 3})
    assert excitations.singles == () and excitations.doubles == ()


def test_enumerate_counts_match_bruteforce():
    n, occupied = 8, {0, 1, 2, 3}
    excitations = enumerate_excitations(n, occupied)
    virtual = [a for a in range(n) if a not in occupied]
    singles = sum(
        1 for i in occupied for a in virtual if i % 2 == a % 2
    )
    doubles = 0
    for i, j in itertools.combinations(sorted(occupied), 2):
        for a, b in itertools.combinations(virtual, 2):
            if i % 2 + j % 2 == a % 2 + b % 2:
                doubles += 1
    assert len(excitations.singles) == singles == 8
    assert len(excitations.doubles) == doubles == 18


def test_enumerate_requires_occupied():
    with pytest.raises(ShapeError):
        enumerate_excitations(4, set())


def test_uccsd_h2_parameter_count():
    circuit = build_uccsd(4, {0, 1})
    assert circuit.n_parameters == 3


def test_uccsd_zero_angles_identity_on_reference():
    circuit = build_uccsd(4, {0, 1})
    hf = prepare_hf(4, {0, 1})
    out = apply_circuit(hf, circuit, np.zeros(3))
    assert np.abs(out.amplitudes - hf.amplitudes).max() < 1e-12


def test_uccsd_parameter_count_reported_for_8_spin_orbitals():
    # 4 electrons in 4 spatial orbitals: 8 singles + 18 doubles
    circuit = build_uccsd(8, {0, 1, 2, 3})
    assert circuit.n_parameters == 26


@pytest.mark.parametrize("n, occupied", [(4, {0, 1}), (6, {0, 1, 2}), (8, {0, 1, 2, 3})])
def test_uccsd_one_gate_per_parameter(n, occupied):
    circuit = build_uccsd(n, occupied)
    assert len(circuit.gates) == circuit.n_parameters


def test_uccsd_12_qubit_build_memory():
    tracemalloc.start()
    try:
        build_uccsd(12, range(8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_hardware_efficient_builds_at_the_qubit_limit_without_tables():
    """CZ gates keep no per-state table, so a MAX_QUBITS HEA circuit is cheap to build."""
    tracemalloc.start()
    try:
        circuit = build_hardware_efficient(MAX_QUBITS, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert circuit.n_parameters == 2 * MAX_QUBITS
    assert peak < 1 << 20


@given(
    st.integers(4, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.permutations(range(n)), st.booleans())),
    st.floats(-3.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_excitation_gate_matches_dense_exponential(excitation, theta, seed):
    """The fused gate equals expm(theta * M), M the dense JW image of tau - tau^+."""
    n, order, double = excitation
    k = 2 if double else 1
    annihilate, create = tuple(sorted(order[:k])), tuple(sorted(order[k:2 * k]))
    expansion = jordan_wigner_term_dict(_excitation_generators(n, [(annihilate, create)])[0])
    m = sum(c * pauli_matrix(PauliString(n, x, z).to_letters())
            for (x, z), c in expansion.items())
    circuit = Circuit(n, tuple(_excitation_gates(n, [(annihilate, create)])), n_parameters=1)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    state = Statevector(n, amps / np.linalg.norm(amps))
    fused = apply_circuit(state, circuit, [theta]).amplitudes
    assert np.abs(fused - expm(theta * m) @ state.amplitudes).max() < 1e-12


def test_uccsd_gates_match_gate_by_gate_build():
    # build_uccsd expands all generators in one call and splits them by
    # excitation; each gate must equal the one built for its excitation alone
    n, occupied = 8, range(4)
    excitations = enumerate_excitations(n, occupied)
    moves = [((i,), (a,)) for i, a in excitations.singles]
    moves += [((i, j), (a, b)) for i, j, a, b in excitations.doubles]
    circuit = build_uccsd(n, occupied)
    assert len(circuit.gates) == len(moves)
    for slot, (gate, (annihilate, create)) in enumerate(zip(circuit.gates, moves)):
        (alone,) = _excitation_gates(n, [(annihilate, create)], slot)
        assert (gate.slot, gate.angle, gate.generator) == (alone.slot, alone.angle, alone.generator)


def test_uccsd_rotation_strings_commute_within_excitation():
    """The rotations of one excitation must commute for exactness."""
    circuit = build_uccsd(4, {0, 1})
    for gate in circuit.gates:
        paulis = [p for _, p in gate.generator.terms]
        for a, b in itertools.combinations(paulis, 2):
            phase_ab, ab = pauli_multiply(a, b)
            phase_ba, ba = pauli_multiply(b, a)
            assert ab == ba and phase_ab == phase_ba


def test_uccsd_particle_number_exactly_conserved():
    n, occupied = 6, {0, 1, 2}
    circuit = build_uccsd(n, occupied)
    number = jordan_wigner(number_operator(n))
    squared = {}
    for w1, p1 in number.terms:
        for w2, p2 in number.terms:
            phase, prod = pauli_multiply(p1, p2)
            key = (prod.x_mask, prod.z_mask)
            squared[key] = squared.get(key, 0.0) + (w1 * w2 * phase).real
    number_sq = hamiltonian_from_term_dict(n, squared)

    hf = prepare_hf(n, occupied)
    rng = np.random.default_rng(42)
    for _ in range(50):
        theta = rng.uniform(-1.5, 1.5, circuit.n_parameters)
        state = apply_circuit(hf, circuit, theta)
        mean_n = expectation(state, number)
        var_n = expectation(state, number_sq) - mean_n**2
        assert abs(mean_n - len(occupied)) < 1e-10
        assert abs(var_n) < 1e-10


def test_parameter_shift_matches_finite_difference(h2_hamiltonian_074):
    """Analytic +/- pi/2 shifts against central differences, < 1e-7."""
    h = h2_hamiltonian_074
    circuit = build_hardware_efficient(h.n_qubits, 1)
    hf = prepare_hf(h.n_qubits, {0, 1})

    def energy(theta):
        return expectation(apply_circuit(hf, circuit, theta), h)

    rng = np.random.default_rng(5)
    theta = rng.uniform(-1.0, 1.0, circuit.n_parameters)
    eps = 5e-4
    for k in range(circuit.n_parameters):
        shift = np.zeros_like(theta)
        shift[k] = np.pi / 2
        analytic = 0.5 * (energy(theta + shift) - energy(theta - shift))
        step = np.zeros_like(theta)
        step[k] = eps
        numeric = (energy(theta + step) - energy(theta - step)) / (2 * eps)
        assert abs(analytic - numeric) < 1e-7
