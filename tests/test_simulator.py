import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.linalg import expm

from oracles import (
    apply_circuit_per_gate,
    circuit_unitary,
    full_register_objective,
    hamiltonian_from_term_dict,
    hamiltonian_matrix,
    number_operator,
    pauli_matrix,
    restrict_by_remap,
    sample_counts as sample_counts_per_row,
    sector_states_by_labels,
)
from vqechem import simulator
from vqechem.ansatz import _excitation_gates, build_hardware_efficient, build_uccsd
from vqechem.exceptions import ShapeError
from vqechem.fermions import build_second_quantized, jordan_wigner
from vqechem.paulis import PauliString, QubitHamiltonian
from vqechem.simulator import (
    Circuit,
    Gate,
    Statevector,
    apply_circuit,
    expectation,
    prepare_hf,
    sample_counts,
    sector_states,
    seed_words,
)
from vqechem.workflows import h3_exchange_point, integrals_from_geometry


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return Statevector(n, amps / np.linalg.norm(amps))


def random_hamiltonian(n, n_terms, seed):
    rng = np.random.default_rng(seed)
    coeffs = {}
    while len(coeffs) < n_terms:
        key = (int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        coeffs[key] = float(rng.normal())
    return hamiltonian_from_term_dict(n, coeffs)


def single(p):
    """One Pauli string as a rotation generator."""
    return QubitHamiltonian(p.n_qubits, ((1.0, p),))


# the gate sets a circuit is drawn from: the hardware-efficient gates, Pauli
# rotations, and all three mixed; each runs as tables on its basis states
CIRCUIT_KINDS = (("ry", "cz"), ("pauli_rot",), ("ry", "cz", "pauli_rot"))


def random_circuit(n, n_gates, n_params, seed, kinds):
    """Random gates of ``kinds``, with bound and slotted angles."""
    rng = np.random.default_rng(seed)
    gates = []
    slots = list(range(n_params))
    while len(gates) < n_gates or slots:
        kind = rng.choice(kinds)
        if kind == "cz":
            q1, q2 = rng.choice(n, size=2, replace=False)
            gates.append(Gate(kind, (int(q1), int(q2))))
            continue
        qubits, generator = (int(rng.integers(0, n)),), None
        if kind == "pauli_rot":
            x, z = int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))
            if x == 0 and z == 0:
                continue
            qubits, generator = (), single(PauliString(n, x, z))
        slot = slots.pop() if slots and rng.random() < 0.7 else None
        gates.append(Gate(kind, qubits, slot=slot, generator=generator,
                          angle=float(rng.normal()) if slot is None else 1.0))
    return Circuit(n, tuple(gates), n_parameters=n_params)


def test_prepare_hf_empty():
    state = prepare_hf(4, set())
    assert state.amplitudes[0] == 1.0
    assert state.norm() == 1.0


def test_prepare_hf_occupation_example():
    # X0 X1 X3 |0000> occupies qubits {0,1,3} -> little-endian index 11
    state = prepare_hf(4, {0, 1, 3})
    assert state.amplitudes[11] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_prepare_hf_particle_number():
    state = prepare_hf(4, {0, 1})
    n_op = jordan_wigner(number_operator(4))
    assert abs(expectation(state, n_op) - 2.0) < 1e-12


def test_prepare_hf_bad_index():
    with pytest.raises(ShapeError):
        prepare_hf(3, {3})


@pytest.mark.parametrize("n", [26, 40])
def test_prepare_hf_checks_the_qubit_limit_before_allocating(n):
    # the register would take 1 GiB at 26 qubits and 16 TiB at 40
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match=f"{n} qubits exceeds the 24-qubit limit"):
            prepare_hf(n, {0})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_empty_circuit_is_identity():
    state = random_state(3, 1)
    out = apply_circuit(state, Circuit(3, ()))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_roty_pi_flips_qubit():
    circuit = Circuit(1, (Gate("ry", (0,), angle=np.pi),))
    out = apply_circuit(prepare_hf(1, set()), circuit)
    probabilities = out.probabilities()
    assert abs(probabilities[1] - 1.0) < 1e-12  # up to global phase


@pytest.mark.parametrize("seed", range(5))
def test_random_circuit_matches_dense_unitary(seed):
    n = 5
    params = np.random.default_rng(seed + 50).normal(size=3)
    state = random_state(n, seed + 100)
    for kinds in CIRCUIT_KINDS:
        circuit = random_circuit(n, 12, 3, seed, kinds)
        fast = apply_circuit(state, circuit, params)
        dense = circuit_unitary(circuit, params) @ state.amplitudes
        assert np.abs(fast.amplitudes - dense).max() < 1e-10
        assert abs(fast.norm() - 1.0) < 1e-10


def test_norm_preserved_gate_by_gate():
    n = 4
    for kinds in CIRCUIT_KINDS:
        circuit = random_circuit(n, 10, 2, 9, kinds)
        amps = random_state(n, 11).amplitudes
        for gate in circuit.gates:
            if gate.slot is not None:
                continue
            amps2 = apply_circuit(Statevector(n, amps), Circuit(n, (gate,))).amplitudes
            assert abs(np.linalg.norm(amps2) - 1.0) < 1e-10
            amps = amps2


def test_pauli_rotation_zero_angle_identity():
    p = single(PauliString.from_letters("XZY"))
    circuit = Circuit(3, (Gate("pauli_rot", (), angle=0.0, generator=p),))
    state = random_state(3, 2)
    out = apply_circuit(state, circuit)
    assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12


def test_pauli_rotation_roundtrip():
    p = single(PauliString.from_letters("XZY"))
    theta = 0.7318
    forward = Circuit(3, (Gate("pauli_rot", (), angle=theta, generator=p),))
    backward = Circuit(3, (Gate("pauli_rot", (), angle=-theta, generator=p),))
    state = random_state(3, 3)
    out = apply_circuit(apply_circuit(state, forward), backward)
    assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12


def test_pauli_rotation_half_angle_composition():
    p = single(PauliString.from_letters("ZZ"))
    theta = 1.234
    whole = Circuit(2, (Gate("pauli_rot", (), angle=theta, generator=p),))
    halves = Circuit(
        2,
        (
            Gate("pauli_rot", (), angle=theta / 2, generator=p),
            Gate("pauli_rot", (), angle=theta / 2, generator=p),
        ),
    )
    state = random_state(2, 4)
    one = apply_circuit(state, whole)
    two = apply_circuit(state, halves)
    assert np.abs(one.amplitudes - two.amplitudes).max() < 1e-12


@given(
    st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))),
    st.floats(-7.0, 7.0),
    st.integers(0, 2**32 - 1),
)
def test_precomputed_rotation_matches_dense_exponential(masks, theta, seed):
    n, x, z = masks
    p = PauliString(n, x, z)
    circuit = Circuit(n, (Gate("pauli_rot", (), angle=theta, generator=single(p)),))
    state = random_state(n, seed)
    fast = apply_circuit(state, circuit).amplitudes
    dense = expm(-0.5j * theta * pauli_matrix(p.to_letters())) @ state.amplitudes
    assert np.abs(fast - dense).max() < 1e-12


def test_rotation_tables_refused_before_allocating():
    # forty rotations on the 853776 states of the (6, 6) sector of 24 qubits:
    # 40 * 853776 * 32 B of row, partner and phase tables, 1.0 GiB, refused
    # where the tables are built
    gates = tuple(Gate("pauli_rot", (), angle=0.1, generator=single(PauliString(24, 0, z)))
                  for z in range(1, 41))
    circuit = Circuit(24, gates)
    states = sector_states(24, (1 << 12) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match="gate tables of 40 rotations on 24 qubits .* GiB"):
            circuit.restrict(states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(states) == 853776
    assert peak < 1 << 20


@pytest.mark.parametrize("terms", [
    ((0.5, "XX"), (0.5, "ZI")),  # two x-masks
    ((0.5, "ZI"),),  # diagonal entries +-0.5
    ((1.0, "XX"), (1.0, "YY")),  # |diagonal| 2 on half the rows
])
def test_generator_that_is_not_a_two_level_rotation_rejected(terms):
    generator = QubitHamiltonian(2, tuple((w, PauliString.from_letters(s)) for w, s in terms))
    gates = (Gate("pauli_rot", (), generator=generator),)
    if len(generator.x_masks()) > 1:  # refused at construction
        with pytest.raises(ShapeError, match="x-masks"):
            Circuit(2, gates)
        return
    # |diagonal| is checked where tables are built
    with pytest.raises(ShapeError, match="two-level"):
        Circuit(2, gates).restrict(np.arange(4))


def test_cz_negates_exactly_the_rows_with_both_bits_set():
    n = 5
    state = random_state(n, 8)
    gates = (Gate("cz", (0, 3)), Gate("cz", (4, 1)), Gate("cz", (3, 0)))
    out = apply_circuit(state, Circuit(n, gates)).amplitudes
    index = np.arange(1 << n)
    sign = np.ones(1 << n)
    for control, target in ((0, 3), (4, 1), (3, 0)):
        sign[((index >> control) & 1 == 1) & ((index >> target) & 1 == 1)] *= -1.0
    assert np.array_equal(out, sign * state.amplitudes)


def test_parameter_count_mismatch():
    circuit = Circuit(2, (Gate("ry", (0,), slot=0),), n_parameters=1)
    with pytest.raises(ShapeError):
        apply_circuit(prepare_hf(2, set()), circuit, [])


@pytest.mark.parametrize("parameters", [[0.5j], np.array([0.5 + 0.5j]), ["0.5"], [None],
                                        [object()], [[0.5], [0.1, 0.2]]])
def test_parameters_must_be_real_numbers(parameters):
    circuit = Circuit(2, (Gate("ry", (0,), slot=0),), n_parameters=1)
    with pytest.raises(ShapeError, match="parameters must be real numbers"):
        apply_circuit(prepare_hf(2, set()), circuit, parameters)


def test_real_parameters_of_any_real_type_are_converted():
    circuit = Circuit(2, (Gate("ry", (0,), slot=0),), n_parameters=1)
    reference = apply_circuit(prepare_hf(2, set()), circuit, np.array([1.0])).amplitudes
    for parameters in ([1], (1.0,), [True], np.float32([1.0]), np.array([1], dtype=">f8")):
        out = apply_circuit(prepare_hf(2, set()), circuit, parameters).amplitudes
        assert np.array_equal(out, reference)


def test_unreferenced_slot_rejected():
    with pytest.raises(ShapeError):
        Circuit(2, (Gate("ry", (0,), slot=0),), n_parameters=2)


def test_expectation_z_on_ground():
    h = hamiltonian_from_term_dict(1, {(0, 1): 1.0})  # Z0
    assert expectation(prepare_hf(1, set()), h) == pytest.approx(1.0)


def test_expectation_x_on_plus_state():
    h = hamiltonian_from_term_dict(1, {(1, 0): 1.0})  # X0
    plus = Statevector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert expectation(plus, h) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(4))
def test_expectation_matches_dense_oracle(seed):
    n = 6
    h = random_hamiltonian(n, 12, seed)
    state = random_state(n, seed + 7)
    dense = hamiltonian_matrix(h)
    expected = np.real(np.vdot(state.amplitudes, dense @ state.amplitudes))
    assert abs(expectation(state, h) - expected) < 1e-10


def test_expectation_size_mismatch():
    h = random_hamiltonian(3, 4, 0)
    with pytest.raises(ShapeError):
        expectation(random_state(2, 0), h)


def test_expectation_refuses_a_form_compiled_on_other_states():
    # H3 at its symmetric point: the (2, 1) and (1, 1) sectors hold 9 states each,
    # so the form's dimension fits a (1, 1) state; applied anyway, it read
    # -1.52953 Ha against the state's true -1.19916 Ha
    integrals, _ = integrals_from_geometry(h3_exchange_point("0", 0.0)["geometry"])
    h = jordan_wigner(build_second_quantized(integrals))
    form = h.compile(sector_states(6, h.hf_index()))
    other = sector_states(6, 0b11)
    assert len(other) == form.dim == 9
    state = Statevector(6, (other == 0b11).astype(float), other)
    assert expectation(state, h) == pytest.approx(-1.19916, abs=1e-5)
    with pytest.raises(ShapeError, match="different basis states"):
        expectation(state, form)
    with pytest.raises(ShapeError, match="different basis states"):
        expectation(state.on_register(), form)


def test_sample_basis_state_deterministic_outcome():
    state = prepare_hf(4, {1, 2})
    counts = sample_counts(state.probabilities(), 250, seed_words(0))
    assert counts[0b0110] == counts.sum() == 250


def test_sample_uniform_within_binomial_bound():
    plus = Statevector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    n_shots = 100_000
    counts = sample_counts(plus.probabilities(), n_shots, seed_words(123))
    p0 = counts[0] / n_shots
    sigma = 0.5 / np.sqrt(n_shots)
    assert abs(p0 - 0.5) < 5 * sigma


def test_sample_seeded_determinism():
    p = random_state(3, 17).probabilities()
    assert np.array_equal(sample_counts(p, 1000, seed_words(9)),
                          sample_counts(p, 1000, seed_words(9)))


def test_qubit_limit_guard():
    with pytest.raises(ShapeError):
        Statevector(25, np.zeros(2, dtype=complex))


@pytest.mark.parametrize("kind", ["x", "rz", "cnot"])
def test_gate_kinds_outside_ansatz_set_rejected(kind):
    with pytest.raises(ShapeError):
        Gate(kind, (0,))


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_one_cos_call_per_circuit_is_bit_identical_to_the_gate_loop(n, seed):
    # ry and cz gates, then pauli_rot gates, bound and slotted angles, on the whole register
    for kinds in CIRCUIT_KINDS:
        circuit = (random_circuit(n, 12, 3, seed, kinds) if n > 1 or "cz" not in kinds
                   else build_hardware_efficient(2, 2))
        params = np.random.default_rng(seed).normal(0.0, 3.0, circuit.n_parameters)
        state = random_state(circuit.n_qubits, seed)
        fast = apply_circuit(state, circuit, params).amplitudes
        assert np.array_equal(fast, apply_circuit_per_gate(state.amplitudes, circuit, params))


@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=40))
@example([0, 2**32 - 1, 2**32, 2**63 - 1])
# per-group seeds: a seed below 2**63 plus a group index
@example([2**63, 2**63 + 35, 2**64 - 1])
def test_seed_words_are_the_seed_sequence_state(seeds):
    words = seed_words(seeds)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, row in zip(seeds, words):
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 2000), st.data())
def test_sample_counts_are_the_per_row_default_rng_draws(rows, n, shots, data):
    seeds = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=rows, max_size=rows))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # unnormalized rows, some outcomes impossible
    block = rng.uniform(0.0, 3.0, (rows, 1 << n)) * (rng.uniform(size=(rows, 1 << n)) < 0.8)
    block[:, 0] += 0.1
    assert np.array_equal(sample_counts(block, shots, seed_words(seeds)),
                          sample_counts_per_row(block, shots, seeds))
    assert np.array_equal(sample_counts(block[0], shots, seed_words(seeds[0])),
                          sample_counts_per_row(block[0], shots, seeds[0]))


@pytest.mark.parametrize("n", range(13))
def test_sector_states_are_the_labelled_sector(n):
    for index in range(1 << n):
        states = sector_states(n, index)
        assert states.dtype == np.intp
        assert np.array_equal(states, sector_states_by_labels(n, index))


@pytest.mark.parametrize("index", [-1, 16])
def test_sector_states_refuse_an_index_outside_the_register(index):
    with pytest.raises(ShapeError, match="outside register"):
        sector_states(4, index)


def test_sector_states_list_the_sector_alone():
    # the 63504-state (5, 5) sector of 20 qubits is 0.5 MB; labels would take 11 MB
    tracemalloc.start()
    try:
        states = sector_states(20, (1 << 10) - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(states) == 63504
    assert peak < 2 << 20


@given(st.integers(1, 8))
def test_sector_states_count_even_and_odd_qubits(n):
    for index in range(1 << n):
        n_alpha = sum((index >> q) & 1 for q in range(0, n, 2))
        n_beta = sum((index >> q) & 1 for q in range(1, n, 2))
        for state in sector_states(n, index).tolist():
            assert (state & 0x5555).bit_count() == n_alpha
            assert (state & 0xAAAA).bit_count() == n_beta


@pytest.mark.parametrize("n, occupied", [(4, {0, 1}), (6, {0, 1, 2}), (8, {0, 1, 2, 3})])
def test_restricted_circuit_matches_the_register_on_its_sector(n, occupied):
    circuit = build_uccsd(n, occupied)
    hf = sum(1 << q for q in occupied)
    states = sector_states_by_labels(n, hf)
    sector = circuit.restrict(states)
    assert sector is not None and sector.gates == circuit.gates
    rng = np.random.default_rng(n)
    for _ in range(5):
        theta = rng.uniform(-3.0, 3.0, circuit.n_parameters)
        full = apply_circuit(prepare_hf(n, occupied), circuit, theta).amplitudes
        reference = Statevector(n, (hf == states).astype(float), states)
        local = apply_circuit(reference, sector, theta)
        assert local.amplitudes.dtype == np.float64 and np.array_equal(local.states, states)
        assert np.abs(local.amplitudes - full[states]).max() < 1e-14
        assert not np.delete(full, states).any()


def test_circuit_restricts_only_when_every_gate_keeps_the_states():
    states = sector_states_by_labels(4, 3)
    hardware = build_hardware_efficient(4, 1)
    assert hardware.restrict(states) is None and restrict_by_remap(hardware, states) is None
    leaves = Circuit(4, (Gate("pauli_rot", (), generator=single(PauliString.from_letters("XIII"))),))
    assert leaves.restrict(states) is None and restrict_by_remap(leaves, states) is None
    empty = Circuit(4, ())
    assert empty.restrict(states).tables == () == restrict_by_remap(empty, states)


def assert_tables_equal(tables, reference, dim):
    """Equal rows and partners, and equal phases of one dtype; a full-slice ``rows``
    is expanded first."""
    assert (tables is None) == (reference is None)
    if tables is None:
        return
    assert len(tables) == len(reference)
    for (shape, rows, partner, phase), (ref_rows, ref_partner, ref_phase) in zip(tables, reference):
        assert shape == (dim,) and np.array_equal(np.arange(dim)[rows], ref_rows)
        assert np.array_equal(partner, ref_partner)
        assert phase.dtype == ref_phase.dtype and np.array_equal(phase, ref_phase)


@st.composite
def rotation(draw, n):
    """An excitation's rotation, spin-conserving or a spin flip, or one Pauli string."""
    if draw(st.booleans()):
        k = draw(st.integers(1, min(2, n // 2)))
        modes = draw(st.permutations(range(n)))
        move = (tuple(sorted(modes[:k])), tuple(sorted(modes[k:2 * k])))
        return replace(_excitation_gates(n, [move])[0], slot=None)
    x, z = draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, (1 << n) - 1))
    return Gate("pauli_rot", (), generator=single(PauliString(n, x, z)))


@given(st.integers(4, 10), st.data())
def test_restrict_compiles_the_tables_the_register_remap_gives(n, data):
    occupied = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    uccsd = build_uccsd(n, occupied)
    extra = data.draw(st.lists(rotation(n), max_size=3))
    circuit = Circuit(n, uccsd.gates + tuple(extra), n_parameters=uccsd.n_parameters)
    index = data.draw(st.sampled_from([sum(1 << q for q in occupied),
                                       data.draw(st.integers(0, (1 << n) - 1))]))
    states = sector_states(n, index)
    sector = circuit.restrict(states)
    reference = restrict_by_remap(circuit, states)
    assert_tables_equal(None if sector is None else sector.tables, reference, len(states))
    if not extra:  # UCCSD keeps every (N_alpha, N_beta) sector
        assert sector is not None


def test_rotation_with_no_row_in_the_states_is_the_identity_there():
    # alpha 0 -> 2 moves no state with no alpha electron: its form on them has no entries
    gate = replace(_excitation_gates(4, [((0,), (2,))])[0], slot=None, angle=0.7)
    circuit = Circuit(4, (gate,))
    states = sector_states(4, 0b0010)
    form = gate.generator.compile(states)
    assert (form.dim, len(form.targets), len(form.sources), len(form.values)) == (2, 0, 0, 0)
    sector = circuit.restrict(states)
    assert_tables_equal(sector.tables, restrict_by_remap(circuit, states), len(states))
    state = Statevector(4, np.array([0.6, 0.8]), states)
    assert np.array_equal(apply_circuit(state, sector).amplitudes, state.amplitudes)


@st.composite
def conserving_rotation(draw, n):
    """A spin-conserving excitation's rotation, real on every sector, with a bound angle."""
    k = draw(st.integers(1, min(2, n // 2)))
    modes = draw(st.permutations(range(n)).filter(
        lambda m: sorted(q % 2 for q in m[:k]) == sorted(q % 2 for q in m[k:2 * k])))
    move = (tuple(sorted(modes[:k])), tuple(sorted(modes[k:2 * k])))
    return replace(_excitation_gates(n, [move])[0], slot=None,
                   angle=draw(st.floats(-3.0, 3.0)))


def run_both_kernels(circuit, state, parameters):
    """``circuit`` restricted to the state's states and run by the array loop
    (cutoff below every rotation), then by the scalar kernel (cutoff above)."""
    out = []
    for cutoff in (-1, 1 << 30):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "SCALAR_MAX_ROWS", cutoff)
            sector = circuit.restrict(state.states)
        assert (sector.kernel is None) == (cutoff < 0) or not circuit.gates
        out.append(apply_circuit(state, sector, parameters).amplitudes)
    assert out[0].dtype == out[1].dtype == np.float64
    return out


@given(st.integers(4, 10), st.data())
def test_scalar_kernel_is_bit_identical_to_the_array_loop(n, data):
    occupied = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    uccsd = build_uccsd(n, occupied)
    extra = data.draw(st.lists(conserving_rotation(n), max_size=3))
    circuit = Circuit(n, uccsd.gates + tuple(extra), n_parameters=uccsd.n_parameters)
    states = sector_states(n, data.draw(st.integers(0, (1 << n) - 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amplitudes = rng.standard_normal(len(states))
    state = Statevector(n, amplitudes / np.linalg.norm(amplitudes), states)
    array, scalar = run_both_kernels(circuit, state, rng.uniform(-3.0, 3.0, circuit.n_parameters))
    assert np.array_equal(scalar, array)


@pytest.mark.parametrize("n, n_electrons, scalar", [(10, 6, True), (12, 8, True), (12, 7, False)])
def test_kernel_cutoff_counts_the_mean_rows_of_a_rotation(n, n_electrons, scalar):
    # UCCSD on the HF sector moves 27.6, 47.0 and 68.6 rows per rotation on average:
    # the last is above SCALAR_MAX_ROWS; a cutoff one below the mean's ceiling keeps
    # the array loop, and both loops give the same bits
    circuit = build_uccsd(n, range(n_electrons))
    states = sector_states(n, (1 << n_electrons) - 1)
    sector = circuit.restrict(states)
    rows = sum(len(partner) for *_, partner, _ in sector.tables)
    assert (sector.kernel is not None) == scalar == (
        rows <= simulator.SCALAR_MAX_ROWS * len(circuit.gates))
    ceiling = -(-rows // len(circuit.gates))
    for cutoff in (ceiling - 1, ceiling):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "SCALAR_MAX_ROWS", cutoff)
            assert (circuit.restrict(states).kernel is None) == (cutoff < ceiling)
    rng = np.random.default_rng(n_electrons)
    amplitudes = rng.standard_normal(len(states))
    state = Statevector(n, amplitudes / np.linalg.norm(amplitudes), states)
    array, scalar = run_both_kernels(circuit, state, rng.uniform(-3.0, 3.0, circuit.n_parameters))
    assert np.array_equal(scalar, array)


def test_kernel_turns_each_row_pair_once():
    # every moved row is in exactly one pair, with its partner and both phases
    circuit = build_uccsd(6, range(3))
    sector = circuit.restrict(sector_states(6, 0b111))
    for (_, rows, partner, phase), pairs in zip(sector.tables, sector.kernel):
        rows = np.arange(len(sector.states))[rows]
        entries = dict(zip(zip(rows.tolist(), partner.tolist()), phase.tolist()))
        assert sorted(q for r, p, _, _ in pairs for q in (r, p)) == sorted(rows.tolist())
        assert all(r < p and (f, g) == (entries[r, p], entries[p, r]) for r, p, f, g in pairs)


def test_rows_that_do_not_pair_get_no_kernel(monkeypatch):
    # a Hermitian generator's rows always pair; a form that lost its first entry
    # leaves that row's partner unpaired, so the circuit keeps the array loop
    circuit = build_uccsd(4, {0, 1})
    states = sector_states(4, 0b0011)
    assert circuit.restrict(states).kernel is not None
    compile_form = QubitHamiltonian.compile

    def lossy(self, states=None):
        form = compile_form(self, states)
        return replace(form, targets=form.targets[1:], sources=form.sources[1:],
                       values=form.values[1:])

    monkeypatch.setattr(QubitHamiltonian, "compile", lossy)
    sector = circuit.restrict(states)
    assert sector is not None and sector.kernel is None


def test_a_restricted_circuit_restricts_afresh(monkeypatch):
    # restricting a sector circuit again keeps nothing of its first sector: with
    # the array loop forced, no kernel of the 9-state sector is left on the register
    sector = build_uccsd(6, range(3)).restrict(sector_states(6, 0b111))
    assert sector.kernel is not None
    monkeypatch.setattr(simulator, "SCALAR_MAX_ROWS", -1)
    register = sector.restrict(np.arange(64))
    assert register.kernel is None and register.last_sector == (None, None)
    assert len(register.states) == 64 and register.gates == sector.gates


def test_scalar_kernel_runs_rotations_of_no_row_and_of_every_row():
    # on 4 qubits with one alpha electron and no beta one, alpha 0 -> 2 moves
    # both states and beta 1 -> 3 moves none
    gates = _excitation_gates(4, [((0,), (2,)), ((1,), (3,))])
    circuit = Circuit(4, tuple(replace(g, slot=None, angle=a) for g, a in zip(gates, (0.7, -1.3))))
    states = sector_states(4, 0b0001)
    sector = circuit.restrict(states)
    assert sector.tables[0][1] == slice(None) and sector.tables[1][1].size == 0
    state = Statevector(4, np.array([0.6, 0.8]), states)
    array, scalar = run_both_kernels(circuit, state, ())
    assert np.array_equal(scalar, array) and not np.array_equal(scalar, state.amplitudes)


def test_register_state_runs_a_rotation_circuit_on_its_register_tables(h2_hamiltonian_074):
    # a circuit not restricted runs on a register state through its tables on the
    # register, made for the call; the circuit itself stays unrestricted
    circuit = build_uccsd(4, {0, 1})
    objective = full_register_objective(h2_hamiltonian_074, circuit, {0, 1})
    for seed in range(3):
        theta = np.random.default_rng(seed).uniform(-2.0, 2.0, circuit.n_parameters)
        reference = prepare_hf(4, {0, 1})
        out = apply_circuit(reference, circuit, theta)
        per_gate = apply_circuit_per_gate(reference.amplitudes, circuit, theta)
        assert out.states is None and np.array_equal(out.amplitudes, per_gate)
        assert expectation(out, h2_hamiltonian_074) == pytest.approx(objective(theta), abs=1e-12)
    assert circuit.tables is None and circuit.states is None
    register = circuit.restrict()
    assert register.states is None and len(register.tables) == 3


def flat_table(table):
    """A (shape, rows, partner, phase) table as flat arrays: its moved rows, in
    order, their partners and their phases."""
    shape, rows, partner, phase = table
    index = np.arange(np.prod(shape, dtype=int)).reshape(shape)
    moved = index[rows]
    return moved.ravel(), index[partner].ravel(), np.broadcast_to(phase, moved.shape).ravel()


@pytest.mark.parametrize("n", [2, 6])
def test_ry_tables_are_those_of_the_rotation_about_its_y_string(n):
    # RY(a) = exp(-i a/2 Y): read through its view of the register, the same rows,
    # partners and real phases -1/+1, whatever the ry's angle; it holds no array of a
    # row each
    for q in range(n):
        y = single(PauliString(n, 1 << q, 1 << q))
        rotation = Circuit(n, (Gate("pauli_rot", (), generator=y),)).restrict()
        ref_rows, ref_partner, ref_phase = flat_table(rotation.tables[0])
        assert np.array_equal(ref_phase, np.where(np.arange(1 << n) >> q & 1, 1.0, -1.0))
        ry = Circuit(n, (Gate("ry", (q,), angle=0.3), Gate("ry", (q,)))).restrict()
        for table in ry.tables:
            rows, partner, phase = flat_table(table)
            assert np.array_equal(rows, ref_rows) and np.array_equal(partner, ref_partner)
            assert phase.dtype == ref_phase.dtype and np.array_equal(phase, ref_phase)
            assert max(a.size for a in table if isinstance(a, np.ndarray)) == 2


def test_cz_runs_on_the_register_alone(monkeypatch):
    # a cz flips signs only, yet given states it restricts to nothing, as an ry does,
    # before any table is built; on the register its table is a view of the rows with
    # both bits set
    states = sector_states(6, 0b111)
    circuit = Circuit(6, (Gate("cz", (0, 3)), Gate("cz", (3, 0))))
    uccsd = build_uccsd(6, range(3))
    mixed = Circuit(6, uccsd.gates + (Gate("ry", (0,)),), n_parameters=uccsd.n_parameters)
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_gate_table", None)
        patch.setattr(simulator, "check_allocation", None)
        for refused in (circuit, mixed):
            assert refused.restrict(states) is None and refused.restrict(np.arange(64)) is None
    for table in circuit.register.tables:
        rows, partner, phase = flat_table(table)
        assert np.array_equal(rows, np.flatnonzero(np.arange(64) & 0b1001 == 0b1001))
        assert np.array_equal(partner, rows) and not phase.any()
    assert circuit.gates[0].angle == 2 * np.pi


def test_cz_takes_no_parameter_slot():
    with pytest.raises(ShapeError, match="no parameter slot"):
        Gate("cz", (0, 1), slot=0)


def test_hardware_efficient_register_tables_hold_no_array_of_a_row_each():
    # at the 24-qubit limit every ry and cz runs on a view of the register, kept on
    # the circuit, and the (6, 6) sector, which the first ry leaves, is refused by the
    # gate kinds alone, before any table is built or counted
    circuit = build_hardware_efficient(24, 3)
    states = sector_states(24, (1 << 12) - 1)
    tracemalloc.start()
    try:
        register = circuit.register
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert register.states is None and len(register.tables) == len(circuit.gates) == 165
    assert peak < 1 << 20 and circuit.register is register
    assert circuit.restrict(states) is None


def test_sector_state_needs_the_circuit_restricted_to_its_states():
    states = sector_states_by_labels(4, 3)
    state = Statevector(4, np.eye(len(states))[0], states)
    circuit = build_uccsd(4, {0, 1})
    with pytest.raises(ShapeError, match="different basis states"):
        apply_circuit(state, circuit, np.zeros(circuit.n_parameters))
    with pytest.raises(ShapeError, match="sector size"):
        Statevector(4, np.zeros(5), states)
    out = apply_circuit(state, circuit.restrict(states.copy()), np.zeros(circuit.n_parameters))
    assert np.array_equal(out.amplitudes, state.amplitudes)


@pytest.mark.parametrize("seed", range(3))
def test_expectation_of_a_sector_state_compiles_a_plain_hamiltonian_on_its_states(
        h2_hamiltonian_074, seed):
    states = sector_states(4, 0b0011)
    assert np.array_equal(states, sector_states_by_labels(4, 3))
    rng = np.random.default_rng(seed)
    amplitudes = rng.standard_normal(len(states)) + 1j * rng.standard_normal(len(states))
    amplitudes /= np.linalg.norm(amplitudes)
    embedded = np.zeros(16, dtype=complex)
    embedded[states] = amplitudes
    # a conserving Hamiltonian and one whose strings leave the sector
    for h in (h2_hamiltonian_074, random_hamiltonian(4, 12, seed)):
        on_sector = expectation(Statevector(4, amplitudes, states), h)
        assert abs(on_sector - expectation(Statevector(4, embedded), h)) < 1e-12
