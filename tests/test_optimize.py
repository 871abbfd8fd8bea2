import os
import tracemalloc
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    apply_circuit_per_gate,
    determinant_fci,
    full_register_objective,
    hamiltonian_from_term_dict,
    hamiltonian_matrix,
    simplex_minimize_lists,
)
from vqechem import optimize, paulis, simulator
from vqechem.ansatz import _excitation_gates, build_hardware_efficient, build_uccsd
from vqechem.exactdiag import ground_state_energy
from vqechem.exceptions import OptimizerDivergedError, ShapeError
from vqechem.measurement import estimate_energy_sampled, group_commuting
from vqechem.optimize import (
    OptimizerConfig,
    run_vqe,
    simplex_minimize,
    spsa_minimize,
)
from vqechem.fcidump import parse_fcidump
from vqechem.fermions import build_second_quantized, jordan_wigner
from vqechem.integrals import ActiveSpaceSpec, freeze_core
from vqechem.paulis import PauliString, QubitHamiltonian
from vqechem.simulator import Circuit, Gate, Statevector, prepare_hf
from vqechem.workflows import h3_exchange_point, hydrogen_geometry, integrals_from_geometry


def bowl(theta):
    return float(np.sum(np.asarray(theta) ** 2))


def test_spsa_convex_bowl():
    config = OptimizerConfig(kind="spsa", max_iterations=500,
                             convergence_threshold=1e-12, seed=0)
    result = spsa_minimize(bowl, np.array([1.0, 1.0]), config)
    assert result.final_energy < 1e-3
    assert len(result.energy_trace) <= 500


def test_spsa_bit_identical_for_fixed_seed():
    config = OptimizerConfig(kind="spsa", max_iterations=120,
                             convergence_threshold=1e-12, seed=7)
    a = spsa_minimize(bowl, np.array([0.5, -0.3, 0.2]), config)
    b = spsa_minimize(bowl, np.array([0.5, -0.3, 0.2]), config)
    assert a.energy_trace == b.energy_trace
    assert np.array_equal(a.final_parameters, b.final_parameters)
    assert a.n_function_evaluations == b.n_function_evaluations


def toy_two_qubit_hamiltonian():
    coeffs = {}
    for letters, w in {"ZI": 0.6, "IZ": 0.4, "XX": 0.3, "ZZ": -0.2}.items():
        p = PauliString.from_letters(letters)
        coeffs[(p.x_mask, p.z_mask)] = w
    return hamiltonian_from_term_dict(2, coeffs, n_electrons=0)


def test_spsa_toy_hamiltonian_median_error(monkeypatch):
    from vqechem.optimize import exact_energy_objective

    monkeypatch.setattr(optimize, "SPSA_A", 1.0)
    h = toy_two_qubit_hamiltonian()
    exact = np.linalg.eigvalsh(hamiltonian_matrix(h))[0]  # XX joins (0, 0) and (1, 1)
    circuit = build_hardware_efficient(2, 1)
    objective = exact_energy_objective(h, circuit)
    finals = []
    for seed in range(10):
        # random start per seed; the all-zero point is a symmetry saddle
        theta0 = np.random.default_rng((17, seed)).uniform(-0.8, 0.8, circuit.n_parameters)
        config = OptimizerConfig(kind="spsa", max_iterations=400,
                                 convergence_threshold=1e-9, seed=seed)
        finals.append(spsa_minimize(objective, theta0, config).final_energy)
    median = float(np.median(finals))
    assert median - exact < 1e-2


def test_spsa_diverged_error_carries_trace():
    calls = [0]

    def exploding(theta):
        calls[0] += 1
        return float("nan") if calls[0] > 5 else bowl(theta)

    config = OptimizerConfig(kind="spsa", max_iterations=50,
                             convergence_threshold=1e-12, seed=1)
    with pytest.raises(OptimizerDivergedError) as err:
        spsa_minimize(exploding, np.array([1.0]), config)
    assert isinstance(err.value.trace, list)


def test_simplex_scalar_quadratic():
    config = OptimizerConfig(kind="simplex", max_iterations=500,
                             convergence_threshold=1e-14, seed=0)
    result = simplex_minimize(lambda t: float((t[0] - 3.0) ** 2), np.array([0.0]), config)
    assert abs(result.final_parameters[0] - 3.0) < 1e-6


def test_simplex_rosenbrock_valley():
    def rosenbrock(t):
        return float((1 - t[0]) ** 2 + 100 * (t[1] - t[0] ** 2) ** 2)

    config = OptimizerConfig(kind="simplex", max_iterations=3000,
                             convergence_threshold=1e-10, seed=0)
    result = simplex_minimize(rosenbrock, np.array([-1.0, 1.0]), config)
    assert result.final_energy < 1e-4
    assert result.n_function_evaluations < 2000


def test_simplex_h2_uccsd_reaches_fci(h2_hamiltonian_074):
    from vqechem.optimize import exact_energy_objective

    circuit = build_uccsd(4, {0, 1})
    objective = exact_energy_objective(h2_hamiltonian_074, circuit)
    config = OptimizerConfig(kind="simplex", max_iterations=600,
                             convergence_threshold=1e-12, seed=0)
    result = simplex_minimize(objective, np.zeros(3), config)
    exact = ground_state_energy(h2_hamiltonian_074).energy
    assert abs(result.final_energy - exact) < 1e-6


def assert_same_result(result, reference):
    assert result.final_energy == reference.final_energy
    assert type(result.final_energy) is float
    assert np.array_equal(result.final_parameters, reference.final_parameters)
    assert result.energy_trace == reference.energy_trace
    assert all(type(e) is float for e in result.energy_trace)
    assert result.n_function_evaluations == reference.n_function_evaluations
    assert result.converged == reference.converged


def test_simplex_matches_list_oracle_on_random_objectives():
    rng = np.random.default_rng(2024)
    moves, stops = [], set()
    for case in range(36):
        d = int(rng.integers(1, 7))
        a = rng.normal(size=(d, d))
        hessian, center = a @ a.T + 0.1 * np.eye(d), rng.normal(size=d)
        ripple = [0.0, 0.3, 30.0][case % 3]  # smooth, rippled, rugged (shrinks)

        def objective(theta):
            step = theta - center
            return float(step @ hessian @ step + ripple * np.sin(40.0 * theta).sum())

        config = OptimizerConfig(max_iterations=int(rng.integers(5, 300)),
                                 convergence_threshold=10.0 ** rng.uniform(-10, -2),
                                 simplex_xtol=10.0 ** rng.uniform(-6, -1))
        theta0 = rng.normal(size=d)
        reference = simplex_minimize_lists(objective, theta0, config, moves)
        assert_same_result(simplex_minimize(objective, theta0, config), reference)
        stops.add(reference.converged)
    assert set(moves) == {"reflect", "expand", "contract_outside", "contract_inside", "shrink"}
    assert stops == {True, False}  # some converge, some stop at the iteration cap


def test_simplex_matches_list_oracle_on_uccsd(molecules):
    # 3 and 8 parameters; the H3 objective runs the scalar sector kernel
    config = OptimizerConfig(max_iterations=400, convergence_threshold=1e-10)
    for name in ("H2", "H3"):
        hamiltonian, occupied = molecules[name]
        circuit = build_uccsd(hamiltonian.n_qubits, occupied)
        objective = optimize.exact_energy_objective(hamiltonian, circuit)
        theta0 = np.random.default_rng(5).normal(0.0, 0.1, circuit.n_parameters)
        assert_same_result(simplex_minimize(objective, theta0, config),
                           simplex_minimize_lists(objective, theta0, config))


def test_zero_parameter_circuit_returns_hf_energy(h2_hamiltonian_074):
    from vqechem.simulator import Circuit, expectation, prepare_hf

    circuit = Circuit(4, ())
    config = OptimizerConfig(kind="simplex")
    result = run_vqe(h2_hamiltonian_074, circuit, config, n_restarts=1)
    hf_energy = expectation(prepare_hf(4, {0, 1}), h2_hamiltonian_074)
    assert result.final_energy == pytest.approx(hf_energy, abs=1e-12)
    assert result.n_function_evaluations == 1


def test_run_vqe_h2_chemical_accuracy(h2_integrals_074, h2_hamiltonian_074):
    circuit = build_uccsd(4, {0, 1})
    config = OptimizerConfig(kind="simplex", max_iterations=500,
                             convergence_threshold=1e-10, seed=0)
    result = run_vqe(h2_hamiltonian_074, circuit, config,
                     mode="exact", n_restarts=2)
    exact = ground_state_energy(h2_hamiltonian_074).energy
    assert abs(result.final_energy - exact) < 1.6e-3
    # published VQE value for this bond length, basis uncertainty documented
    assert abs(result.final_energy - (-1.1373)) < 5e-3
    # independent determinant-CI oracle agrees with the qubit-space FCI
    assert abs(exact - determinant_fci(h2_integrals_074, 2)) < 1e-9


def test_optimizer_stochastic_spread_exceeds_simplex(h2_hamiltonian_074):
    """From identical jittered starts, SPSA finals scatter; simplex's do not."""
    from vqechem.optimize import exact_energy_objective

    circuit = build_uccsd(4, {0, 1})
    objective = exact_energy_objective(h2_hamiltonian_074, circuit)
    spsa_finals, simplex_finals = [], []
    for seed in range(10):
        theta0 = np.random.default_rng((99, seed)).normal(0.0, 0.05, circuit.n_parameters)
        spsa_finals.append(
            spsa_minimize(objective, theta0,
                          OptimizerConfig(kind="spsa", max_iterations=200,
                                          convergence_threshold=1e-4, seed=seed)).final_energy
        )
        simplex_finals.append(
            simplex_minimize(objective, theta0,
                             OptimizerConfig(kind="simplex", max_iterations=2000,
                                             convergence_threshold=1e-4, seed=seed)).final_energy
        )
    assert np.std(spsa_finals) > np.std(simplex_finals)


def test_simplex_costs_more_per_unit_reduction(h2_hamiltonian_074):
    """In a higher-dimensional landscape the simplex pays more objective
    evaluations per Hartree of trace reduction than SPSA does."""
    from vqechem.optimize import exact_energy_objective

    circuit = build_hardware_efficient(4, 2)
    objective = exact_energy_objective(h2_hamiltonian_074, circuit)
    spsa_cost, simplex_cost = [], []
    for seed in range(6):
        theta0 = np.random.default_rng((99, seed)).normal(0.0, 0.05, circuit.n_parameters)
        spsa_result = spsa_minimize(
            objective, theta0,
            OptimizerConfig(kind="spsa", max_iterations=200,
                            convergence_threshold=1e-4, seed=seed),
        )
        simplex_result = simplex_minimize(
            objective, theta0,
            OptimizerConfig(kind="simplex", max_iterations=4000,
                            convergence_threshold=1e-4, seed=seed),
        )
        for result, costs in ((spsa_result, spsa_cost), (simplex_result, simplex_cost)):
            reduction = result.energy_trace[0] - result.final_energy
            costs.append(result.n_function_evaluations / max(reduction, 1e-12))
    assert np.median(simplex_cost) > np.median(spsa_cost)


def test_variational_bound_over_full_traces(h2_hamiltonian_074):
    exact = ground_state_energy(h2_hamiltonian_074).energy
    circuit = build_uccsd(4, {0, 1})
    config = OptimizerConfig(kind="spsa", max_iterations=150,
                             convergence_threshold=1e-9, seed=3)
    result = run_vqe(h2_hamiltonian_074, circuit, config,
                     mode="exact", n_restarts=2)
    for restart in result.restart_results:
        for energy in restart.energy_trace:
            assert energy >= exact - 1e-9


def test_run_vqe_seeded_determinism(h2_hamiltonian_074):
    circuit = build_uccsd(4, {0, 1})
    config = OptimizerConfig(kind="spsa", max_iterations=80,
                             convergence_threshold=1e-9, seed=5)
    a = run_vqe(h2_hamiltonian_074, circuit, config, mode="sampled",
                shots=300, n_restarts=2)
    b = run_vqe(h2_hamiltonian_074, circuit, config, mode="sampled",
                shots=300, n_restarts=2)
    assert a.energy_trace == b.energy_trace
    assert a.final_energy == b.final_energy


def test_best_so_far_monotone(h2_hamiltonian_074):
    circuit = build_uccsd(4, {0, 1})
    config = OptimizerConfig(kind="spsa", max_iterations=100,
                             convergence_threshold=1e-9, seed=2)
    result = run_vqe(h2_hamiltonian_074, circuit, config, n_restarts=1)
    best = result.best_so_far()
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert result.final_energy == pytest.approx(min(result.energy_trace), abs=1e-12)


def test_config_validation():
    with pytest.raises(ShapeError):
        OptimizerConfig(kind="adam")
    with pytest.raises(ShapeError):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(ShapeError):
        OptimizerConfig(convergence_threshold=0.0)
    for value in (2.5, True, "many"):
        with pytest.raises(ShapeError, match="max_iterations"):
            OptimizerConfig(max_iterations=value)
    for name in ("convergence_threshold", "simplex_xtol"):
        for value in (float("nan"), float("inf"), -1e-3):
            with pytest.raises(ShapeError, match=name):
                OptimizerConfig(**{name: value})
    with pytest.raises(ShapeError, match="seed"):
        OptimizerConfig(seed=-1)
    with pytest.raises(ShapeError, match="seed"):
        OptimizerConfig(seed=1.5)
    with pytest.raises(ShapeError, match="seed must be < 2"):
        OptimizerConfig(seed=2**63)
    assert OptimizerConfig(seed=2**63 - 1).seed == 2**63 - 1
    for window in (0, -1):
        with pytest.raises(ShapeError, match="spsa_window"):
            OptimizerConfig(kind="spsa", spsa_window=window)


def test_seeds_derived_from_the_largest_seed_fold_below_2_63(h2_hamiltonian_074):
    circuit = build_hardware_efficient(4, 1)
    groups = group_commuting(h2_hamiltonian_074)
    seed = 2**63 - 1
    objective = optimize.sampled_energy_objective(
        h2_hamiltonian_074, circuit, 64, seed, groups)
    theta = np.full(circuit.n_parameters, 0.3)
    state = simulator.apply_circuit(simulator.prepare_hf(4, {0, 1}), circuit, theta)
    for call_seed in (seed, (seed + 100003) % 2**63):
        assert objective(theta) == estimate_energy_sampled(
            state, h2_hamiltonian_074, groups, 64, call_seed).energy
    with pytest.raises(ShapeError, match="seed"):
        optimize.sampled_energy_objective(
            h2_hamiltonian_074, circuit, 64, 2**63, groups)
    # restart 1 runs with seed 0
    config = OptimizerConfig(kind="spsa", max_iterations=3, seed=seed)
    result = run_vqe(h2_hamiltonian_074, circuit, config, mode="sampled", shots=64,
                     n_restarts=2)
    assert len(result.restart_results) == 2


# --- the exact objective on the Hartree-Fock (N_alpha, N_beta) sector

@pytest.fixture(scope="module")
def molecules(h2_integrals_074, fixture_dir):
    """(Hamiltonian, occupied) of H2 (4 qubits), H3 (6) and frozen-core H2S (8)."""
    h3, _ = integrals_from_geometry(h3_exchange_point("0", 0.0)["geometry"])
    with open(os.path.join(fixture_dir, "h2s_sto3g_nonrel_eq.fcidump"), encoding="utf-8") as fh:
        h2s = freeze_core(parse_fcidump(fh.read()), ActiveSpaceSpec((0, 1), (2, 3, 4, 5)))
    return {name: (jordan_wigner(build_second_quantized(integrals)),
                   set(range(integrals.n_electrons)))
            for name, integrals in (("H2", h2_integrals_074), ("H3", h3), ("H2S", h2s))}


@pytest.fixture(scope="module")
def uccsd_objectives(molecules):
    """Per molecule: the objective, its full-register reference and the parameter count."""
    out = {}
    for name, (hamiltonian, occupied) in molecules.items():
        circuit = build_uccsd(hamiltonian.n_qubits, occupied)
        out[name] = (optimize.exact_energy_objective(hamiltonian, circuit),
                     full_register_objective(hamiltonian, circuit, occupied),
                     circuit.n_parameters)
    return out


@settings(max_examples=60)
@given(st.sampled_from(["H2", "H3", "H2S"]), st.data())
def test_sector_objective_matches_full_register(uccsd_objectives, name, data):
    objective, reference, d = uccsd_objectives[name]
    theta = np.array(data.draw(st.lists(st.floats(-3.5, 3.5), min_size=d, max_size=d)))
    assert abs(objective(theta) - reference(theta)) <= 1e-12


def evaluated_states(monkeypatch):
    """The amplitudes of every state the objective's apply_circuit returns."""
    seen = []

    def recording(state, circuit, parameters):
        out = simulator.apply_circuit(state, circuit, parameters)
        seen.append(out.amplitudes)
        return out

    monkeypatch.setattr(optimize, "apply_circuit", recording)
    return seen


@pytest.mark.parametrize("name", ["H2", "H3", "H2S"])
def test_uccsd_objective_runs_on_the_hf_sector_in_real_arithmetic(molecules, name, monkeypatch):
    hamiltonian, occupied = molecules[name]
    n, n_electrons = hamiltonian.n_qubits, len(occupied)
    circuit = build_uccsd(n, occupied)
    seen = evaluated_states(monkeypatch)
    objective = optimize.exact_energy_objective(hamiltonian, circuit)
    theta = np.random.default_rng(4).normal(0.0, 0.5, circuit.n_parameters)
    assert objective(theta) == pytest.approx(
        full_register_objective(hamiltonian, circuit, occupied)(theta), abs=1e-12)
    (amplitudes,) = seen
    dim = comb((n + 1) // 2, (n_electrons + 1) // 2) * comb(n // 2, n_electrons // 2)
    assert amplitudes.shape == (dim,) and amplitudes.dtype == np.float64


def single_string(n, letters):
    return QubitHamiltonian(n, ((1.0, PauliString.from_letters(letters)),))


@pytest.mark.parametrize("extra, on_sector", [
    # X on an occupied alpha orbital: N_alpha changes
    (Gate("pauli_rot", (), angle=0.4, generator=single_string(4, "XIII")), False),
    # alpha 0 -> beta 3, a spin flip: (N_alpha, N_beta) changes
    (replace(_excitation_gates(4, [((0,), (3,))])[0], slot=None, angle=0.8), False),
    # a diagonal rotation keeps the sector but its phases are imaginary
    (Gate("pauli_rot", (), angle=0.4, generator=single_string(4, "ZIZI")), True),
    # ry and cz gates run on the register, rotations on the sector: mixed, they run nowhere
    (Gate("ry", (0,), angle=0.4), False),
])
def test_rotation_objective_runs_on_the_sector_or_is_refused(
        h2_hamiltonian_074, extra, on_sector, monkeypatch):
    uccsd = build_uccsd(4, {0, 1})
    circuit = Circuit(4, uccsd.gates + (extra,), n_parameters=uccsd.n_parameters)
    if not on_sector:
        groups = group_commuting(h2_hamiltonian_074)
        for build in (lambda: optimize.exact_energy_objective(h2_hamiltonian_074, circuit),
                      lambda: optimize.sampled_energy_objective(
                          h2_hamiltonian_074, circuit, 64, 0, groups)):
            with pytest.raises(ShapeError, match="leave the Hartree-Fock"):
                build()
        return
    seen = evaluated_states(monkeypatch)
    objective = optimize.exact_energy_objective(h2_hamiltonian_074, circuit)
    reference = full_register_objective(h2_hamiltonian_074, circuit, {0, 1})
    for seed in range(5):
        theta = np.random.default_rng(seed).uniform(-2.0, 2.0, circuit.n_parameters)
        assert abs(objective(theta) - reference(theta)) <= 1e-12
    assert seen[0].shape == (4,) and seen[0].dtype == np.complex128


@pytest.mark.parametrize("name", ["H2", "H3"])
def test_sampled_uccsd_objective_measures_its_sector_state_on_the_register(
        molecules, name, monkeypatch):
    hamiltonian, occupied = molecules[name]
    n = hamiltonian.n_qubits
    circuit = build_uccsd(n, occupied)
    groups = group_commuting(hamiltonian)
    seen = evaluated_states(monkeypatch)
    objective = optimize.sampled_energy_objective(hamiltonian, circuit, 64, 11, groups)
    theta = np.random.default_rng(6).normal(0.0, 0.5, circuit.n_parameters)
    register = apply_circuit_per_gate(prepare_hf(n, occupied).amplitudes, circuit, theta)
    expected = estimate_energy_sampled(Statevector(n, register), hamiltonian, groups, 64, 11)
    assert objective(theta) == expected.energy
    (amplitudes,) = seen
    assert amplitudes.dtype == np.float64 and amplitudes.shape == ({"H2": 4, "H3": 9}[name],)


def test_zero_gate_objective_is_the_hf_energy_on_the_sector(molecules, monkeypatch):
    hamiltonian, occupied = molecules["H3"]
    circuit = Circuit(hamiltonian.n_qubits, ())
    seen = evaluated_states(monkeypatch)
    energy = optimize.exact_energy_objective(hamiltonian, circuit)(np.zeros(0))
    assert energy == full_register_objective(hamiltonian, circuit, occupied)(np.zeros(0))
    assert seen[0].shape == (9,) and seen[0].dtype == np.float64


@pytest.mark.parametrize("reps", [0, 1, 2])
def test_hardware_efficient_objective_is_bit_identical_to_the_register_loop(
        h2_hamiltonian_074, reps):
    circuit = build_hardware_efficient(4, reps)
    objective = optimize.exact_energy_objective(h2_hamiltonian_074, circuit)
    reference = full_register_objective(h2_hamiltonian_074, circuit, {0, 1})
    rng = np.random.default_rng(reps)
    for _ in range(20):
        theta = rng.uniform(-4.0, 4.0, circuit.n_parameters)
        assert objective(theta) == reference(theta)


def test_sixteen_qubit_uccsd_objective_builds_tables_on_its_sector_only():
    # H8 at 1.8 bohr spacing, 360 UCCSD parameters: register tables would hold
    # 114 MiB; the circuit builds none, and the objective builds its tables
    # and form on the 4900 states of the (4, 4) sector
    geometry = hydrogen_geometry([[0.0, 0.0, 1.8 * i] for i in range(8)])
    integrals, rhf = integrals_from_geometry(geometry)
    hamiltonian = jordan_wigner(build_second_quantized(integrals))
    tracemalloc.start()
    try:
        circuit = build_uccsd(16, range(8))
        _, built = tracemalloc.get_traced_memory()
        objective = optimize.exact_energy_objective(hamiltonian, circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert circuit.n_parameters == 360
    assert built < 8 << 20
    assert peak < 128 << 20
    assert abs(objective(np.zeros(360)) - rhf.total_energy) < 1e-9


def test_sixteen_qubit_chain_register_form_passes_the_objective_guard(monkeypatch):
    # the hardware-efficient exact objective compiles H on the register; for the
    # H8 chain (501 x-masks, real) compiled_bytes stays under the 1 GiB cap, so
    # the guard lets it through to compile, stopped here before it allocates
    geometry = hydrogen_geometry([[0.0, 0.0, 1.8 * i] for i in range(8)])
    integrals, _ = integrals_from_geometry(geometry)
    hamiltonian = jordan_wigner(build_second_quantized(integrals))
    assert len(hamiltonian.x_masks()) == 501 and hamiltonian.dtype == np.float64
    assert hamiltonian.compiled_bytes() <= paulis.MAX_ALLOCATION_BYTES

    def stop(self, states=None):
        raise RuntimeError(f"compile on {states}")

    monkeypatch.setattr(QubitHamiltonian, "compile", stop)
    with pytest.raises(RuntimeError, match="compile on None"):
        optimize.exact_energy_objective(hamiltonian, build_hardware_efficient(16, 1))


def test_sector_objective_builds_no_register_reference():
    # 20 qubits, (5, 5) sector of 63504 states: the register's Hartree-Fock
    # vector alone would be 16 MiB
    n = 20
    hamiltonian = QubitHamiltonian(n, ((0.5, PauliString.from_letters("ZZ" + "I" * (n - 2))),
                                       (0.25, PauliString.from_letters("I" * (n - 1) + "Z"))),
                                   n_electrons=10)
    tracemalloc.start()
    try:
        objective = optimize.exact_energy_objective(hamiltonian, Circuit(n, ()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert objective(np.zeros(0)) == 0.75


def test_objective_checks_tables_and_compiled_form_together(h2_hamiltonian_074, monkeypatch):
    # UCCSD keeps the (1, 1) sector of 4 states: its restricted tables and the
    # form compiled on those states are what the objective allocates
    circuit = build_uccsd(4, {0, 1})
    sector = circuit.restrict(np.array([3, 6, 9, 12]))
    tables = sum(part.nbytes for table in sector.tables for part in table
                 if isinstance(part, np.ndarray))
    strings = {}
    for _, p in h2_hamiltonian_074.terms:
        strings[p.x_mask] = strings.get(p.x_mask, 0) + 1
    # per state, 16 + 8 B of entries per x-mask of the real form, 17 B per string
    # of the largest row, 32 B of state indices and one row's diagonal, and 26 + 8 B
    # for a run's one row (the x == 0 row holds the most strings, so each row is a
    # run of its own); an 8 B local index per register state, and 4 KiB of headers
    per_state = 24 * len(strings) + 17 * max(strings.values()) + 32 + 34
    needed = tables + per_state * 4 + (8 << 4) + 4096
    monkeypatch.setattr(paulis, "MAX_ALLOCATION_BYTES", needed)
    optimize.exact_energy_objective(h2_hamiltonian_074, circuit)
    monkeypatch.setattr(paulis, "MAX_ALLOCATION_BYTES", needed - 1)
    with pytest.raises(ShapeError, match="gate tables and compiled form of 2 x-masks on 4 qubits"):
        optimize.exact_energy_objective(h2_hamiltonian_074, circuit)


# --- the Hartree-Fock reference comes from the Hamiltonian's electron count

def refuse_compiles(monkeypatch):
    def refused(self, states=None):
        raise AssertionError("compiled before the inputs were checked")

    monkeypatch.setattr(QubitHamiltonian, "compile", refused)
    monkeypatch.setattr(optimize, "group_tables", refused)


def test_a_hamiltonian_without_an_electron_count_is_refused_before_compiling(
        h2_hamiltonian_074, monkeypatch):
    countless = QubitHamiltonian(4, h2_hamiltonian_074.terms)
    groups = group_commuting(countless)
    with pytest.raises(ShapeError) as oracle:
        ground_state_energy(countless)
    refuse_compiles(monkeypatch)
    circuits = (build_uccsd(4, {0, 1}), build_hardware_efficient(4, 1))
    for circuit in circuits:
        for build in (lambda: optimize.exact_energy_objective(countless, circuit),
                      lambda: optimize.sampled_energy_objective(countless, circuit, 64, 0, groups),
                      lambda: run_vqe(countless, circuit, OptimizerConfig()),
                      lambda: run_vqe(countless, circuit, OptimizerConfig(), mode="sampled")):
            with pytest.raises(ShapeError) as refused:
                build()
            assert str(refused.value) == str(oracle.value)


@pytest.mark.parametrize("n_restarts", [1.5, "2", True, 0])
def test_run_vqe_checks_n_restarts_before_building_the_objective(
        h2_hamiltonian_074, monkeypatch, n_restarts):
    refuse_compiles(monkeypatch)
    with pytest.raises(ShapeError, match="n_restarts"):
        run_vqe(h2_hamiltonian_074, build_uccsd(4, {0, 1}), OptimizerConfig(),
                n_restarts=n_restarts)


@pytest.mark.parametrize("name", ["H2", "H3", "H2S"])
def test_exact_objective_and_oracle_run_on_the_same_states(molecules, name, monkeypatch):
    hamiltonian, occupied = molecules[name]
    compiled = []
    original = QubitHamiltonian.compile

    def recording(self, states=None):
        if self is hamiltonian:  # not a gate generator
            compiled.append(states)
        return original(self, states)

    monkeypatch.setattr(QubitHamiltonian, "compile", recording)
    optimize.exact_energy_objective(hamiltonian, build_uccsd(hamiltonian.n_qubits, occupied))
    ground_state_energy(hamiltonian)
    objective_states, oracle_states = compiled
    assert np.array_equal(objective_states, oracle_states)
    reference = sum(1 << q for q in occupied)
    assert hamiltonian.hf_index() == reference and reference in objective_states
