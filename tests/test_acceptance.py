"""Acceptance suite.

One test per top-level criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to watch them). Every tolerance
is pinned here.

H2 well depth (2b): the generated integrals are s-orbital STO-3G, so the
scan's well depth is checked against the STO-3G full-CI well depth, 128.10
kcal/mol, built from two values that do not come from this package: the
closed-form STO-3G hydrogen atom (Szabo & Ostlund, ch. 3) and the published
H2/STO-3G full-CI energy at 0.735 A (see ``oracles.STO3G_H2_WELL_DEPTH``).
The published 105.4 kcal/mol is printed for context but not asserted: the
paper's abstract states neither its basis nor its well-depth definition, so
whether the gap comes from the basis or from the definition is not settled.
"""

import json
import time

import numpy as np

from oracles import (
    STO3G_H2_WELL_DEPTH,
    annihilation_matrices,
    commutes_qubitwise,
    determinant_fci,
    number_operator,
)
from vqechem.ansatz import build_hardware_efficient, build_uccsd
from vqechem.exactdiag import ground_state_energy
from vqechem.fcidump import parse_fcidump, write_fcidump
from vqechem.fermions import build_second_quantized, jordan_wigner
from vqechem.measurement import estimate_energy_sampled, group_commuting
from vqechem.optimize import (
    OptimizerConfig,
    exact_energy_objective,
    run_vqe,
    simplex_minimize,
    spsa_minimize,
)
from vqechem.simulator import Statevector, apply_circuit, expectation, prepare_hf
from vqechem.workflows import (
    ScanPoint,
    activation_energy,
    compare_curves,
    dissociation_energy,
    fit_equilibrium,
    h2_point,
    h3_exchange_point,
    integrals_for_point,
    load_manifest,
    run_scan,
)

CHEMICAL_ACCURACY_HA = 1.6e-3
PAPER_H2_VQE = -1.1373        # published VQE minimum energy, Ha
PAPER_H2_FCI = -1.1385        # published classical FCI minimum energy, Ha
PAPER_H2_RE_RANGE = (0.739, 0.740)  # published equilibrium bond length, Angstrom
PAPER_H2_DISSOCIATION = 105.4  # published FCI dissociation energy, kcal/mol (basis unstated)
PAPER_H2S_SHIFT_EQ = 0.0371    # published STO-3G relativistic downshift, Ha


def report(criterion: str, passed: bool, detail: str) -> None:
    from conftest import ACCEPTANCE_LINES

    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} — {detail}"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)


def h2_integrals(r_angstrom: float):
    doc = h2_point("x", r_angstrom)
    return integrals_for_point(ScanPoint("x", r_angstrom, geometry=doc["geometry"]))


def h2_scan(radii, max_iterations=500, threshold=1e-10, seed=11, restarts=2):
    doc = {
        "label": "h2",
        "coordinate_unit": "angstrom",
        "ansatz": "uccsd",
        "mode": "exact",
        "optimizer": {
            "kind": "simplex",
            "max_iterations": max_iterations,
            "convergence_threshold": threshold,
            "seed": 0,
        },
        "seed": seed,
        "restarts": restarts,
        "points": [h2_point(f"{r:.3f}", r) for r in radii],
    }
    points, errors = run_scan(load_manifest(doc))
    assert errors == []
    return points


def test_criterion_1_h2_end_to_end():
    """Generated integrals -> JW -> UCCSD -> simplex, exact mode, 0.74 A."""
    start = time.monotonic()
    integrals = h2_integrals(0.74)
    hamiltonian = jordan_wigner(build_second_quantized(integrals))
    circuit = build_uccsd(hamiltonian.n_qubits, {0, 1})
    config = OptimizerConfig(kind="simplex", max_iterations=500,
                             convergence_threshold=1e-10, seed=0)
    result = run_vqe(hamiltonian, circuit, config, mode="exact", n_restarts=5)
    fci = ground_state_energy(hamiltonian).energy
    elapsed = time.monotonic() - start

    error_ha = abs(result.final_energy - fci)
    passed = error_ha < CHEMICAL_ACCURACY_HA and elapsed < 60.0
    report(
        "1 [H2 end-to-end]",
        passed,
        f"|E_VQE - E_FCI| = {error_ha * 1000:.6f} mHa (< 1.6), runtime {elapsed:.1f} s (< 60)",
    )
    assert error_ha < CHEMICAL_ACCURACY_HA
    assert elapsed < 60.0

    # paper-anchored checks, widened for the unstated basis
    assert abs(result.final_energy - PAPER_H2_VQE) < 5e-3
    assert abs(fci - PAPER_H2_FCI) < 5e-3


def test_criterion_2_h2_pes_and_equilibrium():
    """11-point scan 0.5-1.0 A; fitted R_e against a 0.001-A dense oracle."""
    points = h2_scan(np.linspace(0.5, 1.0, 11))
    coords = [p.coordinate for p in points]
    energies = [p.e_vqe for p in points]
    # single-well shape: monotone decrease then increase around the minimum
    k_min = int(np.argmin(energies))
    assert 0 < k_min < len(points) - 1
    assert all(energies[i] > energies[i + 1] for i in range(k_min))
    assert all(energies[i] < energies[i + 1] for i in range(k_min, len(points) - 1))

    r_e, e_min = fit_equilibrium(coords, energies)

    # dense exact-diagonalization curve at 0.001 A resolution
    grid = np.arange(0.70, 0.781, 0.001)
    grid_energies = []
    for r in grid:
        integrals = h2_integrals(float(r))
        h = jordan_wigner(build_second_quantized(integrals))
        grid_energies.append(ground_state_energy(h).energy)
    r_oracle = float(grid[int(np.argmin(grid_energies))])

    dist_to_paper = max(0.0, PAPER_H2_RE_RANGE[0] - r_e, r_e - PAPER_H2_RE_RANGE[1])
    passed = abs(r_e - r_oracle) < 0.01 and dist_to_paper < 0.01
    report(
        "2 [H2 equilibrium]",
        passed,
        f"R_e = {r_e:.4f} A (oracle {r_oracle:.3f}, published 0.739-0.740), "
        f"E_min = {e_min:.4f} Ha (published FCI {PAPER_H2_FCI})",
    )
    assert abs(r_e - r_oracle) < 0.01
    assert dist_to_paper < 0.01
    assert abs(e_min - PAPER_H2_FCI) < 5e-3


def test_criterion_2b_dissociation_energy_published_anchor():
    """Well depth from a 0.5-3.0 A scan against the STO-3G full-CI anchor.

    The anchor, 128.10 kcal/mol, is the H2/STO-3G full-CI well depth as
    R -> infinity: twice the closed-form STO-3G hydrogen-atom energy
    (Szabo & Ostlund, ch. 3) minus the published H2/STO-3G full-CI energy
    at 0.735 A. The scan ends at 3.0 A, where the curve is ~0.3 kcal/mol
    short of its asymptote; the tolerance is 3.0 kcal/mol. The published
    105.4 kcal/mol is printed but not asserted: no scan ending at or
    beyond 1.8 A reaches it on the STO-3G curve, and the paper's abstract
    gives neither the basis nor the well-depth definition behind it, so
    the origin of that gap is not settled.
    """
    radii = list(np.linspace(0.5, 1.0, 11)) + [1.2, 1.5, 2.0, 2.5, 3.0]
    points = h2_scan(radii, max_iterations=600, threshold=1e-11)
    coords = [p.coordinate for p in points]
    d_e = dissociation_energy(coords, [p.e_vqe for p in points])
    d_e_fci = dissociation_energy(coords, [p.e_fci for p in points])
    assert abs(d_e - d_e_fci) < 0.1  # VQE tracks the exact curve

    deviation = abs(d_e - STO3G_H2_WELL_DEPTH)
    report(
        "2b [H2 dissociation vs STO-3G anchor]",
        deviation < 3.0,
        f"D_e = {d_e:.1f} kcal/mol vs STO-3G full-CI {STO3G_H2_WELL_DEPTH:.2f} "
        f"(deviation {deviation:.2f}, tolerance 3.0); "
        f"published {PAPER_H2_DISSOCIATION} shown, not asserted (basis and definition unstated)",
    )
    assert deviation < 3.0


def test_criterion_3_h3_exchange_barrier():
    """Collinear H3 path: VQE barrier within 0.5 kcal/mol of exact FCI."""
    start = time.monotonic()
    svals = [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]
    doc = {
        "label": "h3-exchange",
        "coordinate_unit": "angstrom",
        "ansatz": "uccsd",
        "mode": "exact",
        "optimizer": {
            "kind": "simplex",
            "max_iterations": 1000,
            "convergence_threshold": 1e-10,
            "seed": 0,
        },
        "seed": 5,
        "restarts": 2,
        "points": [h3_exchange_point(f"{s:+.2f}", s) for s in svals],
    }
    points, errors = run_scan(load_manifest(doc))
    elapsed = time.monotonic() - start
    assert errors == []
    coords = [p.coordinate for p in points]
    barrier_vqe = activation_energy(coords, [p.e_vqe for p in points])
    barrier_fci = activation_energy(coords, [p.e_fci for p in points])
    gap = abs(barrier_vqe - barrier_fci)
    passed = gap < 0.5 and elapsed < 600.0
    report(
        "3 [H3 barrier]",
        passed,
        f"VQE {barrier_vqe:.4f} vs FCI {barrier_fci:.4f} kcal/mol "
        f"(|diff| = {gap:.2e} < 0.5), runtime {elapsed:.0f} s (< 600)",
    )
    assert gap < 0.5
    assert elapsed < 600.0
    for p in points:
        assert p.e_vqe >= p.e_fci - 1e-9


def test_criterion_4_relativistic_shift_workflow(fixture_dir, tmp_path):
    """Fixture curve pair reports the published 0.0371 Ha downshift."""
    import os

    def scan_fixture_curve(prefix):
        doc = {
            "label": prefix,
            "coordinate_unit": "angstrom",
            "ansatz": "hardware",
            "reps": 1,
            "mode": "exact",
            "optimizer": {
                "kind": "simplex",
                "max_iterations": 250,
                "convergence_threshold": 1e-8,
                "seed": 0,
            },
            "seed": 9,
            "restarts": 1,
            "freeze": [0, 1],
            "points": [
                {"label": "eq", "coordinate": 1.338, "fcidump": f"{prefix}_eq.fcidump"},
                {"label": "stretch", "coordinate": 1.45, "fcidump": f"{prefix}_stretch.fcidump"},
            ],
        }
        points, errors = run_scan(load_manifest(doc, base_dir=fixture_dir))
        assert errors == []
        return points

    nonrel = scan_fixture_curve("h2s_sto3g_nonrel")
    rel = scan_fixture_curve("h2s_sto3g_rel")
    for p in nonrel + rel:
        assert p.e_vqe >= p.e_fci - 1e-9
        assert p.n_pauli_terms > 0

    fci_report = compare_curves(
        [(p.geometry_label, p.e_fci) for p in nonrel],
        [(p.geometry_label, p.e_fci) for p in rel],
    )
    eq_shift = dict((r[0], r[3]) for r in fci_report.rows)["eq"]

    # synthetic constant-offset curves reproduce their offset exactly
    base = [("a", -396.01), ("b", -396.22), ("c", -396.19)]
    offset_report = compare_curves(base, [(l, e - 0.04) for l, e in base])
    offset_error = abs(offset_report.mean_shift - 0.04)

    passed = round(eq_shift, 4) == PAPER_H2S_SHIFT_EQ and offset_error < 1e-12
    report(
        "4 [relativistic shift]",
        passed,
        f"fixture-pair shift at equilibrium {eq_shift:.4f} Ha "
        f"(published {PAPER_H2S_SHIFT_EQ}); constant-offset error {offset_error:.1e}",
    )
    assert round(eq_shift, 4) == PAPER_H2S_SHIFT_EQ
    assert offset_error < 1e-12
    # shift direction and size persist across the curve
    assert all(0.03 < row[3] < 0.05 for row in fci_report.rows)


def test_criterion_5_property_suite(fixture_dir):
    """Aggregated property checks at their stated tolerances."""
    import os

    failures = []

    def check(name, fn):
        try:
            fn()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")

    integrals = h2_integrals(0.74)
    hamiltonian = jordan_wigner(build_second_quantized(integrals))
    fci = ground_state_energy(hamiltonian).energy

    def anticommutation():
        ops = annihilation_matrices(5)
        eye = np.eye(1 << 5)
        for p in range(5):
            for q in range(5):
                anti = ops[p] @ ops[q].conj().T + ops[q].conj().T @ ops[p]
                expected = eye if p == q else 0.0 * eye
                assert np.abs(anti - expected).max() < 1e-12

    def spectrum_agreement():
        from oracles import fermion_operator_matrix

        op = build_second_quantized(integrals)
        low_f = np.linalg.eigvalsh(fermion_operator_matrix(op))[0]
        assert abs(low_f - fci) < 1e-10

    def particle_number():
        # on every basis state, so that N could leave 2
        circuit = build_uccsd(4, {0, 1})
        n_op = jordan_wigner(number_operator(4))
        hf = prepare_hf(4, {0, 1})
        rng = np.random.default_rng(1)
        for _ in range(50):
            state = apply_circuit(hf, circuit, rng.uniform(-1.5, 1.5, 3))
            mean = expectation(state, n_op)
            second = float(
                np.real(
                    np.vdot(
                        _apply(n_op, state.amplitudes),
                        _apply(n_op, state.amplitudes),
                    )
                )
            )
            assert abs(mean - 2.0) < 1e-10
            assert abs(second - mean**2) < 1e-10

    def _apply(h, vec):
        return h.compile().apply(vec)

    def variational_bound_over_traces():
        circuit = build_uccsd(4, {0, 1})
        for kind in ("simplex", "spsa"):
            config = OptimizerConfig(kind=kind, max_iterations=120,
                                     convergence_threshold=1e-9, seed=4)
            result = run_vqe(hamiltonian, circuit, config,
                             mode="exact", n_restarts=2)
            for restart in result.restart_results:
                assert all(e >= fci - 1e-9 for e in restart.energy_trace)

    def grouping_invariants():
        with open(os.path.join(fixture_dir, "h2s_sto3g_rel_eq.fcidump")) as fh:
            fixture = parse_fcidump(fh.read())
        from vqechem.integrals import freeze_core

        reduced = freeze_core(fixture, (0, 1))
        for h in (hamiltonian, jordan_wigner(build_second_quantized(reduced))):
            groups = group_commuting(h)
            covered = sorted(i for g in groups for i in g.term_indices)
            assert covered == list(range(h.n_terms))
            strings = [p for _, p in h.terms]
            for g in groups:
                for i in g.term_indices:
                    for j in g.term_indices:
                        assert commutes_qubitwise(strings[i], strings[j])

    def stderr_scaling():
        rng = np.random.default_rng(2)
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = Statevector(4, amps / np.linalg.norm(amps))
        groups = group_commuting(hamiltonian)
        errs = {
            shots: estimate_energy_sampled(state, hamiltonian, groups, shots, 13).standard_error
            for shots in (100, 1000, 10000)
        }
        for a, b in ((100, 1000), (1000, 10000)):
            ratio = errs[a] / errs[b]
            ideal = np.sqrt(b / a)
            assert ideal / 1.5 < ratio < ideal * 1.5

    def parameter_shift():
        circuit = build_hardware_efficient(4, 1)
        hf = prepare_hf(4, {0, 1})

        def energy(theta):
            return expectation(apply_circuit(hf, circuit, theta), hamiltonian)

        theta = np.random.default_rng(3).uniform(-1, 1, circuit.n_parameters)
        for k in range(circuit.n_parameters):
            shift = np.zeros_like(theta)
            shift[k] = np.pi / 2
            analytic = 0.5 * (energy(theta + shift) - energy(theta - shift))
            step = np.zeros_like(theta)
            step[k] = 5e-4
            numeric = (energy(theta + step) - energy(theta - step)) / 1e-3
            assert abs(analytic - numeric) < 1e-7

    def fcidump_roundtrip():
        for stem in ("h2s_sto3g_nonrel_eq", "h2s_sto3g_rel_stretch"):
            with open(os.path.join(fixture_dir, stem + ".fcidump")) as fh:
                original = parse_fcidump(fh.read())
            again = parse_fcidump(write_fcidump(original))
            assert np.abs(again.h - original.h).max() < 1e-12
            assert np.abs(again.g - original.g).max() < 1e-12
            assert abs(again.constant_energy - original.constant_energy) < 1e-12
        again = parse_fcidump(write_fcidump(integrals))
        assert np.abs(again.h - integrals.h).max() < 1e-12
        assert np.abs(again.g - integrals.g).max() < 1e-12

    def frozen_core_equivalence():
        from test_integrals import random_molecular_integrals
        from vqechem.integrals import freeze_core

        for seed in range(20):
            n = 3 if seed % 2 == 0 else 4
            full = random_molecular_integrals(n, 1000 + seed, n_electrons=4)
            reduced = freeze_core(full, (0,))
            projected = determinant_fci(full, 4, require_doubly_occupied=(0,))
            assert abs(projected - determinant_fci(reduced, 2)) < 1e-9

    check("JW anticommutation", anticommutation)
    check("spectrum agreement", spectrum_agreement)
    check("UCCSD particle number", particle_number)
    check("variational bound", variational_bound_over_traces)
    check("grouping invariants", grouping_invariants)
    check("stderr scaling", stderr_scaling)
    check("parameter shift", parameter_shift)
    check("FCIDUMP roundtrip", fcidump_roundtrip)
    check("frozen-core equivalence", frozen_core_equivalence)

    report(
        "5 [property suite]",
        not failures,
        "all 9 property families hold" if not failures else "; ".join(failures),
    )
    assert not failures, failures


def test_criterion_6_optimizer_contrast():
    """Stability and cost contrast between SPSA and the simplex."""
    integrals = h2_integrals(0.74)
    hamiltonian = jordan_wigner(build_second_quantized(integrals))

    uccsd = build_uccsd(4, {0, 1})
    objective = exact_energy_objective(hamiltonian, uccsd)
    spsa_finals, simplex_finals = [], []
    for seed in range(10):
        theta0 = np.random.default_rng((99, seed)).normal(0.0, 0.05, uccsd.n_parameters)
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
    spread_spsa = float(np.std(spsa_finals))
    spread_simplex = float(np.std(simplex_finals))

    hardware = build_hardware_efficient(4, 2)
    objective_hw = exact_energy_objective(hamiltonian, hardware)
    spsa_cost, simplex_cost = [], []
    for seed in range(10):
        theta0 = np.random.default_rng((99, seed)).normal(0.0, 0.05, hardware.n_parameters)
        for kind, iterations, costs in (
            ("spsa", 200, spsa_cost),
            ("simplex", 4000, simplex_cost),
        ):
            config = OptimizerConfig(kind=kind, max_iterations=iterations,
                                     convergence_threshold=1e-4, seed=seed)
            result = (spsa_minimize if kind == "spsa" else simplex_minimize)(
                objective_hw, theta0, config
            )
            reduction = result.energy_trace[0] - result.final_energy
            costs.append(result.n_function_evaluations / max(reduction, 1e-12))

    cost_spsa = float(np.median(spsa_cost))
    cost_simplex = float(np.median(simplex_cost))
    passed = spread_spsa > spread_simplex and cost_simplex > cost_spsa
    report(
        "6 [optimizer contrast]",
        passed,
        f"final-energy std: SPSA {spread_spsa:.2e} > simplex {spread_simplex:.2e}; "
        f"evals per Hartree reduced: simplex {cost_simplex:.0f} > SPSA {cost_spsa:.0f}",
    )
    assert spread_spsa > spread_simplex
    assert cost_simplex > cost_spsa


def test_criterion_7_cli_determinism(tmp_path, capsys):
    """Byte-identical CSV and JSON for repeated runs at fixed seeds."""
    from vqechem.cli import main

    manifest_doc = {
        "label": "determinism",
        "coordinate_unit": "angstrom",
        "ansatz": "uccsd",
        "mode": "sampled",
        "shots": 200,
        "optimizer": {
            "kind": "spsa",
            "max_iterations": 40,
            "convergence_threshold": 1e-6,
            "seed": 0,
        },
        "seed": 21,
        "restarts": 2,
        "points": [h2_point("0.70", 0.70), h2_point("0.78", 0.78)],
    }
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(manifest_doc))
    geometry = tmp_path / "h2.json"
    geometry.write_text(json.dumps(h2_point("x", 0.74)["geometry"]))

    scan_out = tmp_path / "scan.csv"
    trace_out = tmp_path / "trace.csv"
    outputs = []
    for _ in (1, 2):
        assert main(["scan", "--manifest", str(manifest), "--out", str(scan_out), "--json"]) == 0
        scan_json = capsys.readouterr().out
        assert main([
            "trace", "--geometry", str(geometry), "--out", str(trace_out),
            "--mode", "sampled", "--shots", "150", "--optimizer", "spsa",
            "--max-iterations", "30", "--seed", "7", "--restarts", "1", "--json",
        ]) == 0
        trace_json = capsys.readouterr().out
        assert main(["fci", "--geometry", str(geometry), "--json"]) == 0
        fci_json = capsys.readouterr().out
        outputs.append(
            (scan_out.read_bytes(), trace_out.read_bytes(), scan_json, trace_json, fci_json)
        )

    passed = outputs[0] == outputs[1]
    report(
        "7 [determinism]",
        passed,
        "scan CSV, trace CSV, and JSON summaries byte-identical across reruns",
    )
    assert outputs[0] == outputs[1]
