"""The benchmark's workloads: inputs made from a seed, timed library calls, checks.

Each workload builds its manifests and inputs in ``__init__`` (part of
set-up), runs one point per :meth:`run_point` call and one final step per
pass in :meth:`finish`; those two are timed. :meth:`check_point` and
:meth:`check_finish` run untimed and return a list of problems (empty when
the outputs are correct) plus, for points, counts that must repeat exactly.

Each workload names, per point, the probe of the reference clock
(``refclock``): a kernel on vectors as long as that point's state.

Library calls go through module attributes (``workflows.run_single_point``
rather than a name bound at import) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from refclock import Probe
from vqechem import ansatz, exactdiag, fermions, measurement, simulator, workflows

HERE = Path(__file__).resolve().parent
H3_REFERENCE = HERE / "h3_reference.json"
INPUTS = HERE / "inputs"

REFERENCE_TOLERANCE = 1e-8  # Ha, e_fci against the dense-sector reference
CHEMICAL_ACCURACY = 1.6e-3  # Ha, |e_vqe - e_fci| on h3-exchange
BARRIER_TOLERANCE = 0.5  # kcal/mol, VQE barrier against the FCI barrier
RESIDUAL_LIMIT = 1e-9  # Ha, Lanczos residual norm
VARIATIONAL_SLACK = 1e-9  # Ha
# Hardware-efficient accuracy: the exact energy at the returned parameters
# must stay within this of e_fci. RotY + CZ from the HF determinant has HF
# as a stationary point, so SPSA at 1024 shots per group ends close to HF,
# which lies 33-42 mHa above FCI on these points; the seed (SPSA directions,
# shots) leaves the number of evaluations unchanged.
HEA_TOLERANCE = 0.060  # Ha


def _h3_points(s_values):
    return [workflows.h3_exchange_point(f"{s:+.2f}", s) for s in s_values]


def _in_seeded_order(points, seed: int) -> tuple:
    """The seed fixes the order in which a pass runs its points."""
    return tuple(points[i] for i in np.random.default_rng(seed).permutation(len(points)))


class _H3Scan:
    """Neutral collinear H3 points run as a scan manifest would run them."""

    PROBE = Probe(((64, 100),), ref_s=0.55e-3)  # 6 qubits

    def probe_for(self, point):
        return self.PROBE

    def __init__(self, seed: int):
        self.manifest = workflows.load_manifest(self.manifest_doc(seed))
        self.points = _in_seeded_order(self.manifest.points, seed)
        self.reference = json.loads(H3_REFERENCE.read_text(encoding="utf-8"))["e_fci"]

    def run_point(self, point):
        m = self.manifest
        integrals = workflows.integrals_for_point(point, m.freeze)
        optimizer = replace(m.optimizer, seed=workflows.point_seed(m.seed, point.label))
        result = workflows.run_single_point(
            integrals, ansatz=m.ansatz, reps=m.reps, optimizer=optimizer,
            mode=m.mode, shots=m.shots, restarts=m.restarts,
        )
        return integrals, result

    def check_point(self, point, output):
        _, result = output
        problems = []
        reference = self.reference[point.label]
        if not abs(result.e_fci - reference) <= REFERENCE_TOLERANCE:
            problems.append(f"{point.label}: e_fci {result.e_fci!r} != reference {reference!r}")
        restarts = result.vqe.restart_results or (result.vqe,)
        counts = {
            "evals": sum(r.n_function_evaluations for r in restarts),
            "pauli_terms": result.n_pauli_terms,
            "groups": result.n_groups,
        }
        return problems, counts


class H3Exchange(_H3Scan):
    name = "h3-exchange"
    why = ("UCCSD VQE inner loop (6 qubits, 8 parameters, exact mode, simplex with "
           "restarts): simulator expectation and circuit application dominate")
    expected = frozenset({
        "workflows.integrals_for_point", "workflows.run_single_point",
        "workflows.activation_energy", "integrals.compute_ao_integrals",
        "integrals.run_rhf", "integrals.transform_to_mo",
        "fermions.build_second_quantized", "fermions.jordan_wigner",
        "ansatz.build_uccsd", "optimize.run_vqe", "simulator.apply_circuit",
        "simulator.expectation", "measurement.group_commuting",
        "exactdiag.ground_state_energy", "exactdiag.apply_hamiltonian",
        "paulis.pauli_action",
    })
    S_VALUES = (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0)
    # The scan seed of the acceptance barrier test. The restart start points
    # and so the simplex evaluation counts (+-8% per pass) follow it; a fixed
    # scan seed keeps every --seed at the same work, so run-to-run spread is
    # the machine's alone. --seed orders the points.
    SCAN_SEED = 5

    def manifest_doc(self, seed):
        return {
            "label": self.name, "ansatz": "uccsd", "mode": "exact",
            "optimizer": {"kind": "simplex", "max_iterations": 1000,
                          "convergence_threshold": 1e-7, "simplex_xtol": 1e-3},
            "seed": self.SCAN_SEED, "restarts": 2, "points": _h3_points(self.S_VALUES),
        }

    def check_point(self, point, output):
        problems, counts = super().check_point(point, output)
        result = output[1]
        error = result.vqe.final_energy - result.e_fci
        if not abs(error) < CHEMICAL_ACCURACY:
            problems.append(f"{point.label}: |e_vqe - e_fci| = {abs(error):.3e} Ha")
        return problems, counts

    def finish(self, outputs):
        coords = [p.coordinate for p in self.points]
        results = [outputs[p.label][1] for p in self.points]
        return (workflows.activation_energy(coords, [r.vqe.final_energy for r in results]),
                workflows.activation_energy(coords, [r.e_fci for r in results]))

    def check_finish(self, outputs, final):
        barrier_vqe, barrier_fci = final
        if not (barrier_fci > 0 and abs(barrier_vqe - barrier_fci) < BARRIER_TOLERANCE):
            return [f"barrier: VQE {barrier_vqe!r} vs FCI {barrier_fci!r} kcal/mol"]
        return []


class H3HeaSampled(_H3Scan):
    name = "h3-hea-sampled"
    why = ("hardware-efficient ansatz, SPSA, sampled energies on 3 H3 points: measurement "
           "layer dominates, ry/cz einsum path, no exact expectation in the loop")
    expected = frozenset({
        "workflows.integrals_for_point", "workflows.run_single_point",
        "integrals.compute_ao_integrals", "integrals.run_rhf",
        "integrals.transform_to_mo", "fermions.build_second_quantized",
        "fermions.jordan_wigner", "ansatz.build_hardware_efficient",
        "optimize.run_vqe", "simulator.apply_circuit",
        "measurement.estimate_energy_sampled", "measurement.group_commuting",
        "exactdiag.ground_state_energy", "exactdiag.apply_hamiltonian",
        "paulis.pauli_action",
    })
    # three points keep a pass short, so a run holds several passes and its
    # median is steady
    S_VALUES = (-1.0, 0.0, 1.0)
    SPSA_ITERATIONS = 100

    def manifest_doc(self, seed):
        # a window as long as the run turns off SPSA's early stop, so every
        # point costs the same number of evaluations whatever the seed
        return {
            "label": self.name, "ansatz": "hardware", "reps": 1, "mode": "sampled",
            "shots": 1024,
            "optimizer": {"kind": "spsa", "max_iterations": self.SPSA_ITERATIONS,
                          "spsa_window": self.SPSA_ITERATIONS},
            "seed": seed, "restarts": 1, "points": _h3_points(self.S_VALUES),
        }

    def check_point(self, point, output):
        problems, counts = super().check_point(point, output)
        integrals, result = output
        hamiltonian = fermions.jordan_wigner(fermions.build_second_quantized(integrals))
        n = hamiltonian.n_qubits
        circuit = ansatz.build_hardware_efficient(n, self.manifest.reps)
        reference = simulator.prepare_hf(n, range(integrals.n_electrons))
        state = simulator.apply_circuit(reference, circuit, result.vqe.final_parameters)
        exact = simulator.expectation(state, hamiltonian)
        if not result.e_fci - VARIATIONAL_SLACK <= exact <= result.e_fci + HEA_TOLERANCE:
            problems.append(f"{point.label}: exact energy at the returned parameters "
                            f"{exact!r} vs e_fci {result.e_fci!r}")
        return problems, counts

    def finish(self, outputs):
        return None

    def check_finish(self, outputs, final):
        return []


# sha256 of each bundled FCIDUMP (copies of the repository's H2S fixtures)
FCIDUMP_SHA256 = {
    "h2s_sto3g_nonrel_eq": "b3928411c96b502453d9cfe586e1b7ad3c8c1cd63847d93347ce7f8fd0c30399",
    "h2s_sto3g_nonrel_stretch": "60024f48d8a6ad1d5d2feefd3ff3d48369488dc605c432c56d6d8fac3334bdf6",
    "h2s_sto3g_rel_eq": "60c5ae418a6b9f3c06d4ee999a54ee955551261bffaf4ff38ea09f5c0c9c79f5",
    "h2s_sto3g_rel_stretch": "6d687833a8fbe77a177a332904324744977c36a363d6494da737a2e5f71b250c",
}
H2S_COORDINATES = {"eq": 1.338, "stretch": 1.45}
H2S_ORBITALS = 6  # spatial orbitals in each fixture


def hf_energy(hamiltonian, n_electrons: int) -> float:
    """<HF|H|HF> for the lowest ``n_electrons`` spin orbitals occupied.

    Only strings without X or Y act diagonally on a determinant, each
    contributing its weight times (-1)^popcount(occupied & z).
    """
    occupied = (1 << n_electrons) - 1
    return sum(w * (-1) ** (p.z_mask & occupied).bit_count()
               for w, p in hamiltonian.terms if p.x_mask == 0)


class H2sFci:
    name = "h2s-fci"
    why = ("H2S FCIDUMP fixtures, 8-qubit frozen core and full 12 qubits, exact "
           "diagonalization only: matrix-free H.v dominates, no circuit or optimizer")
    PROBES = {8: Probe(((256, 80),), ref_s=0.62e-3), 12: Probe(((4096, 16),), ref_s=0.64e-3)}
    expected = frozenset({
        "workflows.integrals_for_point", "workflows.compare_curves",
        "fcidump.parse_fcidump", "integrals.freeze_core",
        "fermions.build_second_quantized", "fermions.jordan_wigner",
        "measurement.group_commuting", "exactdiag.ground_state_energy",
        "exactdiag.apply_hamiltonian", "paulis.pauli_action",
    })

    def __init__(self, seed: int):
        for stem, digest in FCIDUMP_SHA256.items():
            text = (INPUTS / f"{stem}.fcidump").read_text(encoding="utf-8")
            if hashlib.sha256(text.encode("utf-8")).hexdigest() != digest:
                raise ValueError(f"{stem}.fcidump differs from the recorded input")
        frozen_points = [
            {"label": f"{kind}_{geometry}", "coordinate": H2S_COORDINATES[geometry],
             "fcidump": f"h2s_sto3g_{kind}_{geometry}.fcidump"}
            for kind in ("nonrel", "rel") for geometry in ("eq", "stretch")
        ]
        full_point = {"label": "nonrel_eq_full", "coordinate": H2S_COORDINATES["eq"],
                      "fcidump": "h2s_sto3g_nonrel_eq.fcidump"}
        frozen = workflows.load_manifest(
            {"label": "h2s-frozen-core", "freeze": [0, 1], "points": frozen_points},
            base_dir=str(INPUTS))
        full = workflows.load_manifest(
            {"label": "h2s-full", "points": [full_point]}, base_dir=str(INPUTS))
        self.freeze = {p.label: m.freeze for m in (frozen, full) for p in m.points}
        self.qubits = {label: 2 * (H2S_ORBITALS - len(cores))
                       for label, cores in self.freeze.items()}
        self.points = _in_seeded_order(frozen.points + full.points, seed)

    def probe_for(self, point):
        return self.PROBES[self.qubits[point.label]]

    def run_point(self, point):
        integrals = workflows.integrals_for_point(point, self.freeze[point.label])
        hamiltonian = fermions.jordan_wigner(fermions.build_second_quantized(integrals))
        ground = exactdiag.ground_state_energy(hamiltonian)
        groups = measurement.group_commuting(hamiltonian)
        return integrals, hamiltonian, ground, groups

    def check_point(self, point, output):
        integrals, hamiltonian, ground, groups = output
        problems = []
        if not ground.residual_norm <= RESIDUAL_LIMIT:
            problems.append(f"{point.label}: residual {ground.residual_norm:.3e}")
        e_hf = hf_energy(hamiltonian, integrals.n_electrons)
        if not ground.energy <= e_hf + VARIATIONAL_SLACK:
            problems.append(f"{point.label}: E {ground.energy!r} above <HF|H|HF> {e_hf!r}")
        counts = {
            "dim": ground.eigenvector.amplitudes.shape[0],
            "pauli_terms": hamiltonian.n_terms,
            "groups": len(groups),
        }
        return problems, counts

    def _curve(self, outputs, kind):
        return [(g, outputs[f"{kind}_{g}"][2].energy) for g in ("eq", "stretch")]

    def finish(self, outputs):
        return workflows.compare_curves(self._curve(outputs, "nonrel"),
                                        self._curve(outputs, "rel"))

    def check_finish(self, outputs, final):
        expected = {label: e_a - e_b for (label, e_a), (_, e_b) in
                    zip(self._curve(outputs, "nonrel"), self._curve(outputs, "rel"))}
        return [f"compare_curves {label}: delta {delta!r} != {expected[label]!r}"
                for label, _, _, delta in final.rows
                if not abs(delta - expected[label]) <= 1e-12]


WORKLOADS = {w.name: w for w in (H3Exchange, H2sFci, H3HeaSampled)}
