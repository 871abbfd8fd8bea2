#!/usr/bin/env python3
"""SPSA versus Nelder-Mead simplex on the same variational problem.

Runs both optimizers over several seeds on H2/UCCSD, writes their
convergence traces to CSV, and prints the stability-versus-cost summary.
"""

import numpy as np

from vqechem.ansatz import build_uccsd
from vqechem.exactdiag import ground_state_energy
from vqechem.fermions import build_second_quantized, jordan_wigner
from vqechem.optimize import (
    OptimizerConfig,
    exact_energy_objective,
    simplex_minimize,
    spsa_minimize,
)
from vqechem.workflows import ScanPoint, h2_point, integrals_for_point, trace_csv

point = h2_point("0.74", 0.74)
integrals = integrals_for_point(ScanPoint("0.74", 0.74, geometry=point["geometry"]))
hamiltonian = jordan_wigner(build_second_quantized(integrals))
fci = ground_state_energy(hamiltonian).energy
circuit = build_uccsd(hamiltonian.n_qubits, range(hamiltonian.n_electrons))
objective = exact_energy_objective(hamiltonian, circuit)

print(f"H2/UCCSD, {circuit.n_parameters} parameters, FCI = {fci:.8f} Ha\n")
print(f"{'seed':>4} {'SPSA final':>14} {'evals':>6} {'simplex final':>16} {'evals':>6}")

finals = {"spsa": [], "simplex": []}
for seed in range(6):
    theta0 = np.random.default_rng((11, seed)).normal(0.0, 0.05, circuit.n_parameters)
    spsa = spsa_minimize(
        objective, theta0,
        OptimizerConfig(kind="spsa", max_iterations=200,
                        convergence_threshold=1e-4, seed=seed),
    )
    simplex = simplex_minimize(
        objective, theta0,
        OptimizerConfig(kind="simplex", max_iterations=2000,
                        convergence_threshold=1e-4, seed=seed),
    )
    finals["spsa"].append(spsa.final_energy)
    finals["simplex"].append(simplex.final_energy)
    print(
        f"{seed:4d} {spsa.final_energy:14.8f} {spsa.n_function_evaluations:6d} "
        f"{simplex.final_energy:16.10f} {simplex.n_function_evaluations:6d}"
    )
    if seed == 0:
        for name, result in (("spsa", spsa), ("simplex", simplex)):
            with open(f"trace_{name}.csv", "w") as fh:
                fh.write(trace_csv(result))

print(f"\nfinal-energy std over seeds: SPSA {np.std(finals['spsa']):.2e} Ha, "
      f"simplex {np.std(finals['simplex']):.2e} Ha")
print("wrote trace_spsa.csv and trace_simplex.csv (iteration,energy,best_energy)")
