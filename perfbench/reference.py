"""Dense-sector FCI reference energies for the benchmark's H3 points.

The reference is independent of the library's matrix-free Lanczos oracle
and of ``paulis.pauli_action``: each Jordan-Wigner term becomes a Kronecker
product of 2x2 Pauli matrices, the sum is restricted to the basis states
with the molecule's electron count, and ``numpy.linalg.eigh`` gives the
lowest eigenvalue. Integrals and the qubit Hamiltonian still come from
vqechem (STO-3G, RHF, Jordan-Wigner).

Regenerate ``h3_reference.json`` from the repository root with::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
S_VALUES = (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0)  # every H3 point

import numpy as np  # noqa: E402

# Pauli matrix for each (x, z) bit pair: I, Z, X and Y = i X Z
_PAULI = {
    (0, 0): np.eye(2),
    (0, 1): np.diag([1.0, -1.0]),
    (1, 0): np.array([[0.0, 1.0], [1.0, 0.0]]),
    (1, 1): np.array([[0.0, -1j], [1j, 0.0]]),
}


def dense_hamiltonian(hamiltonian) -> np.ndarray:
    """Sum of Kronecker products; qubit j is bit j of the basis index."""
    n = hamiltonian.n_qubits
    matrix = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for weight, pauli in hamiltonian.terms:
        term = np.ones((1, 1))
        for q in reversed(range(n)):  # the leftmost factor is the highest bit
            term = np.kron(term, _PAULI[(pauli.x_mask >> q) & 1, (pauli.z_mask >> q) & 1])
        matrix += weight * term
    return matrix


def sector_ground_energy(hamiltonian, n_electrons: int) -> float:
    """Lowest eigenvalue among states with exactly ``n_electrons`` electrons."""
    sector = [b for b in range(1 << hamiltonian.n_qubits) if b.bit_count() == n_electrons]
    block = dense_hamiltonian(hamiltonian)[np.ix_(sector, sector)]
    return float(np.linalg.eigh(block)[0][0])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import vqechem
    from vqechem import fermions, workflows

    from run import git_sha, source_digest

    e_fci = {}
    for s in S_VALUES:
        point = workflows.load_manifest(
            {"points": [workflows.h3_exchange_point(f"{s:+.2f}", s)]}).points[0]
        integrals = workflows.integrals_for_point(point)
        hamiltonian = fermions.jordan_wigner(fermions.build_second_quantized(integrals))
        e_fci[point.label] = sector_ground_energy(hamiltonian, integrals.n_electrons)
    doc = {
        "provenance": {
            "method": ("Kronecker products of 2x2 Pauli matrices over the Jordan-Wigner "
                       "terms, restricted to the 3-electron sector, numpy.linalg.eigh"),
            "points": "workflows.h3_exchange_point(label, s), neutral, labels f'{s:+.2f}'",
            "command": "python3 perfbench/reference.py",
            "vqechem": vqechem.__version__,
            "git_sha": git_sha(),
            "src_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "e_fci": e_fci,
    }
    path = HERE / "h3_reference.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
