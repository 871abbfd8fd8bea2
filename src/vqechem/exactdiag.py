"""Matrix-free lowest-eigenvalue oracle for qubit Hamiltonians.

Lanczos iteration with full reorthogonalization against a seeded start
vector; a dense eigh path exists both as a fallback for small registers
and as an independent cross-check in the test suite. Both run on the
compiled x-mask form of the Hamiltonian, built once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EigensolverConvergenceError, ShapeError
from .paulis import CompiledOperator, QubitHamiltonian
from .simulator import MAX_QUBITS, MAX_ALLOCATION_BYTES, Statevector

RESIDUAL_TOLERANCE = 1e-9
LANCZOS_START_SEED = 20240801  # fixed so results are bit-reproducible
DENSE_CUTOFF_QUBITS = 3


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    eigenvector: Statevector | None
    residual_norm: float


def apply_hamiltonian(
    hamiltonian: QubitHamiltonian | CompiledOperator, vec: np.ndarray
) -> np.ndarray:
    """H @ vec from the compiled x-mask form; no dense matrix.

    A plain Hamiltonian is compiled for this call only; repeated products
    should pass ``hamiltonian.compile()``.
    """
    return hamiltonian.compile().apply(vec)


def _solver_bytes(hamiltonian: QubitHamiltonian, method: str, max_krylov: int) -> int:
    """Bytes a solve allocates for its compiled operator and its workspace.

    The compiled form holds a gather index and a complex diagonal per
    distinct x-mask; Lanczos keeps ``min(max_krylov, 2**n)`` basis vectors,
    the dense path one 2**n x 2**n matrix. Computed from the masks alone.
    """
    dim = 1 << hamiltonian.n_qubits
    operator = len(hamiltonian.x_masks()) * dim * (np.dtype(np.intp).itemsize + 16)
    vectors = dim if method == "dense" else min(max_krylov, dim)
    return operator + vectors * dim * 16


def _lanczos_lowest(operator: CompiledOperator, max_krylov: int, restarts: int):
    dim = 1 << operator.n_qubits
    rng = np.random.default_rng(LANCZOS_START_SEED)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)

    energy = None
    for _ in range(restarts):
        m = min(max_krylov, dim)
        basis = np.zeros((m, dim), dtype=np.complex128)
        alphas = np.zeros(m)
        betas = np.zeros(max(m - 1, 0))
        basis[0] = v
        k_used = m
        for k in range(m):
            w = apply_hamiltonian(operator, basis[k])
            alphas[k] = np.real(np.vdot(basis[k], w))
            w -= alphas[k] * basis[k]
            if k > 0:
                w -= betas[k - 1] * basis[k - 1]
            # full reorthogonalization: cheap at these dimensions, robust
            w -= basis[: k + 1].T @ (basis[: k + 1].conj() @ w)
            if k + 1 == m:
                break
            beta = np.linalg.norm(w)
            if beta < 1e-13:  # invariant subspace found
                k_used = k + 1
                break
            betas[k] = beta
            basis[k + 1] = w / beta

        tri = np.diag(alphas[:k_used])
        if k_used > 1:
            tri += np.diag(betas[: k_used - 1], 1) + np.diag(betas[: k_used - 1], -1)
        evals, evecs = np.linalg.eigh(tri)
        energy = float(evals[0])
        v = basis[:k_used].T @ evecs[:, 0]
        v /= np.linalg.norm(v)
        residual = float(np.linalg.norm(apply_hamiltonian(operator, v) - energy * v))
        if residual < RESIDUAL_TOLERANCE:
            return energy, v, residual
    return energy, v, residual


def ground_state_energy(
    hamiltonian: QubitHamiltonian,
    method: str = "auto",
    max_krylov: int = 160,
    restarts: int = 12,
) -> GroundStateResult:
    """Lowest eigenvalue of the qubit Hamiltonian.

    ``method`` is "lanczos", "dense", or "auto" (dense for very small
    registers, Lanczos otherwise). Raises when the Lanczos residual never
    reaches 1e-9, carrying the best estimate.
    """
    n = hamiltonian.n_qubits
    if n > MAX_QUBITS:
        raise ShapeError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit limit")
    if method == "auto":
        method = "dense" if n <= DENSE_CUTOFF_QUBITS else "lanczos"
    if method not in ("dense", "lanczos"):
        raise ShapeError(f"unknown method {method!r}")
    needed = _solver_bytes(hamiltonian, method, max_krylov)
    if needed > MAX_ALLOCATION_BYTES:
        raise ShapeError(
            f"{method} solve of {n} qubits needs {needed / 2**30:.1f} GiB, "
            f"above the {MAX_ALLOCATION_BYTES / 2**30:.0f} GiB limit"
        )

    operator = hamiltonian.compile()
    if method == "dense":
        matrix = operator.dense()
        evals, evecs = np.linalg.eigh(matrix)
        energy = float(evals[0])
        vec = evecs[:, 0]
        residual = float(np.linalg.norm(matrix @ vec - energy * vec))
        return GroundStateResult(energy, Statevector(n, vec.astype(np.complex128)), residual)

    energy, vec, residual = _lanczos_lowest(operator, max_krylov, restarts)
    if residual >= RESIDUAL_TOLERANCE:
        raise EigensolverConvergenceError(
            f"Lanczos residual {residual:.2e} above {RESIDUAL_TOLERANCE:.0e} "
            f"after {restarts} restarts",
            best_energy=energy,
        )
    return GroundStateResult(energy, Statevector(n, vec), residual)
