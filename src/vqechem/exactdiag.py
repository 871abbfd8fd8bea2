"""Lowest-eigenvalue oracle for molecular qubit Hamiltonians, in their electron sector.

A Jordan-Wigner Hamiltonian built from a number- and spin-conserving
fermion operator is block diagonal in (N_alpha, N_beta): the popcounts of
the even (alpha) and odd (beta) qubits. The Hamiltonian carries its electron
count N, and the solve takes the Hartree-Fock reference's block,
(ceil(N/2), floor(N/2)), which holds the lowest N-electron state of every
spin. That block is compiled on its states and solved once: dense ``eigh``
up to ``DENSE_CUTOFF_DIM`` states, above that Davidson's method with the
diagonal as preconditioner. The block's ``leak`` is the coupling test: a
Hamiltonian that joins it to another block is refused, and the register's
form is never compiled.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .exceptions import EigensolverConvergenceError, ShapeError
from .paulis import COEFF_PRUNE_THRESHOLD, CompiledOperator, QubitHamiltonian
from .simulator import MAX_QUBITS, Statevector, check_allocation, sector_states

RESIDUAL_TOLERANCE = 1e-9
START_SEED = 20240801  # fixed so results are bit-reproducible
# blocks of at most this many states take dense eigh, larger ones Davidson. On
# one thread the two crossed between 90 and 225 states: dense won on hydrogen
# chain blocks up to 147 states, Davidson on H2S blocks from 90 (6.0 against
# 1.7 ms at 225)
DENSE_CUTOFF_DIM = 100
# vectors held; a full space restarts on the two lowest Ritz vectors, so a
# block whose two lowest states nearly tie keeps converging on both
DAVIDSON_SUBSPACE = 24
DAVIDSON_MAX_PRODUCTS = 1000


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    eigenvector: Statevector
    residual_norm: float


def _sector_size(n: int, electrons: int) -> int:
    """States in the reference sector of ``electrons`` on ``n`` qubits, (ceil(N/2),
    floor(N/2)): alpha on even qubits, beta on odd."""
    return comb((n + 1) // 2, (electrons + 1) // 2) * comb(n // 2, electrons // 2)


def _check_bytes(hamiltonian: QubitHamiltonian, form: int) -> None:
    """Refuse a solve whose compiled form, workspace and eigenvector exceed the cap.

    ``form`` is the state count of the block form compiled (at its peak) and
    solved. Davidson keeps 2 * ``DAVIDSON_SUBSPACE`` block vectors in the form's
    ``dtype``; a dense solve (up to ``DENSE_CUTOFF_DIM`` states) 48 B per matrix
    cell (matrix, LAPACK's copy, eigenvectors). The eigenvector's complex register
    copy: 16 B per register state.
    """
    n = hamiltonian.n_qubits
    needed = hamiltonian.compiled_bytes(form) + (16 << n)
    dense = form <= DENSE_CUTOFF_DIM
    if dense:
        needed += form * form * 48
    else:
        needed += 2 * DAVIDSON_SUBSPACE * form * hamiltonian.dtype.itemsize
    check_allocation(needed, f"{'dense' if dense else 'davidson'} solve of a "
                             f"{form}-state block on {n} qubits")


def _davidson_lowest(block: CompiledOperator):
    """(lowest eigenvalue, its eigenvector, residual norm) of one block by Davidson's
    method (Davidson 1975), in the form's dtype.

    The space starts from the lowest-diagonal state and a seeded random vector,
    which keeps a block whose lowest state is a triplet reachable. Each step adds
    the residual divided by (energy - diagonal), the diagonal being the entries
    whose target is their source (x-mask 0); a full space restarts on the two
    lowest Ritz vectors.
    """
    dim = block.dim
    on_diagonal = block.targets == block.sources  # one entry per target at most
    diagonal = np.bincount(block.targets[on_diagonal], block.values[on_diagonal].real, dim)
    basis = np.zeros((DAVIDSON_SUBSPACE, dim), dtype=block.values.dtype)
    products = np.zeros_like(basis)  # H times each basis vector
    basis[0, np.argmin(diagonal)] = 1.0
    products[0] = block.apply(basis[0])
    noise = np.random.default_rng(START_SEED).standard_normal((2, dim))
    new = noise[0] if basis.dtype == np.float64 else noise[0] + 1j * noise[1]
    size = count = 1
    while True:
        new = new / np.linalg.norm(new)
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthonormal
            new -= basis[:size].T @ (basis[:size].conj() @ new)
        norm = np.linalg.norm(new)
        if norm > 1e-10:  # else the space already holds it
            basis[size] = new / norm
            products[size] = block.apply(basis[size])
            size, count = size + 1, count + 1
        values, vectors = np.linalg.eigh(basis[:size].conj() @ products[:size].T)
        energy, lowest = float(values[0]), vectors[:, 0]
        ritz, product = lowest @ basis[:size], lowest @ products[:size]
        residual_vec = product - energy * ritz
        residual = float(np.linalg.norm(residual_vec))
        if residual < RESIDUAL_TOLERANCE:
            return energy, ritz, residual
        if count >= DAVIDSON_MAX_PRODUCTS or norm <= 1e-10:
            raise EigensolverConvergenceError(
                f"Davidson residual {residual:.2e} above {RESIDUAL_TOLERANCE:.0e} "
                f"after {count} products", best_energy=energy)
        if size == DAVIDSON_SUBSPACE:  # keep the two lowest Ritz vectors
            keep = vectors[:, :2].T
            basis[:2], products[:2], size = keep @ basis[:size], keep @ products[:size], 2
        gap = energy - diagonal
        new = residual_vec / np.where(np.abs(gap) < 1e-8, 1e-8, gap)


def _solve_block(block: CompiledOperator):
    """(lowest eigenvalue, its eigenvector, residual norm) of one block: dense
    ``eigh`` up to ``DENSE_CUTOFF_DIM`` states, real for a real form, else Davidson."""
    if block.dim > DENSE_CUTOFF_DIM:
        return _davidson_lowest(block)
    evals, evecs = np.linalg.eigh(block.dense())
    energy, vec = float(evals[0]), evecs[:, 0].copy()
    return energy, vec, float(np.linalg.norm(block.apply(vec) - energy * vec))


def ground_state_energy(hamiltonian: QubitHamiltonian) -> GroundStateResult:
    """Lowest eigenvalue of the qubit Hamiltonian in the Hartree-Fock sector of its
    electron count, with its eigenvector on the register and its residual norm.

    A sector of at most ``DENSE_CUTOFF_DIM`` states is solved dense, a larger
    one by Davidson (at most ``DAVIDSON_SUBSPACE`` vectors). A Hamiltonian
    without an electron count, or one that joins the sector to another, is
    refused. Raises when a Davidson residual has not reached
    ``RESIDUAL_TOLERANCE`` after ``DAVIDSON_MAX_PRODUCTS`` products, carrying
    the best estimate.
    """
    n, n_electrons = hamiltonian.n_qubits, hamiltonian.n_electrons
    if n > MAX_QUBITS:
        raise ShapeError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit limit")
    if n_electrons is None:
        raise ShapeError("Hamiltonian carries no electron count, so it has no sector to solve")
    _check_bytes(hamiltonian, _sector_size(n, n_electrons))
    states = sector_states(n, (1 << n_electrons) - 1)
    block = hamiltonian.compile(states)
    if block.leak > COEFF_PRUNE_THRESHOLD:  # H joins this block to another
        raise ShapeError("Hamiltonian does not conserve (N_alpha, N_beta): it joins "
                         "one block's states to another's, so no sector can be solved")
    energy, vec, residual = _solve_block(block)
    return GroundStateResult(energy, Statevector(n, vec, states).on_register(), residual)
