"""Lowest-eigenvalue oracle for qubit Hamiltonians, solved block by block.

A Jordan-Wigner Hamiltonian built from a number- and spin-conserving
fermion operator is block diagonal in (N_alpha, N_beta): the popcounts of
the even (alpha) and odd (beta) qubits. The solver labels every basis state
by that pair, checks on the compiled x-mask form that every live entry
joins two states of one label, and then solves each block alone: a dense
``eigvalsh`` up to ``DENSE_CUTOFF_DIM`` states, Lanczos with full
reorthogonalization against a seeded start vector above it. An operator
that is not block diagonal is one block, the whole register.

With ``n_electrons`` only the Hartree-Fock reference's block is solved,
(ceil(N/2), floor(N/2)), which holds the lowest N-electron state of every
spin, compiled on its own states; a form that drops an entry for leaving
them is refused. Without it the lowest block wins: the Fock-space minimum.
Each block gets a Gershgorin lower bound on its eigenvalues (Gershgorin
1931); the blocks are visited in ascending bound, each compiled on its
states, until a bound clears the lowest energy so far, since no later block
can beat it. The winner's residual is taken with its block's form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from numbers import Real

import numpy as np

from .exceptions import EigensolverConvergenceError, ShapeError
from .paulis import COEFF_PRUNE_THRESHOLD, ROWS_PER_BLOCK, CompiledOperator, QubitHamiltonian
from .simulator import (MAX_QUBITS, Statevector, check_allocation, checked_int, sector_labels,
                        sector_states)

RESIDUAL_TOLERANCE = 1e-9
LANCZOS_START_SEED = 20240801  # fixed so results are bit-reproducible
# blocks of at most this many states take dense eigh. On one thread dense
# beat Lanczos on every block timed, 400 to 1960 states (460 against 660 ms
# at 1225, random real integrals). Lanczos took half as long on the 400-state
# H2S block as on a random 441-state one, so molecular blocks may cross lower
DENSE_CUTOFF_DIM = 1024
LANCZOS_MAX_KRYLOV = 160  # Krylov vectors per restart
LANCZOS_RESTARTS = 12
# a block is skipped when its bound exceeds the best energy by more than this
# times 1 + |best|: where a bound is tight, eigvalsh can round below it
BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    eigenvector: Statevector | None
    residual_norm: float
    # (N_alpha, N_beta) of the solved block; None when the operator is not
    # block diagonal in them
    sector: tuple[int, int] | None


def reference_sector(n_electrons: int) -> tuple[int, int]:
    """(N_alpha, N_beta) of the Hartree-Fock reference: the lowest spin orbitals."""
    return (n_electrons + 1) // 2, n_electrons // 2


def _sector_size(n_qubits: int, sector: tuple[int, int]) -> int:
    """States in the (N_alpha, N_beta) ``sector``: alpha on even qubits, beta on odd."""
    return comb((n_qubits + 1) // 2, sector[0]) * comb(n_qubits // 2, sector[1])


def _check_bytes(hamiltonian: QubitHamiltonian, block_dim: int, forms: list) -> None:
    """Refuse a solve whose compiled forms and workspace exceed the allocation cap.

    ``forms`` are the state counts of the forms held at once, None for the
    register's: a sector solve holds its block's, a Fock-space solve the full
    form and one block's. A Fock-space solve also labels every register state
    by sector, 32 B each; a sector solve lists its states alone. Lanczos
    keeps ``min(LANCZOS_MAX_KRYLOV, block_dim)`` block vectors; a dense solve
    (up to ``DENSE_CUTOFF_DIM`` states) 48 B per matrix cell (matrix, LAPACK's
    copy, eigenvectors) and 48 B per block entry filling the matrix.
    """
    n = hamiltonian.n_qubits
    needed = sum(map(hamiltonian.compiled_bytes, forms)) + (32 << n if None in forms else 0)
    dense = block_dim <= DENSE_CUTOFF_DIM
    if dense:
        needed += (block_dim * block_dim + len(hamiltonian.x_masks()) * block_dim) * 48
    else:
        needed += min(LANCZOS_MAX_KRYLOV, block_dim) * block_dim * 16
    check_allocation(needed, f"{'dense' if dense else 'lanczos'} solve of a "
                             f"{block_dim}-state block on {n} qubits")


def _blocks(operator: CompiledOperator) -> list[tuple]:
    """(sector, ascending states) per (N_alpha, N_beta) block of the operator.

    One block of every state, with sector None, when a live entry (above
    ``COEFF_PRUNE_THRESHOLD``; summed diagonals leave ~1e-18 residue, so
    exact zeros are not required) joins states of two labels.
    """
    n = operator.n_qubits
    labels = sector_labels(n)
    for start in range(0, operator.gather.shape[0], ROWS_PER_BLOCK):
        rows = slice(start, start + ROWS_PER_BLOCK)
        joins = labels[operator.gather[rows]] != labels
        if np.any(np.abs(operator.shifted[rows][joins]) > COEFF_PRUNE_THRESHOLD):
            return [(None, np.arange(1 << n))]
    order = np.argsort(labels, kind="stable")
    values, starts = np.unique(labels[order], return_index=True)
    return [((int(v) // (n // 2 + 1), int(v) % (n // 2 + 1)), states)
            for v, states in zip(values, np.split(order, starts[1:]))]


def _bounds(operator: CompiledOperator, blocks: list) -> np.ndarray:
    """Gershgorin lower bound on the eigenvalues of each block.

    State c's disc gives Re H[c, c] minus the sum over x != 0 rows of
    |shifted[k, c]|; a block's bound is the least over its states.
    """
    diagonal = operator.gather[0, 0] == 0  # rows ascend by x-mask
    bound = operator.shifted[0].real * diagonal
    for start in range(int(diagonal), operator.gather.shape[0], ROWS_PER_BLOCK):
        bound -= np.abs(operator.shifted[start:start + ROWS_PER_BLOCK]).sum(axis=0)
    return np.array([bound[states].min() for _, states in blocks])


def _lanczos_lowest(operator: CompiledOperator):
    dim = operator.dim
    rng = np.random.default_rng(LANCZOS_START_SEED)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)

    energy = None
    for _ in range(LANCZOS_RESTARTS):
        m = min(LANCZOS_MAX_KRYLOV, dim)
        basis = np.zeros((m, dim), dtype=np.complex128)
        alphas = np.zeros(m)
        betas = np.zeros(max(m - 1, 0))
        basis[0] = v
        k_used = m
        for k in range(m):
            w = operator.apply(basis[k])
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
        residual = float(np.linalg.norm(operator.apply(v) - energy * v))
        if residual < RESIDUAL_TOLERANCE:
            return energy, v, residual
    return energy, v, residual


def _solve_block(block: CompiledOperator, vector: bool):
    """(lowest eigenvalue, its eigenvector or None) of one block.

    The dense path returns a vector only when asked; a real block (every
    real-integral Jordan-Wigner Hamiltonian) is solved as a real matrix.
    """
    if block.dim <= DENSE_CUTOFF_DIM:
        if not vector:
            return float(np.linalg.eigvalsh(block.dense())[0]), None
        evals, evecs = np.linalg.eigh(block.dense())
        return float(evals[0]), evecs[:, 0]
    energy, vec, residual = _lanczos_lowest(block)
    if residual >= RESIDUAL_TOLERANCE:
        raise EigensolverConvergenceError(
            f"Lanczos residual {residual:.2e} above {RESIDUAL_TOLERANCE:.0e} "
            f"after {LANCZOS_RESTARTS} restarts",
            best_energy=energy,
        )
    return energy, vec


def ground_state_energy(
    hamiltonian: QubitHamiltonian, n_electrons: int | None = None
) -> GroundStateResult:
    """Lowest eigenvalue of the qubit Hamiltonian, in one electron sector or all.

    A block of at most ``DENSE_CUTOFF_DIM`` states is solved dense, a larger
    one by Lanczos (``LANCZOS_MAX_KRYLOV`` vectors, ``LANCZOS_RESTARTS``
    restarts). With ``n_electrons`` only the reference sector is compiled and
    solved, and a Hamiltonian that does not conserve (N_alpha, N_beta) there
    is refused. Raises when a Lanczos residual never reaches 1e-9, carrying
    the best estimate.
    """
    n = hamiltonian.n_qubits
    if n > MAX_QUBITS:
        raise ShapeError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit limit")
    if n_electrons is not None:
        if isinstance(n_electrons, Real) and not 0 <= n_electrons <= n:
            raise ShapeError(f"{n_electrons} electrons do not fit in {n} spin orbitals")
        n_electrons = checked_int(n_electrons, "n_electrons", 0)
        sector = reference_sector(n_electrons)
        dim = _sector_size(n, sector)
        _check_bytes(hamiltonian, dim, [dim])
        states = sector_states(n, (1 << n_electrons) - 1)
        block = hamiltonian.compile(states)
        if block.leak > COEFF_PRUNE_THRESHOLD:
            raise ShapeError("Hamiltonian does not conserve (N_alpha, N_beta); "
                             f"no {n_electrons}-electron sector to solve")
    else:
        dim = _sector_size(n, ((n + 1) // 4, n // 4))  # the largest sector
        _check_bytes(hamiltonian, dim, [None, dim])
        operator = hamiltonian.compile()
        blocks = _blocks(operator)
        sector, states = blocks[0]
        if sector is None:  # not block diagonal: the full form is the one block
            _check_bytes(hamiltonian, 1 << n, [None])
        else:
            # in ascending bound, each compiled and solved for eigenvalues; ties to the first
            bounds, best = _bounds(operator, blocks), (np.inf, -1)
            for i in np.argsort(bounds, kind="stable"):
                if bounds[i] > best[0] + BOUND_MARGIN * (1 + abs(best[0])):
                    break
                energy, _ = _solve_block(hamiltonian.compile(blocks[i][1]), False)
                best = min(best, (energy, i))
            sector, states = blocks[best[1]]
        block = operator if sector is None else hamiltonian.compile(states)

    energy, vec = _solve_block(block, True)
    residual = float(np.linalg.norm(block.apply(vec) - energy * vec))
    amplitudes = np.zeros(1 << n, dtype=np.complex128)
    amplitudes[states] = vec
    return GroundStateResult(energy, Statevector(n, amplitudes), residual, sector)
