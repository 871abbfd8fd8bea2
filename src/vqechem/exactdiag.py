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
spin. Without it the lowest block wins: the Fock-space minimum. Each block
gets a Gershgorin lower bound on its eigenvalues (Gershgorin 1931), the
blocks are visited in ascending bound, and the visit stops at the first
bound that clears the lowest energy so far, since no later block can beat
it. Only the winning block's eigenvector is kept; it is embedded in the
full register and its residual taken with the full operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .exceptions import EigensolverConvergenceError, ShapeError
from .paulis import COEFF_PRUNE_THRESHOLD, ROWS_PER_BLOCK, CompiledOperator, QubitHamiltonian
from .simulator import MAX_QUBITS, Statevector, check_allocation, sector_labels

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


def apply_hamiltonian(
    hamiltonian: QubitHamiltonian | CompiledOperator, vec: np.ndarray
) -> np.ndarray:
    """H @ vec from the compiled x-mask form; no dense matrix.

    A plain Hamiltonian is compiled for this call only; repeated products
    should pass ``hamiltonian.compile()``.
    """
    return hamiltonian.compile().apply(vec)


def reference_sector(n_electrons: int) -> tuple[int, int]:
    """(N_alpha, N_beta) of the Hartree-Fock reference: the lowest spin orbitals."""
    return (n_electrons + 1) // 2, n_electrons // 2


def _largest_block(n_qubits: int, sector: tuple[int, int] | None) -> int:
    """States in ``sector``, or in the largest sector when it is None."""
    n_alpha, n_beta = (n_qubits + 1) // 2, n_qubits // 2
    a, b = sector if sector is not None else (n_alpha // 2, n_beta // 2)
    return comb(n_alpha, a) * comb(n_beta, b)


def _check_bytes(n_qubits: int, n_x_masks: int, block_dim: int) -> None:
    """Refuse a solve whose operator and workspace exceed the allocation cap.

    The compiled form holds a gather index and a complex diagonal per
    x-mask and basis state; two restricted blocks (the one being solved and
    the lowest so far) as much per block state; the sector labels and their
    sort take 32 B per state. Lanczos keeps ``min(LANCZOS_MAX_KRYLOV,
    block_dim)`` block vectors. The dense path, taken up to
    ``DENSE_CUTOFF_DIM`` states, takes 48 B per matrix cell (the complex
    matrix, LAPACK's working copy and the eigenvectors, at most 16 B each),
    and filling the matrix at most 48 B of mask, indices and values per
    block entry.
    """
    entry = np.dtype(np.intp).itemsize + 16
    operator = n_x_masks * ((1 << n_qubits) + 2 * block_dim) * entry + (32 << n_qubits)
    dense = block_dim <= DENSE_CUTOFF_DIM
    if dense:
        needed = operator + (block_dim * block_dim + n_x_masks * block_dim) * 48
    else:
        needed = operator + min(LANCZOS_MAX_KRYLOV, block_dim) * block_dim * 16
    check_allocation(needed, f"{'dense' if dense else 'lanczos'} solve of a "
                             f"{block_dim}-state block on {n_qubits} qubits")


def _blocks(operator: CompiledOperator, n_electrons: int | None = None) -> list[tuple]:
    """(sector, ascending states) per (N_alpha, N_beta) block of the operator.

    With ``n_electrons`` only the block of basis state 2**N - 1, the
    Hartree-Fock reference. One block of every state, with sector None, when a live entry (above
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
    if n_electrons is not None:
        reference = labels[(1 << n_electrons) - 1]
        return [(reference_sector(n_electrons), np.flatnonzero(labels == reference))]
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


def _solve_block(block: CompiledOperator, vector: bool):
    """(lowest eigenvalue, its eigenvector or None) of one block.

    The dense path returns a vector only when asked; a real block (every
    real-integral Jordan-Wigner Hamiltonian) is solved as a real matrix.
    """
    if block.dim <= DENSE_CUTOFF_DIM:
        matrix = block.dense()
        if not matrix.imag.any():
            matrix = matrix.real
        if not vector:
            return float(np.linalg.eigvalsh(matrix)[0]), None
        evals, evecs = np.linalg.eigh(matrix)
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
    restarts). With ``n_electrons`` only the reference sector is solved, and
    a Hamiltonian that does not conserve (N_alpha, N_beta) is refused.
    Raises when a Lanczos residual never reaches 1e-9, carrying the best
    estimate.
    """
    n = hamiltonian.n_qubits
    if n > MAX_QUBITS:
        raise ShapeError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit limit")
    target = None
    if n_electrons is not None:
        if not 0 <= n_electrons <= n:
            raise ShapeError(f"{n_electrons} electrons do not fit in {n} spin orbitals")
        target = reference_sector(n_electrons)

    n_x_masks = len(hamiltonian.x_masks())
    _check_bytes(n, n_x_masks, _largest_block(n, target))

    operator = hamiltonian.compile()
    blocks = _blocks(operator, n_electrons)
    if target is not None and blocks[0][0] is None:
        raise ShapeError("Hamiltonian does not conserve (N_alpha, N_beta); "
                         f"no {n_electrons}-electron sector to solve")
    _check_bytes(n, n_x_masks, max(len(states) for _, states in blocks))

    # a lone block is solved with its eigenvector at once and gets no bound;
    # among several, blocks are visited in ascending bound for eigenvalues
    # only, ties in energy go to the earliest label, and the winner is solved again
    vector = len(blocks) == 1
    bounds = np.zeros(1) if vector else _bounds(operator, blocks)
    best = None
    for i in np.argsort(bounds, kind="stable"):
        if best is not None and bounds[i] > best[0] + BOUND_MARGIN * (1 + abs(best[0])):
            break
        block = operator.restrict(blocks[i][1])
        energy, vec = _solve_block(block, vector)
        if best is None or (energy, i) < best[:2]:
            best = energy, i, vec, block
    energy, i, vec, block = best
    sector, states = blocks[i]
    if vec is None:
        energy, vec = _solve_block(block, True)
    amplitudes = np.zeros(1 << n, dtype=np.complex128)
    amplitudes[states] = vec
    residual = float(np.linalg.norm(operator.apply(amplitudes) - energy * amplitudes))
    return GroundStateResult(energy, Statevector(n, amplitudes), residual, sector)
