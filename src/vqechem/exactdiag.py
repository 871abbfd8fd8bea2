"""Lowest-eigenvalue oracle for qubit Hamiltonians, solved block by block.

A Jordan-Wigner Hamiltonian built from a number- and spin-conserving
fermion operator is block diagonal in (N_alpha, N_beta): the popcounts of
the even (alpha) and odd (beta) qubits. Each visited block is compiled on
its states and solved once: dense ``eigh`` up to ``DENSE_CUTOFF_DIM``
states, above that Davidson's method with the diagonal as preconditioner.
With ``n_electrons`` the one block is the Hartree-Fock reference's,
(ceil(N/2), floor(N/2)), which holds the lowest N-electron state of every
spin. Without it the blocks are visited in ascending Gershgorin bound
(Gershgorin 1931) from the strings, until one clears the lowest energy so
far. A block's ``leak`` is the coupling test: a Hamiltonian that joins a
visited block to another is refused, with or without ``n_electrons``, and the
register's form is never compiled. As no visited block leaks they span an
invariant subspace, and the string bounds cover every other state, so their
minimum is the register's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from numbers import Real

import numpy as np

from .exceptions import EigensolverConvergenceError, ShapeError
from .paulis import COEFF_PRUNE_THRESHOLD, CompiledOperator, QubitHamiltonian, sign_table
from .simulator import (MAX_QUBITS, Statevector, check_allocation, checked_int, sector_labels,
                        sector_states)

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
# a block is skipped when its bound exceeds the best energy by more than this
# times 1 + |best|: where a bound is tight, eigh can round below it
BOUND_MARGIN = 1e-9
# blocks within this times 1 + |lowest| of the lowest energy tie; the earliest
# label wins, whatever the visit order or the eigensolver's rounding
TIE_MARGIN = 1e-12


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    eigenvector: Statevector
    residual_norm: float


def _sector_size(n: int, electrons: int) -> int:
    """States in the reference sector of ``electrons`` on ``n`` qubits, (ceil(N/2),
    floor(N/2)): alpha on even qubits, beta on odd. ``n // 2`` electrons give the largest."""
    return comb((n + 1) // 2, (electrons + 1) // 2) * comb(n // 2, electrons // 2)


def _check_bytes(hamiltonian: QubitHamiltonian, form: int, search: bool) -> None:
    """Refuse a solve whose compiled form, workspace and eigenvector exceed the cap.

    ``form`` is the state count of the one block form compiled (at its peak) and
    solved. A Fock-space ``search`` also labels every register state by sector,
    32 B each; its bounds take each block's diagonal energy from a sign table of
    the x == 0 strings, one row of the block's form. Davidson keeps 2 *
    ``DAVIDSON_SUBSPACE`` block vectors in the form's ``dtype``; a dense solve (up
    to ``DENSE_CUTOFF_DIM`` states) 48 B per matrix cell (matrix, LAPACK's copy,
    eigenvectors). The eigenvector's complex register copy: 16 B per register state.
    """
    n = hamiltonian.n_qubits
    needed = hamiltonian.compiled_bytes(form) + (16 << n)
    if search:
        needed += 32 << n
    dense = form <= DENSE_CUTOFF_DIM
    if dense:
        needed += form * form * 48
    else:
        needed += 2 * DAVIDSON_SUBSPACE * form * hamiltonian.dtype.itemsize
    check_allocation(needed, f"{'dense' if dense else 'davidson'} solve of a "
                             f"{form}-state block on {n} qubits")


def _blocks(n_qubits: int) -> list[np.ndarray]:
    """The ascending states of each (N_alpha, N_beta) label, in label order."""
    labels = sector_labels(n_qubits)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _bounds(hamiltonian: QubitHamiltonian, blocks: list) -> np.ndarray:
    """Gershgorin lower bound on each block's eigenvalues, from the strings: its
    least diagonal energy (the x == 0 strings) minus R, the summed |weight| of
    the others. No state's disc is wider than R, whether H couples it or not."""
    diagonal = hamiltonian.x == 0
    weights, masks = hamiltonian.weights[diagonal], hamiltonian.z[diagonal]
    radius = np.abs(hamiltonian.weights[~diagonal]).sum()
    return np.array([(weights @ sign_table(masks, states)).min() for states in blocks]) - radius


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


def ground_state_energy(
    hamiltonian: QubitHamiltonian, n_electrons: int | None = None
) -> GroundStateResult:
    """Lowest eigenvalue of the qubit Hamiltonian, in one electron sector or all.

    A block of at most ``DENSE_CUTOFF_DIM`` states is solved dense, a larger
    one by Davidson (at most ``DAVIDSON_SUBSPACE`` vectors). With
    ``n_electrons`` only the reference sector is compiled and solved; a
    Hamiltonian that joins a visited block to another is refused.
    Raises when a Davidson residual has not reached ``RESIDUAL_TOLERANCE``
    after ``DAVIDSON_MAX_PRODUCTS`` products, carrying the best estimate.
    """
    n = hamiltonian.n_qubits
    if n > MAX_QUBITS:
        raise ShapeError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit limit")
    if n_electrons is not None:
        if isinstance(n_electrons, Real) and not 0 <= n_electrons <= n:
            raise ShapeError(f"{n_electrons} electrons do not fit in {n} spin orbitals")
        n_electrons = checked_int(n_electrons, "n_electrons", 0)
        _check_bytes(hamiltonian, _sector_size(n, n_electrons), search=False)
        blocks, bounds = [sector_states(n, (1 << n_electrons) - 1)], [-np.inf]
    else:
        _check_bytes(hamiltonian, _sector_size(n, n // 2), search=True)  # the largest sector
        blocks = _blocks(n)
        bounds = _bounds(hamiltonian, blocks)

    # (label index, energy, vector, residual, states) of each solved block within
    # TIE_MARGIN of the lowest energy; one that leaves the margin cannot re-enter it
    lowest, near = np.inf, []
    for i in np.argsort(bounds, kind="stable"):
        if bounds[i] > lowest + BOUND_MARGIN * (1 + abs(lowest)):
            break
        block = hamiltonian.compile(blocks[i])
        if block.leak > COEFF_PRUNE_THRESHOLD:  # H joins this block to another
            raise ShapeError("Hamiltonian does not conserve (N_alpha, N_beta): it joins "
                             "one block's states to another's, so no sector can be solved")
        solved = (i, *_solve_block(block), blocks[i])
        del block  # one block form at a time, as _check_bytes counts
        lowest = min(lowest, solved[1])
        near = [s for s in near + [solved] if s[1] - lowest <= TIE_MARGIN * (1 + abs(lowest))]
    _, energy, vec, residual, states = min(near, key=lambda s: s[0])
    return GroundStateResult(energy, Statevector(n, vec, states).on_register(), residual)
