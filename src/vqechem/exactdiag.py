"""Lowest-eigenvalue oracle for qubit Hamiltonians, solved block by block.

A Jordan-Wigner Hamiltonian built from a number- and spin-conserving
fermion operator is block diagonal in (N_alpha, N_beta): the popcounts of
the even (alpha) and odd (beta) qubits. Each visited block is compiled on
its states and solved once: dense ``eigh`` up to ``DENSE_CUTOFF_DIM``
states, Lanczos with full reorthogonalization above. With ``n_electrons``
the one block is the Hartree-Fock reference's, (ceil(N/2), floor(N/2)),
which holds the lowest N-electron state of every spin. Without it the
blocks are visited in ascending Gershgorin bound (Gershgorin 1931) from
the strings, until one clears the lowest energy so far. A block's ``leak``
is the coupling test: a leaking sector is refused, and a leaking block of
the Fock-space search sends the solve to the register's form, compiled then
alone. If no visited block leaks they span an invariant subspace, and the
string bounds cover every other state, so their minimum is the register's.
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
LANCZOS_START_SEED = 20240801  # fixed so results are bit-reproducible
# blocks of at most this many states take dense eigh. On one thread dense
# beat Lanczos on every block timed, 400 to 1960 states (460 against 660 ms
# at 1225, random real integrals). Lanczos took half as long on the 400-state
# H2S block as on a random 441-state one, so molecular blocks may cross lower
DENSE_CUTOFF_DIM = 1024
LANCZOS_MAX_KRYLOV = 160  # Krylov vectors per restart
LANCZOS_RESTARTS = 12
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


def _check_bytes(hamiltonian: QubitHamiltonian, form: int | None, search: bool) -> None:
    """Refuse a solve whose compiled form and workspace exceed the allocation cap.

    ``form`` is the state count of the one form held and solved, None for the
    register's. A Fock-space ``search`` also labels every register state by
    sector, 32 B each; its bounds take each block's diagonal energy from a
    sign table of the x == 0 strings, one row of the block's form. Lanczos
    keeps ``min(LANCZOS_MAX_KRYLOV, dim)`` block vectors; a dense solve (up to
    ``DENSE_CUTOFF_DIM`` states) 48 B per matrix cell (matrix, LAPACK's copy,
    eigenvectors) and 48 B per block entry filling the matrix.
    """
    n, block_dim = hamiltonian.n_qubits, form or 1 << hamiltonian.n_qubits
    needed = hamiltonian.compiled_bytes(form)
    if search:
        needed += 32 << n
    dense = block_dim <= DENSE_CUTOFF_DIM
    if dense:
        needed += (block_dim * block_dim + len(hamiltonian.x_masks()) * block_dim) * 48
    else:
        needed += min(LANCZOS_MAX_KRYLOV, block_dim) * block_dim * 16
    check_allocation(needed, f"{'dense' if dense else 'lanczos'} solve of a "
                             f"{block_dim}-state block on {n} qubits")


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


def _solve_block(block: CompiledOperator):
    """(lowest eigenvalue, its eigenvector, residual norm) of one block.

    A real block (every real-integral Jordan-Wigner Hamiltonian) is solved
    dense as a real matrix.
    """
    if block.dim <= DENSE_CUTOFF_DIM:
        evals, evecs = np.linalg.eigh(block.dense())
        energy, vec = float(evals[0]), evecs[:, 0].copy()
        return energy, vec, float(np.linalg.norm(block.apply(vec) - energy * vec))
    energy, vec, residual = _lanczos_lowest(block)
    if residual >= RESIDUAL_TOLERANCE:
        raise EigensolverConvergenceError(
            f"Lanczos residual {residual:.2e} above {RESIDUAL_TOLERANCE:.0e} "
            f"after {LANCZOS_RESTARTS} restarts",
            best_energy=energy,
        )
    return energy, vec, residual


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
            if n_electrons is not None:
                raise ShapeError("Hamiltonian does not conserve (N_alpha, N_beta); "
                                 f"no {n_electrons}-electron sector to solve")
            del block
            _check_bytes(hamiltonian, None, search=True)
            near = [(-1, *_solve_block(hamiltonian.compile()), np.arange(1 << n))]
            break
        solved = (i, *_solve_block(block), blocks[i])
        del block  # one block form at a time, as _check_bytes counts
        lowest = min(lowest, solved[1])
        near = [s for s in near + [solved] if s[1] - lowest <= TIE_MARGIN * (1 + abs(lowest))]
    _, energy, vec, residual, states = min(near, key=lambda s: s[0])
    amplitudes = np.zeros(1 << n, dtype=np.complex128)
    amplitudes[states] = vec
    return GroundStateResult(energy, Statevector(n, amplitudes), residual)
