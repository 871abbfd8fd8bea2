"""Second-quantized fermionic operators and the Jordan-Wigner transform.

Spin orbitals use the interleaved convention: spatial orbital ``i`` maps to
spin orbitals ``2i`` (alpha) and ``2i+1`` (beta). Operator terms are stored
normal ordered: all creations left of all annihilations, creation indices
strictly increasing, annihilation indices strictly decreasing. Terms are
written creations first and reach that order by sorting alone: no
anticommutator is applied, and an annihilator left of a creator is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonHermitianError, ShapeError
from .integrals import MolecularIntegrals
from .paulis import COEFF_PRUNE_THRESHOLD, QubitHamiltonian

JW_IMAG_TOLERANCE = 1e-10

# A term is a tuple of (mode, is_creation) factors; the empty term is the
# identity and carries the constant.
Term = tuple[tuple[int, bool], ...]


def _normal_order(n_modes: int, owner: np.ndarray, modes: np.ndarray, n_create: np.ndarray,
                  coeffs: np.ndarray, n_ops: int) -> list[dict[Term, float]]:
    """Normal order creation-first terms and sum the equal ones, per operator.

    Row t of ``modes`` holds term t's ``n_create[t]`` creation modes, then
    its annihilation modes, then -1 padding; ``owner[t]`` is its operator,
    one of ``n_ops``. Creations sort ascending and annihilations descending,
    the parity of that sort giving the sign; a term that repeats a mode
    among its creations or among its annihilations is zero. Equal terms of
    an operator sum in input order, as a dict accumulation sums them, and
    come out in tuple order with exact zeros dropped.
    """
    n, position = n_modes, np.arange(modes.shape[1])
    # creation m ranks m, annihilation m ranks 2n - m and padding 2n + 1, so
    # sorting the ranks orders each term and keeps padding last
    rank = np.where(position < n_create[:, None], modes,
                    np.where(modes >= 0, 2 * n - modes, 2 * n + 1))
    later = position[:, None] < position  # [i, j]: i < j
    inversions = ((rank[:, :, None] > rank[:, None, :]) & later).sum(axis=(1, 2))
    equal = (rank[:, :, None] == rank[:, None, :]) & later & (modes >= 0)[:, :, None]
    keep = ~equal.any(axis=(1, 2))
    rank = np.sort(rank[keep], axis=1)
    # factor (m, dagger) as 2m + dagger + 1 and padding as 0: codes sort as the tuples do
    codes = np.where(rank < n, 2 * rank + 2, np.where(rank <= 2 * n, 4 * n - 2 * rank + 1, 0))
    signs = 1 - 2 * (inversions[keep] & 1)
    keys, totals = _sum_runs([owner[keep], *codes.T], coeffs[keep] * signs)
    live = np.abs(totals.real) > 0.0
    factor = [None] + [(m, dagger) for m in range(n) for dagger in (False, True)]
    rows = zip(keys[0][live].tolist(), np.array(keys[1:]).T[live].tolist(),
               totals.real[live].tolist())
    ops = [{} for _ in range(n_ops)]
    for op, row, value in rows:
        ops[op][tuple(factor[c] for c in row if c)] = value
    return ops


@dataclass(frozen=True)
class FermionOperator:
    """Real-coefficient linear combination of normal-ordered operator strings."""

    n_modes: int
    terms: dict[Term, float] = field(default_factory=dict)

    @classmethod
    def from_terms(cls, n_modes: int, raw_terms: dict[Term, float]) -> FermionOperator:
        """Normal order, combine like strings, drop zeros."""
        return cls.from_term_dicts(n_modes, [raw_terms])[0]

    @classmethod
    def from_term_dicts(cls, n_modes: int, raw_term_dicts) -> list[FermionOperator]:
        """:meth:`from_terms` of each dict, normal ordered together.

        Each term lists its creations first; an annihilator left of a
        creator raises.
        """
        terms = [(op, term, c) for op, raw in enumerate(raw_term_dicts) for term, c in raw.items()]
        length = max([1, *(len(term) for _, term, _ in terms)])  # a column for a lone constant
        modes = np.full((len(terms), length), -1, dtype=np.int64)
        n_create = np.zeros(len(terms), dtype=np.int64)
        for row, (_, term, _) in enumerate(terms):
            if not all(0 <= mode < n_modes for mode, _ in term):
                raise ShapeError(f"term {term} has a mode outside 0..{n_modes - 1}")
            n_create[row] = sum(dagger for _, dagger in term)
            if any(dagger for _, dagger in term[n_create[row]:]):
                raise ShapeError(f"term {term} has an annihilator left of a creator")
            modes[row, :len(term)] = [mode for mode, _ in term]
        owner = np.array([op for op, _, _ in terms], dtype=np.int64)
        coeffs = np.array([c for _, _, c in terms], dtype=float)
        ops = _normal_order(n_modes, owner, modes, n_create, coeffs, len(raw_term_dicts))
        return [cls(n_modes, op_terms) for op_terms in ops]


def number_operator(n_modes: int) -> FermionOperator:
    """Total particle number, sum over modes of a_p^+ a_p."""
    return FermionOperator.from_terms(
        n_modes, {((p, True), (p, False)): 1.0 for p in range(n_modes)}
    )


def build_second_quantized(integrals: MolecularIntegrals) -> FermionOperator:
    """Assemble the electronic Hamiltonian over spin orbitals.

    H = E_const
      + sum_{pq,sigma} h[p,q] a^+_{p sigma} a_{q sigma}
      + 1/2 sum_{pqrs,sigma tau} (pr|qs) a^+_{p sigma} a^+_{q tau} a_{s tau} a_{r sigma}

    with spatial integrals in chemist notation; spin is conserved factorwise.
    Raw terms run over p, q (, r, s) and then the spins, each spatial
    coefficient below ``COEFF_PRUNE_THRESHOLD`` left out.
    """
    h, g = integrals.h, 0.5 * integrals.g.transpose(0, 2, 1, 3)  # g[p, q, r, s] = (pr|qs) / 2
    one = np.argwhere(np.abs(h) >= COEFF_PRUNE_THRESHOLD)  # rows (p, q), in loop order
    two = np.argwhere(np.abs(g) >= COEFF_PRUNE_THRESHOLD)  # rows (p, q, r, s)
    # spin orbitals 2p + spin: sigma for p and r, tau for q and s
    one_modes = 2 * one[:, None] + np.array([[0], [1]])
    two_modes = 2 * two[:, None, [0, 1, 3, 2]] + np.array([[0, 0, 0, 0], [0, 1, 1, 0],
                                                          [1, 0, 0, 1], [1, 1, 1, 1]])
    modes = np.concatenate([np.full((1, 4), -1),
                            np.pad(one_modes.reshape(-1, 2), ((0, 0), (0, 2)), constant_values=-1),
                            two_modes.reshape(-1, 4)])
    n_create = np.repeat([0, 1, 2], [1, 2 * len(one), 4 * len(two)])
    coeffs = np.concatenate([[float(integrals.constant_energy)],
                             h[tuple(one.T)].repeat(2), g[tuple(two.T)].repeat(4)])
    owner, n_modes = np.zeros(len(modes), dtype=np.int64), 2 * len(h)
    return FermionOperator(n_modes, _normal_order(n_modes, owner, modes, n_create, coeffs, 1)[0])


def _sum_runs(keys, coeffs, order=()):
    """Sum the coefficients of equal keys one by one, by ``order`` then array order."""
    perm = np.lexsort((*order, *keys[::-1]))
    keys, coeffs = [key[perm] for key in keys], coeffs[perm]
    first = np.ones(len(coeffs), dtype=bool)
    first[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    run = np.cumsum(first) - 1
    total = np.empty(first.sum(), dtype=np.complex128)
    total.real, total.imag = np.bincount(run, coeffs.real), np.bincount(run, coeffs.imag)
    return [key[first] for key in keys], total


def jordan_wigner_term_dicts(ops) -> list[dict[tuple[int, int], complex]]:
    """Expand each operator into {(x_mask, z_mask): complex coefficient}.

    a_j^+ = (X_j - iY_j)/2 * Z_0..Z_{j-1},  a_j = (X_j + iY_j)/2 * Z_0..Z_{j-1}.
    Terms of one length expand together on int64 masks: each factor splits
    every product into its X and Y half, times the phase rule of
    :func:`vqechem.paulis.pauli_multiply`. Equal strings sum as a per-product
    loop sums them: within a term after each repeated mode (only two products
    meet, so order cannot matter), then across one operator's terms in order.
    """
    if any(op.n_modes > 62 for op in ops):
        raise ShapeError("more than 62 modes do not fit int64 masks")
    terms = [item for op in ops for item in op.terms.items()]
    owner = np.repeat(np.arange(len(ops)), [len(op.terms) for op in ops])
    lengths, parts = np.array([len(term) for term, _ in terms], dtype=int), []
    for length in set(lengths.tolist()):
        index = np.flatnonzero(lengths == length)
        factors = np.array([terms[g][0] for g in index], dtype=np.int64)
        modes, creation = factors.reshape(len(index), length, 2).transpose(2, 0, 1)
        coeffs = np.array([terms[g][1] for g in index], dtype=np.complex128)
        tid, (x, z) = np.arange(len(index)), np.zeros((2, len(index)), dtype=np.int64)
        for j in range(length):  # x: one mask per term, the same in all its products
            tid, z1, coeffs = np.repeat(tid, 2), np.repeat(z, 2), np.repeat(coeffs, 2)
            y, x1, bit = np.tile(np.array([0, 1]), len(z)), x[tid], 1 << modes[tid, j]
            z = (bit - 1) | (bit * y)  # the X half (y = 0) and the Y half (y = 1)
            k = (np.bitwise_count(x1 & z1) + y + 2 * np.bitwise_count(z1 & bit)
                 - np.bitwise_count((x1 ^ bit) & (z1 ^ z)))
            half = np.where(y == 0, 0.5, np.where(creation[tid, j], -0.5j, 0.5j))
            coeffs, z = coeffs * half * np.array([1, 1j, -1, -1j])[k % 4], z1 ^ z
            x ^= 1 << modes[:, j]
            if (modes[:, :j] == modes[:, j:j + 1]).any():
                (tid, z), coeffs = _sum_runs((tid, z), coeffs)
        parts.append((index[tid], x[tid], z, coeffs))
    if not parts:
        return [{} for _ in ops]
    order, x, z, coeffs = (np.concatenate(column) for column in zip(*parts))
    (owner, x, z), coeffs = _sum_runs((owner[order], x, z), coeffs, (order,))
    keys, values = list(zip(x.tolist(), z.tolist())), coeffs.tolist()
    bounds = np.searchsorted(owner, np.arange(len(ops) + 1)).tolist()
    return [dict(zip(keys[a:b], values[a:b])) for a, b in zip(bounds, bounds[1:])]


def jordan_wigner_term_dict(op: FermionOperator) -> dict[tuple[int, int], complex]:
    """One operator's expansion; :func:`jordan_wigner` validates and realifies it."""
    return jordan_wigner_term_dicts([op])[0]


def jordan_wigner(op: FermionOperator) -> QubitHamiltonian:
    """Map a Hermitian fermionic operator to a qubit Hamiltonian.

    Imaginary residues below 1e-10 are discarded; anything larger means the
    input was not Hermitian and raises.
    """
    accum = jordan_wigner_term_dict(op)
    for key, c in accum.items():
        if abs(c.imag) > JW_IMAG_TOLERANCE:
            raise NonHermitianError(f"imaginary coefficient {c.imag:.3e} on term with masks {key}")
    return QubitHamiltonian.from_term_dict(op.n_modes, {key: c.real for key, c in accum.items()})
