"""Second-quantized fermionic operators and the Jordan-Wigner transform.

Spin orbitals use the interleaved convention: spatial orbital ``i`` maps to
spin orbitals ``2i`` (alpha) and ``2i+1`` (beta). Operator terms are stored
normal ordered: all creations left of all annihilations, creation indices
strictly increasing, annihilation indices strictly decreasing. Terms are
written creations first and reach that order by sorting alone: no
anticommutator is applied, and an annihilator left of a creator is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .exceptions import NonHermitianError, ShapeError
from .integrals import MolecularIntegrals
from .paulis import COEFF_PRUNE_THRESHOLD, QubitHamiltonian

JW_IMAG_TOLERANCE = 1e-10

# A term is a tuple of (mode, is_creation) factors; the empty term is the
# identity and carries the constant.
Term = tuple[tuple[int, bool], ...]


def _normal_order(n_modes: int, owner: np.ndarray, modes: np.ndarray, n_create: np.ndarray,
                  coeffs: np.ndarray, n_ops: int) -> list[FermionOperator]:
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
    codes, totals = np.stack(keys[1:], axis=1)[live], totals.real[live]
    bounds = np.searchsorted(keys[0][live], np.arange(n_ops + 1)).tolist()
    return [FermionOperator(n, codes[a:b], totals[a:b]) for a, b in zip(bounds, bounds[1:])]


def _factor_codes(n_modes: int, terms) -> np.ndarray:
    """Term tuples as rows of factor codes, 0-padded; a mode outside the register raises."""
    codes = np.zeros((len(terms), max([1, *map(len, terms)])), dtype=np.int64)
    for row, term in enumerate(terms):
        if not all(0 <= mode < n_modes for mode, _ in term):
            raise ShapeError(f"term {term} has a mode outside 0..{n_modes - 1}")
        codes[row, :len(term)] = [2 * mode + dagger + 1 for mode, dagger in term]
    return codes


@dataclass(frozen=True, eq=False)
class FermionOperator:
    """Real-coefficient linear combination of operator strings, stored as arrays.

    Row t of ``codes`` holds term t's factors in order, (mode m, creation d)
    as 2m + d + 1, then 0 padding; ``coeffs[t]`` is its coefficient.
    :meth:`from_terms`, :meth:`from_term_dicts` and
    :func:`build_second_quantized` store the terms normal ordered. ``terms``
    is a view of them as a dict, built on first use. ``n_electrons`` is the
    molecule's electron count, which :func:`build_second_quantized` records
    and :func:`jordan_wigner` passes on; None on other operators.
    """

    n_modes: int
    codes: np.ndarray
    coeffs: np.ndarray
    n_electrons: int | None = None

    @cached_property
    def terms(self) -> dict[Term, float]:
        """{term: coefficient}, in row order."""
        factor = [None] + [(m, dagger) for m in range(self.n_modes) for dagger in (False, True)]
        return {tuple(factor[c] for c in row if c): value
                for row, value in zip(self.codes.tolist(), self.coeffs.tolist())}

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
        codes = _factor_codes(n_modes, [term for _, term, _ in terms])
        creation = (codes > 0) & ((codes - 1) & 1 == 1)
        late = np.flatnonzero((creation[:, 1:] & ~creation[:, :-1]).any(axis=1))
        if late.size:
            raise ShapeError(f"term {terms[late[0]][1]} has an annihilator left of a creator")
        owner = np.array([op for op, _, _ in terms], dtype=np.int64)
        coeffs = np.array([c for _, _, c in terms], dtype=float)
        return _normal_order(n_modes, owner, (codes - 1) >> 1, creation.sum(axis=1), coeffs,
                             len(raw_term_dicts))


def build_second_quantized(integrals: MolecularIntegrals) -> FermionOperator:
    """Assemble the electronic Hamiltonian over spin orbitals.

    H = E_const
      + sum_{pq,sigma} h[p,q] a^+_{p sigma} a_{q sigma}
      + 1/2 sum_{pqrs,sigma tau} (pr|qs) a^+_{p sigma} a^+_{q tau} a_{s tau} a_{r sigma}

    with spatial integrals in chemist notation; spin is conserved factorwise.
    Raw terms run over p, q (, r, s) and then the spins, each spatial
    coefficient below ``COEFF_PRUNE_THRESHOLD`` left out. The operator carries
    ``integrals.n_electrons``.
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
    return replace(_normal_order(n_modes, owner, modes, n_create, coeffs, 1)[0],
                   n_electrons=integrals.n_electrons)


def _lexsort(keys) -> np.ndarray:
    """``np.lexsort(keys)`` for non-negative int64 keys, the last one primary.

    Keys are packed by their bit lengths into 63-bit words, least
    significant first, as many to a word as fit; each word takes one stable
    argsort where ``np.lexsort`` takes one per key.
    """
    perm, word, shift = np.arange(len(keys[0])), 0, 0
    for key in keys:
        bits = int(key.max(initial=0)).bit_length()
        if shift + bits > 63:
            perm, word, shift = perm[np.argsort(word[perm], kind="stable")], 0, 0
        word, shift = word | key << shift, shift + bits
    return perm[np.argsort(word[perm], kind="stable")] if shift else perm


def _sum_runs(keys, coeffs, order=()):
    """Sum the coefficients of equal keys one by one, by ``order`` then array order.

    One :func:`_lexsort` orders the terms: ``keys`` (the first primary) and
    ``order`` must be non-negative.
    """
    perm = _lexsort((*order, *keys[::-1]))
    keys, coeffs = [key[perm] for key in keys], coeffs[perm]
    first = np.ones(len(coeffs), dtype=bool)
    first[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    run = np.cumsum(first) - 1
    total = np.empty(first.sum(), dtype=np.complex128)
    total.real, total.imag = np.bincount(run, coeffs.real), np.bincount(run, coeffs.imag)
    return [key[first] for key in keys], total


def jordan_wigner_expansions(ops) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Expand each operator into Pauli strings: (x masks, z masks, complex coefficients),
    sorted by (x, z).

    a_j^+ = (X_j - iY_j)/2 * Z_0..Z_{j-1},  a_j = (X_j + iY_j)/2 * Z_0..Z_{j-1}.
    Terms of one length expand together on int64 masks: each factor splits
    every product into its X and Y half, times the phase of the Pauli product
    a b, i^k with k = #Y(a) + #Y(b) + 2 popcount(z_a & x_b) - #Y(ab). Equal
    strings sum as a per-product loop sums them: within a term after each
    repeated mode (only two products meet, so order cannot matter), then
    across one operator's terms in order.
    """
    if any(op.n_modes > 62 for op in ops):
        raise ShapeError("more than 62 modes do not fit int64 masks")
    if not ops:
        return []
    sizes = [len(op.coeffs) for op in ops]
    all_codes = np.zeros((sum(sizes), max(op.codes.shape[1] for op in ops)), dtype=np.int64)
    for op, start in zip(ops, np.cumsum([0, *sizes]).tolist()):
        all_codes[start:start + len(op.coeffs), :op.codes.shape[1]] = op.codes
    all_coeffs = np.concatenate([op.coeffs for op in ops])
    owner = np.repeat(np.arange(len(ops)), sizes)
    empty = np.zeros(0, dtype=np.int64)
    lengths, parts = np.count_nonzero(all_codes, axis=1), [(empty, empty, empty, empty + 0j)]
    for length in np.unique(lengths).tolist():
        index = np.flatnonzero(lengths == length)
        factors = all_codes[index, :length] - 1
        modes, creation = factors >> 1, factors & 1
        coeffs = all_coeffs[index].astype(np.complex128)
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
    order, x, z, coeffs = (np.concatenate(column) for column in zip(*parts))
    (owner, x, z), coeffs = _sum_runs((owner[order], x, z), coeffs, (order,))
    bounds = np.searchsorted(owner, np.arange(len(ops) + 1)).tolist()
    return [(x[a:b], z[a:b], coeffs[a:b]) for a, b in zip(bounds, bounds[1:])]


def jordan_wigner(op: FermionOperator) -> QubitHamiltonian:
    """Map a Hermitian fermionic operator to a qubit Hamiltonian with its electron count.

    Imaginary residues below 1e-10 are discarded; anything larger means the
    input was not Hermitian and raises.
    """
    [(x, z, coeffs)] = jordan_wigner_expansions([op])
    large = np.flatnonzero(np.abs(coeffs.imag) > JW_IMAG_TOLERANCE)
    if large.size:
        k = large[0]
        raise NonHermitianError(f"imaginary coefficient {coeffs[k].imag:.3e} on term with "
                                f"masks {(int(x[k]), int(z[k]))}")
    return QubitHamiltonian.from_arrays(op.n_modes, x, z, coeffs.real, op.n_electrons)
