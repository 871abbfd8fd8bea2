"""Second-quantized fermionic operators and the Jordan-Wigner transform.

Spin orbitals use the interleaved convention: spatial orbital ``i`` maps to
spin orbitals ``2i`` (alpha) and ``2i+1`` (beta). Operator terms are stored
normal ordered: all creations left of all annihilations, creation indices
strictly increasing, annihilation indices strictly decreasing.
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


def _normal_order_term(term: Term, coeff: float, out: dict) -> None:
    """Accumulate the normal-ordered expansion of ``coeff * term`` into out.

    Repeated swaps of adjacent factors using {a_p, a_q^+} = delta_pq,
    {a_p, a_q} = {a_p^+, a_q^+} = 0. Terminates because each swap either
    shortens the term or reduces its inversion count.
    """
    stack = [(list(term), coeff)]
    while stack:
        ops, c = stack.pop()
        swapped = True
        while swapped:
            swapped = False
            for k in range(len(ops) - 1):
                (p, dag_p), (q, dag_q) = ops[k], ops[k + 1]
                if not dag_p and dag_q:
                    # a_p a_q^+ = delta_pq - a_q^+ a_p
                    if p == q:
                        stack.append((ops[:k] + ops[k + 2 :], c))
                    ops[k], ops[k + 1] = ops[k + 1], ops[k]
                    c = -c
                    swapped = True
                elif dag_p == dag_q:
                    if p == q:
                        c = 0.0  # nilpotent
                        break
                    # sort creations ascending, annihilations descending
                    wrong = (dag_p and p > q) or (not dag_p and p < q)
                    if wrong:
                        ops[k], ops[k + 1] = ops[k + 1], ops[k]
                        c = -c
                        swapped = True
            if c == 0.0:
                break
        if c != 0.0:
            key = tuple(ops)
            out[key] = out.get(key, 0.0) + c


@dataclass(frozen=True)
class FermionOperator:
    """Real-coefficient linear combination of normal-ordered operator strings."""

    n_modes: int
    terms: dict[Term, float] = field(default_factory=dict)

    @classmethod
    def from_terms(cls, n_modes: int, raw_terms: dict[Term, float]) -> FermionOperator:
        """Normal order, combine like strings, drop zeros."""
        ordered: dict[Term, float] = {}
        for term, coeff in raw_terms.items():
            for mode, _ in term:
                if not 0 <= mode < n_modes:
                    raise ShapeError(f"mode {mode} outside 0..{n_modes - 1}")
            _normal_order_term(term, float(coeff), ordered)
        cleaned = {t: c for t, c in sorted(ordered.items()) if abs(c) > 0.0}
        return cls(n_modes, cleaned)

    @property
    def constant(self) -> float:
        return self.terms.get((), 0.0)


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
    """
    n = integrals.n_spatial_orbitals
    h, g = integrals.h, integrals.g
    raw: dict[Term, float] = {(): float(integrals.constant_energy)}

    def so(spatial: int, spin: int) -> int:
        return 2 * spatial + spin

    for p in range(n):
        for q in range(n):
            if abs(h[p, q]) < COEFF_PRUNE_THRESHOLD:
                continue
            for s in (0, 1):
                term = ((so(p, s), True), (so(q, s), False))
                raw[term] = raw.get(term, 0.0) + float(h[p, q])

    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    coeff = 0.5 * float(g[p, r, q, s])
                    if abs(coeff) < COEFF_PRUNE_THRESHOLD:
                        continue
                    for sp in (0, 1):
                        for tau in (0, 1):
                            term = (
                                (so(p, sp), True),
                                (so(q, tau), True),
                                (so(s, tau), False),
                                (so(r, sp), False),
                            )
                            raw[term] = raw.get(term, 0.0) + coeff

    return FermionOperator.from_terms(2 * n, raw)


def _sum_runs(keys, coeffs, order=()):
    """Sum the coefficients of equal keys one by one, by ``order`` then array order."""
    perm = np.lexsort((*order, *keys[::-1]))
    keys, coeffs = [key[perm] for key in keys], coeffs[perm]
    first = np.r_[True, np.any([key[1:] != key[:-1] for key in keys], axis=0)]
    run = np.cumsum(first) - 1
    total = np.empty(run[-1] + 1, dtype=np.complex128)
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
