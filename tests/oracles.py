"""Independent brute-force oracles used across the test suite.

Everything here deliberately avoids the package's bitmask/JW code paths:
dense matrices come from explicit Kronecker products, fermionic operators
from occupation-number sign bookkeeping, and FCI energies from
Slater-Condon rules over explicit determinants.
"""

import functools
import itertools
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}

# ---------------------------------------------------------------------------
# H2 / STO-3G reference values from outside the package

# hydrogen atom in STO-3G (zeta = 1.24): closed-form minimal-basis energy,
# Szabo & Ostlund, Modern Quantum Chemistry, ch. 3; the separated-atom
# limit of H2 in this basis is twice this value
STO3G_H_ATOM_ENERGY = -0.46658185
# published full-CI total energy, H2/STO-3G at 0.735 Angstrom (same source
# as the RHF value -1.116998996754 pinned in test_integrals.py)
STO3G_H2_FCI_0735 = -1.137306
HARTREE_TO_KCALMOL = 627.509474
# full-CI well depth of H2/STO-3G as R -> infinity, 128.10 kcal/mol
STO3G_H2_WELL_DEPTH = (2 * STO3G_H_ATOM_ENERGY - STO3G_H2_FCI_0735) * HARTREE_TO_KCALMOL


def pauli_matrix(letters: str) -> np.ndarray:
    """Dense matrix for a letter string, little-endian (qubit 0 = LSB)."""
    mat = np.array([[1.0 + 0j]])
    for letter in letters:  # qubit 0 first => it must be the innermost factor
        mat = np.kron(PAULI[letter], mat)
    return mat


def pauli_multiply(a, b):
    """Product a·b of two PauliStrings as (phase, string) with phase in {1, -1, 1j, -1j}.

    Writing each single-qubit Pauli as i^{xz} X^x Z^z, the product phase
    exponent per qubit is x1*z1 + x2*z2 + 2*z1*x2 - (x1^x2)*(z1^z2) mod 4.
    """
    from vqechem.exceptions import ShapeError
    from vqechem.paulis import PauliString

    if a.n_qubits != b.n_qubits:
        raise ShapeError(f"qubit counts differ: {a.n_qubits} != {b.n_qubits}")
    x1, z1, x2, z2 = a.x_mask, a.z_mask, b.x_mask, b.z_mask
    x, z = x1 ^ x2, z1 ^ z2
    k = (
        int(x1 & z1).bit_count()
        + int(x2 & z2).bit_count()
        + 2 * int(z1 & x2).bit_count()
        - int(x & z).bit_count()
    ) % 4
    return (1, 1j, -1, -1j)[k], PauliString(a.n_qubits, x, z)


def commutes_qubitwise(a, b) -> bool:
    """True iff at every qubit the letters of two PauliStrings are equal or at least one is I."""
    from vqechem.exceptions import ShapeError

    if a.n_qubits != b.n_qubits:
        raise ShapeError(f"qubit counts differ: {a.n_qubits} != {b.n_qubits}")
    both = a.support_mask & b.support_mask
    return (a.x_mask ^ b.x_mask) & both == 0 and (a.z_mask ^ b.z_mask) & both == 0


def hamiltonian_from_term_dict(n_qubits: int, coeffs: dict, n_electrons=None):
    """A QubitHamiltonian from {(x_mask, z_mask): weight}, one PauliString per term,
    carrying ``n_electrons``.

    Weights below the prune threshold are dropped (a non-finite one is kept,
    so the constructor refuses it); the constructor sorts the rest.
    """
    from vqechem.paulis import COEFF_PRUNE_THRESHOLD, PauliString, QubitHamiltonian

    kept = [(float(w), PauliString(n_qubits, x, z)) for (x, z), w in coeffs.items()
            if not abs(w) < COEFF_PRUNE_THRESHOLD]
    return QubitHamiltonian(n_qubits, kept, n_electrons)


def hamiltonian_matrix(hamiltonian) -> np.ndarray:
    dim = 1 << hamiltonian.n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for weight, pauli in hamiltonian.terms:
        total += weight * pauli_matrix(pauli.to_letters())
    return total


def apply_x_mask_by_x_mask(operator, states, vec) -> np.ndarray:
    """H @ vec summed row by row: out = 0, then out += D_x * vec[partner] for each
    x-mask x of the compiled ``operator`` on the ascending ``states``, in ascending
    order, with D_x and partner laid out by target from x's entries (0 and state 0
    where it stores none): the reference for the summation order of
    ``CompiledOperator.apply``."""
    states = np.asarray(states)
    masks = states[operator.targets] ^ states[operator.sources]
    out = np.zeros(operator.dim, dtype=np.result_type(operator.values, vec))
    for mask in np.unique(masks):
        entries = masks == mask
        diagonal = np.zeros(operator.dim, dtype=operator.values.dtype)
        partner = np.zeros(operator.dim, dtype=np.intp)
        diagonal[operator.targets[entries]] = operator.values[entries]
        partner[operator.targets[entries]] = operator.sources[entries]
        out += diagonal * vec[partner]
    return out


def spin_counts(n_qubits: int, index: int) -> tuple[int, int]:
    """(N_alpha, N_beta) of a basis state: its set even and odd qubits."""
    return (sum((index >> q) & 1 for q in range(0, n_qubits, 2)),
            sum((index >> q) & 1 for q in range(1, n_qubits, 2)))


def sector_energy(matrix: np.ndarray, n_alpha: int, n_beta: int) -> float:
    """Lowest eigenvalue of a dense qubit matrix on one (N_alpha, N_beta) sector.

    The sector holds the basis states with ``n_alpha`` even (alpha) and
    ``n_beta`` odd (beta) qubits set; ``matrix`` is 2**n x 2**n, as from
    :func:`hamiltonian_matrix`.
    """
    n = matrix.shape[0].bit_length() - 1
    states = [b for b in range(1 << n) if spin_counts(n, b) == (n_alpha, n_beta)]
    return float(np.linalg.eigvalsh(matrix[np.ix_(states, states)])[0])


def eigenvector_sector(amplitudes: np.ndarray) -> tuple[int, int] | None:
    """The (N_alpha, N_beta) of every basis state a vector occupies, or None
    when they hold more than one."""
    n = len(amplitudes).bit_length() - 1
    sectors = {spin_counts(n, b) for b in np.flatnonzero(amplitudes).tolist()}
    return sectors.pop() if len(sectors) == 1 else None


@functools.cache
def sector_labels(n_qubits: int) -> np.ndarray:
    """The (N_alpha, N_beta) of every basis state, one row each, by :func:`spin_counts`."""
    return np.array([spin_counts(n_qubits, b) for b in range(1 << n_qubits)]).reshape(-1, 2)


def lowest_energy_of_every_block(hamiltonian) -> dict:
    """{(N_alpha, N_beta): lowest eigenvalue} of every block of a Hamiltonian that
    conserves both, each block compiled on its states and solved by dense ``eigh``,
    in label order: the Fock-space spectrum where the Kronecker matrix is too large
    (the 12-qubit fixture's largest block holds 400 states, its register 4096)."""
    labels, energies = sector_labels(hamiltonian.n_qubits), {}
    for sector in sorted(set(map(tuple, labels.tolist()))):
        block = hamiltonian.compile(np.flatnonzero((labels == sector).all(axis=1)))
        assert block.leak < 1e-12, f"the Hamiltonian joins {sector} to another block"
        energies[sector] = float(np.linalg.eigvalsh(block.dense())[0])
    return energies


def annihilation_matrices(n_modes: int, sparse: bool = False) -> list:
    """a_p in the occupation basis with fermionic signs.

    a_p |n> = (-1)^(sum of occupations below p) |n without p> when bit p is
    set, else 0. Index convention matches the simulator (mode p = bit p).
    """
    from scipy.sparse import csr_matrix

    dim = 1 << n_modes
    ops = []
    for p in range(n_modes):
        rows, cols, vals = [], [], []
        for state in range(dim):
            if (state >> p) & 1:
                sign = (-1) ** int(bin(state & ((1 << p) - 1)).count("1"))
                rows.append(state ^ (1 << p))
                cols.append(state)
                vals.append(float(sign))
        mat = csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)
        ops.append(mat if sparse else mat.toarray())
    return ops


def number_operator(n_modes: int):
    """Total particle number, sum over modes of a_p^+ a_p, as a FermionOperator."""
    from vqechem.fermions import FermionOperator

    return FermionOperator.from_terms(
        n_modes, {((p, True), (p, False)): 1.0 for p in range(n_modes)}
    )


def fermion_operator(n_modes: int, terms: dict):
    """A FermionOperator holding {term: coefficient} as given, not normal ordered."""
    from vqechem.fermions import FermionOperator, _factor_codes

    return FermionOperator(n_modes, _factor_codes(n_modes, list(terms)),
                           np.array(list(terms.values()), dtype=float))


def fermion_operator_matrix(op) -> np.ndarray:
    """Dense matrix of a FermionOperator via explicit mode matrices.

    Products are taken in sparse form (each ladder matrix has one entry
    per column) so many-term operators stay tractable.
    """
    from scipy.sparse import csr_matrix, identity

    lowering = annihilation_matrices(op.n_modes, sparse=True)
    dim = 1 << op.n_modes
    total = csr_matrix((dim, dim), dtype=complex)
    for term, coeff in op.terms.items():
        mat = identity(dim, dtype=complex, format="csr")
        for mode, dagger in term:
            factor = lowering[mode].conj().T.tocsr() if dagger else lowering[mode]
            mat = mat @ factor
        total = total + coeff * mat
    return total.toarray()


def _normal_order_term(term, coeff: float, out: dict) -> None:
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


def normal_ordered_terms(raw_terms: dict) -> dict:
    """{term: coefficient} of a sum of ladder-operator products, normal ordered.

    Any factor order is accepted: adjacent factors are swapped one pair at a
    time by the anticommutation rules, equal terms are summed into a dict in
    input order, and the result is sorted by term with zeros dropped.
    """
    ordered: dict = {}
    for term, coeff in raw_terms.items():
        _normal_order_term(term, float(coeff), ordered)
    return {t: c for t, c in sorted(ordered.items()) if abs(c) > 0.0}


def second_quantized_terms(integrals) -> dict:
    """The spin-orbital Hamiltonian's normal-ordered terms, one loop index at a time.

    Raw terms run over p, q (, r, s) and then the spins, each spatial
    coefficient below the prune threshold left out, and go through
    :func:`normal_ordered_terms`.
    """
    from vqechem.paulis import COEFF_PRUNE_THRESHOLD

    n = integrals.n_spatial_orbitals
    h, g = integrals.h, integrals.g
    raw = {(): float(integrals.constant_energy)}
    for p in range(n):
        for q in range(n):
            if abs(h[p, q]) < COEFF_PRUNE_THRESHOLD:
                continue
            for s in (0, 1):
                raw[((2 * p + s, True), (2 * q + s, False))] = float(h[p, q])
    for p, q, r, s in itertools.product(range(n), repeat=4):
        coeff = 0.5 * float(g[p, r, q, s])
        if abs(coeff) < COEFF_PRUNE_THRESHOLD:
            continue
        for sigma, tau in itertools.product((0, 1), repeat=2):
            raw[((2 * p + sigma, True), (2 * q + tau, True),
                 (2 * s + tau, False), (2 * r + sigma, False))] = coeff
    return normal_ordered_terms(raw)


def jordan_wigner_terms(op) -> dict:
    """{(x_mask, z_mask): complex} of an operator, one Pauli product at a time.

    a_j^+ = (X_j - iY_j)/2 * Z_0..Z_{j-1},  a_j = (X_j + iY_j)/2 * Z_0..Z_{j-1}.
    Each term's partial sum is multiplied on the right by both halves of its
    next factor and merged after every factor; the terms' sums then add up
    in dict order.
    """
    from vqechem.paulis import PauliString

    accum: dict = {}
    for term, coeff in op.terms.items():
        partial = {(0, 0): complex(coeff)}
        for mode, dag in term:
            bit, chain = 1 << mode, (1 << mode) - 1
            halves = ((0.5, bit, chain), ((-0.5j if dag else 0.5j), bit, chain | bit))
            nxt: dict = {}
            for (x1, z1), c1 in partial.items():
                for c2, x2, z2 in halves:
                    phase, prod = pauli_multiply(
                        PauliString(op.n_modes, x1, z1), PauliString(op.n_modes, x2, z2))
                    key = (prod.x_mask, prod.z_mask)
                    nxt[key] = nxt.get(key, 0.0) + c1 * c2 * phase
            partial = nxt
        for key, c in partial.items():
            accum[key] = accum.get(key, 0.0) + c
    return accum


def jordan_wigner_term_dicts(ops) -> list:
    """{(x_mask, z_mask): complex} of each operator from the package's array
    expansion, ``fermions.jordan_wigner_expansions``: the form
    :func:`jordan_wigner_terms` returns, to compare the two."""
    from vqechem.fermions import jordan_wigner_expansions

    return [dict(zip(zip(x.tolist(), z.tolist()), coeffs.tolist()))
            for x, z, coeffs in jordan_wigner_expansions(ops)]


def jordan_wigner_term_dict(op) -> dict:
    return jordan_wigner_term_dicts([op])[0]


# ---------------------------------------------------------------------------
# sampled energy estimation, one group at a time

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# rotate the measurement axis onto Z: H for X, H S^+ for Y
BASIS_CHANGE = {
    "X": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex),
    "Y": np.array([[_SQRT_HALF, -1j * _SQRT_HALF], [_SQRT_HALF, 1j * _SQRT_HALF]], dtype=complex),
}


def apply_single_qubit(amplitudes, qubit: int, matrix) -> np.ndarray:
    """A 2x2 matrix applied to one qubit of an amplitude vector, by einsum."""
    n = amplitudes.shape[0]
    work = amplitudes.reshape(n >> (qubit + 1), 2, 1 << qubit)
    out = np.einsum("ab,ibj->iaj", matrix, work)
    return np.ascontiguousarray(out).reshape(n)


def group_probabilities(state, basis: str) -> np.ndarray:
    """Outcome probabilities in a group's basis, one letter's rotation at a time."""
    amplitudes = state.amplitudes
    for q, letter in enumerate(basis):
        if letter in BASIS_CHANGE:
            amplitudes = apply_single_qubit(amplitudes, q, BASIS_CHANGE[letter])
    return np.abs(amplitudes) ** 2


def sample_counts(probabilities, n_shots: int, seeds) -> np.ndarray:
    """One ``default_rng(seed)`` multinomial draw per row, each row normalized
    to its sum: the reference for the seeded draws of ``simulator.sample_counts``."""
    totals = probabilities.sum(axis=-1, keepdims=True)
    rows = (probabilities / totals).reshape(-1, probabilities.shape[-1])
    counts = np.empty(rows.shape, dtype=np.int64)
    for row, seed in enumerate([seeds] if probabilities.ndim == 1 else seeds):
        counts[row] = np.random.default_rng(seed).multinomial(n_shots, rows[row])
    return counts.reshape(probabilities.shape)


def sampled_energy(state, hamiltonian, groups, shots: int, seed: int):
    """The grouped sampled estimator group by group and term by term.

    One seeded draw per group (``default_rng(seed + group index)``), a bit
    count per term over the drawn outcomes and scalar accumulation in group
    order: each group's identity weight, then its other terms.
    """
    from vqechem.measurement import EnergyEstimate

    energy = variance = 0.0
    shots_used = 0
    for gid, group in enumerate(groups):
        terms = [hamiltonian.terms[i] for i in group.term_indices]
        energy += sum(w for w, p in terms if p.support_mask == 0)
        sampled = [(w, p) for w, p in terms if p.support_mask != 0]
        if not sampled:
            continue
        p = group_probabilities(state, group.basis)
        counts = np.random.default_rng(seed + gid).multinomial(shots, p / p.sum())
        shots_used += shots
        drawn = [(b, int(n)) for b, n in enumerate(counts) if n]
        for weight, pauli in sampled:
            total = sum(n * (-1) ** bin(b & pauli.support_mask).count("1") for b, n in drawn)
            mean = total / shots
            energy += weight * mean
            variance += weight * weight * max(0.0, 1.0 - mean * mean) / shots
    return EnergyEstimate(energy, math.sqrt(variance), shots_used)


# ---------------------------------------------------------------------------
# determinant-basis FCI via Slater-Condon rules


def _spin_orbital_tensors(integrals):
    n = integrals.n_spatial_orbitals
    n_so = 2 * n
    h_so = np.zeros((n_so, n_so))
    for p in range(n):
        for q in range(n):
            h_so[2 * p, 2 * q] = integrals.h[p, q]
            h_so[2 * p + 1, 2 * q + 1] = integrals.h[p, q]
    # physicist <PQ|RS> = (pr|qs) with matching spins, then antisymmetrize
    phys = np.zeros((n_so,) * 4)
    for p in range(n_so):
        for q in range(n_so):
            for r in range(n_so):
                for s in range(n_so):
                    if p % 2 == r % 2 and q % 2 == s % 2:
                        phys[p, q, r, s] = integrals.g[p // 2, r // 2, q // 2, s // 2]
    anti = phys - phys.transpose(0, 1, 3, 2)
    return h_so, anti


def _single_phase(occupied: tuple, p: int, r: int) -> int:
    lo, hi = min(p, r), max(p, r)
    crossings = sum(1 for q in occupied if lo < q < hi)
    return -1 if crossings % 2 else 1


def determinant_fci(integrals, n_electrons: int, require_doubly_occupied=()):
    """Lowest eigenvalue over all determinants with ``n_electrons`` electrons.

    ``require_doubly_occupied`` restricts the determinant basis to those
    with the listed spatial orbitals doubly occupied (projected FCI).
    """
    n_so = 2 * integrals.n_spatial_orbitals
    h_so, anti = _spin_orbital_tensors(integrals)

    dets = []
    for det in itertools.combinations(range(n_so), n_electrons):
        occ = set(det)
        if all(2 * c in occ and 2 * c + 1 in occ for c in require_doubly_occupied):
            dets.append(det)
    dim = len(dets)
    index = {d: i for i, d in enumerate(dets)}
    mat = np.zeros((dim, dim))

    for det in dets:
        i = index[det]
        occ = set(det)
        diag = sum(h_so[p, p] for p in det)
        diag += 0.5 * sum(anti[p, q, p, q] for p in det for q in det)
        mat[i, i] = diag

        virtuals = [a for a in range(n_so) if a not in occ]
        # singles
        for p in det:
            for r in virtuals:
                new = tuple(sorted(occ - {p} | {r}))
                j = index.get(new)
                if j is None:
                    continue
                phase = _single_phase(det, p, r)
                value = h_so[p, r] + sum(anti[p, q, r, q] for q in occ if q != p)
                mat[i, j] = phase * value
        # doubles
        for p, q in itertools.combinations(det, 2):
            for r, s in itertools.combinations(virtuals, 2):
                new = tuple(sorted(occ - {p, q} | {r, s}))
                j = index.get(new)
                if j is None:
                    continue
                phase1 = _single_phase(det, p, r)
                intermediate = tuple(sorted(occ - {p} | {r}))
                phase2 = _single_phase(intermediate, q, s)
                mat[i, j] = phase1 * phase2 * anti[p, q, r, s]

    evals = np.linalg.eigvalsh(mat)
    return float(evals[0]) + integrals.constant_energy


# ---------------------------------------------------------------------------
# dense circuit unitaries


def _embed_cz(n: int, control: int, target: int) -> np.ndarray:
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for state in range(dim):
        both = (state >> control) & 1 and (state >> target) & 1
        mat[state, state] = -1.0 if both else 1.0
    return mat


def resolved_angle(gate, parameters) -> float:
    """The gate's rotation angle: its multiplier times its parameter, or its bound angle."""
    if gate.slot is None:
        return gate.angle
    return gate.angle * parameters[gate.slot]


def gate_unitary(gate, n_qubits: int, parameters) -> np.ndarray:
    from scipy.linalg import expm

    if gate.kind == "ry":
        (q,) = gate.qubits
        local = expm(-0.5j * resolved_angle(gate, parameters) * Y)
        mat = np.array([[1.0 + 0j]])
        for pos in range(n_qubits):
            mat = np.kron(local if pos == q else I2, mat)
        return mat
    if gate.kind == "cz":
        control, target = gate.qubits
        return _embed_cz(n_qubits, control, target)
    # pauli_rot
    theta = resolved_angle(gate, parameters)
    return expm(-0.5j * theta * hamiltonian_matrix(gate.generator))


def circuit_unitary(circuit, parameters) -> np.ndarray:
    dim = 1 << circuit.n_qubits
    total = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        total = gate_unitary(gate, circuit.n_qubits, parameters) @ total
    return total


def register_tables(circuit) -> list:
    """Per gate, None for ry and cz; for a pauli_rot about G, whose strings share
    one x-mask x, its (rows, partner, phase) on all 2**n basis states: the rows c
    where |G[c, c ^ x]| is 1, partner = rows ^ x and phase = -i G[rows, partner],
    complex. Each string's entry is the product over qubits of its Pauli
    matrices' entries, the entry of their Kronecker product."""
    index = np.arange(1 << circuit.n_qubits)
    tables = []
    for gate in circuit.gates:
        if gate.kind != "pauli_rot":
            tables.append(None)
            continue
        partner = index ^ gate.generator.terms[0][1].x_mask
        entry = np.zeros(len(index), dtype=complex)
        for weight, pauli in gate.generator.terms:
            value = np.full(len(index), weight, dtype=complex)
            for q, letter in enumerate(pauli.to_letters()):  # qubit 0 first
                value *= PAULI[letter][(index >> q) & 1, (partner >> q) & 1]
            entry += value
        rows = np.flatnonzero(np.abs(entry) > 0.5)
        tables.append((rows, partner[rows], -1j * entry[rows]))
    return tables


def apply_circuit_per_gate(amplitudes, circuit, parameters) -> np.ndarray:
    """The circuit on 2**n complex amplitudes, one scalar cos/sin per gate, its
    rotations from ``register_tables``: the reference for the simulator's single
    cos/sin call and its sector states."""
    from vqechem.simulator import update_qubit

    amplitudes = np.asarray(amplitudes).astype(np.complex128, copy=True)
    for gate, table in zip(circuit.gates, register_tables(circuit)):
        if gate.kind == "cz":
            lo, hi = sorted(gate.qubits)
            both = amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)[:, 1, :, 1, :]
            np.negative(both, out=both)
            continue
        half = 0.5 * resolved_angle(gate, parameters)
        c, s = np.cos(half), np.sin(half)
        if gate.kind == "ry":
            update_qubit(amplitudes.reshape(1, -1), gate.qubits[0], 0,
                         np.array([[c, -s], [s, c]]))
        else:
            rows, partner, phase = table
            amplitudes[rows] = c * amplitudes[rows] + s * (phase * amplitudes[partner])
    return amplitudes


def restrict_by_remap(circuit, states):
    """The circuit's ``register_tables`` on the ascending basis ``states``, mapped to
    local indices through a 2**n array and real where they can be; None unless
    every gate is a pauli_rot whose rows in ``states`` all have their partner
    there: the reference for the rotation tables ``Circuit.restrict`` compiles on
    states (its ry and cz tables are checked against Y_q and by sign)."""
    from vqechem.paulis import real_if_exact

    local = np.full(1 << circuit.n_qubits, -1)
    local[states] = np.arange(len(states))
    tables = []
    for table in register_tables(circuit):
        if table is None:  # ry or cz
            return None
        rows, partner, phase = table
        inside = local[rows] >= 0
        moved = local[partner[inside]]
        if np.any(moved < 0):
            return None
        tables.append((local[rows][inside], moved, real_if_exact(phase[inside])))
    return tuple(tables)


def sector_states_by_labels(n_qubits: int, index: int) -> np.ndarray:
    """The basis states whose (N_alpha, N_beta) equals that of ``index``, found by
    labelling the whole register: the reference for ``simulator.sector_states``."""
    labels = sector_labels(n_qubits)
    return np.flatnonzero((labels == labels[index]).all(axis=1))


def full_register_objective(hamiltonian, circuit, hf_occupied):
    """theta -> <psi(theta)|H|psi(theta)> on the whole register in complex
    arithmetic: the reference for the exact objective on the Hartree-Fock sector."""
    from vqechem.simulator import prepare_hf

    reference = prepare_hf(hamiltonian.n_qubits, hf_occupied).amplitudes
    operator = hamiltonian.compile()

    def objective(theta):
        psi = apply_circuit_per_gate(reference, circuit, np.asarray(theta, dtype=float))
        value = operator.expectation(psi)
        assert abs(value.imag) <= 1e-10
        return float(value.real)

    return objective


def group_commuting_loop(hamiltonian) -> list:
    """Greedy qubit-wise grouping, one vertex at a time over a color array:
    the reference for the per-color masks of ``measurement.group_commuting``.

    Vertices in order of decreasing degree (ties by term index) take the
    smallest color none of their neighbors holds.
    """
    from vqechem.measurement import MeasurementGroup
    from vqechem.paulis import PauliString

    n_qubits = hamiltonian.n_qubits
    dtype = np.min_scalar_type((1 << n_qubits) - 1)
    x = np.array([p.x_mask for _, p in hamiltonian.terms], dtype=dtype)
    z = np.array([p.z_mask for _, p in hamiltonian.terms], dtype=dtype)
    support = x | z
    conflict = (((x[:, None] ^ x) | (z[:, None] ^ z)) & (support[:, None] & support)) != 0

    order = np.argsort(-conflict.sum(axis=1), kind="stable")
    color = np.full(hamiltonian.n_terms, -1)
    n_colors = 0
    for vertex in order:
        neighbors = color[conflict[vertex]]
        taken = np.zeros(n_colors + 1, dtype=bool)
        taken[neighbors[neighbors >= 0]] = True
        c = int(np.argmin(taken))  # the first color not taken
        color[vertex] = c
        n_colors = max(n_colors, c + 1)

    groups = []
    for c in range(n_colors):
        members = np.flatnonzero(color == c)
        basis = PauliString(n_qubits, int(np.bitwise_or.reduce(x[members])),
                            int(np.bitwise_or.reduce(z[members])))
        groups.append(MeasurementGroup(tuple(members.tolist()), basis.to_letters()))
    return groups


def group_commuting_blocked(hamiltonian) -> list:
    """Greedy qubit-wise grouping read from ``terms``, one PauliString per
    vertex: the masks gathered string by string, the degrees summed, and one
    row of blocked vertices per color updated a vertex at a time. The
    reference for the array form of ``measurement.group_commuting``.
    """
    from vqechem.measurement import MeasurementGroup
    from vqechem.paulis import PauliString

    n_qubits, n = hamiltonian.n_qubits, hamiltonian.n_terms
    dtype = np.min_scalar_type((1 << n_qubits) - 1)
    x = np.array([p.x_mask for _, p in hamiltonian.terms], dtype=dtype)
    z = np.array([p.z_mask for _, p in hamiltonian.terms], dtype=dtype)
    support = x | z
    conflict = (((x[:, None] ^ x) | (z[:, None] ^ z)) & (support[:, None] & support)) != 0

    order = np.argsort(-conflict.sum(axis=1), kind="stable")
    blocked = np.zeros((n, n), dtype=bool)  # blocked[c, v]: v has a neighbor of color c
    color, n_colors = np.empty(n, dtype=np.intp), 0
    for vertex in order:
        c = color[vertex] = np.argmin(blocked[:n_colors + 1, vertex])
        np.logical_or(blocked[c], conflict[vertex], out=blocked[c])
        n_colors = max(n_colors, c + 1)

    members = np.argsort(color, kind="stable")
    starts = np.flatnonzero(np.diff(color[members], prepend=-1))
    x_or, z_or = (np.bitwise_or.reduceat(m[members], starts).tolist() for m in (x, z))
    ids, bounds = members.tolist(), [*starts.tolist(), n]
    return [MeasurementGroup(tuple(ids[a:b]), PauliString(n_qubits, xm, zm).to_letters())
            for a, b, xm, zm in zip(bounds, bounds[1:], x_or, z_or)]


def exact_k_colorable(adjacency: list, k: int) -> bool:
    """Backtracking k-colorability with canonical color introduction."""
    n = len(adjacency)
    order = sorted(range(n), key=lambda v: -len(adjacency[v]))
    colors = {}

    def assign(idx: int, used: int) -> bool:
        if idx == n:
            return True
        vertex = order[idx]
        banned = {colors[u] for u in adjacency[vertex] if u in colors}
        for c in range(min(used + 1, k)):
            if c in banned:
                continue
            colors[vertex] = c
            if assign(idx + 1, max(used, c + 1)):
                return True
            del colors[vertex]
        return False

    return assign(0, 0)


def chromatic_number(adjacency: list) -> int:
    for k in range(1, len(adjacency) + 1):
        if exact_k_colorable(adjacency, k):
            return k
    return len(adjacency)


def f0_quadrature(x: float) -> float:
    """Boys F0 by direct quadrature of its integral definition."""
    from scipy.integrate import quad

    value, _ = quad(lambda t: math.exp(-x * t * t), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return value


def boys_f0_scalar(x: float) -> float:
    """Boys F0 of one float by the error-function closed form, 1.0 at x <= 1e-12."""
    if x > 1e-12:
        return 0.5 * math.sqrt(math.pi / x) * math.erf(math.sqrt(x))
    return 1.0


def ao_integrals_loop(molecule):
    """STO-3G s-orbital integrals by the closed-form loop over primitives.

    The Gaussian product formulas of Szabo & Ostlund, ch. 3, evaluated one
    primitive quartet at a time with scalar Boys calls: the reference that
    ``compute_ao_integrals`` must match bit for bit.
    """
    from vqechem.integrals import AOIntegrals, _s_primitive_norm, nuclear_repulsion

    e_nuc = nuclear_repulsion(molecule)
    # hydrogen 1s STO-3G, written out apart from the package's constants: Hehre,
    # Stewart & Pople, J. Chem. Phys. 51, 2657 (1969), Slater zeta 1.24
    exps = np.array([3.425250914, 0.6239137298, 0.168855404])
    raw_coeffs = np.array([0.1543289673, 0.5353281423, 0.4446345422])

    centers = [np.asarray(xyz, dtype=float) for _, _, xyz in molecule.atoms]
    weights = raw_coeffs * np.array([_s_primitive_norm(a) for a in exps])
    self_overlap = 0.0
    for ci, ai in zip(weights, exps):
        for cj, aj in zip(weights, exps):
            self_overlap += ci * cj * (math.pi / (ai + aj)) ** 1.5
    weights = weights / math.sqrt(self_overlap)

    n_ao = len(centers)
    S = np.zeros((n_ao, n_ao))
    T = np.zeros((n_ao, n_ao))
    V = np.zeros((n_ao, n_ao))
    eri = np.zeros((n_ao, n_ao, n_ao, n_ao))

    def pair_terms(a_idx, b_idx):
        """Gaussian product data for every primitive pair of two AOs."""
        ra, rb = centers[a_idx], centers[b_idx]
        rab2 = float(np.dot(ra - rb, ra - rb))
        for ca, aa in zip(weights, exps):
            for cb, ab in zip(weights, exps):
                p = aa + ab
                mu = aa * ab / p
                pref = ca * cb * math.exp(-mu * rab2)
                center = (aa * ra + ab * rb) / p
                yield pref, p, mu, rab2, center

    for a in range(n_ao):
        for b in range(a, n_ao):
            s = t = v = 0.0
            for pref, p, mu, rab2, rp in pair_terms(a, b):
                gauss = (math.pi / p) ** 1.5
                s += pref * gauss
                t += pref * mu * (3.0 - 2.0 * mu * rab2) * gauss
                for _, z, rc in molecule.atoms:
                    dist2 = float(np.dot(rp - rc, rp - rc))
                    v -= pref * z * (2.0 * math.pi / p) * boys_f0_scalar(p * dist2)
            S[a, b] = S[b, a] = s
            T[a, b] = T[b, a] = t
            V[a, b] = V[b, a] = v

    for a in range(n_ao):
        for b in range(n_ao):
            bra = list(pair_terms(a, b))
            for c in range(n_ao):
                for d in range(n_ao):
                    if (c, d) < (a, b):  # filled by symmetry below
                        continue
                    val = 0.0
                    for pref1, p, _, _, rp in bra:
                        for pref2, q, _, _, rq in pair_terms(c, d):
                            dist2 = float(np.dot(rp - rq, rp - rq))
                            val += (
                                pref1
                                * pref2
                                * 2.0
                                * math.pi ** 2.5
                                / (p * q * math.sqrt(p + q))
                                * boys_f0_scalar(p * q / (p + q) * dist2)
                            )
                    eri[a, b, c, d] = eri[c, d, a, b] = val

    return AOIntegrals(n_ao, S, T, V, eri, e_nuc)


def simplex_minimize_lists(objective, theta0, config, moves=None):
    """Nelder-Mead kept as per-vertex lists: the reference for ``simplex_minimize``.

    Same coefficients, ordering, stopping rule and evaluation order; each
    vertex is its own array and each value a Python float. Each iteration's
    move is appended to ``moves`` when it is a list.
    """
    moves = [] if moves is None else moves
    from vqechem.optimize import SIMPLEX_STEP, VqeResult

    x0 = np.asarray(theta0, dtype=float).copy()
    trace = []
    reflect, expand, contract, shrink = 1.0, 2.0, 0.5, 0.5
    d = x0.size

    vertices = [x0]
    for i in range(d):
        step = np.zeros(d)
        step[i] = SIMPLEX_STEP
        vertices.append(x0 + step)
    values = [float(objective(v)) for v in vertices]
    evals = d + 1
    converged = False

    for _ in range(config.max_iterations):
        order = np.argsort(values, kind="stable")
        vertices = [vertices[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(np.abs(v - vertices[0]).max() for v in vertices[1:])
        if values[-1] - values[0] < config.convergence_threshold and diameter < config.simplex_xtol:
            converged = True
            trace.append(values[0])
            break

        centroid = np.mean(vertices[:-1], axis=0)
        xr = centroid + reflect * (centroid - vertices[-1])
        fr = float(objective(xr))
        evals += 1
        if fr < values[0]:
            xe = centroid + expand * (xr - centroid)
            fe = float(objective(xe))
            evals += 1
            if fe < fr:
                vertices[-1], values[-1] = xe, fe
                moves.append("expand")
            else:
                vertices[-1], values[-1] = xr, fr
                moves.append("reflect")
        elif fr < values[-2]:
            vertices[-1], values[-1] = xr, fr
            moves.append("reflect")
        else:
            if fr < values[-1]:
                xc = centroid + contract * (xr - centroid)
                fc = float(objective(xc))
                evals += 1
                accepted = fc <= fr
                move = "contract_outside"
            else:
                xc = centroid - contract * (centroid - vertices[-1])
                fc = float(objective(xc))
                evals += 1
                accepted = fc < values[-1]
                move = "contract_inside"
            if accepted:
                vertices[-1], values[-1] = xc, fc
                moves.append(move)
            else:
                moves.append("shrink")
                best = vertices[0]
                for i in range(1, d + 1):
                    vertices[i] = best + shrink * (vertices[i] - best)
                    values[i] = float(objective(vertices[i]))
                    evals += 1
        trace.append(min(values))

    best_idx = int(np.argmin(values))
    return VqeResult(
        final_energy=values[best_idx],
        final_parameters=vertices[best_idx].copy(),
        energy_trace=tuple(trace),
        n_function_evaluations=evals,
        converged=converged,
        termination_reason="converged" if converged else "iteration_cap",
    )
