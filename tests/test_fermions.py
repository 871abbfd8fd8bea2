import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (
    annihilation_matrices,
    determinant_fci,
    fermion_operator,
    fermion_operator_matrix,
    group_commuting_blocked,
    hamiltonian_from_term_dict,
    hamiltonian_matrix,
    jordan_wigner_term_dict,
    jordan_wigner_term_dicts,
    jordan_wigner_terms,
    normal_ordered_terms,
    number_operator,
    second_quantized_terms,
)
from vqechem.ansatz import _excitation_generators, build_uccsd, enumerate_excitations
from vqechem.exceptions import NonHermitianError, ShapeError
from vqechem.fermions import FermionOperator, _lexsort, build_second_quantized, jordan_wigner
from vqechem.integrals import MolecularIntegrals
from vqechem.measurement import group_commuting
from vqechem.paulis import PauliString
from vqechem.workflows import ScanPoint, h3_exchange_point, integrals_for_point

H2S_STEMS = ("h2s_sto3g_nonrel_eq", "h2s_sto3g_nonrel_stretch",
             "h2s_sto3g_rel_eq", "h2s_sto3g_rel_stretch")


def simple_integrals(n, h=None, g=None, constant=0.0, n_electrons=2):
    h = np.zeros((n, n)) if h is None else np.asarray(h, dtype=float)
    g = np.zeros((n, n, n, n)) if g is None else np.asarray(g, dtype=float)
    return MolecularIntegrals(n, n_electrons, constant, h, g)


def random_integrals(n, seed, n_electrons=2):
    """Symmetric h and 8-fold-symmetric g from a factorized draw."""
    rng = np.random.default_rng(seed)
    h = rng.normal(0, 1, (n, n))
    h = (h + h.T) / 2
    g = np.zeros((n, n, n, n))
    for _ in range(3):
        f = rng.normal(0, 0.4, (n, n))
        f = (f + f.T) / 2
        g += np.einsum("pq,rs->pqrs", f, f)
    return simple_integrals(n, h, g, constant=rng.normal(), n_electrons=n_electrons)


@pytest.mark.parametrize("term", [((0, False), (0, True)), ((1, True), (0, False), (2, True))])
def test_from_terms_refuses_annihilator_first(term):
    with pytest.raises(ShapeError, match="annihilator left of a creator"):
        FermionOperator.from_terms(3, {term: 1.0})


def test_normal_ordering_nilpotency():
    op = FermionOperator.from_terms(2, {((0, True), (0, True)): 1.0})
    assert op.terms == {}


def test_one_orbital_second_quantized():
    eps = -0.73
    integrals = simple_integrals(1, h=[[eps]])
    op = build_second_quantized(integrals)
    assert op.terms == {
        ((0, True), (0, False)): eps,
        ((1, True), (1, False)): eps,
    }


def test_constant_only_second_quantized():
    op = build_second_quantized(simple_integrals(1, constant=2.5))
    assert op.terms == {(): 2.5}


def test_h2_fci_matches_determinant_oracle(h2_integrals_074, h2_hamiltonian_074):
    from vqechem.exactdiag import ground_state_energy

    reference = determinant_fci(h2_integrals_074, n_electrons=2)
    energy = ground_state_energy(h2_hamiltonian_074).energy
    assert abs(energy - reference) < 1e-9


def test_jw_number_operator_textbook():
    h = jordan_wigner(number_operator(1))
    # a_0^+ a_0 -> I/2 - Z/2
    expected = {("I", 0.5), ("Z", -0.5)}
    assert {(p.to_letters(), w) for w, p in h.terms} == expected


def test_jw_two_mode_hop():
    op = FermionOperator.from_terms(
        2, {((0, True), (1, False)): 1.0, ((1, True), (0, False)): 1.0}
    )
    h = jordan_wigner(op)
    got = {(p.to_letters(), round(w, 12)) for w, p in h.terms}
    assert got == {("XX", 0.5), ("YY", 0.5)}


def test_jw_h2_matches_matrix_oracle(h2_integrals_074, h2_hamiltonian_074):
    fermionic = build_second_quantized(h2_integrals_074)
    dense_fermionic = fermion_operator_matrix(fermionic)
    dense_qubit = hamiltonian_matrix(h2_hamiltonian_074)
    assert np.abs(dense_fermionic - dense_qubit).max() < 1e-10


def test_jw_rejects_non_hermitian():
    op = FermionOperator.from_terms(2, {((0, True), (1, False)): 1.0})
    with pytest.raises(NonHermitianError):
        jordan_wigner(op)


def test_anticommutation_relations_up_to_5_modes():
    for n in (2, 3, 5):
        ops = annihilation_matrices(n)
        dim = 1 << n
        eye = np.eye(dim)
        for p in range(n):
            for q in range(n):
                a_p, a_q = ops[p], ops[q]
                anti_mixed = a_p @ a_q.conj().T + a_q.conj().T @ a_p
                expected = eye if p == q else 0 * eye
                assert np.abs(anti_mixed - expected).max() < 1e-12
                anti_same = a_p @ a_q + a_q @ a_p
                assert np.abs(anti_same).max() < 1e-12


@pytest.mark.parametrize("n_spatial,seed", [(2, 0), (3, 1), (4, 2)])
def test_jw_preserves_spectrum(n_spatial, seed):
    """Qubit Hamiltonian and fermionic matrix agree in their lowest eigenvalue."""
    integrals = random_integrals(n_spatial, seed)
    op = build_second_quantized(integrals)
    qubit = jordan_wigner(op)
    assert qubit.n_qubits == 2 * n_spatial <= 8
    dense_f = fermion_operator_matrix(op)
    dense_q = hamiltonian_matrix(qubit)
    low_f = np.linalg.eigvalsh(dense_f)[0]
    low_q = np.linalg.eigvalsh(dense_q)[0]
    assert abs(low_f - low_q) < 1e-10


def test_jw_preserves_spectrum_10_qubits():
    """Largest register: the fermionic matrix's block of the integrals' electron
    count, by the number operator, against the sector solver."""
    from vqechem.exactdiag import ground_state_energy

    integrals = random_integrals(5, seed=3)
    op = build_second_quantized(integrals)
    qubit = jordan_wigner(op)
    assert qubit.n_qubits == 10
    number = fermion_operator_matrix(number_operator(10)).diagonal().real
    block = np.flatnonzero(np.abs(number - integrals.n_electrons) < 1e-9)
    low_f = np.linalg.eigvalsh(fermion_operator_matrix(op)[np.ix_(block, block)])[0]
    low_q = ground_state_energy(qubit).energy
    assert abs(low_f - low_q) < 1e-10


@pytest.mark.parametrize("n_spatial, n_electrons", [(1, 0), (2, 3), (3, 6)])
def test_jordan_wigner_carries_the_integrals_electron_count(n_spatial, n_electrons):
    integrals = random_integrals(n_spatial, seed=n_spatial, n_electrons=n_electrons)
    op = build_second_quantized(integrals)
    assert op.n_electrons == jordan_wigner(op).n_electrons == integrals.n_electrons
    # operators that are not a molecule's carry none
    assert number_operator(2).n_electrons is jordan_wigner(number_operator(2)).n_electrons is None


def test_particle_number_symmetry():
    for n_spatial, seed in ((2, 5), (2, 6)):
        integrals = random_integrals(n_spatial, seed)
        h_dense = hamiltonian_matrix(jordan_wigner(build_second_quantized(integrals)))
        n_dense = hamiltonian_matrix(jordan_wigner(number_operator(2 * n_spatial)))
        commutator = h_dense @ n_dense - n_dense @ h_dense
        assert np.abs(commutator).max() < 1e-10


def test_mode_index_validation():
    with pytest.raises(Exception):
        FermionOperator.from_terms(2, {((5, True), (0, False)): 1.0})


def test_prune_threshold_respected(h2_integrals_074):
    h = jordan_wigner(build_second_quantized(h2_integrals_074))
    assert all(abs(w) >= 1e-12 for w, _ in h.terms)
    assert all(isinstance(p, PauliString) for _, p in h.terms)


def assert_same_expansion(got, want):
    """The same Pauli strings, each with a coefficient that compares equal."""
    assert got.keys() == want.keys()
    assert all(got[key] == want[key] for key in want)


@st.composite
def raw_operators(draw):
    """Up to 8 modes and terms of 0-4 factors, modes free to repeat."""
    n = draw(st.integers(1, 8))
    term = st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=4).map(tuple)
    return fermion_operator(n, draw(st.dictionaries(term, st.floats(-1e3, 1e3), max_size=12)))


def creations_first(terms: dict) -> dict:
    """The terms with each one's creations moved left of its annihilations, in order."""
    return {tuple(sorted(term, key=lambda factor: not factor[1])): c for term, c in terms.items()}


@given(st.lists(raw_operators(), min_size=1, max_size=3))
def test_jw_expansion_matches_product_loop(ops):
    # raw terms keep their repeated modes and their order; from_terms
    # normal orders them with creations first; each operator of a batch
    # expands on its own
    ordered = [FermionOperator.from_terms(op.n_modes, creations_first(op.terms)) for op in ops]
    for batch in (ops, ordered):
        expansions = jordan_wigner_term_dicts(batch)
        assert len(expansions) == len(batch)
        for expansion, op in zip(expansions, batch):
            assert_same_expansion(expansion, jordan_wigner_terms(op))
        assert_same_expansion(jordan_wigner_term_dict(batch[0]), jordan_wigner_terms(batch[0]))


@pytest.mark.parametrize("freeze", [(0, 1), ()], ids=["8q", "12q"])
@pytest.mark.parametrize("stem", H2S_STEMS)
def test_jw_h2s_fixtures_match_product_loop(fixture_dir, stem, freeze):
    point = ScanPoint(stem, 0.0, fcidump_path=os.path.join(fixture_dir, stem + ".fcidump"))
    op = build_second_quantized(integrals_for_point(point, freeze))
    assert_same_expansion(jordan_wigner_term_dict(op), jordan_wigner_terms(op))


def assert_same_strings(h, want):
    """The same strings in the same order, bit for bit."""
    assert h.n_qubits == want.n_qubits
    assert [(p.x_mask, p.z_mask) for _, p in want.terms] == list(zip(h.x.tolist(), h.z.tolist()))
    assert np.array_equal(np.array([w for w, _ in want.terms], dtype=float), h.weights)


@pytest.mark.parametrize("freeze", [(0, 1), ()], ids=["8q", "12q"])
@pytest.mark.parametrize("stem", H2S_STEMS)
def test_jw_h2s_fixture_arrays_match_object_path(fixture_dir, stem, freeze):
    point = ScanPoint(stem, 0.0, fcidump_path=os.path.join(fixture_dir, stem + ".fcidump"))
    op = build_second_quantized(integrals_for_point(point, freeze))
    want = hamiltonian_from_term_dict(
        op.n_modes, {key: c.real for key, c in jordan_wigner_term_dict(op).items()})
    h = jordan_wigner(op)
    assert_same_strings(h, want)
    assert group_commuting(h) == group_commuting_blocked(want)


@pytest.mark.parametrize("n, occupied", [(4, 2), (6, 3), (12, 8)])
def test_uccsd_generator_arrays_match_object_path(n, occupied):
    excitations = enumerate_excitations(n, range(occupied))
    moves = [((i,), (a,)) for i, a in excitations.singles]
    moves += [((i, j), (a, b)) for i, j, a, b in excitations.doubles]
    expansions = jordan_wigner_term_dicts(_excitation_generators(n, moves))
    gates = build_uccsd(n, range(occupied)).gates
    assert len(gates) == len(expansions)
    for gate, expansion in zip(gates, expansions):
        want = hamiltonian_from_term_dict(n, {key: c.imag for key, c in expansion.items()})
        assert_same_strings(gate.generator, want)


def test_jw_uccsd_generators_match_product_loop():
    excitations = enumerate_excitations(12, range(8))
    moves = [((i,), (a,)) for i, a in excitations.singles]
    moves += [((i, j), (a, b)) for i, j, a, b in excitations.doubles]
    generators = _excitation_generators(12, moves)
    for expansion, generator in zip(jordan_wigner_term_dicts(generators), generators):
        assert_same_expansion(expansion, jordan_wigner_terms(generator))


def test_jw_expansion_edge_cases():
    assert jordan_wigner_term_dicts([]) == []
    assert jordan_wigner_term_dicts([fermion_operator(3, {})]) == [{}]
    with pytest.raises(ShapeError):
        jordan_wigner_term_dict(number_operator(63))


@given(st.lists(st.integers(0, 62), min_size=1, max_size=6), st.integers(0, 40),
       st.integers(0, 2**32 - 1))
@example([7, 3], 0, 0)  # empty keys
@example([0, 0, 0], 12, 1)  # all-zero keys
@example([32, 32], 30, 4)  # 64 bits: two words
@example([40, 30, 20], 30, 2)  # 90 bits: two words
@example([62] * 6, 30, 3)  # one word per key
def test_packed_lexsort_matches_lexsort(bits, size, seed):
    # each key draws from 3 values, its largest 2**bits - 1, so runs of
    # equal keys are common and every key spans its bit length
    rng = np.random.default_rng(seed)
    keys = []
    for b in bits:
        values = np.append(rng.integers(0, 1 << b, size=2), (1 << b) - 1)
        keys.append(values[rng.integers(0, 3, size=size)])
    assert np.array_equal(_lexsort(keys), np.lexsort(keys))


@given(st.lists(raw_operators(), min_size=1, max_size=3))
def test_from_terms_matches_raw_matrix_and_swap_oracle(ops):
    # creation-first terms with repeated modes; each normal-ordered operator
    # of a batch has the swap engine's terms bit for bit, and the first one
    # the raw sum's matrix
    n = max(op.n_modes for op in ops)
    raws = [creations_first(op.terms) for op in ops]
    batch = FermionOperator.from_term_dicts(n, raws)
    assert len(batch) == len(raws)
    for ordered, raw in zip(batch, raws):
        assert list(ordered.terms.items()) == list(normal_ordered_terms(raw).items())
    ordered = FermionOperator.from_terms(n, raws[0])
    assert list(ordered.terms.items()) == list(batch[0].terms.items())
    want = fermion_operator_matrix(fermion_operator(n, raws[0]))
    assert np.abs(fermion_operator_matrix(ordered) - want).max() <= 1e-9


@pytest.mark.parametrize("source", [
    *(f"{stem}/{size}" for stem in H2S_STEMS for size in ("8q", "12q")),
    "h3/-1.0", "h3/0.0", "h3/0.5", "random/1", "random/3", "random/5",
])
def test_build_second_quantized_matches_loop_oracle(fixture_dir, source):
    """The array assembly equals the loop and swap engine: same terms, order and bits."""
    kind, arg = source.split("/")
    if kind == "h3":
        point = h3_exchange_point(arg, float(arg))
        integrals = integrals_for_point(ScanPoint(arg, float(arg), geometry=point["geometry"]))
    elif kind == "random":
        integrals = random_integrals(int(arg), seed=10 + int(arg))
    else:
        path = os.path.join(fixture_dir, kind + ".fcidump")
        freeze = (0, 1) if arg == "8q" else ()
        integrals = integrals_for_point(ScanPoint(kind, 0.0, fcidump_path=path), freeze)
    got = build_second_quantized(integrals)
    assert got.n_modes == 2 * integrals.n_spatial_orbitals
    assert list(got.terms.items()) == list(second_quantized_terms(integrals).items())
