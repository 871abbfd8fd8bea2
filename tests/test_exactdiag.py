import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    eigenvector_sector,
    hamiltonian_from_term_dict,
    hamiltonian_matrix,
    sector_energy,
)
from vqechem import exactdiag, paulis
from vqechem.ansatz import build_uccsd
from vqechem.exactdiag import ground_state_energy
from vqechem.exceptions import EigensolverConvergenceError, ShapeError
from vqechem.fcidump import parse_fcidump
from vqechem.fermions import build_second_quantized, jordan_wigner
from vqechem.integrals import MolecularIntegrals
from vqechem.paulis import PauliString, QubitHamiltonian
from vqechem.simulator import Statevector, expectation, sector_states
from vqechem.workflows import (ScanPoint, h3_exchange_point, hydrogen_geometry,
                               integrals_for_point, integrals_from_geometry)


def h2s_twelve_qubits(fixture_dir) -> QubitHamiltonian:
    """The full 12-qubit Hamiltonian of the H2S equilibrium fixture."""
    with open(os.path.join(fixture_dir, "h2s_sto3g_nonrel_eq.fcidump"), encoding="utf-8") as fh:
        return jordan_wigner(build_second_quantized(parse_fcidump(fh.read())))


def ham(n, letter_weights, n_electrons=None):
    coeffs = {}
    for letters, w in letter_weights.items():
        p = PauliString.from_letters(letters)
        coeffs[(p.x_mask, p.z_mask)] = w
    return hamiltonian_from_term_dict(n, coeffs, n_electrons)


def counted(h: QubitHamiltonian, n_electrons: int) -> QubitHamiltonian:
    """``h``'s strings, carrying ``n_electrons``."""
    return QubitHamiltonian.from_arrays(h.n_qubits, h.x, h.z, h.weights, n_electrons)


def test_identity_hamiltonian_acts_trivially():
    h = ham(3, {"III": 2.0})
    v = np.arange(8, dtype=complex)
    assert np.allclose(h.compile().apply(v), 2.0 * v)


def test_z_on_excited_qubit():
    h = ham(1, {"Z": 1.0})
    v = np.array([0.0, 1.0], dtype=complex)
    assert np.allclose(h.compile().apply(v), -v)


@pytest.mark.parametrize("seed", range(5))
def test_apply_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 6
    coeffs = {}
    while len(coeffs) < 10:
        coeffs[(int(rng.integers(0, 64)), int(rng.integers(0, 64)))] = float(rng.normal())
    h = hamiltonian_from_term_dict(n, coeffs)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.abs(h.compile().apply(v) - hamiltonian_matrix(h) @ v).max() < 1e-12


def test_apply_shape_mismatch():
    h = ham(2, {"ZZ": 1.0})
    with pytest.raises(ShapeError):
        h.compile().apply(np.zeros(3, dtype=complex))


def test_ground_single_z():
    # one electron on one qubit: the sector (1, 0) is the state |1>
    h = ham(1, {"Z": 1.0}, n_electrons=1)
    result = ground_state_energy(h)
    assert result.energy == pytest.approx(-1.0, abs=1e-12)
    assert result.energy == pytest.approx(sector_energy(hamiltonian_matrix(h), 1, 0), abs=1e-12)


def test_ground_xx_plus_zz_vs_dense(monkeypatch):
    # on alpha qubits 0 and 2, XX + YY hops one electron, so (N_alpha, N_beta) is
    # kept: the one-electron sector (1, 0) holds |001> and |100>
    h = ham(3, {"XIX": 1.0, "YIY": 1.0, "ZIZ": 1.0}, n_electrons=1)
    expected = sector_energy(hamiltonian_matrix(h), 1, 0)
    for cutoff in (exactdiag.DENSE_CUTOFF_DIM, 0):  # dense, then Davidson
        monkeypatch.setattr(exactdiag, "DENSE_CUTOFF_DIM", cutoff)
        result = ground_state_energy(h)
        assert abs(result.energy - expected) < 1e-9


def test_h2_fci_against_published_value(h2_hamiltonian_074):
    result = ground_state_energy(h2_hamiltonian_074)
    # reported classical FCI is -1.1385 Ha; basis unstated, 5 mHa window
    assert abs(result.energy - (-1.1385)) < 5e-3
    assert result.residual_norm < 1e-9


def test_davidson_matches_dense_crosscheck(monkeypatch):
    for n_orbitals in (2, 3, 4):  # half filling, the largest sector
        h = random_conserving_hamiltonian(n_orbitals, 12, n_orbitals)
        dense = ground_state_energy(h)
        with monkeypatch.context() as patch:
            patch.setattr(exactdiag, "DENSE_CUTOFF_DIM", 0)
            davidson = ground_state_energy(h)
        assert abs(davidson.energy - dense.energy) < 1e-9


def test_variational_floor(h2_hamiltonian_074):
    ground = ground_state_energy(h2_hamiltonian_074).energy
    rng = np.random.default_rng(77)
    dim = 1 << h2_hamiltonian_074.n_qubits
    for _ in range(100):
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = Statevector(4, amps / np.linalg.norm(amps))
        assert expectation(state, h2_hamiltonian_074) >= ground - 1e-10


def test_eigenvector_residual(h2_hamiltonian_074):
    result = ground_state_energy(h2_hamiltonian_074)
    v = result.eigenvector.amplitudes
    residual = np.linalg.norm(
        h2_hamiltonian_074.compile().apply(v) - result.energy * v
    )
    assert residual < 1e-9
    assert result.residual_norm == pytest.approx(residual, abs=1e-12)


def test_iteration_limit_error_carries_best_estimate(h2_hamiltonian_074, monkeypatch):
    # the 4-state (1, 1) block's ground state lies outside the two start vectors
    exact = ground_state_energy(h2_hamiltonian_074).energy
    monkeypatch.setattr(exactdiag, "DENSE_CUTOFF_DIM", 0)
    monkeypatch.setattr(exactdiag, "DAVIDSON_MAX_PRODUCTS", 2)
    with pytest.raises(EigensolverConvergenceError, match="after 2 products") as err:
        ground_state_energy(h2_hamiltonian_074)
    assert exact < err.value.best_energy < exact + 0.1


class CountedOperator(paulis.CompiledOperator):
    """A compiled form that counts its products."""

    products = 0

    def apply(self, vec):
        CountedOperator.products += 1
        return super().apply(vec)


@pytest.mark.parametrize("seed", range(8))
def test_davidson_converges_on_a_near_tie_of_the_two_lowest_states(seed, monkeypatch):
    # a random real symmetric 128-state matrix as a compiled form: x-mask k holds
    # the entries (c, c ^ k), so every cell is one x-mask's entry. Its two lowest
    # eigenvalues lie a relative 1e-5 to 1e-3 apart; restarting on the lowest Ritz
    # vector alone raised at 1000 products on seeds 3, 4 and 6 and took 246-735 on
    # the others
    rng = np.random.default_rng(seed)
    dim = 128
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    spectrum = np.sort(rng.uniform(-1.0, 1.0, dim))
    spectrum[1] = spectrum[0] * (1 - 10.0 ** rng.uniform(-5, -3))
    matrix = (q * spectrum) @ q.T
    matrix = (matrix + matrix.T) / 2
    c = np.arange(dim)
    targets, sources = np.tile(c, dim), (c ^ c[:, None]).ravel()
    monkeypatch.setattr(CountedOperator, "products", 0)
    energy, vector, residual = exactdiag._davidson_lowest(
        CountedOperator(7, targets, sources, matrix[targets, sources], dim))
    assert CountedOperator.products <= 250
    assert abs(energy - np.linalg.eigvalsh(matrix)[0]) < 1e-13
    assert residual < exactdiag.RESIDUAL_TOLERANCE
    assert np.linalg.norm(matrix @ vector - energy * vector) < 1e-8


def test_qubit_guard():
    h = ham(1, {"Z": 1.0})
    fake = QubitHamiltonian(1, h.terms)
    object.__setattr__(fake, "n_qubits", 30)
    with pytest.raises(ShapeError):
        ground_state_energy(fake)


def test_dense_matrix_matches_oracle(h2_hamiltonian_074):
    assert np.abs(
        h2_hamiltonian_074.compile().dense() - hamiltonian_matrix(h2_hamiltonian_074)
    ).max() < 1e-12


def test_memory_guard_refuses_before_allocating(monkeypatch):
    # 24 qubits and 12 electrons pass the qubit limit, but the 853776-state
    # (6, 6) sector's form of Z on every qubit and a hop between each pair of
    # same-spin neighbours (23 x-masks, 1.2 GiB), 313 MiB of Davidson vectors
    # and the eigenvector's 256 MiB register copy exceed the cap; the guard
    # must refuse from the masks alone
    x, z = [0] * 24, [1 << q for q in range(24)]
    for q in range(22):  # X Z X and Y Z Y on qubits q, q + 1, q + 2
        hop = 1 << q | 1 << q + 2
        x, z = x + [hop, hop], z + [2 << q, hop | 2 << q]
    h = QubitHamiltonian.from_arrays(24, x, z, [1.0] * 24 + [0.5] * 44, 12)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match="GiB"):
            ground_state_energy(h)
        monkeypatch.setattr(exactdiag, "DENSE_CUTOFF_DIM", 1 << 24)  # every block dense
        with pytest.raises(ShapeError, match="GiB"):
            ground_state_energy(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_full_h2s_fixture_solves_under_the_guard(fixture_dir):
    h = h2s_twelve_qubits(fixture_dir)
    assert h.n_qubits == 12
    result = ground_state_energy(h)
    assert result.residual_norm < 1e-9
    assert len(result.eigenvector.amplitudes) == 1 << 12


def test_sector_solve_fits_under_a_cap_the_full_form_exceeds(fixture_dir, monkeypatch):
    # the cap is the 12-qubit fixture's full compiled form alone: the (4, 4)
    # sector's form and Davidson workspace fit under it
    h = h2s_twelve_qubits(fixture_dir)
    monkeypatch.setattr(paulis, "MAX_ALLOCATION_BYTES", h.compiled_bytes())
    result = ground_state_energy(h)
    assert eigenvector_sector(result.eigenvector.amplitudes) == (4, 4)
    assert result.residual_norm < 1e-9
    # X on qubit 0 makes the sector leak: the solve refuses it, and never
    # compiles the register's form
    leaking = QubitHamiltonian.from_arrays(12, np.append(h.x, 1), np.append(h.z, 0),
                                           np.append(h.weights, 1e-3), h.n_electrons)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match="does not conserve"):
            ground_state_energy(leaking)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < h.compiled_bytes()


def test_sector_solve_counts_its_form_and_workspace_but_no_register_labels(
        fixture_dir, monkeypatch):
    # on the 12-qubit fixture the (4, 4) sector holds 225 states, solved by
    # Davidson in 2 * 24 real vectors, and the (1, 1) sector 36, solved dense.
    # Either sector's states are listed without labelling the 4096 register
    # states, and the eigenvector's complex register copy is counted too
    twelve = h2s_twelve_qubits(fixture_dir)
    copy = 16 << twelve.n_qubits
    for electrons, dim, method, workspace in (
            (8, 225, "davidson", 2 * exactdiag.DAVIDSON_SUBSPACE * 225 * 8),
            (2, 36, "dense", 36 * 36 * 48)):
        h = counted(twelve, electrons)
        needed = h.compiled_bytes(dim) + workspace + copy
        monkeypatch.setattr(paulis, "MAX_ALLOCATION_BYTES", needed)
        result = ground_state_energy(h)
        assert len(result.eigenvector.amplitudes) == 1 << h.n_qubits
        monkeypatch.setattr(paulis, "MAX_ALLOCATION_BYTES", needed - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match=f"{method} solve of a {dim}-state block "
                                                 "on 12 qubits"):
                ground_state_energy(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < copy  # refused before the form, the workspace or the copy


def test_sixteen_qubit_chain_solves_its_sector_by_davidson_in_small_memory():
    # H8 at 1.8 bohr spacing: the (4, 4) sector holds 4900 of the 65536 states,
    # above DENSE_CUTOFF_DIM; its compiled form holds 22 MB
    geometry = hydrogen_geometry([[0.0, 0.0, 1.8 * i] for i in range(8)])
    integrals, _ = integrals_from_geometry(geometry)
    h = jordan_wigner(build_second_quantized(integrals))
    assert h.n_qubits == 16
    tracemalloc.start()
    try:
        result = ground_state_energy(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eigenvector_sector(result.eigenvector.amplitudes) == (4, 4)
    assert abs(result.energy - (-4.3156021)) < 1e-7
    assert result.residual_norm <= 1e-9
    assert peak < 256 << 20


def random_conserving_hamiltonian(n_orbitals: int, seed: int,
                                  n_electrons: int) -> QubitHamiltonian:
    """JW image of random real integrals with ``n_electrons``: conserves N_alpha and N_beta."""
    rng = np.random.default_rng(seed)
    h = rng.normal(0.0, 1.0, (n_orbitals, n_orbitals))
    g = np.zeros((n_orbitals,) * 4)
    for _ in range(3):
        f = rng.normal(0.0, 0.5, (n_orbitals, n_orbitals))
        g += np.einsum("pq,rs->pqrs", f + f.T, f + f.T) / 4.0
    integrals = MolecularIntegrals(n_orbitals, n_electrons, float(rng.normal()),
                                   (h + h.T) / 2.0, g)
    return jordan_wigner(build_second_quantized(integrals))


@settings(max_examples=20)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2 * n))),
       st.integers(0, 2**32 - 1))
def test_sector_solve_matches_dense_sector_oracle(shape, seed):
    n_orbitals, n_electrons = shape
    h = random_conserving_hamiltonian(n_orbitals, seed, n_electrons)
    sector = ((n_electrons + 1) // 2, n_electrons // 2)
    solved = ground_state_energy(h)
    assert eigenvector_sector(solved.eigenvector.amplitudes) == sector
    assert abs(solved.energy - sector_energy(hamiltonian_matrix(h), *sector)) < 1e-10
    assert solved.residual_norm < 1e-9


def triplet_hamiltonian(n_orbitals: int, seed: int) -> QubitHamiltonian:
    """Two low orbitals whose exchange puts a triplet below every 2-electron
    singlet, while the closed shell on orbital 0 has the lowest diagonal energy;
    other orbitals lie 3 Ha up, and spin-free noise of 0.02 touches every integral.
    A singlet start vector alone never leaves the singlets."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 0.02, (2, n_orbitals, n_orbitals))
    h = np.diag([0.0, 0.5] + [3.0] * (n_orbitals - 2)) + noise[0] + noise[0].T
    g = np.einsum("pq,rs->pqrs", noise[1] + noise[1].T, noise[1] + noise[1].T)
    g[0, 0, 0, 0], g[1, 1, 1, 1], g[0, 0, 1, 1], g[1, 1, 0, 0] = 0.8, 2.0, 0.5, 0.5
    for p, q, r, s in itertools.product((0, 1), repeat=4):
        if p != q and r != s:
            g[p, q, r, s] = 0.4
    return jordan_wigner(build_second_quantized(MolecularIntegrals(n_orbitals, 2, 0.0, h, g)))


def with_imaginary_hop(h: QubitHamiltonian) -> QubitHamiltonian:
    """``h`` plus 0.3 (X Z Y - Y Z X) on qubits 0-2, an imaginary alpha hop between
    orbitals 0 and 1: its odd-Y strings make every compiled form complex."""
    terms = dict(zip(zip(h.x.tolist(), h.z.tolist()), h.weights.tolist()))
    for key, weight in (((0b101, 0b110), 0.3), ((0b101, 0b011), -0.3)):
        terms[key] = terms.get(key, 0.0) + weight
    return hamiltonian_from_term_dict(h.n_qubits, terms, h.n_electrons)


@settings(max_examples=20)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(["real", "complex", "triplet"]))
def test_davidson_matches_dense_eigh_on_every_sector(n_orbitals, seed, kind):
    h = (triplet_hamiltonian(n_orbitals, seed) if kind == "triplet"
         else random_conserving_hamiltonian(n_orbitals, seed, 2))
    if kind == "complex":
        h = with_imaginary_hop(h)
    n, matrix = h.n_qubits, hamiltonian_matrix(h)
    reference = h.compile(sector_states(n, 0b11))
    assert np.iscomplexobj(reference.values) == (kind == "complex")
    if kind == "triplet":  # lowest diagonal: the closed shell; lowest state: S >= 1
        assert np.argmin(np.diag(reference.dense())) == 0
        assert abs(sector_energy(matrix, 1, 1) - sector_energy(matrix, 2, 0)) < 1e-10
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactdiag, "DENSE_CUTOFF_DIM", 0)
        for n_electrons in range(n + 1):
            solved = ground_state_energy(counted(h, n_electrons))
            sector = ((n_electrons + 1) // 2, n_electrons // 2)
            assert abs(solved.energy - sector_energy(matrix, *sector)) < 1e-10
            assert solved.residual_norm < 1e-9
            assert np.linalg.norm(solved.eigenvector.amplitudes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("method", ["dense", "davidson"])
def test_eigenvector_lies_in_its_sector(h2_hamiltonian_074, method, monkeypatch):
    if method == "davidson":
        monkeypatch.setattr(exactdiag, "DENSE_CUTOFF_DIM", 0)
    result = ground_state_energy(h2_hamiltonian_074)
    amplitudes = result.eigenvector.amplitudes
    # (1, 1): one of qubits 0, 2 and one of qubits 1, 3
    outside = [b for b in range(16) if (b & 0b0101).bit_count() != 1 or (b & 0b1010).bit_count() != 1]
    assert np.abs(amplitudes[outside]).max() == 0.0
    assert np.linalg.norm(amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert result.residual_norm < 1e-9


@pytest.mark.parametrize("charge, energy", [(+1, -1.142784), (-1, -1.307314)])
def test_charged_h3_solves_its_own_sector(charge, energy):
    geometry = h3_exchange_point("reactant", -1.0)["geometry"]
    integrals, _ = integrals_from_geometry({**geometry, "charge": charge})
    h = jordan_wigner(build_second_quantized(integrals))
    sector = ((integrals.n_electrons + 1) // 2, integrals.n_electrons // 2)
    result = ground_state_energy(h)
    assert eigenvector_sector(result.eigenvector.amplitudes) == sector
    assert abs(result.energy - sector_energy(hamiltonian_matrix(h), *sector)) < 1e-10
    assert abs(result.energy - energy) < 1e-6


def test_empty_hamiltonian_has_zero_energy():
    result = ground_state_energy(QubitHamiltonian(2, (), n_electrons=1))
    assert result.energy == 0.0 and result.residual_norm == 0.0


def test_sector_refused_when_the_operator_mixes_sectors():
    h = ham(2, {"XI": 1.0, "ZZ": 0.5}, n_electrons=1)  # X on qubit 0 changes N_alpha
    with pytest.raises(ShapeError, match="conserve"):
        ground_state_energy(h)


def test_hamiltonian_without_an_electron_count_is_refused(h2_hamiltonian_074):
    # built by hand, stripped of its count, or a gate generator
    h = h2_hamiltonian_074
    generator = build_uccsd(4, {0, 1}).gates[0].generator
    for uncounted in (ham(1, {"Z": 1.0}), QubitHamiltonian.from_arrays(4, h.x, h.z, h.weights),
                      generator):
        assert uncounted.n_electrons is None
        with pytest.raises(ShapeError, match="no electron count"):
            ground_state_energy(uncounted)


@pytest.mark.parametrize("freeze, expected", [
    ((0, 1), -396.2481000000003), ((), -396.2483978284475)], ids=["8q", "12q"])
def test_molecular_hamiltonian_solves_its_own_count_as_fci_pins_it(fixture_dir, freeze,
                                                                    expected):
    # the call the benchmark makes, with no count passed: the 8-electron energies
    # that ``fci --json`` prints for the nonrel_eq fixture, frozen core and full
    path = os.path.join(fixture_dir, "h2s_sto3g_nonrel_eq.fcidump")
    integrals = integrals_for_point(ScanPoint("eq", 0.0, fcidump_path=path), freeze)
    result = ground_state_energy(jordan_wigner(build_second_quantized(integrals)))
    assert result.energy == expected
    assert eigenvector_sector(result.eigenvector.amplitudes) == (4 - len(freeze),) * 2


@pytest.mark.parametrize("n_electrons", [2.5, True, "2"])
def test_electron_count_must_be_an_integer(h2_hamiltonian_074, n_electrons):
    h = h2_hamiltonian_074
    with pytest.raises(ShapeError, match="n_electrons must be an integer"):
        QubitHamiltonian.from_arrays(4, h.x, h.z, h.weights, n_electrons)
    with pytest.raises(ShapeError, match="n_electrons must be an integer"):
        QubitHamiltonian(4, h.terms, n_electrons)


def test_electron_count_outside_the_register_refused(h2_hamiltonian_074):
    h = h2_hamiltonian_074
    for n_electrons in (-1, 5):
        with pytest.raises(ShapeError, match="spin orbitals"):
            QubitHamiltonian.from_arrays(4, h.x, h.z, h.weights, n_electrons)
        with pytest.raises(ShapeError, match="spin orbitals"):
            QubitHamiltonian(4, h.terms, n_electrons)
