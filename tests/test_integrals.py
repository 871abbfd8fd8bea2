from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import h2_mo_integrals, h2_molecule
from oracles import (
    STO3G_H2_FCI_0735,
    STO3G_H_ATOM_ENERGY,
    ao_integrals_loop,
    boys_f0_scalar,
    determinant_fci,
    f0_quadrature,
)
from vqechem.exceptions import (
    ActiveSpaceError,
    ShapeError,
    SingularGeometryError,
    UnsupportedElementError,
)
from vqechem.integrals import (
    COINCIDENT_ATOM_TOLERANCE,
    ActiveSpaceSpec,
    AOIntegrals,
    Molecule,
    MolecularIntegrals,
    RhfResult,
    boys_f0,
    compute_ao_integrals,
    freeze_core,
    nuclear_repulsion,
    run_rhf,
    transform_to_mo,
)
from vqechem.workflows import h2_point, h3_exchange_point

# frozen quadrature-oracle values for the H2 STO-3G pair at R = 1.4 Bohr
# (cylindrical-coordinate dblquad over the contracted Gaussians, abs err < 1e-11)
QUAD_S01 = 0.659318205805
QUAD_T01 = 0.236454658274
QUAD_V01 = -1.194834621970

# published restricted Hartree-Fock total energy, H2/STO-3G at 0.735 Angstrom
REFERENCE_RHF_0735 = -1.116998996754


def test_single_atom_trivial():
    ao = compute_ao_integrals(Molecule((("H", 1, np.zeros(3)),), 1))
    assert np.allclose(ao.overlap, [[1.0]], atol=1e-12)
    assert ao.e_nuc == 0.0


def test_offdiagonal_integrals_match_quadrature_oracle():
    ao = compute_ao_integrals(h2_molecule(1.4))
    assert abs(ao.overlap[0, 1] - QUAD_S01) < 1e-6
    assert abs(ao.kinetic[0, 1] - QUAD_T01) < 1e-6
    assert abs(ao.nuclear[0, 1] - QUAD_V01) < 1e-6
    assert abs(ao.e_nuc - 1.0 / 1.4) < 1e-12


def test_coincident_atoms_rejected():
    mol = Molecule((("H", 1, np.zeros(3)), ("H", 1, np.zeros(3))), 2)
    with pytest.raises(SingularGeometryError):
        compute_ao_integrals(mol)


def test_non_hydrogen_rejected():
    mol = Molecule((("He", 2, np.zeros(3)),), 2)
    with pytest.raises(UnsupportedElementError):
        compute_ao_integrals(mol)


def test_overlap_invariants_for_generated_bases():
    for r in (0.9, 1.4, 2.5):
        ao = compute_ao_integrals(h2_molecule(r))
        assert np.allclose(ao.overlap, ao.overlap.T, atol=1e-12)
        assert np.allclose(np.diag(ao.overlap), 1.0, atol=1e-10)
        assert np.linalg.eigvalsh(ao.overlap).min() > 0
        assert np.allclose(ao.kinetic, ao.kinetic.T, atol=1e-12)
        assert np.allclose(ao.nuclear, ao.nuclear.T, atol=1e-12)


def test_boys_function_limits():
    assert boys_f0(0.0) == 1.0
    for x in (1e-10, 1e-4, 0.5, 3.0, 25.0):
        assert abs(boys_f0(x) - f0_quadrature(x)) < 1e-12


def test_boys_function_on_arrays():
    # exactly 0, both sides of the 1e-12 branch, and the range the integrals reach
    x = np.array([0.0, 1e-13, 1e-12, np.nextafter(1e-12, 1.0), 1e-10, 1e-4, 0.5, 3.0, 25.0, 400.0])
    values = boys_f0(x)
    assert values.shape == x.shape
    assert values[0] == values[1] == values[2] == 1.0
    for xi, value in zip(x, values):
        assert abs(value - f0_quadrature(xi)) < 1e-12
        assert value == boys_f0_scalar(xi)
    grid = x.reshape(2, 5)
    assert np.array_equal(boys_f0(grid), values.reshape(2, 5))


def assert_same_integrals(ao, reference):
    for name in ("overlap", "kinetic", "nuclear", "eri"):
        assert np.array_equal(getattr(ao, name), getattr(reference, name)), name
    assert ao.e_nuc == reference.e_nuc


atom_positions = st.lists(
    st.tuples(*[st.floats(-4.0, 4.0, allow_nan=False)] * 3), min_size=1, max_size=8
)


@settings(max_examples=15)
@given(atom_positions)
def test_ao_integrals_match_closed_form_loop(positions):
    # the integrals are taken in atom 0's frame, so the loop runs on the molecule
    # moved there; the nuclear repulsion is that of the molecule as given
    xyz = np.array(positions)
    gaps = np.linalg.norm(xyz[:, None] - xyz, axis=-1)[np.triu_indices(len(xyz), 1)]
    assume(np.all(gaps > COINCIDENT_ATOM_TOLERANCE))
    molecule = Molecule(tuple(("H", 1, r) for r in xyz), len(xyz))
    reference = ao_integrals_loop(Molecule(tuple(("H", 1, r - xyz[0]) for r in xyz), len(xyz)))
    assert_same_integrals(compute_ao_integrals(molecule),
                          replace(reference, e_nuc=nuclear_repulsion(molecule)))


@pytest.mark.parametrize("z", [1e20, 1e100, 1e300])
def test_lone_atom_far_from_the_origin_keeps_its_integrals(z):
    # on absolute coordinates the Gaussian product centres were rounded off the
    # nucleus by about z * 1e-16 Bohr: the atom's energy read -0.31542 Ha at 1e20
    def lone_atom(z):
        return compute_ao_integrals(Molecule((("H", 1, np.array([0.0, 0.0, z])),), 1))

    assert_same_integrals(lone_atom(z), lone_atom(0.0))


def test_translated_molecule_keeps_its_integrals():
    # an offset that every coordinate and difference holds exactly
    xyz = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.5], [0.25, 0.0, 3.0]])
    molecules = [Molecule(tuple(("H", 1, r + offset) for r in xyz), 3) for offset in (0.0, 1024.0)]
    assert_same_integrals(*(compute_ao_integrals(m) for m in molecules))


@pytest.mark.parametrize(
    "point",
    [h2_point(f"{r:.3f}", r) for r in (0.5, 0.74, 1.0, 2.0, 3.0)]
    + [h3_exchange_point(f"{s:+.2f}", s) for s in np.linspace(-1.0, 1.0, 9)]
    + [{"label": "h8-chain", "geometry": {
        "atoms": [{"symbol": "H", "xyz_bohr": [0.0, 0.0, 1.8 * i]} for i in range(8)]}}],
    ids=lambda point: point["label"],
)
def test_ao_integrals_match_loop_on_scan_points(point):
    molecule = Molecule.from_geometry_dict(point["geometry"])
    assert_same_integrals(compute_ao_integrals(molecule), ao_integrals_loop(molecule))


def test_rhf_zero_electrons():
    ao = compute_ao_integrals(h2_molecule(1.4))
    result = run_rhf(ao, 0)
    assert result.total_energy == ao.e_nuc
    assert result.n_iterations == 0
    assert result.converged


def test_rhf_matches_published_reference():
    from vqechem.units import ANGSTROM_TO_BOHR

    ao = compute_ao_integrals(h2_molecule(0.735 * ANGSTROM_TO_BOHR))
    result = run_rhf(ao, 2)
    assert result.converged
    assert abs(result.total_energy - REFERENCE_RHF_0735) < 1e-6


@pytest.mark.parametrize(
    "r_angstrom, reference, tolerance",
    [
        (0.735, STO3G_H2_FCI_0735, 1e-6),  # published STO-3G full CI
        (6.0, 2 * STO3G_H_ATOM_ENERGY, 1e-7),  # separated STO-3G atoms
    ],
)
def test_fci_matches_sto3g_reference(r_angstrom, reference, tolerance):
    from vqechem.exactdiag import ground_state_energy
    from vqechem.fermions import build_second_quantized, jordan_wigner
    from vqechem.units import ANGSTROM_TO_BOHR

    integrals, _ = h2_mo_integrals(r_angstrom * ANGSTROM_TO_BOHR)
    hamiltonian = jordan_wigner(build_second_quantized(integrals))
    energy = ground_state_energy(hamiltonian).energy
    assert abs(energy - reference) < tolerance


def test_rhf_is_variational_upper_bound(h2_integrals_074):
    fci = determinant_fci(h2_integrals_074, n_electrons=2)
    mo, rhf = h2_mo_integrals(0.74 * 1.8897259886)
    assert rhf.total_energy >= fci - 1e-12


def test_rhf_orbital_orthonormality_and_ordering():
    ao = compute_ao_integrals(h2_molecule(1.4))
    result = run_rhf(ao, 2)
    c = result.mo_coefficients
    assert np.abs(c.T @ ao.overlap @ c - np.eye(2)).max() < 1e-8
    assert np.all(np.diff(result.orbital_energies) >= 0)


def test_rhf_trace_monotone_nonincreasing():
    # asymmetric 4-center chain exercises several SCF iterations
    positions = [0.0, 1.6, 3.4, 5.6]
    mol = Molecule(
        tuple(("H", 1, np.array([0.0, 0.0, z])) for z in positions), 4
    )
    result = run_rhf(compute_ao_integrals(mol), 4)
    assert result.converged
    trace = result.energy_trace
    assert len(trace) >= 3
    for before, after in zip(trace[1:], trace[2:]):
        assert after <= before + 1e-12


def test_transform_identity_coefficients():
    kinetic = np.diag([0.6, 1.1])
    nuclear = np.diag([-1.5, -0.7])
    ao = AOIntegrals(2, np.eye(2), kinetic, nuclear, np.zeros((2, 2, 2, 2)), 0.3)
    rhf = RhfResult(0.0, np.zeros(2), np.eye(2), 1, True, 2)
    mo = transform_to_mo(ao, rhf)
    assert np.allclose(mo.h, kinetic + nuclear, atol=1e-14)
    assert mo.constant_energy == 0.3


def test_transform_reconstructs_scf_energy():
    mo, rhf = h2_mo_integrals(1.39)
    n_occ = rhf.n_electrons // 2
    energy = mo.constant_energy
    for i in range(n_occ):
        energy += 2.0 * mo.h[i, i]
        for j in range(n_occ):
            energy += 2.0 * mo.g[i, i, j, j] - mo.g[i, j, j, i]
    assert abs(energy - rhf.total_energy) < 1e-10


def test_transform_two_body_symmetry():
    mo, _ = h2_mo_integrals(1.39)
    mo.validate_two_body_symmetry()


def test_freeze_core_empty_is_identity(h2_integrals_074):
    spec = ActiveSpaceSpec((), (0, 1))
    out = freeze_core(h2_integrals_074, spec)
    assert out is h2_integrals_074


def test_freeze_core_rejects_overlap():
    with pytest.raises(ActiveSpaceError):
        ActiveSpaceSpec((0,), (0, 1))


@pytest.mark.parametrize("frozen, active", [((0, 0), (1,)), ((0,), (1, 1))])
def test_active_space_rejects_repeated_index(frozen, active):
    with pytest.raises(ActiveSpaceError, match="repeated orbital index"):
        ActiveSpaceSpec(frozen, active)


def test_freeze_core_rejects_non_occupied_core(h2_integrals_074):
    with pytest.raises(ActiveSpaceError):
        freeze_core(h2_integrals_074, ActiveSpaceSpec((1,), (0,)))


def random_molecular_integrals(n, seed, n_electrons):
    rng = np.random.default_rng(seed)
    h = rng.normal(0, 1, (n, n))
    h = (h + h.T) / 2 - 2.0 * np.eye(n)
    h[0, 0] -= 4.0  # make orbital 0 clearly the core
    g = np.zeros((n, n, n, n))
    for _ in range(3):
        f = rng.normal(0, 0.35, (n, n))
        f = (f + f.T) / 2
        g += np.einsum("pq,rs->pqrs", f, f)
    return MolecularIntegrals(n, n_electrons, rng.normal(), h, g)


@pytest.mark.parametrize("seed", range(20))
def test_freeze_core_spectrum_equivalence(seed):
    """Frozen-core FCI equals full FCI restricted to a doubly occupied core."""
    n = 3 if seed % 2 == 0 else 4
    integrals = random_molecular_integrals(n, 1000 + seed, n_electrons=4)
    spec = ActiveSpaceSpec((0,), tuple(range(1, n)))
    reduced = freeze_core(integrals, spec)
    assert reduced.n_electrons == 2

    projected = determinant_fci(integrals, 4, require_doubly_occupied=(0,))
    reduced_fci = determinant_fci(reduced, 2)
    assert abs(projected - reduced_fci) < 1e-9


def test_freeze_core_h2s_fixture_gives_8_qubits(fixture_dir):
    import os

    from vqechem.fcidump import parse_fcidump
    from vqechem.fermions import build_second_quantized, jordan_wigner

    path = os.path.join(fixture_dir, "h2s_sto3g_nonrel_eq.fcidump")
    with open(path) as fh:
        integrals = parse_fcidump(fh.read())
    assert integrals.n_spatial_orbitals == 6
    reduced = freeze_core(integrals, ActiveSpaceSpec((0, 1), (2, 3, 4, 5)))
    assert 2 * reduced.n_spatial_orbitals == 8
    hamiltonian = jordan_wigner(build_second_quantized(reduced))
    assert hamiltonian.n_qubits == 8


def test_molecule_validation():
    with pytest.raises(ShapeError):
        Molecule((("H", 0, np.zeros(3)),), 1)
    with pytest.raises(ShapeError):
        Molecule((("H", 1, np.array([np.inf, 0, 0])),), 1)
    with pytest.raises(ShapeError):
        Molecule((), -1)


def test_geometry_dict_roundtrip():
    doc = {
        "atoms": [
            {"symbol": "H", "xyz_bohr": [0, 0, 0]},
            {"symbol": "H", "xyz_bohr": [0, 0, 1.4]},
        ],
        "charge": 0,
    }
    mol = Molecule.from_geometry_dict(doc)
    assert mol.n_electrons == 2
    assert mol.atoms[1][2][2] == 1.4


@pytest.mark.parametrize(
    "doc",
    [
        {"charge": 0},
        {"atoms": [{"symbol": "H"}]},
        {"atoms": [{"symbol": "H", "xyz_bohr": [0, 0, 0]}], "charge": "two"},
        {"atoms": [{"symbol": "H", "xyz_bohr": [0, 0, 0]}], "charg": 1},
        {"atoms": [{"symbol": "H", "xyz_bohr": [0, 0, 0], "mass": 1.0}]},
        {"atoms": ["H"]},
        ["atoms"],
    ],
    ids=["no-atoms", "no-position", "bad-charge", "unknown-key", "unknown-atom-key",
         "atom-not-an-object", "not-an-object"],
)
def test_malformed_geometry_dict_raises_package_error(doc):
    with pytest.raises(ShapeError, match="malformed geometry"):
        Molecule.from_geometry_dict(doc)
