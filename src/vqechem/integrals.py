"""Molecular integrals, restricted Hartree-Fock, and active-space reduction.

The built-in basis covers hydrogen-only systems with s-type STO-3G
functions; richer systems enter through FCIDUMP files instead. Two-electron
integrals are stored in chemist notation (pq|rs) everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ActiveSpaceError,
    ScfConvergenceError,
    ShapeError,
    SingularGeometryError,
    UnsupportedElementError,
    checked_int,
    checked_object,
    checked_real,
)

ELEMENT_Z = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18,
}

SCF_DENSITY_TOLERANCE = 1e-8
SCF_MAX_ITERATIONS = 200
COINCIDENT_ATOM_TOLERANCE = 1e-6  # Bohr
# a far atom's own integrals equalled atom 0's to the last bit at 2100 separations of 1e5-1e9
MAX_SEPARATION = 1e8  # Bohr; not at 2.4e9, as its product centres round off it by r * 1e-16
# far above any molecule's integrals, and far enough below the float range that sums
# and squares of the Hamiltonian's coefficients stay finite
MAX_INTEGRAL = 1e100  # Hartree
# hydrogen 1s STO-3G (Slater zeta 1.24): Hehre, Stewart & Pople, J. Chem. Phys. 51, 2657 (1969)
STO3G_H_EXPONENTS = (3.425250914, 0.6239137298, 0.168855404)
STO3G_H_COEFFICIENTS = (0.1543289673, 0.5353281423, 0.4446345422)


@dataclass(frozen=True)
class Molecule:
    """Nuclear framework plus electron count.

    Parameters
    ----------
    atoms : tuple of (symbol, Z, xyz)
        Element symbol, nuclear charge, and position in Bohr.
    n_electrons : int
    """

    atoms: tuple
    n_electrons: int

    def __post_init__(self):
        checked_int(self.n_electrons, "n_electrons", 0)
        for symbol, z, xyz in self.atoms:
            if z < 1:
                raise ShapeError(f"nuclear charge {z} < 1 for {symbol}")
            if not np.all(np.isfinite(xyz)):
                raise ShapeError(f"non-finite position for {symbol}")
        for i in range(len(self.atoms)):
            for j in range(i + 1, len(self.atoms)):
                r = math.dist(self.atoms[i][2], self.atoms[j][2])  # a Python float: no warning
                if not r <= MAX_SEPARATION:
                    raise ShapeError(f"atoms {i} and {j} are {r:.3g} Bohr apart, "
                                     f"above the {MAX_SEPARATION:.0e} Bohr limit")

    @classmethod
    def from_geometry_dict(cls, doc: dict) -> Molecule:
        """Build from the geometry JSON schema.

        Schema: ``{"atoms": [{"symbol": str, "xyz_bohr": [x, y, z]}, ...],
        "charge": int}`` with positions in Bohr; a position of other than 3
        finite numbers (a bool or a string is not one), a charge that is not an
        integer (a bool is not one), or an unknown key raises ShapeError.
        """
        atoms = []
        try:
            checked_object(doc, ("atoms", "charge"), "malformed geometry: the geometry", ShapeError)
            for n, entry in enumerate(doc["atoms"]):
                checked_object(entry, ("symbol", "xyz_bohr"), f"malformed geometry: atom {n}",
                               ShapeError)
                symbol = entry["symbol"]
                if symbol not in ELEMENT_Z:
                    raise UnsupportedElementError(f"unknown element symbol {symbol!r}")
                position = entry["xyz_bohr"]
                try:  # TypeError: not a list; ValueError: not 3 entries
                    x, y, z = (checked_real(c, "position entry") for c in position)
                except (ShapeError, TypeError, ValueError):
                    raise ShapeError(f"malformed geometry: position of {symbol} must be "
                                     f"3 numbers, got {position!r}") from None
                atoms.append((symbol, ELEMENT_Z[symbol], np.array([x, y, z])))
            charge = checked_int(doc.get("charge", 0), "malformed geometry: charge")
        except (KeyError, TypeError, ValueError) as exc:
            raise ShapeError(f"malformed geometry: {type(exc).__name__}: {exc}") from None
        n_electrons = sum(z for _, z, _ in atoms) - charge
        return cls(tuple(atoms), n_electrons)


@dataclass(frozen=True)
class AOIntegrals:
    """Atomic-orbital integrals in a normalized basis (energies in Hartree)."""

    n_ao: int
    overlap: np.ndarray
    kinetic: np.ndarray
    nuclear: np.ndarray
    eri: np.ndarray  # chemist notation (pq|rs)
    e_nuc: float


@dataclass(frozen=True)
class RhfResult:
    total_energy: float
    orbital_energies: np.ndarray
    mo_coefficients: np.ndarray
    n_iterations: int
    converged: bool
    n_electrons: int
    energy_trace: tuple = ()


@dataclass(frozen=True)
class MolecularIntegrals:
    """Spatial-orbital integrals over molecular orbitals.

    ``constant_energy`` holds nuclear repulsion plus any frozen-core energy;
    ``h`` is the one-body matrix and ``g`` the chemist-notation (pq|rs)
    tensor, both over the current orbital set.
    """

    n_spatial_orbitals: int
    n_electrons: int
    constant_energy: float
    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        n = self.n_spatial_orbitals
        if self.h.shape != (n, n) or self.g.shape != (n, n, n, n):
            raise ShapeError("integral array shapes inconsistent with orbital count")
        if not (np.isfinite(self.constant_energy) and np.all(np.isfinite(self.h))
                and np.all(np.isfinite(self.g))):
            raise ShapeError("non-finite constant energy or integral values")
        largest = max(abs(self.constant_energy), np.abs(self.h).max(initial=0.0),
                      np.abs(self.g).max(initial=0.0))
        if largest > MAX_INTEGRAL:
            raise ShapeError(f"constant energy or integral value {largest:.3g} above the "
                             f"{MAX_INTEGRAL:.0e} Hartree limit")
        if not np.allclose(self.h, self.h.T, atol=1e-10):
            raise ShapeError("one-body integrals not symmetric")

    def validate_two_body_symmetry(self) -> None:
        """Check the 8-fold permutation symmetry of (pq|rs) to 1e-12."""
        g = self.g
        for perm in (
            g.transpose(1, 0, 2, 3),
            g.transpose(0, 1, 3, 2),
            g.transpose(2, 3, 0, 1),
            g.transpose(3, 2, 1, 0),
        ):
            if not np.allclose(g, perm, atol=1e-12):
                raise ShapeError("two-body integrals lack 8-fold symmetry")


@dataclass(frozen=True)
class ActiveSpaceSpec:
    """Frozen (doubly occupied) and active spatial-orbital index sets."""

    frozen_spatial: tuple
    active_spatial: tuple

    def __post_init__(self):
        frozen, active = set(self.frozen_spatial), set(self.active_spatial)
        if len(frozen) + len(active) != len(self.frozen_spatial) + len(self.active_spatial):
            raise ActiveSpaceError(f"repeated orbital index in {self}")
        if frozen & active:
            raise ActiveSpaceError(f"orbitals {sorted(frozen & active)} both frozen and active")
        if tuple(sorted(self.frozen_spatial)) != tuple(self.frozen_spatial):
            raise ActiveSpaceError("frozen_spatial must be sorted")
        if tuple(sorted(self.active_spatial)) != tuple(self.active_spatial):
            raise ActiveSpaceError("active_spatial must be sorted")


def boys_f0(x):
    """Boys function F0 via the error-function closed form, elementwise.

    The x -> 0 limit is taken explicitly at and below 1e-12 to avoid the 0/0
    singularity of the closed form. Each erf is ``math.erf``; numpy has none.
    """
    x = np.asarray(x, dtype=float)
    big = x > 1e-12
    safe = np.where(big, x, 1.0)
    erf = np.asarray(_erf(np.sqrt(safe)), dtype=float)
    return np.where(big, 0.5 * np.sqrt(math.pi / safe) * erf, 1.0)[()]  # a scalar for a scalar


_erf = np.frompyfunc(math.erf, 1, 1)
_exp = np.frompyfunc(math.exp, 1, 1)


def _loop_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order, as ``s = 0.0; s += t`` does, signed zeros too."""
    return 0.0 + np.add.accumulate(terms, axis=-1)[..., -1]


def _s_primitive_norm(alpha: float) -> float:
    return (2.0 * alpha / math.pi) ** 0.75


def nuclear_repulsion(molecule: Molecule) -> float:
    e = 0.0
    atoms = molecule.atoms
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            r = float(np.linalg.norm(atoms[i][2] - atoms[j][2]))
            if r < COINCIDENT_ATOM_TOLERANCE:
                raise SingularGeometryError(f"atoms {i} and {j} coincide (separation {r:.2e} Bohr)")
            e += atoms[i][1] * atoms[j][1] / r
    return e


def compute_ao_integrals(molecule: Molecule) -> AOIntegrals:
    """STO-3G s-orbital integrals for a hydrogen-only molecule.

    Each atom carries one contracted s function. The contracted functions
    are renormalized so the overlap diagonal is exactly 1. Closed-form
    Gaussian product formulas are used throughout, with the Boys function
    F0 handling the two-electron and nuclear-attraction kernels.
    """
    for symbol, z, _ in molecule.atoms:
        if symbol != "H" or z != 1:
            raise UnsupportedElementError(
                f"integral generation supports hydrogen only, got {symbol} (Z={z})")
    if not molecule.atoms:
        raise ShapeError("molecule has no atoms")

    e_nuc = nuclear_repulsion(molecule)  # also rejects coincident atoms

    exps = np.array(STO3G_H_EXPONENTS)
    raw_coeffs = np.array(STO3G_H_COEFFICIENTS)

    # primitive-pair data of every ordered AO pair (a, b), flat index
    # a * n_ao + b, primitive pairs (i, j) in row-major order. Each value
    # takes the operations and rounding of the closed-form loop (Szabo &
    # Ostlund, ch. 3), so the arrays equal the loop's bit for bit: np.vecdot
    # rounds a 3-vector dot as np.dot does, exp and ** stay in Python's math,
    # and every sum runs in loop order. Positions are taken in atom 0's frame, so
    # a product centre far from the origin is not rounded off its nuclei
    r = np.array([xyz for _, _, xyz in molecule.atoms], dtype=float)
    r = r - r[0]
    n_ao = len(r)
    p = np.add.outer(exps, exps).ravel()
    mu = np.multiply.outer(exps, exps).ravel() / p
    gauss = np.array([(math.pi / x) ** 1.5 for x in p])
    # weights include primitive norms and the contracted renormalization
    weights = raw_coeffs * np.array([_s_primitive_norm(a) for a in exps])
    weights = weights / math.sqrt(_loop_sum(np.outer(weights, weights).ravel() * gauss))
    rab2 = np.vecdot(r[:, None] - r, r[:, None] - r).reshape(-1, 1)
    pref = np.outer(weights, weights).ravel() * np.asarray(_exp(-mu * rab2), dtype=float)
    ea, eb = np.repeat(exps, len(exps))[:, None], np.tile(exps, len(exps))[:, None]
    rp = ((ea * r[:, None, None] + eb * r[:, None]) / p[:, None]).reshape(-1, len(p), 3)

    # one-electron integrals on the pairs a <= b, nuclei innermost in V
    upper = np.triu_indices(n_ao)
    ab = upper[0] * n_ao + upper[1]
    s = _loop_sum(pref[ab] * gauss)
    t = _loop_sum(pref[ab] * mu * (3.0 - 2.0 * mu * rab2[ab]) * gauss)
    charges = np.array([float(z) for _, z, _ in molecule.atoms])
    to_nuclei = rp[ab][:, :, None] - r
    # the loop's v -= t is v + (-t) in IEEE arithmetic: sum the negated terms
    v = -(pref[ab][:, :, None] * charges * (2.0 * math.pi / p)[:, None]
          * boys_f0(p[:, None] * np.vecdot(to_nuclei, to_nuclei)))
    v = _loop_sum(v.reshape(len(ab), -1))
    S, T, V = (np.zeros((n_ao, n_ao)) for _ in range(3))
    for matrix, values in ((S, s), (T, t), (V, v)):
        matrix[upper] = matrix[upper[::-1]] = values

    # (ab|cd) for every ket cd >= bra ab, bra primitives outer, ket inner
    pq, p_plus_q = np.multiply.outer(p, p), np.add.outer(p, p)
    denom, rho = pq * np.sqrt(p_plus_q), pq / p_plus_q
    eri = np.zeros((n_ao * n_ao, n_ao * n_ao))
    for bra in range(n_ao * n_ao):
        to_kets = rp[bra][None, :, None, :] - rp[bra:][:, None, :, :]
        terms = (pref[bra][:, None] * pref[bra:][:, None, :] * 2.0 * math.pi ** 2.5 / denom
                 * boys_f0(rho * np.vecdot(to_kets, to_kets)))
        eri[bra, bra:] = eri[bra:, bra] = _loop_sum(terms.reshape(len(terms), -1))
    eri = eri.reshape(n_ao, n_ao, n_ao, n_ao)

    return AOIntegrals(n_ao, S, T, V, eri, e_nuc)


def run_rhf(ao: AOIntegrals, n_electrons: int) -> RhfResult:
    """Restricted Hartree-Fock by plain Roothaan iteration.

    Convergence: successive density matrices differ by < 1e-8 (max-abs).
    No DIIS or damping, so stretched H2 (14 Bohr and beyond, where the symmetric
    density is an unstable fixed point) raises ScfConvergenceError.
    """
    if n_electrons % 2 != 0:
        raise ShapeError(f"RHF requires an even electron count, got {n_electrons}")
    if n_electrons > 2 * ao.n_ao:
        raise ShapeError("more electrons than spin orbitals")

    h_core = ao.kinetic + ao.nuclear
    s_vals, s_vecs = np.linalg.eigh(ao.overlap)
    if s_vals.min() <= 1e-10:
        raise SingularGeometryError("overlap matrix is numerically singular")
    x = s_vecs @ np.diag(s_vals ** -0.5) @ s_vecs.T

    def solve_fock(fock):
        eps, c_prime = np.linalg.eigh(x.T @ fock @ x)
        return eps, x @ c_prime

    def fock_and_energy(density):
        coulomb = np.einsum("pqrs,rs->pq", ao.eri, density)
        exchange = np.einsum("prqs,rs->pq", ao.eri, density)
        fock = h_core + coulomb - 0.5 * exchange
        return fock, 0.5 * np.einsum("pq,pq->", density, h_core + fock) + ao.e_nuc

    if n_electrons == 0:
        eps, c = solve_fock(h_core)
        return RhfResult(ao.e_nuc, eps, c, 0, True, 0, (ao.e_nuc,))

    n_occ = n_electrons // 2
    eps, c = solve_fock(h_core)  # core guess
    density = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
    trace = []
    for iteration in range(1, SCF_MAX_ITERATIONS + 1):
        fock, energy = fock_and_energy(density)
        trace.append(float(energy))

        eps, c = solve_fock(fock)
        new_density = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
        delta = np.abs(new_density - density).max()
        density = new_density
        if delta < SCF_DENSITY_TOLERANCE:
            _, energy = fock_and_energy(density)
            trace.append(float(energy))
            return RhfResult(
                float(energy), eps, c, iteration, True, n_electrons, tuple(trace)
            )

    raise ScfConvergenceError(f"SCF not converged after {SCF_MAX_ITERATIONS} iterations")


def transform_to_mo(ao: AOIntegrals, rhf: RhfResult) -> MolecularIntegrals:
    """Four-index transform of the AO integrals into the MO basis."""
    if not rhf.converged:
        raise ShapeError("RHF result not converged")
    c = rhf.mo_coefficients
    if c.shape[0] != ao.n_ao:
        raise ShapeError("MO coefficient rows do not match AO count")
    h_mo = c.T @ (ao.kinetic + ao.nuclear) @ c
    g_mo = np.einsum("pqrs,pi,qj,rk,sl->ijkl", ao.eri, c, c, c, c, optimize=True)
    return MolecularIntegrals(
        n_spatial_orbitals=c.shape[1],
        n_electrons=rhf.n_electrons,
        constant_energy=ao.e_nuc,
        h=h_mo,
        g=g_mo,
    )


def freeze_core(integrals: MolecularIntegrals, spec: ActiveSpaceSpec) -> MolecularIntegrals:
    """Fold doubly occupied core orbitals into an effective active-space problem.

    The core energy 2*sum_i h_ii + sum_ij [2(ii|jj) - (ij|ji)] moves into
    the constant, and the active one-body matrix picks up the standard
    closed-shell contraction h'_pq = h_pq + sum_i [2(pq|ii) - (pi|iq)].
    """
    n = integrals.n_spatial_orbitals
    frozen = list(spec.frozen_spatial)
    active = list(spec.active_spatial)
    for idx in frozen + active:
        if not 0 <= idx < n:
            raise ActiveSpaceError(f"orbital index {idx} outside 0..{n - 1}")
    n_occ = integrals.n_electrons // 2
    for idx in frozen:
        if idx >= n_occ:
            raise ActiveSpaceError(
                f"frozen orbital {idx} is not doubly occupied in the reference"
            )
    if not active:
        raise ActiveSpaceError("active space is empty")

    if not frozen and active == list(range(n)):
        return integrals

    h, g = integrals.h, integrals.g
    e_core = 0.0
    for i in frozen:
        e_core += 2.0 * h[i, i]
        for j in frozen:
            e_core += 2.0 * g[i, i, j, j] - g[i, j, j, i]

    act = np.asarray(active, dtype=int)
    h_eff = h[np.ix_(act, act)].copy()
    for i in frozen:
        h_eff += 2.0 * g[np.ix_(act, act, [i], [i])][:, :, 0, 0]
        h_eff -= g[np.ix_(act, [i], [i], act)][:, 0, 0, :]

    g_act = g[np.ix_(act, act, act, act)]
    return MolecularIntegrals(
        n_spatial_orbitals=len(active),
        n_electrons=integrals.n_electrons - 2 * len(frozen),
        constant_energy=integrals.constant_energy + float(e_core),
        h=h_eff,
        g=g_act,
    )
