"""End-to-end workflows: scans over geometries or FCIDUMP files, curve
fitting for equilibrium and barrier analysis, curve comparison, and
convergence-trace export.

A scan is described by a JSON manifest (see :func:`load_manifest`); each
point runs the full pipeline integrals -> (optional frozen core) ->
Jordan-Wigner -> VQE plus exact diagonalization, with a per-point seed
derived from the scan seed and the point label so points are independent
and reorderable.
"""

from __future__ import annotations

import os
import warnings
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .ansatz import build_hardware_efficient, build_uccsd
from .exactdiag import ground_state_energy
from .exceptions import (
    BarrierError,
    CurveAlignmentError,
    FcidumpError,
    FitBracketError,
    ManifestError,
    ShapeError,
    VqeChemError,
    checked_int,
    checked_object,
    checked_real,
)
from .fcidump import parse_fcidump
from .fermions import build_second_quantized, jordan_wigner
from .integrals import (
    ActiveSpaceSpec,
    Molecule,
    MolecularIntegrals,
    RhfResult,
    compute_ao_integrals,
    freeze_core,
    run_rhf,
    transform_to_mo,
)
from .measurement import group_commuting
from .optimize import OptimizerConfig, VqeResult, run_vqe
from .units import ANGSTROM_TO_BOHR, HARTREE_TO_KCALMOL, MILLIHARTREE_PER_HARTREE


@dataclass(frozen=True)
class ScanPoint:
    label: str
    coordinate: float
    geometry: dict | None = None
    fcidump_path: str | None = None

    def __post_init__(self):
        if "," in self.label or not self.label.isprintable():  # a line break or a surrogate
            raise ManifestError(f"point label {self.label!r} holds a comma or a non-printable")
        if (self.geometry is None) == (self.fcidump_path is None):
            raise ManifestError(f"point {self.label!r} needs exactly one of geometry or fcidump")
        if not isinstance(self.fcidump_path, (str, type(None))):
            raise ManifestError(f"point {self.label!r} fcidump must be a path string, "
                                f"got {self.fcidump_path!r}")
        object.__setattr__(self, "coordinate", checked_real(  # the dataclass is frozen
            self.coordinate, f"point {self.label!r} coordinate", ManifestError))


@dataclass(frozen=True)
class ScanManifest:
    """The settings every point of a scan runs with: their one set of defaults and
    checks. A value of the wrong type or out of range raises ManifestError."""

    label: str = "scan"
    points: tuple = ()
    coordinate_unit: str = "angstrom"
    ansatz: str = "uccsd"
    reps: int = 1
    optimizer: OptimizerConfig = OptimizerConfig()
    mode: str = "exact"
    shots: int = 1024
    seed: int = 0
    restarts: int = 5
    freeze: tuple = ()

    def __post_init__(self):
        labels = [p.label for p in self.points]
        if len(set(labels)) != len(labels):
            raise ManifestError("point labels must be unique")
        if self.coordinate_unit not in ("angstrom", "bohr"):
            raise ManifestError(f"unknown coordinate unit {self.coordinate_unit!r}")
        if self.ansatz not in ("uccsd", "hardware"):
            raise ManifestError(f"unknown ansatz {self.ansatz!r}")
        if not isinstance(self.optimizer, OptimizerConfig):
            raise ManifestError(f"optimizer must be an OptimizerConfig, got {self.optimizer!r}")
        if self.mode not in ("exact", "sampled"):
            raise ManifestError(f"unknown mode {self.mode!r}")
        for name, least in (("reps", 0), ("shots", 1), ("seed", None), ("restarts", 1)):
            checked_int(getattr(self, name), name, least, ManifestError)
        for i in self.freeze:
            checked_int(i, "freeze entry", error=ManifestError)
        if len(set(self.freeze)) != len(self.freeze):
            raise ManifestError(f"freeze has a repeated orbital index: {list(self.freeze)}")


@dataclass(frozen=True)
class PesPoint:
    geometry_label: str
    coordinate: float
    e_vqe: float
    e_fci: float
    error_mha: float
    n_pauli_terms: int
    n_groups: int


@dataclass(frozen=True)
class SinglePointResult:
    vqe: VqeResult
    e_fci: float
    n_qubits: int
    n_pauli_terms: int
    n_groups: int

    @property
    def error_mha(self) -> float:
        return (self.vqe.final_energy - self.e_fci) * MILLIHARTREE_PER_HARTREE


def load_manifest(doc: dict, base_dir: str = ".") -> ScanManifest:
    """The manifest of a JSON document whose keys are :class:`ScanManifest` fields.

    Only the keys given go to :class:`ScanManifest`, which holds the defaults and
    checks the values. ``optimizer`` holds :class:`OptimizerConfig` fields, and each
    of ``points`` a ``label``, a ``coordinate`` and one of ``geometry`` or
    ``fcidump`` (a path relative to ``base_dir``). Any other key or a bad value, the
    optimizer's too, raises ManifestError; a geometry is read when its point runs.
    """
    settings = dict(checked_object(doc, [f.name for f in fields(ScanManifest)], "manifest"))
    for key in ("points", "freeze"):
        if key in settings and not isinstance(settings[key], list):
            raise ManifestError(f"{key} must be a list, got {type(settings[key]).__name__}")
    if "label" in settings:
        settings["label"] = str(settings["label"])
    if "points" in settings:
        settings["points"] = tuple(_scan_point(n, entry, base_dir)
                                   for n, entry in enumerate(settings["points"]))
    if "freeze" in settings:
        settings["freeze"] = tuple(settings["freeze"])
    if "optimizer" in settings:
        options = checked_object(settings["optimizer"], [f.name for f in fields(OptimizerConfig)],
                                 "optimizer")
        try:
            settings["optimizer"] = OptimizerConfig(**options)
        except ShapeError as exc:
            raise ManifestError(f"bad optimizer value: {exc}") from None
    return ScanManifest(**settings)


def _scan_point(n: int, entry, base_dir: str) -> ScanPoint:
    """Point ``n`` of a manifest document, its FCIDUMP path joined to ``base_dir``."""
    entry = checked_object(entry, ("label", "coordinate", "geometry", "fcidump"), f"point {n}")
    if "label" not in entry:
        raise ManifestError(f"point {n} has no label")
    path = entry.get("fcidump")  # ScanPoint refuses one that is not a string
    return ScanPoint(str(entry["label"]), entry.get("coordinate", 0.0), entry.get("geometry"),
                     os.path.join(base_dir, path) if isinstance(path, str) else path)


def point_seed(base_seed: int, label: str) -> int:
    """Stable per-point seed; independent of point order in the manifest."""
    return (base_seed + zlib.crc32(label.encode("utf-8"))) % (2**31)


def integrals_from_geometry(geometry: dict) -> tuple[MolecularIntegrals, RhfResult]:
    """Built-in STO-3G + RHF pipeline: geometry document -> MO integrals.

    For an odd electron count the orbitals come from the largest even count
    (full CI is invariant to this orbital choice, and the extra electron
    occupies the next alpha spin orbital of the reference).
    """
    molecule = Molecule.from_geometry_dict(geometry)
    ao = compute_ao_integrals(molecule)
    rhf = run_rhf(ao, molecule.n_electrons - molecule.n_electrons % 2)
    integrals = transform_to_mo(ao, rhf)
    if molecule.n_electrons % 2:
        integrals = replace(integrals, n_electrons=molecule.n_electrons)
    return integrals, rhf


def integrals_for_point(point: ScanPoint, freeze: tuple = ()) -> MolecularIntegrals:
    """Resolve a scan point to (optionally frozen-core) MO integrals."""
    if point.fcidump_path is not None:
        with open(point.fcidump_path, "r", encoding="utf-8") as fh:
            try:
                integrals = parse_fcidump(fh.read())
            except UnicodeDecodeError as exc:
                raise FcidumpError(f"{point.fcidump_path} is not UTF-8 text: {exc}") from None
    else:
        integrals, _ = integrals_from_geometry(point.geometry)
    if freeze:
        n = integrals.n_spatial_orbitals
        active = tuple(i for i in range(n) if i not in set(freeze))
        integrals = freeze_core(integrals, ActiveSpaceSpec(tuple(sorted(freeze)), active))
    return integrals


def run_single_point(
    integrals: MolecularIntegrals,
    ansatz: str = "uccsd",
    reps: int = 1,
    optimizer: OptimizerConfig = OptimizerConfig(),
    mode: str = "exact",
    shots: int = 1024,
    restarts: int = 5,
) -> SinglePointResult:
    """Map integrals to qubits, minimize, and cross-check with exact FCI.

    The FCI energy is the lowest state with the integrals' electron count.
    The Hamiltonian is grouped once; sampled mode measures those groups.
    """
    if ansatz not in ("uccsd", "hardware"):
        raise ShapeError(f"unknown ansatz {ansatz!r}")
    hamiltonian = jordan_wigner(build_second_quantized(integrals))
    n_qubits = hamiltonian.n_qubits
    if ansatz == "uccsd":
        circuit = build_uccsd(n_qubits, range(hamiltonian.n_electrons))
    else:
        circuit = build_hardware_efficient(n_qubits, reps)
    groups = group_commuting(hamiltonian)
    vqe = run_vqe(
        hamiltonian, circuit, optimizer,
        mode=mode, shots=shots, n_restarts=restarts, groups=groups,
    )
    fci = ground_state_energy(hamiltonian)
    return SinglePointResult(
        vqe=vqe,
        e_fci=fci.energy,
        n_qubits=n_qubits,
        n_pauli_terms=hamiltonian.n_terms,
        n_groups=len(groups),
    )


def run_point(manifest: ScanManifest, point: ScanPoint, seed: int) -> SinglePointResult:
    """One point run with the manifest's settings, its optimizer seeded with ``seed``."""
    integrals = integrals_for_point(point, manifest.freeze)
    return run_single_point(
        integrals,
        ansatz=manifest.ansatz,
        reps=manifest.reps,
        optimizer=replace(manifest.optimizer, seed=seed),
        mode=manifest.mode,
        shots=manifest.shots,
        restarts=manifest.restarts,
    )


def run_scan(manifest: ScanManifest):
    """Run every manifest point, each seeded with ``point_seed(manifest.seed, label)``;
    returns (pes_points, errors).

    A failing point is recorded as (label, message) and the scan continues;
    if every point fails a ManifestError is raised.
    """
    points = []
    errors = []
    for point in manifest.points:
        try:
            result = run_point(manifest, point, point_seed(manifest.seed, point.label))
            points.append(
                PesPoint(
                    geometry_label=point.label,
                    coordinate=point.coordinate,
                    e_vqe=result.vqe.final_energy,
                    e_fci=result.e_fci,
                    error_mha=result.error_mha,
                    n_pauli_terms=result.n_pauli_terms,
                    n_groups=result.n_groups,
                )
            )
        except (VqeChemError, OSError) as exc:  # per-point isolation; bugs propagate
            errors.append((point.label, f"{type(exc).__name__}: {exc}"))
    if manifest.points and not points:
        raise ManifestError(f"all {len(manifest.points)} scan points failed: {errors}")
    return points, errors


SCAN_CSV_HEADER = "label,coordinate,e_vqe,e_fci,error_mha,n_pauli_terms,n_groups"


def scan_csv(points) -> str:
    rows = [SCAN_CSV_HEADER]
    for p in points:
        rows.append(
            f"{p.geometry_label},{float(p.coordinate)!r},{float(p.e_vqe)!r},"
            f"{float(p.e_fci)!r},{float(p.error_mha)!r},{p.n_pauli_terms},{p.n_groups}"
        )
    return "\n".join(rows) + "\n"


def parse_scan_csv(text: str):
    """The points of a :func:`scan_csv` text; a row with the wrong field count, an
    unparsable field, or a non-finite coordinate or energy raises, naming its line."""
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != SCAN_CSV_HEADER:
        raise ManifestError("not a scan CSV (header mismatch)")
    points = []
    for number, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 7:
            raise ManifestError(f"scan CSV line {number}: {len(fields)} fields, expected 7")
        try:
            values = [float(f) for f in fields[1:5]] + [int(f) for f in fields[5:]]
        except ValueError as exc:
            raise ManifestError(f"scan CSV line {number}: {exc}") from None
        if not np.isfinite(values[:4]).all():
            raise ManifestError(f"scan CSV line {number}: non-finite coordinate or energy")
        points.append(PesPoint(fields[0], *values))
    return points


def _curve_arrays(coords, energies, error, at_least=0):
    """``coords`` and ``energies`` as 1-D float arrays of one length, at least ``at_least``
    points, finite, sorted stably by coordinate; other input raises ``error``."""
    coords, energies = np.asarray(coords, dtype=float), np.asarray(energies, dtype=float)
    if coords.shape != energies.shape or coords.ndim != 1:
        raise error("coordinate and energy arrays must match")
    if len(coords) < at_least:
        raise error(f"need at least {at_least} points, got {len(coords)}")
    if not (np.isfinite(coords).all() and np.isfinite(energies).all()):
        raise error("coordinates and energies must be finite")
    order = np.argsort(coords, kind="stable")
    return coords[order], energies[order]


def _fit_window(coords, energies, pivot):
    """The (at most) 5 samples nearest the pivot, in coordinate order; a window
    that repeats a coordinate raises, as it leaves the cubic underdetermined."""
    with np.errstate(over="ignore"):  # a span past the float range is inf; its fit fails
        order = np.argsort(np.abs(coords - coords[pivot]), kind="stable")
        chosen = np.sort(order[:5])
        if (np.diff(coords[chosen]) == 0).any():
            raise FitBracketError(f"fit window repeats a coordinate: {coords[chosen].tolist()}")
    return coords[chosen], energies[chosen]


def _cubic_stationary(x, y, pivot_coord, want_minimum):
    """Stationary point of a least-squares cubic with the requested curvature, or a
    FitBracketError: none is interior, or the fit overflows, loses rank or finds no roots."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"), warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.RankWarning)
            center = float(np.mean(x))
            span = x - center
            coeffs = np.polyfit(span, y, 3)
            deriv = np.polyder(coeffs)
            curvature = np.polyder(deriv)
            candidates = []
            for root in np.roots(deriv):
                if abs(root.imag) > 1e-10:
                    continue
                r = float(root.real)
                curv = float(np.polyval(curvature, r))
                if (curv > 0) == want_minimum and span.min() - 1e-9 <= r <= span.max() + 1e-9:
                    candidates.append((r + center, float(np.polyval(coeffs, r))))
    except (FloatingPointError, np.exceptions.RankWarning, np.linalg.LinAlgError) as exc:
        raise FitBracketError(f"cubic fit is ill-conditioned: {exc}") from None
    if not candidates:
        kind = "minimum" if want_minimum else "maximum"
        raise FitBracketError(f"cubic fit has no interior {kind}")
    # nearest stationary point to the discrete extremum
    return min(candidates, key=lambda c: abs(c[0] - pivot_coord))


def fit_equilibrium(coords, energies):
    """Equilibrium coordinate and energy from a cubic fit near the minimum.

    Requires at least 4 points and a discrete interior minimum.
    """
    coords, energies = _curve_arrays(coords, energies, FitBracketError, 4)
    k = int(np.argmin(energies))
    if k == 0 or k == len(coords) - 1:
        raise FitBracketError("discrete minimum sits on the scan boundary")
    x, y = _fit_window(coords, energies, k)
    return _cubic_stationary(x, y, coords[k], want_minimum=True)


def dissociation_energy(coords, energies) -> float:
    """(E at the largest coordinate - fitted E_min) in kcal/mol."""
    coords, energies = _curve_arrays(coords, energies, FitBracketError)
    if len(energies) and energies.max() - energies.min() < 1e-12:
        return 0.0
    _, e_min = fit_equilibrium(coords, energies)
    e_asymptote = float(energies[np.argmax(coords)])
    return checked_real((e_asymptote - e_min) * HARTREE_TO_KCALMOL, "well depth",
                        FitBracketError)


def activation_energy(coords, energies) -> float:
    """Barrier height in kcal/mol from a reaction-coordinate scan.

    The saddle is the cubic-fitted interior maximum; the reactant energy is
    the fitted minimum on the lower-coordinate side when that minimum is
    interior, else the raw end-point energy (an asymptotic reactant).
    """
    coords, energies = _curve_arrays(coords, energies, BarrierError, 4)
    k = int(np.argmax(energies))
    if k == 0 or k == len(coords) - 1:
        raise BarrierError("no interior maximum along the scan")
    x, y = _fit_window(coords, energies, k)
    try:
        _, e_saddle = _cubic_stationary(x, y, coords[k], want_minimum=False)
    except FitBracketError as exc:  # no interior maximum, or an ill-conditioned fit
        raise BarrierError(f"near the discrete maximum, {exc}") from None

    left_energies = energies[: k + 1]
    m = int(np.argmin(left_energies))
    if 0 < m < k:
        x_min, y_min = _fit_window(coords[: k + 1], left_energies, m)
        _, e_reactant = _cubic_stationary(x_min, y_min, coords[m], want_minimum=True)
    else:
        e_reactant = float(left_energies[m])
    return checked_real((e_saddle - e_reactant) * HARTREE_TO_KCALMOL, "barrier", BarrierError)


@dataclass(frozen=True)
class CurveComparison:
    rows: tuple  # (label, e_a, e_b, delta) with delta = e_a - e_b
    mean_shift: float
    min_shift: float
    max_shift: float

    def to_csv(self) -> str:
        out = ["label,e_a,e_b,delta"]
        for label, e_a, e_b, delta in self.rows:
            out.append(f"{label},{float(e_a)!r},{float(e_b)!r},{float(delta)!r}")
        return "\n".join(out) + "\n"


def compare_curves(curve_a, curve_b) -> CurveComparison:
    """Pointwise shift between two labeled curves (delta = a - b).

    Inputs are sequences of (label, energy); labels must coincide as sets.
    """
    a = dict(curve_a)
    b = dict(curve_b)
    if len(a) != len(curve_a) or len(b) != len(curve_b):
        raise CurveAlignmentError("duplicate labels within a curve")
    if set(a) != set(b):
        missing = set(a) ^ set(b)
        raise CurveAlignmentError(f"curves do not share labels: {sorted(missing)}")
    rows = tuple(
        (label, a[label], b[label], float(a[label]) - float(b[label])) for label, _ in curve_a
    )
    if not rows:
        raise CurveAlignmentError("the curves hold no points")
    deltas = [r[3] for r in rows]
    for label, _, _, delta in rows:  # a difference of finite floats overflows quietly
        checked_real(delta, f"shift at {label!r}", CurveAlignmentError)
    with np.errstate(over="ignore"):  # and so can their sum
        mean = checked_real(float(np.mean(deltas)), "mean shift", CurveAlignmentError)
    return CurveComparison(rows, mean, float(min(deltas)), float(max(deltas)))


def trace_csv(result: VqeResult) -> str:
    """Convergence export: ``iteration,energy,best_energy`` per iteration."""
    rows = ["iteration,energy,best_energy"]
    best = result.best_so_far()
    for i, (energy, best_energy) in enumerate(zip(result.energy_trace, best)):
        rows.append(f"{i},{float(energy)!r},{float(best_energy)!r}")
    return "\n".join(rows) + "\n"


def hydrogen_geometry(positions_bohr, charge: int = 0) -> dict:
    """Geometry document for a set of hydrogen atoms (positions in Bohr)."""
    return {
        "atoms": [
            {"symbol": "H", "xyz_bohr": [float(c) for c in xyz]} for xyz in positions_bohr
        ],
        "charge": charge,
    }


def h2_point(label: str, r_angstrom: float) -> dict:
    r_bohr = r_angstrom * ANGSTROM_TO_BOHR
    return {
        "label": label,
        "coordinate": r_angstrom,
        "geometry": hydrogen_geometry([[0.0, 0.0, 0.0], [0.0, 0.0, r_bohr]]),
    }


# collinear H3 exchange path, Angstrom: the H2 bond at the reactant, both
# bonds at the symmetric point, and the far atom's distance at the reactant
H3_R_EQ = 0.74
H3_R_TS = 0.94
H3_D_FAR = 2.2


def h3_exchange_point(label: str, s: float) -> dict:
    """Collinear H3 geometry along a symmetric exchange path.

    ``s`` runs from -1 (reactant: short A-B bond, C far away) through 0
    (symmetric configuration) to +1 (product, mirrored); the bonds move
    linearly in ``|s|`` between ``H3_R_TS`` and ``H3_R_EQ`` or ``H3_D_FAR``.
    The returned coordinate is ``s``.
    """
    t = abs(s)
    near = H3_R_TS + t * (H3_R_EQ - H3_R_TS)
    far = H3_R_TS + t * (H3_D_FAR - H3_R_TS)
    r_ab, r_bc = (near, far) if s <= 0 else (far, near)
    z0 = 0.0
    z1 = r_ab * ANGSTROM_TO_BOHR
    z2 = z1 + r_bc * ANGSTROM_TO_BOHR
    return {
        "label": label,
        "coordinate": s,
        "geometry": hydrogen_geometry([[0.0, 0.0, z0], [0.0, 0.0, z1], [0.0, 0.0, z2]]),
    }
