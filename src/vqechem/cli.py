"""Command-line entry points for the VQE workflows.

Subcommands: fcidump-gen, vqe, fci, scan, fit, barrier, compare, trace.
All outputs are plain CSV files plus an optional JSON run summary on
stdout (``--json``); for fixed seeds and inputs every output is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .exactdiag import ground_state_energy
from .exceptions import ManifestError, VqeChemError
from .fcidump import write_fcidump
from .fermions import build_second_quantized, jordan_wigner
from .optimize import OptimizerConfig
from .workflows import (
    ScanManifest,
    activation_energy,
    compare_curves,
    dissociation_energy,
    fit_equilibrium,
    integrals_for_point,
    integrals_from_geometry,
    load_manifest,
    parse_scan_csv,
    run_point,
    run_scan,
    scan_csv,
    trace_csv,
)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise VqeChemError(f"{path} is not valid JSON: {exc}") from None


def _emit(summary: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(summary, sort_keys=True))
    else:
        for key in sorted(summary):
            print(f"{key}: {summary[key]}")


def _single_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--geometry", help="geometry JSON path")
    parser.add_argument("--fcidump", help="FCIDUMP path")
    parser.add_argument("--freeze", nargs="*", type=int, default=argparse.SUPPRESS,
                        help="spatial orbitals to freeze")


def _vqe_args(parser: argparse.ArgumentParser) -> None:
    # a flag left out stays out of the namespace, so its setting keeps the
    # ScanManifest (or OptimizerConfig) default; dest names the field it sets
    unset = argparse.SUPPRESS
    parser.add_argument("--ansatz", choices=["hardware", "uccsd"], default=unset)
    parser.add_argument("--reps", type=int, default=unset)
    parser.add_argument("--optimizer", dest="kind", choices=["spsa", "simplex"], default=unset)
    parser.add_argument("--mode", choices=["exact", "sampled"], default=unset)
    parser.add_argument("--shots", type=int, default=unset)
    parser.add_argument("--seed", type=int, default=unset)
    parser.add_argument("--restarts", type=int, default=unset)
    parser.add_argument("--max-iterations", type=int, default=unset)
    parser.add_argument("--threshold", dest="convergence_threshold", metavar="THRESHOLD",
                        type=float, default=unset,
                        help="optimizer convergence threshold in Hartree")


def _manifest_from_args(args) -> ScanManifest:
    """A one-point manifest of the flags given, loaded as a manifest file is."""
    if (args.geometry is None) == (args.fcidump is None):
        raise VqeChemError("provide exactly one of --geometry or --fcidump")
    point = ({"geometry": _read_json(args.geometry)} if args.fcidump is None
             else {"fcidump": args.fcidump})
    given = vars(args)
    doc = {f.name: given[f.name] for f in fields(ScanManifest) if f.name in given}
    doc["optimizer"] = {f.name: given[f.name] for f in fields(OptimizerConfig) if f.name in given}
    return load_manifest({**doc, "points": [{"label": "point", **point}]}, base_dir="")


def _run_point_from_args(args):
    manifest = _manifest_from_args(args)
    return run_point(manifest, manifest.points[0], manifest.seed)


def cmd_fcidump_gen(args) -> int:
    integrals, rhf = integrals_from_geometry(_read_json(args.geometry))
    _write_text(args.out, write_fcidump(integrals))
    _emit(
        {
            "command": "fcidump-gen",
            "out": args.out,
            "n_spatial_orbitals": integrals.n_spatial_orbitals,
            "n_electrons": integrals.n_electrons,
            "rhf_energy": rhf.total_energy,
        },
        args.json,
    )
    return 0


def cmd_vqe(args) -> int:
    result = _run_point_from_args(args)
    _emit(
        {
            "command": "vqe",
            "e_vqe": result.vqe.final_energy,
            "e_fci": result.e_fci,
            "error_mha": result.error_mha,
            "n_qubits": result.n_qubits,
            "n_pauli_terms": result.n_pauli_terms,
            "n_groups": result.n_groups,
            "n_function_evaluations": result.vqe.n_function_evaluations,
            "converged": result.vqe.converged,
            "termination_reason": result.vqe.termination_reason,
        },
        args.json,
    )
    return 0


def cmd_fci(args) -> int:
    manifest = _manifest_from_args(args)
    integrals = integrals_for_point(manifest.points[0], manifest.freeze)
    hamiltonian = jordan_wigner(build_second_quantized(integrals))
    ground = ground_state_energy(hamiltonian)
    _emit(
        {
            "command": "fci",
            "e_fci": ground.energy,
            "residual_norm": ground.residual_norm,
            "n_qubits": hamiltonian.n_qubits,
            "n_pauli_terms": hamiltonian.n_terms,
        },
        args.json,
    )
    return 0


def cmd_scan(args) -> int:
    doc = _read_json(args.manifest)
    manifest = load_manifest(doc, base_dir=os.path.dirname(os.path.abspath(args.manifest)))
    points, errors = run_scan(manifest)
    _write_text(args.out, scan_csv(points))
    for label, message in errors:
        print(f"point {label!r} failed: {message}", file=sys.stderr)
    _emit(
        {
            "command": "scan",
            "label": manifest.label,
            "coordinate_unit": manifest.coordinate_unit,
            "out": args.out,
            "n_points": len(points),
            "n_failed": len(errors),
        },
        args.json,
    )
    return 0


def _curve_columns(path: str, column: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            points = parse_scan_csv(fh.read())
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path} is not UTF-8 text: {exc}") from None
    coords = [p.coordinate for p in points]
    energies = [getattr(p, column) for p in points]
    labels = [p.geometry_label for p in points]
    return labels, coords, energies


def cmd_fit(args) -> int:
    _, coords, energies = _curve_columns(args.curve, args.column)
    r_e, e_min = fit_equilibrium(coords, energies)
    summary = {
        "command": "fit",
        "column": args.column,
        "equilibrium_coordinate": r_e,
        "minimum_energy": e_min,
    }
    try:
        summary["dissociation_kcal_mol"] = dissociation_energy(coords, energies)
    except VqeChemError as exc:
        summary["dissociation_error"] = str(exc)
    _emit(summary, args.json)
    return 0


def cmd_barrier(args) -> int:
    _, coords, energies = _curve_columns(args.curve, args.column)
    _emit(
        {
            "command": "barrier",
            "column": args.column,
            "activation_kcal_mol": activation_energy(coords, energies),
        },
        args.json,
    )
    return 0


def cmd_compare(args) -> int:
    labels_a, _, energies_a = _curve_columns(args.curve_a, args.column)
    labels_b, _, energies_b = _curve_columns(args.curve_b, args.column)
    comparison = compare_curves(list(zip(labels_a, energies_a)), list(zip(labels_b, energies_b)))
    if args.out:
        _write_text(args.out, comparison.to_csv())
    _emit(
        {
            "command": "compare",
            "column": args.column,
            "mean_shift": comparison.mean_shift,
            "min_shift": comparison.min_shift,
            "max_shift": comparison.max_shift,
            "n_points": len(comparison.rows),
        },
        args.json,
    )
    return 0


def cmd_trace(args) -> int:
    result = _run_point_from_args(args)
    _write_text(args.out, trace_csv(result.vqe))
    _emit(
        {
            "command": "trace",
            "out": args.out,
            "e_vqe": result.vqe.final_energy,
            "n_iterations": len(result.vqe.energy_trace),
            "n_function_evaluations": result.vqe.n_function_evaluations,
        },
        args.json,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqechem",
        description="VQE workflows for small-molecule electronic structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fcidump-gen", help="hydrogen geometry JSON -> FCIDUMP")
    p.add_argument("--geometry", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fcidump_gen)

    p = sub.add_parser("vqe", help="single-point VQE with exact-diagonalization check")
    _single_point_args(p)
    _vqe_args(p)
    p.set_defaults(func=cmd_vqe)

    p = sub.add_parser("fci", help="single-point exact diagonalization")
    _single_point_args(p)
    p.set_defaults(func=cmd_fci)

    p = sub.add_parser("scan", help="run a manifest of scan points, write CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fit", help="equilibrium fit (and well depth) from a scan CSV")
    p.add_argument("--curve", required=True)
    p.add_argument("--column", choices=["e_vqe", "e_fci"], default="e_vqe")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("barrier", help="activation energy from a reaction scan CSV")
    p.add_argument("--curve", required=True)
    p.add_argument("--column", choices=["e_vqe", "e_fci"], default="e_vqe")
    p.set_defaults(func=cmd_barrier)

    p = sub.add_parser("compare", help="pointwise shift between two scan CSVs")
    p.add_argument("--curve-a", required=True)
    p.add_argument("--curve-b", required=True)
    p.add_argument("--column", choices=["e_vqe", "e_fci"], default="e_vqe")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("trace", help="single-point VQE, write the convergence CSV")
    _single_point_args(p)
    _vqe_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trace)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="JSON summary on stdout")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VqeChemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
