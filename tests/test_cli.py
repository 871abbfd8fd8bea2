import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vqechem
from vqechem.cli import main
from vqechem.fcidump import parse_fcidump, write_fcidump
from vqechem.integrals import MolecularIntegrals
from vqechem.workflows import PesPoint, h2_point, scan_csv

H2_GEOMETRY = {
    "atoms": [
        {"symbol": "H", "xyz_bohr": [0.0, 0.0, 0.0]},
        {"symbol": "H", "xyz_bohr": [0.0, 0.0, 1.4]},
    ],
    "charge": 0,
}

FAST_VQE = ["--max-iterations", "150", "--threshold", "1e-8", "--restarts", "1"]


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def small_manifest(tmp_path, seed=3):
    doc = {
        "label": "cli-test",
        "coordinate_unit": "angstrom",
        "ansatz": "uccsd",
        "mode": "exact",
        "optimizer": {
            "kind": "simplex",
            "max_iterations": 200,
            "convergence_threshold": 1e-9,
            "seed": 0,
        },
        "seed": seed,
        "restarts": 1,
        "points": [h2_point("0.70", 0.70), h2_point("0.78", 0.78)],
    }
    return write_json(tmp_path / "manifest.json", doc)


def test_fcidump_gen_and_fci(tmp_path, capsys):
    geometry = write_json(tmp_path / "h2.json", H2_GEOMETRY)
    out = tmp_path / "h2.fcidump"
    assert main(["fcidump-gen", "--geometry", geometry, "--out", str(out), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_spatial_orbitals"] == 2
    integrals = parse_fcidump(out.read_text())
    assert integrals.n_electrons == 2

    assert main(["fci", "--fcidump", str(out), "--json"]) == 0
    fci = json.loads(capsys.readouterr().out)
    assert fci["n_qubits"] == 4
    assert fci["e_fci"] < -1.13


def test_fci_solves_the_geometry_electron_count(tmp_path, capsys):
    # H2 anion: 3 electrons in 4 spin orbitals, above the neutral minimum
    geometry = write_json(tmp_path / "h2m.json", {**H2_GEOMETRY, "charge": -1})
    assert main(["fci", "--geometry", geometry, "--json"]) == 0
    anion = json.loads(capsys.readouterr().out)["e_fci"]
    neutral_geometry = write_json(tmp_path / "h2.json", H2_GEOMETRY)
    assert main(["fci", "--geometry", neutral_geometry, "--json"]) == 0
    neutral = json.loads(capsys.readouterr().out)["e_fci"]
    assert anion > neutral + 0.1


@pytest.mark.parametrize("fixture, expected", [
    ("nonrel_eq", '{"command": "fci", "e_fci": -396.2481000000003, "n_pauli_terms": 361, '
                  '"n_qubits": 8, "residual_norm": 1.2556629928902647e-13}'),
    ("rel_stretch", '{"command": "fci", "e_fci": -396.24880000000036, "n_pauli_terms": 361, '
                    '"n_qubits": 8, "residual_norm": 2.7549648314685083e-13}'),
], ids=["nonrel_eq", "rel_stretch"])
def test_frozen_core_fci_json_pinned(fixture_dir, capsys, fixture, expected):
    # the frozen-core (2, 2) sector holds 36 states, solved by dense eigh: any
    # change to the form's entries, its dense matrix or a product moves the line
    path = os.path.join(fixture_dir, f"h2s_sto3g_{fixture}.fcidump")
    assert main(["fci", "--fcidump", path, "--freeze", "0", "1", "--json"]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_fci_repeated_freeze_exits_2_with_one_line(fixture_dir, capsys):
    path = os.path.join(fixture_dir, "h2s_sto3g_nonrel_eq.fcidump")
    assert main(["fci", "--fcidump", path, "--freeze", "0", "0"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "repeated orbital index" in err


def test_fci_freezing_every_orbital_exits_2_with_one_line(tmp_path, capsys):
    from test_integrals import ONE_ORBITAL_FCIDUMP

    path = tmp_path / "one.fcidump"
    path.write_text(ONE_ORBITAL_FCIDUMP)
    assert main(["fci", "--fcidump", str(path), "--freeze", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: active space is empty\n"


def test_negative_electron_count_exits_2_with_one_line(tmp_path, capsys, h2_integrals_074):
    # NELEC=-2 used to parse, and vqe then failed on an empty occupied set
    text = write_fcidump(h2_integrals_074).replace("NELEC=2,", "NELEC=-2,")
    path = tmp_path / "h2.fcidump"
    path.write_text(text)
    assert main(["vqe", "--fcidump", str(path), *FAST_VQE]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "NELEC must be in 0..4" in err


@pytest.mark.parametrize("command", ["fci", "vqe"])
@pytest.mark.parametrize("constant", ["inf", "nan"])
def test_non_finite_constant_energy_exits_2_with_one_line(tmp_path, capsys, h2_integrals_074,
                                                          command, constant):
    # the constant is the last line, "value 0 0 0 0"; inf used to print
    # e_fci 0.0 and nan to drop the term and print e_fci -1.5, both exiting 0
    lines = write_fcidump(h2_integrals_074).splitlines()
    assert lines[-1].split()[1:] == ["0"] * 4
    path = tmp_path / "h2.fcidump"
    path.write_text("\n".join([*lines[:-1], f"{constant} 0 0 0 0"]) + "\n")
    options = FAST_VQE if command == "vqe" else []
    assert main([command, "--fcidump", str(path), *options]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "non-finite constant energy" in err


@pytest.mark.parametrize("change, key", [
    ({"atoms": [{"symbol": "H", "xyz_bohr": [0.0, 0.0]}, H2_GEOMETRY["atoms"][1]]}, "3 numbers"),
    ({"charge": 0.5}, "charge"),
    ({"charge": True}, "charge"),
    ({"atoms": [{"symbol": "H", "xyz_bohr": [0, 0, True]}, H2_GEOMETRY["atoms"][1]]},
     "3 numbers"),
    ({"atoms": [H2_GEOMETRY["atoms"][0], {"symbol": "H", "xyz_bohr": [0, 0, "1.4"]}]},
     "3 numbers"),
    ({"charg": 1}, "the geometry has unknown keys ['charg']"),
    ({"atoms": [H2_GEOMETRY["atoms"][0], {"symbol": "H", "xyz": [0.0, 0.0, 1.4]}]},
     "atom 1 has unknown keys ['xyz']"),
], ids=["two-coordinates", "fractional-charge", "boolean-charge", "boolean-coordinate",
        "string-coordinate", "unknown-geometry-key", "unknown-atom-key"])
def test_malformed_geometry_exits_2_with_one_line(tmp_path, capsys, change, key):
    geometry = write_json(tmp_path / "geometry.json", {**H2_GEOMETRY, **change})
    assert main(["fci", "--geometry", geometry]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and key in err


@pytest.mark.parametrize("command", ["vqe", "trace"])
@pytest.mark.parametrize("flags, key", [
    (["--shots", "0"], "shots must be >= 1, got 0"),
    (["--reps", "-1"], "reps must be >= 0, got -1"),
    (["--restarts", "0"], "restarts must be >= 1, got 0"),
    (["--freeze", "0", "0"], "freeze has a repeated orbital index"),
], ids=["zero-shots", "negative-reps", "zero-restarts", "repeated-freeze"])
def test_run_flags_get_the_manifest_checks(tmp_path, capsys, command, flags, key):
    # these values used to run (or fail a point later) from the command line,
    # while the same values in a manifest exit 2
    geometry = write_json(tmp_path / "h2.json", H2_GEOMETRY)
    out = tmp_path / "trace.csv"
    argv = [command, "--geometry", geometry, *flags]
    assert main(argv + (["--out", str(out)] if command == "trace" else [])) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and key in err
    assert not out.exists()


def test_atoms_too_far_apart_exit_2_with_one_line_and_no_warning(tmp_path, capsys):
    # beyond the separation bound the far atom's product centres round off its nucleus:
    # 1e152 Bohr gave e_fci -0.15856 Ha with exit 0, 1e154 numpy overflow warnings, and
    # 1e300 overflows the squared separation; each is refused before any integral
    for z, shown in ((3.16e19, "3.16e+19"), (1e152, "1e+152"), (1e154, "1e+154"),
                     (1e300, "1e+300")):
        far = {"symbol": "H", "xyz_bohr": [0.0, 0.0, z]}
        geometry = write_json(tmp_path / "geometry.json",
                              {**H2_GEOMETRY, "atoms": [H2_GEOMETRY["atoms"][0], far]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fci", "--geometry", geometry]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: atoms 0 and 1 are {shown} Bohr apart, "
                                    "above the 1e+08 Bohr limit"]


@pytest.mark.parametrize("command, flag, out", [
    ("scan", "--manifest", True),
    ("fcidump-gen", "--geometry", True),
    ("vqe", "--geometry", False),
    ("fci", "--geometry", False),
    ("trace", "--geometry", True),
])
def test_malformed_json_exits_2_with_one_line(tmp_path, capsys, command, flag, out):
    path = tmp_path / "bad.json"
    path.write_text('{"label": ', encoding="utf-8")
    argv = [command, flag, str(path)] + (["--out", str(tmp_path / "o")] if out else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"error: {path} is not valid JSON")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flags", [
    ("fit", ["--curve"]),
    ("barrier", ["--curve"]),
    ("compare", ["--curve-a", "--curve-b"]),
    ("fci", ["--fcidump"]),
    ("vqe", ["--fcidump"]),
], ids=["fit", "barrier", "compare", "fci", "vqe"])
def test_input_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys, command, flags):
    path = tmp_path / "bad"
    path.write_bytes(b"label\xff\n")
    argv = [command] + [part for flag in flags for part in (flag, str(path))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"error: {path} is not UTF-8 text")


def test_scan_records_an_fcidump_that_is_not_utf8_as_a_failed_point(tmp_path, capsys):
    (tmp_path / "bad.fcidump").write_bytes(b"\xff &FCI NORB=2,NELEC=2,\n")
    with open(small_manifest(tmp_path), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["points"] = [{"label": "bad", "coordinate": 0.0, "fcidump": "bad.fcidump"},
                     h2_point("0.74", 0.74)]
    manifest = write_json(tmp_path / "manifest.json", doc)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--manifest", manifest, "--out", str(out), "--json"]) == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["n_points"] == 1 and summary["n_failed"] == 1
    assert "'bad' failed: FcidumpError" in captured.err and "not UTF-8 text" in captured.err
    rows = out.read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0.74,")


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_register_above_the_qubit_limit_exits_2_before_allocating(tmp_path, capsys, mode):
    # 20 orbitals and 2 electrons: the hardware-efficient circuit runs on the
    # 40-qubit register, 16 TiB of amplitudes
    n = 20
    integrals = MolecularIntegrals(n, 2, 0.5, np.diag(np.linspace(-1.0, 1.0, n)),
                                   np.zeros((n,) * 4))
    path = tmp_path / "wide.fcidump"
    path.write_text(write_fcidump(integrals))
    tracemalloc.start()
    try:
        code = main(["vqe", "--fcidump", str(path), "--ansatz", "hardware", "--mode", mode,
                     "--optimizer", "spsa", "--restarts", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "40 qubits exceeds the 24-qubit limit" in err
    assert peak < 16 << 20


def test_scan_records_a_malformed_geometry_as_a_failed_point(tmp_path, capsys):
    manifest = small_manifest(tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["points"][0]["geometry"]["atoms"][0]["xyz_bohr"] = [0.0, 0.0]
    write_json(tmp_path / "manifest.json", doc)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--manifest", manifest, "--out", str(out), "--json"]) == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["n_points"] == 1 and summary["n_failed"] == 1
    assert "'0.70' failed" in captured.err and "3 numbers" in captured.err
    rows = out.read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0.78,")


def test_vqe_single_point_geometry(tmp_path, capsys):
    geometry = write_json(tmp_path / "h2.json", H2_GEOMETRY)
    assert main(["vqe", "--geometry", geometry, "--json", *FAST_VQE]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["e_vqe"] - summary["e_fci"]) < 1.6e-3
    assert summary["n_pauli_terms"] > 0


def test_vqe_requires_exactly_one_source(capsys):
    assert main(["vqe"]) == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options",
    [["--mode", "sampled", "--optimizer", "spsa", "--restarts", "1"],
     ["--restarts", "2"]],
    ids=["sampled", "exact-restarts"],
)
def test_negative_seed_exits_2_with_one_line(tmp_path, capsys, options):
    geometry = write_json(tmp_path / "h2.json", H2_GEOMETRY)
    argv = ["vqe", "--geometry", geometry, "--seed", "-1", "--max-iterations", "5", *options]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "seed" in err


def test_seed_of_2_63_exits_2_with_one_line(tmp_path, capsys):
    geometry = write_json(tmp_path / "h2.json", H2_GEOMETRY)
    argv = ["vqe", "--geometry", geometry, "--mode", "sampled", "--seed", str(2**63)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "seed must be < 2**63" in err


def test_nan_threshold_exits_2_with_one_line(tmp_path, capsys):
    geometry = write_json(tmp_path / "h2.json", H2_GEOMETRY)
    assert main(["vqe", "--geometry", geometry, "--threshold", "nan"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "convergence_threshold" in err


def test_oversized_compiled_form_exits_2_before_allocating(tmp_path, capsys):
    # H9+ chain: 18 qubits, 821 x-masks, a 5.5 GiB compiled form; the
    # hardware-efficient circuit's ry and cz gates run on views of the register and
    # hold no table of a row each; the objective's guard on tables and form refuses it
    doc = {"atoms": [{"symbol": "H", "xyz_bohr": [0.0, 0.0, 1.8 * i]} for i in range(9)],
           "charge": 1}
    geometry = write_json(tmp_path / "h9.json", doc)
    tracemalloc.start()
    try:
        code = main(["vqe", "--geometry", geometry, "--ansatz", "hardware",
                     "--mode", "exact", "--restarts", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "compiled form of 821 x-masks on 18 qubits" in err
    assert peak < 1 << 28  # measurement grouping of the 4676 strings takes most of it


def test_scan_fit_compare_trace_roundtrip(tmp_path, capsys):
    manifest = small_manifest(tmp_path)
    out_a = tmp_path / "scan_a.csv"
    assert main(["scan", "--manifest", manifest, "--out", str(out_a), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_points"] == 2 and summary["n_failed"] == 0

    # fit needs >= 4 points; the 2-point curve must error out cleanly
    assert main(["fit", "--curve", str(out_a)]) == 2
    assert "4 points" in capsys.readouterr().err

    # compare the curve against itself: zero shift
    assert main([
        "compare", "--curve-a", str(out_a), "--curve-b", str(out_a),
        "--out", str(tmp_path / "cmp.csv"), "--json",
    ]) == 0
    cmp_summary = json.loads(capsys.readouterr().out)
    assert cmp_summary["mean_shift"] == 0.0
    assert (tmp_path / "cmp.csv").read_text().startswith("label,e_a,e_b,delta")

    geometry = write_json(tmp_path / "h2.json", H2_GEOMETRY)
    trace_out = tmp_path / "trace.csv"
    assert main(["trace", "--geometry", geometry, "--out", str(trace_out),
                 "--json", *FAST_VQE]) == 0
    trace_summary = json.loads(capsys.readouterr().out)
    lines = trace_out.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,best_energy"
    assert len(lines) == trace_summary["n_iterations"] + 1


def test_one_point_manifest_then_fit_errors(tmp_path, capsys):
    doc = {
        "label": "single",
        "ansatz": "uccsd",
        "mode": "exact",
        "optimizer": {"kind": "simplex", "max_iterations": 150,
                      "convergence_threshold": 1e-8, "seed": 0},
        "restarts": 1,
        "points": [h2_point("0.74", 0.74)],
    }
    manifest = write_json(tmp_path / "single.json", doc)
    out = tmp_path / "single.csv"
    assert main(["scan", "--manifest", manifest, "--out", str(out)]) == 0
    assert main(["fit", "--curve", str(out)]) == 2
    assert "points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt, key",
    [
        (lambda doc: doc["optimizer"].update(learning_rate=0.1), "learning_rate"),
        (lambda doc: doc["points"][0].pop("label"), "label"),
        (lambda doc: doc.update(restarts=0), "restarts"),
        (lambda doc: doc.update(shots=0), "shots"),
        (lambda doc: doc.update(ansatz="hardware", reps=-1), "reps"),
        (lambda doc: doc.update(freeze=["core"]), "freeze"),
        (lambda doc: doc["points"][0].update(coordinate="short"), "coordinate"),
        (lambda doc: doc.update(optimizer=5), "optimizer"),
        (lambda doc: doc.update(points="0.70"), "points"),
        (lambda doc: doc.update(reps="one"), "reps"),
        (lambda doc: doc.update(shots=[1024]), "shots"),
        (lambda doc: doc.update(seed="seven"), "seed"),
        (lambda doc: doc.update(restarts={"n": 1}), "restarts"),
        (lambda doc: doc["optimizer"].update(max_iterations="many"), "max_iterations"),
        (lambda doc: doc.update(points=["0.70"]), "must be an object"),
        (lambda doc: doc.update(freeze=0), "freeze"),
        (lambda doc: doc.update(shots=2.5), "shots"),
        (lambda doc: doc.update(ansatz="hardware", reps=1.9), "reps"),
        (lambda doc: doc.update(restarts=1.5), "restarts"),
        (lambda doc: doc.update(seed=True), "seed"),
        (lambda doc: doc["optimizer"].update(max_iterations=2.5), "max_iterations"),
        (lambda doc: doc["optimizer"].update(kind="spsa", spsa_window=2.5), "spsa_window"),
        (lambda doc: doc["optimizer"].update(kind="spsa", spsa_window=0), "spsa_window"),
        (lambda doc: doc.update(freeze=[True]), "freeze"),
        (lambda doc: doc["optimizer"].update(spsa_a=1.0), "spsa_a"),
        (lambda doc: doc.update(freeze=[0, 0]), "freeze"),
        (lambda doc: doc["optimizer"].update(max_iterations=True), "max_iterations"),
        (lambda doc: doc["optimizer"].update(convergence_threshold=float("nan")),
         "convergence_threshold"),
        (lambda doc: doc["optimizer"].update(simplex_xtol=float("inf")), "simplex_xtol"),
        (lambda doc: doc["points"][0].update(coordinate=True), "coordinate"),
        (lambda doc: doc["optimizer"].update(convergence_threshold=True),
         "convergence_threshold"),
        (lambda doc: doc["optimizer"].update(simplex_xtol=True), "simplex_xtol"),
        (lambda doc: doc["points"][0].update(coordinate=float("nan")), "coordinate"),
        (lambda doc: doc.update(restart=1), "manifest has unknown keys ['restart']"),
        (lambda doc: doc["points"][0].update(fcidmp="h2.fcidump"),
         "point 0 has unknown keys ['fcidmp']"),
        (lambda doc: doc.update(points=[{"label": "a", "fcidump": 5}]), "fcidump"),
        # written to the scan CSV, a comma or line break would split its row, and a lone
        # surrogate cannot be encoded for the point's seed
        (lambda doc: doc["points"][0].update(label="a,b"), "label 'a,b'"),
        (lambda doc: doc["points"][0].update(label="c\nd"), "label 'c\\nd'"),
        (lambda doc: doc["points"][0].update(label="e\u2028f"), "label 'e\\u2028f'"),
        (lambda doc: doc["points"][0].update(label="\ud800"), "label '\\ud800'"),
    ],
    ids=["unknown-optimizer-key", "point-without-label", "zero-restarts", "zero-shots",
         "negative-reps", "non-integer-freeze", "non-numeric-coordinate",
         "non-object-optimizer", "string-points", "non-numeric-reps", "non-numeric-shots",
         "non-numeric-seed", "non-numeric-restarts", "non-numeric-optimizer-value",
         "non-object-point", "non-list-freeze", "fractional-shots", "fractional-reps",
         "fractional-restarts", "boolean-seed", "fractional-max-iterations",
         "fractional-spsa-window", "zero-spsa-window", "boolean-freeze",
         "dropped-spsa-gain", "duplicate-freeze", "boolean-max-iterations",
         "nan-threshold", "infinite-xtol", "boolean-coordinate", "boolean-threshold",
         "boolean-xtol", "nan-coordinate", "unknown-manifest-key", "unknown-point-key",
         "non-string-fcidump", "comma-label", "newline-label",
         "line-separator-label", "surrogate-label"],
)
def test_malformed_manifest_rejected_up_front(tmp_path, capsys, corrupt, key):
    manifest = small_manifest(tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    corrupt(doc)
    write_json(tmp_path / "manifest.json", doc)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--manifest", manifest, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err and "scan points failed" not in err
    assert not out.exists()


def test_fit_on_synthetic_curve(tmp_path, capsys):
    points = [
        PesPoint(f"{r:.2f}", r, (r - 0.74) ** 2 - 1.1, (r - 0.74) ** 2 - 1.1, 0.0, 5, 2)
        for r in (0.70, 0.72, 0.74, 0.76, 0.78)
    ]
    curve = tmp_path / "curve.csv"
    curve.write_text(scan_csv(points))
    assert main(["fit", "--curve", str(curve), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["equilibrium_coordinate"] - 0.74) < 1e-10


def test_barrier_on_synthetic_curve(tmp_path, capsys):
    def curve_fn(x):
        return 0.5 - x * x if abs(x) <= 0.5 else (abs(x) - 1.0) ** 2

    points = [
        PesPoint(f"{x:+.2f}", x, curve_fn(x), curve_fn(x), 0.0, 5, 2)
        for x in np.arange(-1.5, 1.55, 0.25)
    ]
    curve = tmp_path / "barrier.csv"
    curve.write_text(scan_csv(points))
    assert main(["barrier", "--curve", str(curve), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["activation_kcal_mol"] - 0.5 * 627.509474) < 1e-6


def parabola_rows():
    points = [PesPoint(f"{r:.2f}", r, (r - 0.74) ** 2 - 1.1, (r - 0.74) ** 2 - 1.1, 0.0, 5, 2)
              for r in (0.70, 0.72, 0.74, 0.76, 0.78)]
    return scan_csv(points).splitlines()


@pytest.mark.parametrize("command", ["fit", "barrier", "compare"])
@pytest.mark.parametrize("row, key", [
    ("0.72,0.72,-1.0984", "line 3: 3 fields"),
    ("0.72,0.72,low,-1.0984,0.0,5,2", "line 3: could not convert"),
    ("0.72,0.72,nan,-1.0984,0.0,5,2", "line 3: non-finite"),
], ids=["short-row", "non-numeric-energy", "nan-energy"])
def test_malformed_scan_csv_exits_2_with_one_line(tmp_path, capsys, command, row, key):
    rows = parabola_rows()
    rows[2] = row
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_text("\n".join(rows) + "\n")
    good.write_text("\n".join(parabola_rows()) + "\n")
    curves = (["--curve-a", str(bad), "--curve-b", str(good)] if command == "compare"
              else ["--curve", str(bad)])
    assert main([command, *curves]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and key in err


@pytest.mark.parametrize("command, energies", [
    ("fit", [-1.0, -1.1, -1.0, -1.0, -1.0]),
    ("barrier", [-1.1, -1.0, -1.1, -1.1, -1.1]),
])
def test_repeated_coordinates_exit_2_with_one_line(tmp_path, capsys, command, energies):
    curve = tmp_path / "curve.csv"
    curve.write_text(scan_csv([PesPoint(f"p{i}", 0.74, e, e, 0.0, 5, 2)
                               for i, e in enumerate(energies)]))
    assert main([command, "--curve", str(curve)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "repeats a coordinate" in err


@pytest.mark.parametrize("command", ["fit", "barrier"])
@pytest.mark.parametrize("coords, energies", [
    ([1e200, 2e200, 3e200, 4e200, 5e200], [1.0, 0.5, 0.0, 0.5, 1.0]),
    ([0.5, 1.0, 1.5, 2.0, 2.5], [1e307, -1e307, -1.5e307, 1e307, 1.7e308]),
    ([0.5, 1e-300, 2e-300, 3e-300, 4e-300], [1.0, 0.5, 0.0, 0.5, 1.0]),
    ([-1.5e308, -1e308, 0.0, 1e308, 1.5e308], [1.0, 0.6, 0.5, 0.0, 1.0]),
], ids=["huge-coordinates", "huge-energies", "tiny-coordinates", "huge-span"])
def test_ill_conditioned_fit_window_exits_2_with_one_line_and_no_warning(
        tmp_path, capfd, command, coords, energies):
    # the cubic fit overflows, fails in np.roots or loses rank, or the window's distances
    # overflow: each was a traceback, LAPACK lines or a warning; a barrier scan runs the
    # well upside down
    sign = 1.0 if command == "fit" else -1.0
    curve = tmp_path / "curve.csv"
    curve.write_text(scan_csv([PesPoint(f"p{i}", r, sign * e, sign * e, 0.0, 5, 2)
                               for i, (r, e) in enumerate(zip(coords, energies))]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--curve", str(curve)]) == 2
    assert caught == []
    out, err = capfd.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def run_cli(argv):
    """(exit code, stdout, stderr, warnings) of ``main(argv)`` run in process."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def strict_json(text: str):
    """``text`` parsed as JSON proper: NaN, Infinity and -Infinity are refused."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def curve_csv(rows) -> str:
    """A scan CSV of (coordinate, energy) rows, the energy in both energy columns."""
    return scan_csv([PesPoint(f"p{i}", r, e, e, 0.0, 5, 2) for i, (r, e) in enumerate(rows)])


# finite energies whose difference overflows: each command printed Infinity or NaN
# as JSON and exited 0, compare with a numpy RuntimeWarning
OVERFLOW_COMPARE = ([(1.0, 1.5e308), (2.0, -1.5e308)], [(1.0, -1.5e308), (2.0, 1.5e308)])
OVERFLOW_BARRIER = list(zip(range(1, 8), [-1e306, 0.0, 5e305, 1e306, 5e305, -2e306, -1.7e308]))
OVERFLOW_FIT = list(zip(range(1, 6), [1e305, -1e305, -1.5e305, -1e305, 1.7e308]))


@pytest.mark.parametrize("command, curves, code", [
    ("compare", OVERFLOW_COMPARE, 2),
    ("barrier", (OVERFLOW_BARRIER,), 2),
    ("fit", (OVERFLOW_FIT,), 0),
])
def test_overflowing_energy_difference_prints_no_non_finite_number(tmp_path, command, curves,
                                                                   code):
    paths = []
    for n, rows in enumerate(curves):
        paths.append(tmp_path / f"curve{n}.csv")
        paths[-1].write_text(curve_csv(rows))
    out = tmp_path / "compare.csv"
    flags = (["--curve-a", str(paths[0]), "--curve-b", str(paths[1]), "--out", str(out)]
             if command == "compare" else ["--curve", str(paths[0])])
    exit_code, stdout, stderr, caught = run_cli([command, *flags, "--json"])
    assert (exit_code, caught) == (code, [])
    if code == 2:
        assert stdout == "" and len(stderr.splitlines()) == 1 and "finite" in stderr
        assert not out.exists()
    else:  # fit reports the well depth's failure in its summary
        summary = strict_json(stdout)
        assert "finite" in summary["dissociation_error"]
        assert "dissociation_kcal_mol" not in summary


def numbers(small, wide: bool):
    """``small`` floats, or with ``wide`` any float too, the ends of the range likelier."""
    if not wide:
        return small
    return st.one_of(small, st.floats(), st.sampled_from([1.7e308, -1.7e308, 1e-308]))


def geometry_docs(wide):
    atoms = st.lists(st.lists(numbers(st.floats(-4.0, 4.0), wide), min_size=3, max_size=3),
                     max_size=4)
    symbols = st.sampled_from(["H", "H", "H", "He"])
    return st.builds(lambda xyz, symbol, charge: {
        "atoms": [{"symbol": "H" if n else symbol, "xyz_bohr": p} for n, p in enumerate(xyz)],
        "charge": charge}, atoms, symbols, st.integers(-2, 2))


@st.composite
def fcidump_texts(draw, wide):
    n = draw(st.integers(1, 4))
    orbital = st.integers(1, n)
    entry = st.one_of(st.tuples(orbital, orbital, orbital, orbital),  # (ij|kl), h_ij, constant
                      st.tuples(orbital, orbital, st.just(0), st.just(0)), st.just((0, 0, 0, 0)))
    entries = draw(st.lists(st.tuples(numbers(st.floats(-2.0, 2.0), wide), entry), max_size=12))
    body = "".join(f"{v!r} {i} {j} {k} {l}\n" for v, (i, j, k, l) in entries)
    return f" &FCI NORB={n},NELEC={draw(st.integers(1, 2 * n))},MS2=0,\n &END\n{body}"


FREEZE = st.just([]) | st.lists(st.integers(-1, 4), max_size=2)


def settings_of(wide):
    """Optional run settings, keyed as in a manifest."""
    return st.fixed_dictionaries({}, optional={
        "ansatz": st.sampled_from(["uccsd", "hardware"]),
        "kind": st.sampled_from(["simplex", "spsa"]),
        "mode": st.sampled_from(["exact", "sampled"]), "shots": st.integers(1, 64),
        "reps": st.integers(0, 2), "seed": st.integers(0, 2**63 - 1),
        "convergence_threshold": numbers(st.floats(1e-9, 1e-3), wide)})


@st.composite
def curve_rows(draw, n, wide, sign=1.0):
    """``n`` (coordinate, energy) rows, at random or on a parabola of the curvature's
    ``sign``, whose vertex a fit (+1) or a barrier (-1) can find."""
    small = numbers(st.floats(-2.0, 2.0), wide)
    coords = draw(st.lists(numbers(st.floats(0.0, 5.0), wide), min_size=n, max_size=n,
                           unique=True))
    if draw(st.booleans()):
        return list(zip(coords, draw(st.lists(small, min_size=n, max_size=n))))
    curvature = sign * abs(draw(small))
    vertex, offset = draw(numbers(st.floats(0.5, 4.5), wide)), draw(small)
    # Python floats overflow to inf quietly; the CSV reader refuses a non-finite energy
    return [(x, curvature * (x - vertex) * (x - vertex) + offset) for x in coords]


@st.composite
def cli_cases(draw):
    """(argv, files): a command line whose ``@name`` arguments name files in one
    directory, and the text of each of those files. The runs are capped at 5
    iterations and one restart, so each takes milliseconds."""
    wide = draw(st.booleans())
    command = draw(st.sampled_from(["fcidump-gen", "vqe", "fci", "scan", "fit", "barrier",
                                    "compare", "trace"]))
    files, argv = {}, [command]
    if command in ("fit", "barrier", "compare"):
        n = draw(st.integers(0 if command == "compare" else 3, 7))
        sign = -1.0 if command == "barrier" else 1.0
        files["a.csv"] = curve_csv(draw(curve_rows(n, wide, sign)))
        argv += ["--curve-a", "@a.csv"] if command == "compare" else ["--curve", "@a.csv"]
        if command == "compare":
            files["b.csv"] = curve_csv(draw(curve_rows(draw(st.sampled_from([n, n, 2])), wide)))
            argv += ["--curve-b", "@b.csv", "--out", "@compare.csv"]
        argv += draw(st.sampled_from([[], ["--column", "e_fci"]]))
    elif command == "scan":
        point = st.one_of(st.fixed_dictionaries({"geometry": geometry_docs(wide)}),
                          st.just({"fcidump": "h.fcidump"}))
        points = draw(st.lists(point, max_size=2))
        files["h.fcidump"] = draw(fcidump_texts(wide))
        run = draw(settings_of(wide))
        optimizer = {k: run.pop(k) for k in ("kind", "seed", "convergence_threshold")
                     if k in run}
        files["m.json"] = json.dumps({
            **run, "restarts": 1, "freeze": draw(FREEZE),
            "optimizer": {**optimizer, "max_iterations": draw(st.integers(1, 5))},
            "points": [{"label": f"p{i}", "coordinate": draw(
                numbers(st.floats(0.0, 5.0), wide)), **p} for i, p in enumerate(points)]})
        argv += ["--manifest", "@m.json", "--out", "@scan.csv"]
    else:
        source = "geometry" if command == "fcidump-gen" else draw(
            st.sampled_from(["geometry", "fcidump"]))
        name = "g.json" if source == "geometry" else "h.fcidump"
        files[name] = (json.dumps(draw(geometry_docs(wide))) if source == "geometry"
                       else draw(fcidump_texts(wide)))
        argv += [f"--{source}", f"@{name}"]
        if command != "fcidump-gen":
            argv += ["--freeze", *map(str, draw(FREEZE))]
        if command in ("vqe", "trace"):
            flag = {"kind": "optimizer", "convergence_threshold": "threshold"}
            argv += [f"--{flag.get(k, k)}={v}" for k, v in draw(settings_of(wide)).items()]
            argv += ["--restarts=1", f"--max-iterations={draw(st.integers(1, 5))}"]
        if command not in ("vqe", "fci"):
            argv += ["--out", "@out"]
    return argv + draw(st.sampled_from([["--json"], []])), files


@settings(max_examples=300)
@given(cli_cases())
@example((["compare", "--curve-a", "@a.csv", "--curve-b", "@b.csv", "--json"],
          {"a.csv": curve_csv(OVERFLOW_COMPARE[0]), "b.csv": curve_csv(OVERFLOW_COMPARE[1])}))
@example((["barrier", "--curve", "@a.csv", "--json"], {"a.csv": curve_csv(OVERFLOW_BARRIER)}))
@example((["fit", "--curve", "@a.csv", "--json"], {"a.csv": curve_csv(OVERFLOW_FIT)}))
# printed e_fci -Infinity and residual_norm NaN after three numpy warnings, exit 0
@example((["fci", "--fcidump", "@h.fcidump", "--json"],
          {"h.fcidump": " &FCI NORB=1,NELEC=2,MS2=0,\n &END\n-1.7e+308 1 1 0 0\n"}))
def test_every_command_exits_0_or_2_with_one_line_and_strict_json(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as root:
        for name, text in files.items():
            with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        code, stdout, stderr, caught = run_cli(
            [os.path.join(root, a[1:]) if a.startswith("@") else a for a in argv])
    assert caught == []
    assert code in (0, 2)
    if code == 2:
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error: "), stderr
    elif "--json" in argv:
        strict_json(stdout)


def test_scan_outputs_byte_identical(tmp_path):
    manifest = small_manifest(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", "--manifest", manifest, "--out", str(out1)]) == 0
    assert main(["scan", "--manifest", manifest, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def child_env() -> dict:
    """The environment of a child that imports the same package as this test,
    installed or not."""
    src = os.path.dirname(os.path.dirname(vqechem.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_cli_entry_point_subprocess(tmp_path):
    geometry = tmp_path / "h2.json"
    geometry.write_text(json.dumps(H2_GEOMETRY))
    result = subprocess.run(
        [sys.executable, "-m", "vqechem.cli", "fci",
         "--geometry", str(geometry), "--json"],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert result.returncode == 0
    assert "e_fci" in json.loads(result.stdout)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random loads on the first seeded draw, not with the package
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, vqechem; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "False"
